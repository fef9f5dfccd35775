"""Outside-in layer tracing for the benchmark.

The program has no span model of its own, so this module times calls *into*
each layer's public functions from outside: :func:`install` replaces every
binding of those functions (module attributes, including names a caller
imported with ``from ... import``, and class attributes for methods) with a
thin wrapper that records a span.  Nothing under ``src/`` changes.

A span's *self time* is its duration minus the durations of the spans nested
inside it, so self times of all layers add up to the root span's wall time;
the root (``verify.session``) keeps only the time no wrapped layer claimed,
which the benchmark reports as ``verify.session.unattributed_s``.

Forked pool workers inherit the wrappers, because :mod:`repro.core.parallel`
imports ``check_node``/``check_class`` from :mod:`repro.core.checker` lazily,
after the patch.  A worker cannot return its spans through the pool, so after
every batch it rewrites ``worker-<pid>.json`` in the span directory with its
running totals; the parent folds those files in after each timed call and
refuses to go on when a batch it dispatched has no span
(:meth:`Tracer.collect_workers`).  Workers leave through ``os._exit``, which
skips ``atexit`` hooks, hence the write after every batch rather than at exit.

An entry point the program no longer has (a later refactor may fold
``check_node`` into ``check_class``, for one) is listed in
:attr:`Tracer.missing` instead of failing the run; its time then shows up in
the enclosing layer or in ``verify.session.unattributed_s``.

cProfile is deliberately not used: it inflates a cold k=8 fattree run about
fourfold and overweights layers made of many small calls.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

# Counter names that the SAT core's process-wide statistics provide.
SAT_COUNTERS = ("conflicts", "decisions", "propagations", "checks")


def sat_counters() -> dict[str, int]:
    """The SAT core's process-wide counters (none if the program dropped them)."""
    try:
        from repro.smt.solver import GLOBAL_STATISTICS
    except ImportError:
        return {}
    return {name: getattr(GLOBAL_STATISTICS, name) for name in SAT_COUNTERS}


def subtract(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


class Tracer:
    """Span totals of one process: self seconds and call counts per layer.

    The wrapper factories (:meth:`timed`, :meth:`batch`, ...) close over the
    tracer, so every span a wrapped function records lands here.
    """

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Open spans: [layer, start, seconds covered by child spans].
        self.stack: list[list[Any]] = []
        self.tseitin_depth = 0
        self.worker = False
        self.sat_baseline: dict[str, int] = {}
        self.missing: list[str] = []

    def enter(self, layer: str) -> list[Any]:
        if os.getpid() != self.pid:
            self._become_worker()
        frame = [layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list[Any]) -> float:
        duration = time.perf_counter() - frame[1]
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order (top was {popped[0]})")
        self.self_s[frame[0]] += duration - frame[2]
        self.calls[frame[0]] += 1
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span around code the benchmark itself runs."""
        frame = self.enter(layer)
        try:
            yield
        finally:
            self.exit(frame)

    def _become_worker(self) -> None:
        """First span in a forked worker: drop the totals inherited from the parent."""
        self.pid = os.getpid()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.stack.clear()
        self.tseitin_depth = 0
        self.worker = True
        self.sat_baseline = sat_counters()

    def dump_worker(self) -> None:
        """Rewrite this worker's running totals (atomically) for the parent."""
        document = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "sat": subtract(sat_counters(), self.sat_baseline),
        }
        path = os.path.join(self.span_dir, f"worker-{self.pid}.json")
        temporary = path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(temporary, path)

    # Wrapper factories -------------------------------------------------

    def timed(self, layer: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.exit(frame)

        return wrapper

    def outermost(self, layer: str, function: Callable) -> Callable:
        """Time only the outermost call of a self-recursive method."""

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.tseitin_depth:
                return function(*args, **kwargs)
            self.tseitin_depth += 1
            frame = self.enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.exit(frame)
                self.tseitin_depth -= 1

        return wrapper

    def batch(self, layer: str, function: Callable) -> Callable:
        """A check batch (``check_node``/``check_class``); workers publish after each."""

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                duration = self.exit(frame)
                self.counts["batches"] += 1
                if self.worker and not self.stack:
                    self.counts["worker_busy_ns"] += int(duration * 1e9)
                    self.dump_worker()

        return wrapper

    def dispatch(self, layer: str, function: Callable) -> Callable:
        """A parallel batch stream: one span from first batch request to close."""

        @functools.wraps(function)
        def wrapper(annotated: Any, items: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = function(annotated, items, *args, **kwargs)

            def spanned() -> Iterator[Any]:
                # Every node, or every class, becomes at least one check batch;
                # batches the dispatcher runs in this process (its sequential
                # fallback) are counted here, the rest must arrive from workers.
                self.counts["dispatched"] += len(items)
                inline_before = self.counts["batches"]
                frame = self.enter(layer)
                try:
                    yield from inner
                finally:
                    inner.close()
                    self.counts["dispatch_wall_ns"] += int(self.exit(frame) * 1e9)
                    self.counts["dispatched_inline"] += self.counts["batches"] - inline_before

            return spanned()

        return wrapper

    def counted(
        self, counter: str, function: Callable, amount: Callable[..., int] = lambda *_: 1
    ) -> Callable:
        """Add ``amount(*args)`` to a counter on every call (no span)."""

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counts[counter] += amount(*args)
            return function(*args, **kwargs)

        return wrapper

    def store_save(self, function: Callable) -> Callable:
        """``DeltaStore.save`` also counts the bytes of every store it writes."""

        @functools.wraps(function)
        def wrapper(store: Any) -> Any:
            dirty = store.dirty
            result = function(store)
            if dirty:
                self.counts["store_bytes"] += os.path.getsize(store.path)
            return result

        return wrapper

    # Worker totals -----------------------------------------------------

    def collect_workers(self, since: dict[str, int]) -> dict[str, Any]:
        """Fold every worker's published totals into this process's totals.

        ``since`` is a copy of :attr:`counts` taken before the call.  Every
        node or class dispatched since then must be accounted for by a batch a
        worker reported (or one the dispatcher ran in this process); otherwise
        spans were lost and the traced run is refused.
        """
        dispatched = self.counts["dispatched"] - since.get("dispatched", 0)
        inline = self.counts["dispatched_inline"] - since.get("dispatched_inline", 0)
        busy = 0.0
        batches = 0
        workers = 0
        sat: dict[str, int] = defaultdict(int)
        for path in sorted(glob.glob(os.path.join(self.span_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            os.unlink(path)
            workers += 1
            for layer, seconds in document["self_s"].items():
                self.self_s[layer] += seconds
            for layer, calls in document["calls"].items():
                self.calls[layer] += calls
            counts = document["counts"]
            busy += counts.pop("worker_busy_ns", 0) / 1e9
            batches += counts.pop("batches", 0)
            for name, value in counts.items():
                self.counts[name] += value
            for name, value in document["sat"].items():
                sat[name] += value
        if batches + inline < dispatched:
            raise RuntimeError(
                f"worker spans lost: {dispatched} nodes or classes dispatched, but only "
                f"{batches} batches reported by {workers} worker files and {inline} run inline"
            )
        return {"workers": workers, "busy_s": busy, "batches": batches, "sat": dict(sat)}


def _rebind_everywhere(original: Any, replacement: Any) -> int:
    """Replace every module-level binding of ``original`` in the ``repro`` package."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                bound += 1
    return bound


def _lookup(module_name: str, name: str) -> Any:
    try:
        return getattr(importlib.import_module(module_name), name, None)
    except ImportError:
        return None


def install(span_dir: str) -> Tracer:
    """Wrap every traced entry point and return the process tracer.

    Imports every module that binds a traced function first, so that the
    rebinding sees each binding.  Entry points that no longer exist, or that
    nothing binds, are recorded in :attr:`Tracer.missing`.
    """
    active = Tracer(span_dir)
    # Functions: (module, name, wrap).  Rebinding also covers every module
    # that imported the name, such as ``verify.session`` for the
    # fingerprint and partition functions.
    functions: list[tuple[str, str, Callable[[Callable], Callable]]] = [
        ("repro.networks.registry", "build", lambda f: active.timed("networks", f)),
        ("repro.core.conditions", "node_conditions", lambda f: active.timed("core.conditions", f)),
        (
            "repro.core.conditions",
            "canonical_node_conditions",
            lambda f: active.timed("core.conditions", f),
        ),
        (
            "repro.core.symmetry",
            "partition_nodes",
            lambda f: active.timed("core.symmetry.partition", f),
        ),
        (
            "repro.core.symmetry",
            "translate_counterexample",
            lambda f: active.timed("core.symmetry.translate", f),
        ),
        (
            "repro.core.fingerprint",
            "dependency_fingerprints",
            lambda f: active.counted(
                "fingerprint_nodes",
                active.timed("core.fingerprint", f),
                lambda annotated, nodes, *_: len(nodes),
            ),
        ),
        (
            "repro.core.fingerprint",
            "node_condition_fingerprints",
            lambda f: active.counted("fingerprint_nodes", active.timed("core.fingerprint", f)),
        ),
        (
            "repro.core.fingerprint",
            "network_fingerprint",
            lambda f: active.timed("core.fingerprint", f),
        ),
        ("repro.smt", "prove", lambda f: active.timed("smt.incremental", f)),
        ("repro.core.checker", "check_node", lambda f: active.batch("core.checker", f)),
        ("repro.core.checker", "check_class", lambda f: active.batch("core.checker", f)),
        (
            "repro.core.parallel",
            "iter_node_batches",
            lambda f: active.dispatch("core.parallel", f),
        ),
        (
            "repro.core.parallel",
            "iter_class_batches",
            lambda f: active.dispatch("core.parallel", f),
        ),
    ]
    # Methods: (module, class, name, wrap).  Wrappers receive the raw
    # class-dict entry (a classmethod object for ``DeltaStore.open``).
    methods: list[tuple[str, str, str, Callable[[Any], Any]]] = [
        (
            "repro.verify.store",
            "DeltaStore",
            "open",
            lambda f: classmethod(active.timed("verify.store.open", f.__func__)),
        ),
        (
            "repro.verify.store",
            "DeltaStore",
            "save",
            lambda f: active.store_save(active.timed("verify.store.save", f)),
        ),
        ("repro.smt.bitblast", "BitBlaster", "blast", lambda f: active.timed("smt.bitblast", f)),
        (
            "repro.smt.tseitin",
            "TseitinEncoder",
            "literal_for",
            lambda f: active.outermost("smt.tseitin", f),
        ),
        (
            "repro.smt.incremental",
            "IncrementalSolver",
            "check",
            lambda f: active.timed("smt.incremental", f),
        ),
        ("repro.smt.sat.solver", "CdclSolver", "solve", lambda f: active.timed("smt.sat", f)),
        (
            "repro.smt.sat.solver",
            "CdclSolver",
            "add_clause_unchecked",
            lambda f: active.counted("clauses_shipped", f),
        ),
        (
            "repro.core.conditions",
            "VerificationCondition",
            "check",
            lambda f: active.timed("core.counterexample", f),
        ),
    ]
    # ``verify.session`` binds the fingerprint and partition functions by name.
    importlib.import_module("repro.verify.session")
    originals = [(_lookup(module, name), module, name, wrap) for module, name, wrap in functions]
    for original, module, name, wrap in originals:
        if original is None or _rebind_everywhere(original, wrap(original)) == 0:
            active.missing.append(f"{module}.{name}")
    for module, owner_name, name, wrap in methods:
        owner = _lookup(module, owner_name)
        if owner is None or name not in vars(owner):
            active.missing.append(f"{module}.{owner_name}.{name}")
            continue
        setattr(owner, name, wrap(vars(owner)[name]))
    return active
