"""Streaming process-pool execution of per-class checks.

Class checks share no state, so they parallelise trivially.  The work unit
is a symmetry class (:mod:`repro.core.symmetry`) — with ``symmetry="off"``
every class is a singleton, so a work item is one node.  Annotated networks
hold closures (transfer functions, interfaces) that are not picklable in
general, so instead of shipping the network to worker processes we rely on
``fork``: the annotated network and the partition are stashed in a
module-level slot before the pool is created, every forked worker inherits
them, and only a class index travels over the queue.  The returned
:class:`NodeReport` objects contain plain data and pickle fine.

Work items are dispatched **streamingly** rather than barrier-style:
:func:`iter_class_batches` is a generator that yields one
``(index, reports, cache_delta)`` batch the moment its worker finishes, in
completion order.  The caller re-sorts final reports to deterministic node
order by the submission index, so results are reproducible while progress
is live.

**Adaptive scheduling.**  The in-flight window per worker is adaptive
(:func:`_window_size`): with many more pending items than workers it grows
(up to :data:`MAX_WINDOW`) so cheap items don't serialise on dispatch
latency, and it shrinks back to one as the queue drains, so a consumer that
*closes* the iterator (run-level fail-fast, an abandoned stream) still stops
dispatch promptly — unsubmitted items are never started, the in-flight
remainder finishes and is discarded, and the pool's processes are reaped
before ``GeneratorExit`` propagates.  No worker is ever orphaned.  Classes also get
**work-stealing splits**: when there are fewer classes than requested
workers (the skewed partitions the destination quotient produces — a
handful of classes, one of them huge), the largest splittable classes are
split into one work item per requested condition kind, computed up front as
a deterministic plan (:func:`_class_work_items`); the stream re-merges each
split class's sub-results into a single batch with the exact results an
unsplit check would have produced (kind order, fail-fast truncation), so
report order, verdicts and ``stop_on_failure`` semantics are unchanged.
A :class:`SchedulerStats` instance passed by the caller records the window
histogram, the number of split (stolen) classes and the distinct worker
processes observed; the sequential degrade path records the same window
accounting the pool would have used, so ablation rows compare like with
like.

Each forked worker keeps its own per-process incremental SMT solver
(:func:`repro.smt.process_solver`), so the classes a worker checks share
encoded structure and learned clauses exactly as in sequential mode.
Because those per-worker counters are not observable from the parent, every
work item measures its own cache-counter delta (:func:`_check_item`) and
ships it home with the reports; the parent sums the deltas into the run's
``backend_cache`` aggregate.  The sequential fallback measures deltas the
same way, so degraded runs report identical statistics for identical
inputs.

One work item is one whole class, so a worker encodes one structural shape,
discharges it once, and propagates verdicts to the class members without
its caches ever being evicted by unrelated structure — batch-aware
partitioning in the sense of batch-parallel data structures.  Class work
items are dispatched in class order, which balances the (very uneven)
class sizes; the caller re-sorts member reports to node order.

On platforms without ``fork``, or when the pool itself cannot be set up, the
checker degrades to sequential execution with a :class:`RuntimeWarning` —
the results (reports *and* cache deltas) are identical, only the wall-clock
time differs.  Failures *inside* a worker (a crashing check, a keyboard
interrupt) propagate to the caller; masking them behind a silent sequential
rerun would hide real bugs.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import CONDITION_KINDS
from repro.core.results import NodeReport
from repro.core.symmetry import SymmetryClass
from repro.smt.incremental import (
    add_cache_statistics,
    process_cache_statistics,
    subtract_cache_statistics,
)

# The network being checked by the current pool; inherited by forked workers.
_ACTIVE_NETWORK: AnnotatedNetwork | None = None
_ACTIVE_OPTIONS: dict | None = None
_ACTIVE_CLASSES: Sequence[SymmetryClass] | None = None

#: One completed work item: the submission index (class position),
#: the member reports, and the worker's incremental-backend cache delta for
#: the item (``{}`` with ``incremental=False``).
Batch = tuple[int, list[NodeReport], dict[str, int]]

#: The largest per-worker prefetch window the adaptive dispatcher uses.
#: Bounded so closing a stream never leaves more than ``workers × MAX_WINDOW``
#: items to discard.
MAX_WINDOW = 4

#: The scheduler modes :func:`iter_class_batches` accepts: ``"adaptive"``
#: (adaptive window + work-stealing splits, the default) and ``"fixed"``
#: (one item per worker in flight, no splits — the pre-refactor behaviour,
#: kept as the ablation baseline).
SCHEDULER_MODES = ("adaptive", "fixed")


def _window_size(pending: int, processes: int) -> int:
    """The per-worker prefetch window for ``pending`` remaining work items.

    Grows with the per-worker backlog (⌈pending/processes⌉, capped at
    :data:`MAX_WINDOW`) so small/cheap items amortise dispatch latency, and
    decays to 1 as the queue drains so the tail keeps every worker busy and
    an early stop has almost nothing in flight to discard.
    """
    if processes <= 0:
        return 1
    return min(MAX_WINDOW, max(1, -(-pending // processes)))


@dataclass
class SchedulerStats:
    """Mutable scheduler counters, filled in while a batch stream is drained.

    ``classes_stolen`` counts classes split into per-kind work items;
    ``window`` histograms dispatches by the prefetch-window size in effect
    when each was submitted; ``worker_pids`` collects the distinct OS
    processes that produced class batches (the degraded sequential path
    contributes just the parent pid).
    """

    classes_stolen: int = 0
    window: dict[int, int] = field(default_factory=dict)
    worker_pids: set[int] = field(default_factory=set)

    def record_dispatch(self, window: int) -> None:
        self.window[window] = self.window.get(window, 0) + 1

    def as_dict(self) -> dict:
        """The ``ModularReport.scheduler`` projection."""
        return {
            "classes_stolen": self.classes_stolen,
            "window": {size: count for size, count in sorted(self.window.items())},
            "workers": len(self.worker_pids) if self.worker_pids else 1,
        }


#: One class-scheduler work item: ``(class_index, kinds)`` where ``kinds``
#: is ``None`` for a whole class or the single condition kind of a
#: work-stealing split.
ClassItem = tuple[int, "tuple[str, ...] | None"]


def _check_item(
    annotated: AnnotatedNetwork,
    classes: Sequence[SymmetryClass],
    options: dict,
    item: ClassItem,
) -> tuple[list[NodeReport], dict[str, int], int]:
    """Check one class work item and measure this process's cache-counter delta.

    The single definition of the batch delta protocol — used verbatim by the
    forked worker entry point and the sequential fallback, so both report
    identical ``backend_cache`` statistics for identical inputs.  Returns
    the member reports, the cache delta and the pid of the process that ran
    the item (the scheduler's evidence of how many processes did work).  A
    split item restricts the check to its condition-kind subset; the
    parent-side stream re-merges the subsets into whole-class batches.
    """
    from repro.core.checker import check_class

    index, kinds = item
    incremental = options["incremental"]
    before = process_cache_statistics() if incremental else {}
    reports = check_class(
        annotated,
        classes[index],
        delay=options["delay"],
        conditions=kinds if kinds is not None else options["conditions"],
        fail_fast=options["fail_fast"],
        incremental=incremental,
    )
    delta = (
        subtract_cache_statistics(process_cache_statistics(), before) if incremental else {}
    )
    return reports, delta, os.getpid()


def _worker_entry(item: ClassItem) -> tuple[list[NodeReport], dict[str, int], int]:
    """Worker entry point: check one class work item of the inherited network."""
    assert _ACTIVE_NETWORK is not None and _ACTIVE_OPTIONS is not None
    assert _ACTIVE_CLASSES is not None
    return _check_item(_ACTIVE_NETWORK, _ACTIVE_CLASSES, _ACTIVE_OPTIONS, item)


def _class_work_items(
    classes: Sequence[SymmetryClass],
    jobs: int,
    conditions: Sequence[str],
    scheduler: str,
    stats: SchedulerStats,
) -> list[ClassItem]:
    """The deterministic work-item plan for a class batch run.

    One item per class, except when the partition is *narrower than the
    requested worker count* (the destination quotient's skewed partitions:
    a handful of classes, some huge): then the largest still-whole classes
    are split into one item per requested condition kind — work-stealing at
    the granularity the engine can actually parallelise — until there are
    enough items to keep every worker busy or nothing splittable remains.
    Spot-check classes are never split (their extra member must be compared
    against the representative's full verdict vector in one place).  The
    plan depends only on ``(classes, jobs, conditions, scheduler)``, so the
    pool and sequential-degrade paths run identical work items.
    """
    items: list[ClassItem] = [(index, None) for index in range(len(classes))]
    if scheduler == "fixed" or jobs <= 1:
        return items
    kinds = tuple(kind for kind in CONDITION_KINDS if kind in set(conditions))
    if len(kinds) < 2:
        return items
    while len(items) < jobs:
        candidates = [
            position
            for position, (index, sub) in enumerate(items)
            if sub is None and classes[index].spot_member is None
        ]
        if not candidates:
            break
        # Largest class first; ties break to the earliest class so the plan
        # is deterministic.
        position = max(candidates, key=lambda p: (len(classes[items[p][0]]), -items[p][0]))
        index = items[position][0]
        items[position : position + 1] = [(index, (kind,)) for kind in kinds]
        stats.classes_stolen += 1
    return items


def _merge_split_class(
    per_kind: dict[str, tuple[list[NodeReport], dict[str, int]]],
    kinds: Sequence[str],
    fail_fast: bool,
) -> tuple[list[NodeReport], dict[str, int]]:
    """Re-assemble a split class's per-kind sub-results into one batch.

    Results are ordered by canonical kind order and, under ``fail_fast``,
    truncated at the first failing condition — exactly what an unsplit
    ``check_class`` produces (each kind's verdict is independent of the
    others, so discharging them in separate scopes changes no verdict).
    Durations sum; cache deltas sum.
    """
    members = [report.node for report in per_kind[kinds[0]][0]]
    merged: list[NodeReport] = []
    for position, node in enumerate(members):
        results = []
        duration = 0.0
        for kind in kinds:
            report = per_kind[kind][0][position]
            duration += report.duration
            results.extend(report.results)
        if fail_fast:
            truncated = []
            for result in results:
                truncated.append(result)
                if not result.holds:
                    break
            results = truncated
        merged.append(NodeReport(node=node, results=results, duration=duration))
    totals: dict[str, int] = {}
    for kind in kinds:
        totals = add_cache_statistics(totals, per_kind[kind][1])
    return merged, totals


def _iter_pool(
    annotated: AnnotatedNetwork,
    classes: Sequence[SymmetryClass],
    options: dict,
    jobs: int,
    items: Sequence[ClassItem],
    stats: SchedulerStats | None = None,
) -> Iterator[tuple[int, tuple[list[NodeReport], dict[str, int], int]]]:
    """Yield ``(position, result)`` per work item in completion order, streamingly.

    The core dispatcher: submits up to ``workers × window`` items with
    ``apply_async`` (the window is adaptive, see :func:`_window_size`) and
    blocks on a completion queue fed by the pool's result-handler callbacks;
    each completion tops the in-flight set back up and is yielded
    immediately.  Closing the generator (or any exception, including a
    worker crash propagating) shuts the pool down — unsubmitted items are
    never started, the in-flight ones finish unobserved, and no worker is
    orphaned; only an interrupt kills the workers outright.  Falls back to in-process
    execution (same yield protocol, same window *accounting* on ``stats``)
    when ``fork`` or the pool is unavailable.

    Known limitation (shared with the ``pool.map`` predecessor): a worker
    killed *hard* (SIGKILL/OOM) loses its in-flight task — the pool respawns
    the process but no callback ever fires, so the completion wait (and the
    wait for the in-flight remainder after an early stop) blocks until the
    consumer interrupts it.  Python exceptions inside a worker are not
    affected: they arrive via ``error_callback`` and propagate.
    """
    global _ACTIVE_NETWORK, _ACTIVE_OPTIONS, _ACTIVE_CLASSES

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None

    if context is None or jobs <= 1 or len(items) <= 1:
        sequential_processes = max(1, min(jobs, len(items)))
        for index, item in enumerate(items):
            if stats is not None:
                stats.record_dispatch(_window_size(len(items) - index, sequential_processes))
            yield index, _check_item(annotated, classes, options, item)
        return

    _ACTIVE_NETWORK = annotated
    _ACTIVE_OPTIONS = options
    _ACTIVE_CLASSES = classes
    try:
        processes = min(jobs, len(items))
        try:
            pool = context.Pool(processes=processes)
        except OSError as error:
            # Pool *setup* can fail on exotic platforms (no fork, no
            # semaphores); degrading to sequential checking is safe there.
            # Anything raised by the checks themselves propagates — a silent
            # rerun would mask real worker crashes.
            warnings.warn(
                f"process pool unavailable ({error}); checking sequentially",
                RuntimeWarning,
                stacklevel=3,
            )
            _ACTIVE_NETWORK = None
            _ACTIVE_OPTIONS = None
            _ACTIVE_CLASSES = None
            # Same adaptive window *accounting* as the pool path below, so a
            # degraded run's scheduler statistics stay comparable.
            for index, item in enumerate(items):
                if stats is not None:
                    stats.record_dispatch(_window_size(len(items) - index, processes))
                yield index, _check_item(annotated, classes, options, item)
            return

        # Completions land here from the pool's result-handler thread; the
        # third element is the worker's exception, if it raised.
        completions: queue.SimpleQueue = queue.SimpleQueue()

        def submit(index: int) -> None:
            pool.apply_async(
                _worker_entry,
                (items[index],),
                callback=lambda outcome, index=index: completions.put((index, outcome, None)),
                error_callback=lambda error, index=index: completions.put((index, None, error)),
            )

        next_index = 0
        in_flight = 0

        def top_up() -> None:
            # Keep up to ``processes × window`` items in flight, where the
            # window adapts to the remaining backlog: >1 while many items
            # are pending (cheap items amortise dispatch latency), back to
            # one per worker at the tail — so closing the iterator still
            # stops promptly, with at most the in-flight window to discard.
            nonlocal next_index, in_flight
            while next_index < len(items):
                window = _window_size(len(items) - next_index, processes)
                if in_flight >= processes * window:
                    break
                if stats is not None:
                    stats.record_dispatch(window)
                submit(next_index)
                next_index += 1
                in_flight += 1

        try:
            top_up()
            while in_flight:
                index, outcome, error = completions.get()
                in_flight -= 1
                if error is not None:
                    raise error
                top_up()
                yield index, outcome
        except (Exception, GeneratorExit):
            # Worker crash, run-level fail-fast or consumer abandonment: stop
            # dispatching, let the in-flight remainder finish (its results
            # are discarded) and reap every worker before propagating.
            # Killing busy workers instead (``pool.terminate()``) can
            # deadlock: a worker killed while writing its result holds the
            # result queue's lock forever, and the pool's task handler —
            # which ``terminate()`` joins — blocks on that lock.
            pool.close()
            pool.join()
            raise
        except BaseException:
            # An interrupt: the workers got it too, so waiting for them is
            # not an option.
            pool.terminate()
            pool.join()
            raise
        else:
            pool.close()
            pool.join()
    finally:
        _ACTIVE_NETWORK = None
        _ACTIVE_OPTIONS = None
        _ACTIVE_CLASSES = None


def iter_class_batches(
    annotated: AnnotatedNetwork,
    classes: Sequence[SymmetryClass],
    delay: int,
    jobs: int,
    conditions: Sequence[str],
    fail_fast: bool,
    incremental: bool = True,
    scheduler: str = "adaptive",
    stats: SchedulerStats | None = None,
) -> Iterator[Batch]:
    """Stream per-class check batches under the adaptive class scheduler.

    Yields ``(class_index, member_reports, cache_delta)`` in completion
    order; a class split across workers by the work-stealing plan
    (:func:`_class_work_items`) is yielded once, re-merged, when its last
    sub-item completes, so consumers see exactly one batch per class with
    unchanged results either way.  ``scheduler="fixed"`` disables splitting
    and the adaptive window (the ablation baseline).  ``stats`` (a
    :class:`SchedulerStats`) is filled in while the stream drains.  Closing
    the iterator stops dispatching unsubmitted items and shuts the pool
    down.
    """
    if scheduler not in SCHEDULER_MODES:
        raise ValueError(f"unknown scheduler {scheduler!r}; choose one of {SCHEDULER_MODES}")
    options = {
        "delay": delay,
        "conditions": tuple(conditions),
        "fail_fast": fail_fast,
        "incremental": incremental,
    }
    if stats is None:
        stats = SchedulerStats()
    items = _class_work_items(classes, jobs, conditions, scheduler, stats)
    pooled = _iter_pool(
        annotated,
        classes,
        options,
        jobs,
        items,
        stats=None if scheduler == "fixed" else stats,
    )
    return _stream_class_items(pooled, items, conditions, fail_fast, stats)


def _stream_class_items(
    pooled: Iterator[tuple[int, tuple[list[NodeReport], dict[str, int], int]]],
    items: Sequence[ClassItem],
    conditions: Sequence[str],
    fail_fast: bool,
    stats: SchedulerStats,
) -> Iterator[Batch]:
    """Adapt the dispatcher's class work items into per-class :data:`Batch` triples.

    Whole-class items pass straight through; split sub-items are buffered
    per class and re-merged (:func:`_merge_split_class`) when the last kind
    arrives.  Closes the inner generator on every exit path — an early stop
    discards buffered partial classes, whose nodes then correctly count as
    skipped.
    """
    kinds = tuple(kind for kind in CONDITION_KINDS if kind in set(conditions))
    expected = {index: sum(1 for i, sub in items if i == index and sub is not None)
                for index, sub in items if sub is not None}
    partial: dict[int, dict[str, tuple[list[NodeReport], dict[str, int]]]] = {}
    try:
        for position, (reports, delta, pid) in pooled:
            stats.worker_pids.add(pid)
            class_index, sub = items[position]
            if sub is None:
                yield class_index, reports, delta
                continue
            bucket = partial.setdefault(class_index, {})
            bucket[sub[0]] = (reports, delta)
            if len(bucket) == expected[class_index]:
                merged, totals = _merge_split_class(bucket, kinds, fail_fast)
                del partial[class_index]
                yield class_index, merged, totals
    finally:
        pooled.close()


def check_classes_in_parallel(
    annotated: AnnotatedNetwork,
    classes: Sequence[SymmetryClass],
    delay: int,
    jobs: int,
    conditions: Sequence[str],
    fail_fast: bool,
    incremental: bool = True,
    scheduler: str = "adaptive",
    stats: SchedulerStats | None = None,
) -> tuple[list[NodeReport], dict[str, int] | None]:
    """Check symmetry ``classes`` on a fork pool under the class scheduler.

    The barrier-style drain of :func:`iter_class_batches`: returns the
    flattened member reports (class order; the caller re-sorts to node
    order) and the summed incremental-backend cache deltas of the workers
    (``None`` with ``incremental=False``) — measured identically whether
    the items ran on the pool or on the sequential fallback.
    """
    indexed: dict[int, list[NodeReport]] = {}
    totals: dict[str, int] = {}
    for index, reports, delta in iter_class_batches(
        annotated,
        classes,
        delay=delay,
        jobs=jobs,
        conditions=conditions,
        fail_fast=fail_fast,
        incremental=incremental,
        scheduler=scheduler,
        stats=stats,
    ):
        indexed[index] = reports
        totals = add_cache_statistics(totals, delta)
    flattened = [report for index in sorted(indexed) for report in indexed[index]]
    return flattened, (totals if incremental else None)
