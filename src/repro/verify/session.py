"""The :class:`Session`: one verification target, one strategy, many runs.

A session binds an annotated network to a :class:`~repro.verify.strategies
.Strategy` and owns the solver resources the strategy needs — most
importantly the :class:`~repro.smt.incremental.IncrementalSolver`.  Owning
the solver at session granularity is what enables cross-run reuse policies
the process-global solver cannot express, e.g. the ``persistent`` backend's
learned-clause carry-over across SAT scopes *and* across whole runs.

Sessions stream: :meth:`Session.stream` is a generator of per-condition
:class:`~repro.core.results.ConditionResult` events, yielded batch by batch
(one batch per symmetry class — one node per batch with ``symmetry="off"``)
as the engine discharges them — live even for parallel runs, where each
worker batch is yielded the moment it completes.  The harness uses this for
progress output; a fail-fast consumer can simply stop iterating at the first
failing event (in-flight parallel dispatch is cancelled and the session
solver recovered), or ask the engine to do it with
``Modular(stop_on_failure=True)``.  Exhausting the stream finalizes
:attr:`Session.report`; :meth:`Session.run` is the drain-and-return
convenience used by non-streaming callers.
"""

from __future__ import annotations

import random
import time as _time
from typing import Any, Iterator, Mapping, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import CONDITION_KINDS
from repro.core.fingerprint import (
    network_fingerprint,
    node_condition_fingerprints,
    strategy_signature,
)
from repro.core.results import ConditionResult, NodeReport, merge_reports
from repro.core.symmetry import partition_nodes
from repro.errors import VerificationError
from repro.routing.algebra import Network
from repro.smt.incremental import (
    IncrementalSolver,
    add_cache_statistics,
    process_cache_statistics,
    subtract_cache_statistics,
)
from repro.verify.store import DeltaStore, default_store_path
from repro.verify.strategies import Modular, Strategy, Strawperson

#: Lint modes accepted by :meth:`Session.stream`/:meth:`Session.run`:
#: ``"warn"`` runs the static-analysis passes before dispatch and attaches
#: their diagnostics to the finalized report; ``"strict"`` additionally
#: raises :class:`~repro.errors.AnalysisError` — before any solver work —
#: when lint finds error- or warning-severity diagnostics.
LINT_MODES = ("warn", "strict")


class Session:
    """A verification session: a target network under one strategy.

    ``target`` is an :class:`~repro.core.annotations.AnnotatedNetwork` (or,
    for the strawperson strategy with explicit interfaces, a bare
    :class:`~repro.routing.algebra.Network`).  ``strategy`` defaults to
    :class:`~repro.verify.strategies.Modular` with its defaults.

    The session is a context manager; entering it is optional for one-shot
    use, but closing (or exiting the ``with`` block) releases the
    session-owned solver, so long-lived processes should prefer::

        with Session(annotated, Modular(symmetry="classes")) as session:
            report = session.run()

    Runs may be repeated: each :meth:`run`/:meth:`stream` cycle is one full
    verification pass, and with ``backend="persistent"`` the session-owned
    solver retains encoded structure *and* carried learned clauses between
    them (``report.backend_cache["learned_carried"]`` measures the latter).
    """

    def __init__(
        self,
        target: AnnotatedNetwork | Network,
        strategy: Strategy | None = None,
        *,
        solver: IncrementalSolver | None = None,
    ) -> None:
        self.target = target
        self.strategy = strategy if strategy is not None else Modular()
        if not isinstance(self.strategy, Strategy):
            raise TypeError(
                f"strategy must be a repro.verify Strategy, got {type(self.strategy).__name__}"
            )
        #: Completed run count (a finalized report increments it).
        self.runs = 0
        self._report: Any | None = None
        if solver is not None and not self.strategy.uses_session_solver:
            # Facade-only engines never touch the session solver; accepting
            # one they ignore would be a silent no-op.
            raise VerificationError(
                f"the {self.strategy.name!r} strategy does not use a session solver"
            )
        self._solver = solver
        self._owns_solver = False
        self._closed = False
        self._active_stream: Iterator[ConditionResult] | None = None

    # -- resources ---------------------------------------------------------------

    @property
    def annotated(self) -> AnnotatedNetwork:
        """The annotated target; raises for strategies that need annotations."""
        if not isinstance(self.target, AnnotatedNetwork):
            raise VerificationError(
                f"the {self.strategy.name!r} strategy needs an AnnotatedNetwork target, "
                f"got {type(self.target).__name__}"
            )
        return self.target

    @property
    def network(self) -> Network:
        """The underlying network, whatever the target type."""
        if isinstance(self.target, AnnotatedNetwork):
            return self.target.network
        return self.target

    def solver_for(self, strategy: Modular) -> IncrementalSolver | None:
        """The solver this run's batches are pinned to, if any.

        ``persistent`` backends get a session-owned solver (created once,
        reused across runs, learned clauses carried across its scopes)
        unless the caller supplied one — which must then have
        ``persist_learned`` enabled, or the advertised carry-over would
        silently not happen.  ``incremental`` backends use the shared
        per-process solver when no solver was supplied, and pin batches to
        a supplied one.  ``fresh`` uses no
        incremental solver at all, so supplying one is an error rather
        than a silent no-op.
        """
        if self._closed:
            raise VerificationError("session is closed")
        if strategy.backend == "fresh":
            if self._solver is not None:
                raise VerificationError(
                    'backend="fresh" builds one SAT instance per condition and '
                    "cannot use the supplied session solver"
                )
            return None
        if self._solver is not None and strategy.parallel > 1:
            raise VerificationError(
                "parallel runs execute batches in worker processes and cannot "
                "use the supplied session solver; drop the solver or run with "
                "parallel=1"
            )
        if self._solver is None:
            if strategy.backend == "persistent":
                self._solver = IncrementalSolver(persist_learned=True)
                self._owns_solver = True
                return self._solver
            return None
        if strategy.backend == "persistent" and not self._solver.persist_learned:
            raise VerificationError(
                'backend="persistent" needs a solver constructed with '
                "persist_learned=True; the supplied solver would silently drop "
                "learned clauses at every scope rotation"
            )
        return self._solver

    def close(self) -> None:
        """Release session-owned resources (idempotent)."""
        if self._active_stream is not None:
            self._active_stream.close()
            self._active_stream = None
        if self._owns_solver:
            self._solver = None
            self._owns_solver = False
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- running -----------------------------------------------------------------

    def stream(
        self, nodes: Sequence[str] | None = None, *, lint: str | None = None
    ) -> Iterator[ConditionResult]:
        """One verification run as a stream of per-condition events.

        Events arrive in discharge order (batch by batch, one symmetry class
        per batch);
        parallel runs yield each batch's events the moment its worker
        finishes, so progress is live even while the pool is still working.
        Exhausting the iterator finalizes :attr:`report`.  Abandoning the
        iterator early (e.g. on the first failure) leaves :attr:`report` at
        the previous run's value, stops any in-flight parallel dispatch, and
        restores the session-owned solver to a clean scope so the next run
        on this session starts sound.

        ``lint`` (one of :data:`LINT_MODES`) runs the pre-solve static
        analysis passes *eagerly*, before this call returns and before any
        condition is dispatched: ``"strict"`` raises
        :class:`~repro.errors.AnalysisError` when the target has error- or
        warning-severity diagnostics (failing fast, with zero solver work);
        ``"warn"`` lets the run proceed and attaches the diagnostics to the
        finalized report (``report.diagnostics``).

        At most one stream is live per session: starting a new run
        deterministically cancels an abandoned in-flight one (its iterator
        is closed and raises ``StopIteration`` thereafter) — interleaving
        two runs on the shared solver state would corrupt both runs' scope
        rotation and cache-delta accounting, and waiting for garbage
        collection to release an abandoned run would make session reuse
        timing-dependent.
        """
        if self._closed:
            raise VerificationError("session is closed")
        lint_report = None
        if lint is not None:
            if lint not in LINT_MODES:
                raise VerificationError(
                    f"unknown lint mode {lint!r}; choose one of {LINT_MODES}"
                )
            from repro.analysis import lint_network

            # Eager on purpose: strict mode must fail fast at call time, and
            # warn mode's diagnostics must exist even if the stream is later
            # abandoned mid-run.  Lint never touches the solver.
            lint_report = lint_network(self.annotated)
            if lint == "strict":
                lint_report.raise_for_findings(context=f"session target {self.target!r}")
        if self._active_stream is not None:
            self._active_stream.close()
            self._active_stream = None
        inner = self.strategy.events(self, nodes)

        def guarded() -> Iterator[ConditionResult]:
            try:
                yield from inner
                if lint_report is not None and hasattr(self._report, "diagnostics"):
                    self._report.diagnostics = list(lint_report.diagnostics)
            finally:
                if self._active_stream is generator:
                    self._active_stream = None

        generator = guarded()
        self._active_stream = generator
        return generator

    def run(self, nodes: Sequence[str] | None = None, *, lint: str | None = None) -> Any:
        """Run to completion and return the finalized report.

        ``lint="warn"`` attaches static-analysis diagnostics to the report;
        ``lint="strict"`` raises :class:`~repro.errors.AnalysisError` before
        any solver work when lint is not clean (see :meth:`stream`).
        """
        for _ in self.stream(nodes, lint=lint):
            pass
        return self.report

    @property
    def report(self) -> Any:
        """The report of the last *completed* run."""
        if self._report is None:
            raise VerificationError("no completed run in this session yet")
        return self._report

    def _finalize(self, report: Any) -> None:
        self._report = report
        self.runs += 1


def verify(
    target: AnnotatedNetwork | Network,
    strategy: Strategy | None = None,
    nodes: Sequence[str] | None = None,
    *,
    lint: str | None = None,
) -> Any:
    """One-shot convenience: run ``strategy`` over ``target`` in a fresh session::

        verify(annotated)                            # modular, defaults
        verify(annotated, Modular(symmetry="classes"))
        verify(annotated, Monolithic(timeout=60))
        verify(network, Strawperson(interfaces=stable))
        verify(annotated, lint="strict")             # lint before solving
    """
    with Session(target, strategy) as session:
        return session.run(nodes=nodes, lint=lint)


# ---------------------------------------------------------------------------
# The modular engine
# ---------------------------------------------------------------------------


def _selected_nodes(
    annotated: AnnotatedNetwork, nodes: Sequence[str] | None
) -> tuple[str, ...]:
    selected = tuple(nodes) if nodes is not None else annotated.nodes
    for node in selected:
        if node not in annotated.nodes:
            raise VerificationError(f"unknown node {node!r}")
    return selected


def _batch_failed(batch_reports: Sequence[Any]) -> bool:
    """Whether any condition in a completed batch failed."""
    return any(
        not result.holds for report in batch_reports for result in report.results
    )


def _consume_batches(
    batches: Iterator[Any], strategy: Modular
) -> Iterator[ConditionResult]:
    """Yield a parallel batch stream's events live; return the aggregates.

    The consumption protocol of the parallel class stream: events are
    yielded the moment a batch arrives, worker cache
    deltas are summed, and with ``strategy.stop_on_failure`` the stream is
    stopped after the first failing batch.  Closing ``batches`` in all exit
    paths is what stops dispatch and reaps the pool.  The ``yield from``
    return value is ``(reports, cache_delta, stopped_early)`` with reports
    flattened in submission order.
    """
    totals: dict[str, int] = {}
    indexed: dict[int, list[Any]] = {}
    stopped_early = False
    try:
        for index, batch_reports, delta in batches:
            indexed[index] = batch_reports
            totals = add_cache_statistics(totals, delta)
            for report in batch_reports:
                yield from report.results
            if strategy.stop_on_failure and _batch_failed(batch_reports):
                stopped_early = True
                break
    finally:
        # Stops dispatch and reaps the pool whether the stream was
        # exhausted, stopped on failure, or abandoned.
        batches.close()
    reports = [report for index in sorted(indexed) for report in indexed[index]]
    return reports, (totals if strategy.incremental else None), stopped_early


def _delta_kinds(strategy: Modular) -> tuple[str, ...]:
    """The requested condition kinds, in canonical discharge order."""
    return tuple(kind for kind in CONDITION_KINDS if kind in strategy.conditions)


def _open_delta_store(session: Session, strategy: Modular) -> DeltaStore:
    """Load (fail-soft) the store for this session's (network, strategy) pair."""
    network = network_fingerprint(session.annotated)
    signature = strategy_signature(strategy.delay, strategy.conditions)
    path = strategy.store or default_store_path(network, signature)
    return DeltaStore.open(path, network=network, strategy=signature)


def _reused_report(
    node: str, kinds: Sequence[str], propagated_from: str | None = None
) -> NodeReport:
    """A node report whose verdicts all come from the delta store.

    Reused verdicts are always passes (the store never records failures) and
    cost no solver time; the kinds arrive in canonical discharge order so
    ``condition_verdicts`` of a warm run is byte-identical to a cold one.
    """
    results = [
        ConditionResult(
            node=node,
            condition=kind,
            holds=True,
            duration=0.0,
            propagated_from=propagated_from,
            reused=True,
        )
        for kind in kinds
    ]
    return NodeReport(node=node, results=results, duration=0.0)


def _record_delta_run(
    store: DeltaStore,
    reports: Sequence[NodeReport],
    pending: Mapping[str, Mapping[str, str]],
    kinds: Sequence[str],
) -> None:
    """Record the condition hashes this run proved into the store.

    ``pending`` maps each re-checked class representative to the condition
    fingerprints computed when the store was consulted.  A representative
    is recorded only when it discharged a passing verdict for every
    requested kind *this run*: fail-fast truncation, early stop and failures
    all leave it unrecorded, so a warm run can never reuse an unproved
    verdict.  Other members are never recorded: they only received the
    representative's verdict, which under a trusted symmetry hint their own
    conditions need not earn.
    """
    for report in reports:
        fingerprints = pending.get(report.node)
        if fingerprints is None or not report.passed:
            continue
        proved = {result.condition for result in report.results if result.holds}
        if all(kind in proved for kind in kinds):
            store.record(fingerprints)


def modular_events(
    session: Session, strategy: Modular, nodes: Sequence[str] | None
) -> Iterator[ConditionResult]:
    """Algorithm 1 (``CheckMod``) as a streaming engine.

    One scheduling flow serves every symmetry mode: the selected nodes are
    partitioned into classes (:func:`repro.core.symmetry.partition_nodes`;
    ``symmetry="off"`` is the singleton partition), the delta filter drops
    the classes the store already proved, and the remainder is checked
    class by class with :func:`repro.core.checker.check_class` —
    sequentially, or streamed from the fork pool under the class scheduler.  Batches are yielded as they
    complete — parallel batches arrive in completion order, the moment each
    worker finishes — and each batch opens a fresh SAT scope on its backend.
    Final reports are re-sorted to the deterministic node selection order
    regardless of completion order, and per-worker cache deltas are summed
    into ``backend_cache``.  Every parallel run reports its scheduler
    statistics (``scheduler``); ``symmetry_classes`` stays ``None`` for
    ``symmetry="off"``.

    With ``strategy.stop_on_failure`` the engine stops scheduling work after
    the first batch that reports a failing condition: queued parallel items
    are never dispatched, the pool is drained and terminated cleanly, and
    the finalized report records ``stopped_early`` plus how many conditions
    got no verdict (``conditions_skipped`` — never-scheduled nodes, plus
    in-flight batches discarded with the stopped pool).

    With ``strategy.delta == "reuse"`` the engine first loads the delta
    store and fingerprints each class representative's conditions; a class
    whose every requested condition hash is recorded as proved is emitted up
    front as zero-cost ``reused`` events, and only the remainder reaches the
    scheduling machinery above.  On normal completion the hashes of the
    representatives that passed are recorded and the store is saved; an
    abandoned stream leaves the store file untouched.
    """
    from repro.core.checker import check_class

    annotated = session.annotated
    selected = _selected_nodes(annotated, nodes)
    solver = session.solver_for(strategy)
    options = strategy.engine_options()

    started = _time.perf_counter()
    cache_before: dict[str, int] | None = None
    cache_delta: dict[str, int] | None = None
    scheduler_stats = None
    stopped_early = False
    reports = []

    store: DeltaStore | None = None
    pending: dict[str, dict[str, str]] = {}
    kinds = _delta_kinds(strategy)
    if strategy.delta == "reuse":
        # Store load and fingerprinting are part of the run (inside the wall
        # clock): the warm-run speedup reported by the benchmarks is net of
        # the delta layer's own overhead.
        store = _open_delta_store(session, strategy)

    def snapshot() -> dict[str, int]:
        # Session-owned solvers carry their own counters; otherwise the
        # shared per-process solver's are the ones the run mutates.
        return solver.cache_statistics() if solver is not None else process_cache_statistics()

    def checked(symmetry_class: Any) -> list[NodeReport]:
        """Check one class; pin the session solver and keep it recoverable.

        The checker only restores backends it acquired itself, so a crash
        in a batch pinned to the session-owned solver must be recovered
        here — otherwise the poisoned trail would leak into later batches
        and runs of this session.
        """
        if solver is None:
            return check_class(annotated, symmetry_class, **options)
        solver.new_scope()
        try:
            return check_class(annotated, symmetry_class, solver=solver, **options)
        except BaseException:
            solver.recover()
            raise

    try:
        classes = partition_nodes(
            annotated,
            selected,
            delay=strategy.delay,
            conditions=strategy.conditions,
            symmetry=strategy.symmetry,
        )
        class_count = len(classes)
        if strategy.symmetry == "spot-check":
            # Spot-member selection stays ahead of the delta filter so the
            # rng stream — and hence which members a cold and a warm run
            # re-verify — is identical whatever the store contains.
            rng = random.Random(strategy.spot_check_seed)
            for symmetry_class in classes:
                if len(symmetry_class) > 1:
                    symmetry_class.spot_member = rng.choice(symmetry_class.members[1:])
        if store is not None:
            # A class is reused iff its representative's conditions are all
            # recorded as proved: the representative's verdicts are what the
            # class propagates to its members.
            recheck = []
            for symmetry_class in classes:
                representative = symmetry_class.representative
                fingerprints = node_condition_fingerprints(
                    annotated, representative, delay=strategy.delay, conditions=kinds
                )
                if store.has_conditions(fingerprints, kinds):
                    for member in symmetry_class.members:
                        report = _reused_report(
                            member,
                            kinds,
                            propagated_from=None if member == representative else representative,
                        )
                        reports.append(report)
                        yield from report.results
                else:
                    pending[representative] = fingerprints
                    recheck.append(symmetry_class)
            classes = recheck
        if strategy.parallel > 1:
            if classes:
                from repro.core.parallel import SchedulerStats, iter_class_batches

                scheduler_stats = SchedulerStats()
                fresh, cache_delta, stopped_early = yield from _consume_batches(
                    iter_class_batches(
                        annotated,
                        classes,
                        jobs=strategy.parallel,
                        stats=scheduler_stats,
                        **options,
                    ),
                    strategy,
                )
                reports.extend(fresh)
            elif strategy.incremental:
                # Nothing to dispatch: no workers ran, so the summed worker
                # cache delta is (exactly) zero, not unknown.
                cache_delta = {}
        else:
            if strategy.incremental:
                cache_before = snapshot()
            for symmetry_class in classes:
                class_reports = checked(symmetry_class)
                reports.extend(class_reports)
                for report in class_reports:
                    yield from report.results
                if strategy.stop_on_failure and _batch_failed(class_reports):
                    stopped_early = True
                    break
        # Classes (and the delta layer's reused-first emission) interleave the
        # node order; restore the selection order so reports (and
        # counterexample enumeration) are reproducible.
        order = {node: index for index, node in enumerate(selected)}
        reports.sort(key=lambda report: order[report.node])
    except GeneratorExit:
        # The consumer abandoned the stream mid-run.  A completed batch
        # leaves its SAT scope open on the pinned solver (the next batch
        # would have rotated it); without recovery the abandoned scope —
        # and, after a mid-batch close, possibly a dangling assertion
        # frame — would leak into the next run on this session.
        if solver is not None:
            solver.recover()
        raise

    if cache_before is not None:
        cache_delta = subtract_cache_statistics(snapshot(), cache_before)
    if store is not None:
        # Only on normal completion: an abandoned stream never reaches here,
        # so a half-observed run can't overwrite a good store.
        _record_delta_run(store, reports, pending, kinds)
        store.save()
    checked_nodes = {report.node for report in reports}
    conditions_skipped = (
        len(strategy.conditions) * sum(1 for node in selected if node not in checked_nodes)
        if stopped_early
        else 0
    )
    session._finalize(
        merge_reports(
            reports,
            wall_time=_time.perf_counter() - started,
            parallelism=max(1, strategy.parallel),
            symmetry=strategy.symmetry,
            symmetry_classes=None if strategy.symmetry == "off" else class_count,
            backend_cache=cache_delta,
            stopped_early=stopped_early,
            conditions_skipped=conditions_skipped,
            delta=strategy.delta,
            scheduler=(
                scheduler_stats.as_dict() if scheduler_stats is not None else None
            ),
        )
    )


# ---------------------------------------------------------------------------
# The strawperson engine
# ---------------------------------------------------------------------------


def strawperson_events(
    session: Session, strategy: Strawperson, nodes: Sequence[str] | None
) -> Iterator[ConditionResult]:
    """The §2.2 procedure as a streaming engine (one event per node)."""
    from repro.core.strawperson import erased_interfaces, run_strawperson

    if nodes is not None:
        raise VerificationError("the strawperson engine always checks the whole network")
    if strategy.interfaces is not None:
        interfaces = strategy.interfaces
    else:
        interfaces = erased_interfaces(session.annotated)
    report = run_strawperson(session.network, interfaces)
    for node, passed in report.node_results.items():
        yield ConditionResult(
            node=node, condition="stable (strawperson)", holds=passed, duration=0.0
        )
    session._finalize(report)
