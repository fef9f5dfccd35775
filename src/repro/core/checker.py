"""The modular checking primitive (Algorithm 1: ``CheckMod``).

For every node of an annotated network the paper encodes and discharges the
initial, inductive and safety conditions.  Node checks are completely
independent — the paper calls them "embarrassingly parallel".  This module
provides the one per-batch primitive, :func:`check_class`, that discharges
them; the batch unit is a symmetry class (:mod:`repro.core.symmetry`).
Without symmetry reduction every class is a singleton, so a batch is one
node; with it, a batch discharges one representative and propagates its
verdicts to the other members.  Orchestration (partitioning, the delta
filter, sequential or parallel dispatch through :mod:`repro.core.parallel`,
report assembly) lives in :func:`repro.verify.session.modular_events`.
Timing is collected per node so the harness can report the totals, medians
and 99th percentiles the paper plots.

By default the conditions are discharged on the per-process incremental SMT
backend (:func:`repro.smt.process_solver`): the conditions of a batch — and
consecutive batches checked by the same worker — share encoded structure
and learned clauses.  Pass ``incremental=False`` (or an explicit ``solver``)
to fall back to a fresh SAT instance per condition; the verdicts are
identical either way, only the cost differs (see the ablation benchmarks).
"""

from __future__ import annotations

import time as _time
from typing import Any, Iterable, Sequence

from repro.core.annotations import AnnotatedNetwork
from repro.core.conditions import (
    CONDITION_KINDS,
    VerificationCondition,
    canonical_node_conditions,
    node_conditions,
)
from repro.core.results import ConditionResult, ModularReport, NodeReport
from repro.core.symmetry import SymmetryClass, translate_counterexample
from repro.errors import VerificationError
from repro.smt.incremental import process_solver


def _discharge(
    conditions: Iterable[VerificationCondition],
    kinds: Sequence[str],
    fail_fast: bool,
    solver: Any,
) -> list[ConditionResult]:
    """Discharge ``conditions`` (restricted to ``kinds``) on ``solver``."""
    results: list[ConditionResult] = []
    for condition in conditions:
        if condition.kind not in kinds:
            continue
        result = condition.check(solver=solver)
        results.append(result)
        if fail_fast and not result.holds:
            break
    return results


def _acquire_solver(solver: Any | None, incremental: bool) -> tuple[Any | None, bool]:
    """The backend for one class batch, opening a fresh SAT scope.

    When the caller pinned no solver and asked for the incremental backend,
    the shared per-process solver is used with a new scope: the batch's
    conditions share the scope's clause database and learned clauses, while
    the process solver's encoding caches persist across batches (and whole
    runs).  The second element reports whether the checker *owns* the
    returned backend (acquired it here rather than receiving it pinned).
    """
    if solver is None and incremental:
        solver = process_solver()
        solver.new_scope()
        return solver, True
    return solver, False


def _recover_solver(solver: Any | None, owned: bool) -> None:
    """Reset an internally-acquired backend after an exception escaped.

    Without this, a crashed check (a user interface raising, an interrupted
    solve) could leave the per-process solver's SAT trail or assertion
    frames inconsistent and silently poison every later batch's verdict.
    Caller-pinned solvers are left alone: ``recover()`` drops every frame
    above the root, which would destroy assertions the caller pushed for
    its own purposes — their cleanup policy is theirs to choose.
    """
    if not owned:
        return
    recover = getattr(solver, "recover", None)
    if recover is not None:
        recover()


def check_class(
    annotated: AnnotatedNetwork,
    symmetry_class: SymmetryClass,
    delay: int = 0,
    conditions: Sequence[str] = CONDITION_KINDS,
    fail_fast: bool = True,
    solver: Any | None = None,
    incremental: bool = True,
) -> list[NodeReport]:
    """Check one symmetry class: discharge the representative, reuse the rest.

    Returns a report per member, in member order.  ``conditions`` restricts
    which of the three conditions are checked (unknown kinds raise
    :class:`VerificationError`).  With ``fail_fast`` the remaining
    conditions are skipped after the first failure, mirroring Algorithm 1,
    which returns the first counterexample it finds.  ``solver`` pins the
    SMT backend; when omitted, the shared per-process incremental solver is
    used unless ``incremental=False`` requests fresh per-condition SAT
    instances.  If a condition raises, an internally acquired backend is
    restored to a clean state before the exception propagates.

    The representative's conditions are discharged in one SAT scope (a
    singleton class — ``symmetry="off"`` — is just that node's check);
    every other member receives the representative's verdicts as
    propagated :class:`ConditionResult` records (duration 0, counterexamples
    translated by the positional neighbour correspondence).  When the class
    carries a ``spot_member``, that member's conditions are rebuilt from
    scratch and discharged in the *same* scope — with a correct
    canonicalization this re-assumes the identical terms (nearly free, and
    it exercises the scope sharing); with a wrong metadata hint the verdicts
    can diverge, which raises :class:`VerificationError` instead of silently
    propagating an unsound verdict.

    For destination-quotient classes (``symmetry_class.destination`` set)
    the cached conditions are the *canonical* instance: their evaluation
    payloads belong to the representative's raw conditions and cannot be
    trusted under a canonical model, so a failing canonical verdict is
    discarded and the representative's raw conditions are re-discharged (an
    equivalid query — same verdicts, genuine counterexample).  Member
    counterexamples additionally re-concretize the destination index through
    the class's slot permutation, and every result carries
    ``quotient="destination"`` provenance.
    """
    unknown = set(conditions) - set(CONDITION_KINDS)
    if unknown:
        raise VerificationError(f"unknown condition kinds {sorted(unknown)}")
    representative = symmetry_class.representative
    quotient = symmetry_class.destination
    solver, owned = _acquire_solver(solver, incremental)
    topology = annotated.network.topology

    started = _time.perf_counter()
    try:
        built = symmetry_class.conditions
        if built is None or symmetry_class.conditions_delay != delay:
            # No cached conditions (singleton or metadata-hint classes), or
            # the cache was built for a different delay than this check
            # requests.
            if quotient is not None:
                built, _ = canonical_node_conditions(annotated, representative, delay=delay)
                built = tuple(built)
            else:
                built = tuple(node_conditions(annotated, representative, delay=delay))
        results = _discharge(built, conditions, fail_fast, solver)
        if quotient is not None and any(not result.holds for result in results):
            # The canonical instance failed; its counterexample payloads are
            # the representative's raw terms evaluated under a *canonical*
            # model, which is meaningless.  Re-discharge the raw conditions
            # (equivalid — identical holds pattern and fail-fast truncation)
            # for a counterexample in the representative's own coordinates.
            results = _discharge(
                tuple(node_conditions(annotated, representative, delay=delay)),
                conditions,
                fail_fast,
                solver,
            )
    except BaseException:
        _recover_solver(solver, owned)
        raise
    if quotient is not None:
        for result in results:
            result.quotient = "destination"
    reports = [
        NodeReport(node=representative, results=results, duration=_time.perf_counter() - started)
    ]

    representative_preds = topology.predecessors(representative)
    for member in symmetry_class.members[1:]:
        if member == symmetry_class.spot_member:
            reports.append(
                _spot_check_member(
                    annotated,
                    symmetry_class,
                    member,
                    results,
                    delay,
                    conditions,
                    fail_fast,
                    solver,
                    owned,
                )
            )
            continue
        member_started = _time.perf_counter()
        destination = (
            None
            if quotient is None
            else (quotient.variable, quotient.permutation(representative, member))
        )
        member_results = [
            ConditionResult(
                node=member,
                condition=result.condition,
                holds=result.holds,
                duration=0.0,
                counterexample=(
                    None
                    if result.counterexample is None
                    else translate_counterexample(
                        result.counterexample,
                        member,
                        representative_preds,
                        topology.predecessors(member),
                        destination=destination,
                    )
                ),
                propagated_from=representative,
                quotient=result.quotient,
            )
            for result in results
        ]
        reports.append(
            NodeReport(
                node=member,
                results=member_results,
                duration=_time.perf_counter() - member_started,
            )
        )
    return reports


def _spot_check_member(
    annotated: AnnotatedNetwork,
    symmetry_class: SymmetryClass,
    member: str,
    representative_results: list[ConditionResult],
    delay: int,
    conditions: Sequence[str],
    fail_fast: bool,
    solver: Any,
    owned: bool,
) -> NodeReport:
    """Fully re-verify one class member and compare against the representative."""
    member_started = _time.perf_counter()
    try:
        member_results = _discharge(
            node_conditions(annotated, member, delay=delay),
            conditions,
            fail_fast,
            solver,
        )
    except BaseException:
        _recover_solver(solver, owned)
        raise
    expected = [(result.condition, result.holds) for result in representative_results]
    observed = [(result.condition, result.holds) for result in member_results]
    if expected != observed:
        raise VerificationError(
            f"symmetry spot-check failed: class member {member!r} decided {observed} "
            f"but representative {symmetry_class.representative!r} decided {expected}; "
            "the symmetry classes (metadata hints?) are unsound for this network"
        )
    return NodeReport(
        node=member, results=member_results, duration=_time.perf_counter() - member_started
    )


def assert_verified(report: ModularReport) -> None:
    """Raise :class:`VerificationError` with diagnostics unless ``report`` passed."""
    if report.passed:
        return
    details = "\n".join(example.describe() for example in report.counterexamples())
    raise VerificationError(
        f"modular verification failed at nodes {report.failed_nodes}:\n{details}"
    )
