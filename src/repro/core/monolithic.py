"""A Minesweeper-style monolithic stable-state verifier (the paper's ``Ms``).

This is the baseline Timepiece is compared against in Figures 1 and 14.  The
whole network is encoded as a single SMT formula over one symbolic route per
node, constrained to be a *stable state*: every node's route equals the merge
of its initial route with its neighbours' transferred routes.  The property is
the temporal property with its temporal structure erased — each node's
predicate is evaluated at (or beyond) its largest witness time, which is the
translation the paper uses when generating ``Ms`` benchmarks from Timepiece
benchmarks.

Because the encoding grows with the size of the whole network (and the SAT
backend here is pure Python), a wall-clock ``timeout`` can be supplied; a
timed-out run is reported as such, mirroring the 2-hour timeouts in the
paper's evaluation.
"""

from __future__ import annotations

import time as _time
from typing import Any

from repro import smt
from repro.core.annotations import AnnotatedNetwork
from repro.core.results import MonolithicReport
from repro.symbolic import SymBV, SymBool, values_equal


def stable_state_constraints(
    annotated: AnnotatedNetwork,
) -> tuple[SymBool, dict[str, Any]]:
    """The stable-state equations ``σ(v) = I_v ⊕ ⨁ f_uv(σ(u))`` for all ``v``.

    Returns the conjunction of constraints together with the per-node symbolic
    route variables.
    """
    network = annotated.network
    routes: dict[str, Any] = {
        node: network.route_shape.fresh(f"stable.{node}") for node in network.topology.nodes
    }
    constraints = network.symbolic_constraints()
    for node in network.topology.nodes:
        constraints = constraints & network.route_shape.constraint(routes[node])
    for node in network.topology.nodes:
        neighbor_routes = {
            neighbor: routes[neighbor] for neighbor in network.topology.predecessors(node)
        }
        computed = network.updated_route(node, neighbor_routes)
        constraints = constraints & values_equal(routes[node], computed)
    return constraints, routes


def erased_property(annotated: AnnotatedNetwork, node: str, route: Any) -> SymBool:
    """The node property with temporal structure erased (evaluated at ``t ≥ τ_max``)."""
    width = annotated.time_width()
    stable_time = SymBV.constant(annotated.max_witness_time(), width)
    return annotated.node_property(node)(route, stable_time)


def run_monolithic(
    annotated: AnnotatedNetwork,
    timeout: float | None = None,
) -> MonolithicReport:
    """Check the erased property over all stable states of the network."""
    started = _time.perf_counter()
    constraints, routes = stable_state_constraints(annotated)

    network_property = SymBool.true()
    for node in annotated.nodes:
        network_property = network_property & erased_property(annotated, node, routes[node])

    proof = smt.prove(network_property.term, constraints.term, timeout=timeout)
    elapsed = _time.perf_counter() - started

    if proof.unknown:
        return MonolithicReport(passed=False, wall_time=elapsed, timed_out=True)
    if proof.valid:
        return MonolithicReport(passed=True, wall_time=elapsed)
    model = proof.counterexample
    assert model is not None
    stable_state = {node: routes[node].eval(model) for node in annotated.nodes}
    symbolics = {
        symbolic.name: symbolic.value.eval(model) for symbolic in annotated.network.symbolics
    }
    return MonolithicReport(
        passed=False,
        wall_time=elapsed,
        counterexample=stable_state,
        symbolics=symbolics,
    )
