"""The naïve (unsound) modular stable-state procedure of §2.2.

This module exists to *demonstrate the problem the paper identifies*, not to
verify networks.  The "strawperson" procedure annotates every node with a
plain (non-temporal) set of routes and checks, per node, that merging any
combination of neighbour routes drawn from the neighbours' interfaces lands
back inside the node's own interface (equation 1).  As §2.2 shows with the
running example, interfaces can circularly justify each other and the check
can accept interfaces that exclude states the real network reaches — which is
exactly what the test-suite and the ``debugging_interfaces`` example
reproduce before showing how the temporal procedure rejects them.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro import smt
from repro.core.counterexample import Counterexample
from repro.errors import VerificationError
from repro.routing.algebra import Network
from repro.symbolic import SymBV, SymBool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.annotations import AnnotatedNetwork

#: A stable-state interface: a predicate over routes (no time component).
StableInterface = Callable[[Any], SymBool]


@dataclass
class StrawpersonReport:
    """Outcome of the naïve stable-state modular check."""

    node_results: dict[str, bool]
    counterexamples: list[Counterexample] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.node_results.values())

    @property
    def verdict(self) -> str:
        """The :class:`repro.verify.Report` verdict (``"pass"``/``"fail"``)."""
        return "pass" if self.passed else "fail"

    @property
    def backend_cache(self) -> dict[str, int] | None:
        """Always ``None``: the strawperson uses the stateless facade."""
        return None

    def to_json(self) -> dict[str, object]:
        """A JSON-serialisable projection (the :class:`repro.verify.Report` shape)."""
        return {
            "engine": "strawperson",
            "verdict": self.verdict,
            "wall_time_s": self.wall_time,
            "node_results": dict(self.node_results),
            "failed_nodes": self.failed_nodes,
            "counterexamples": [example.describe() for example in self.counterexamples],
            "backend_cache": self.backend_cache,
        }

    @property
    def failed_nodes(self) -> list[str]:
        return [node for node, passed in self.node_results.items() if not passed]


def erased_interfaces(annotated: "AnnotatedNetwork") -> dict[str, StableInterface]:
    """Each node's temporal interface erased at the stable time ``t ≥ τ_max``.

    The default interface set for :class:`repro.verify.Strawperson` when the
    caller supplies none — the same erasure the monolithic baseline applies
    to properties, so the three engines compare like with like.
    """
    width = annotated.time_width()
    stable_time = SymBV.constant(annotated.max_witness_time(), width)

    def erase(node: str) -> StableInterface:
        interface = annotated.interface(node)
        return lambda route: interface(route, stable_time)

    return {node: erase(node) for node in annotated.nodes}


def run_strawperson(
    network: Network,
    interfaces: Mapping[str, StableInterface],
) -> StrawpersonReport:
    """Run the §2.2 procedure (one local stable-state step per node)."""
    missing = [node for node in network.topology.nodes if node not in interfaces]
    if missing:
        raise VerificationError(f"missing stable interfaces for nodes {missing}")

    started = _time.perf_counter()
    node_results: dict[str, bool] = {}
    counterexamples: list[Counterexample] = []

    for node in network.topology.nodes:
        assumptions = network.symbolic_constraints()
        neighbor_routes: dict[str, Any] = {}
        for neighbor in network.topology.predecessors(node):
            route = network.route_shape.fresh(f"stable.{neighbor}.to.{node}")
            neighbor_routes[neighbor] = route
            assumptions = assumptions & network.route_shape.constraint(route)
            assumptions = assumptions & SymBool.lift(interfaces[neighbor](route))
        computed = network.updated_route(node, neighbor_routes)
        goal = SymBool.lift(interfaces[node](computed))

        proof = smt.prove(goal.term, assumptions.term)
        node_results[node] = proof.valid
        if not proof.valid:
            model = proof.counterexample
            assert model is not None
            counterexamples.append(
                Counterexample(
                    node=node,
                    condition="stable (strawperson)",
                    neighbor_routes={
                        name: route.eval(model) for name, route in neighbor_routes.items()
                    },
                    route=computed.eval(model),
                    symbolics={
                        symbolic.name: symbolic.value.eval(model)
                        for symbolic in network.symbolics
                    },
                )
            )

    return StrawpersonReport(
        node_results=node_results,
        counterexamples=counterexamples,
        wall_time=_time.perf_counter() - started,
    )
