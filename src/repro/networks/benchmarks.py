"""The fattree benchmark suite of §6: Reach, Len, Vf and Hijack.

Each benchmark builds an annotated fattree network running an (abstracted)
eBGP policy and supplies the interfaces and properties described in the
paper:

========== ==========================================================================
Benchmark  Property
========== ==========================================================================
Reach      every node eventually (by the fattree diameter, 4) has a route
Len        every node eventually has a route of at most 4 hops
Vf         reachability under a valley-freedom policy (no up-down-up paths)
Hijack     every internal node eventually has an internal route for the symbolic
           prefix ``p`` despite an adversarial hijacker attached to the core
========== ==========================================================================

Every benchmark comes in two flavours, following the paper: ``Sp`` (a fixed
destination edge node) and ``Ap`` (an *all-pairs* variant where the
destination is a symbolic variable ranging over all edge nodes).  Witness
times are derived from each node's role via ``dist(v)``
(:meth:`repro.networks.fattree.Fattree.distance_to_destination`), exactly as
described in §6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core import (
    AnnotatedNetwork,
    DestinationSymmetry,
    TemporalPredicate,
    always_true,
    finally_,
    finally_dynamic,
    globally,
    until,
    until_dynamic,
)
from repro.networks.fattree import Fattree, fattree_symmetry_key
from repro.routing.algebra import Network, SymbolicVariable
from repro.routing.bgp import (
    BgpPolicy,
    BgpRouteFamily,
    DEFAULT_ADMIN_DISTANCE,
    DEFAULT_LOCAL_PREFERENCE,
    bgp_better,
    bgp_route_family,
)
from repro.routing.simple import option_min_merge
from repro.routing.topology import Edge
from repro.symbolic import BoolShape, SymBV, SymBool, SymOption, any_of, ite_value

#: The fattree diameter: the largest witness time used by the Sp properties.
FATTREE_DIAMETER = 4

#: The community used by the valley-freedom policy to mark "down" moves.
DOWN_COMMUNITY = "down"

#: Name of the hijacker node attached to the core tier.
HIJACKER = "hijacker"

#: Compact route-field widths; the SAT backend is pure Python, so the
#: benchmarks default to narrower fields than a production router would use
#: (see DESIGN.md §5 — widths are parameters, not baked in).
COMPACT_WIDTHS = {
    "prefix_width": 8,
    "ad_width": 4,
    "lp_width": 8,
    "med_width": 4,
    "path_width": 4,
}

POLICIES = ("reach", "length", "valley_freedom", "hijack")


@dataclass
class FattreeBenchmark:
    """A fully-built benchmark instance, ready to check."""

    name: str
    policy: str
    all_pairs: bool
    fattree: Fattree
    family: BgpRouteFamily
    annotated: AnnotatedNetwork
    #: The concrete destination for Sp benchmarks, ``None`` for Ap.
    destination: str | None

    @property
    def network(self) -> Network:
        return self.annotated.network

    @property
    def node_count(self) -> int:
        return self.fattree.node_count + (1 if self.policy == "hijack" else 0)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _identity_transfer(family: BgpRouteFamily) -> Callable[[Edge], Callable[[SymOption], SymOption]]:
    policy = BgpPolicy()

    def for_edge(edge: Edge) -> Callable[[SymOption], SymOption]:
        return policy.apply

    return for_edge


def _destination_announcement(family: BgpRouteFamily, prefix: Any = 0, **ghost: Any) -> dict[str, Any]:
    return family.default_announcement(prefix=0, lp=DEFAULT_LOCAL_PREFERENCE, **ghost)


def _sp_initial(
    family: BgpRouteFamily, destination: str, announcement: dict[str, Any]
) -> Callable[[str], SymOption]:
    def initial(node: str) -> SymOption:
        if node == destination:
            return family.route.some(announcement)
        return family.route.none()

    return initial


def _ap_destination(
    fattree: Fattree, family: BgpRouteFamily, announcement: dict[str, Any]
) -> tuple[SymbolicVariable, Callable[[str], SymOption], dict[str, SymBV]]:
    """Build the symbolic destination choice for all-pairs benchmarks.

    Returns the symbolic variable, the initial-route function, and a map from
    edge-node name to its index constant (used to compare against the symbolic
    index when computing distances).
    """
    edge_nodes = fattree.edge_nodes
    # One extra bit so the bound ``len(edge_nodes)`` itself is representable —
    # otherwise the range constraint below would wrap around and become false,
    # making every all-pairs check vacuous.
    index_width = max(1, len(edge_nodes).bit_length())
    destination_index = SymBV.fresh(index_width, "dest")
    symbolic = SymbolicVariable(
        name="dest",
        value=destination_index,
        constraint=destination_index < len(edge_nodes),
    )
    index_of = {name: position for position, name in enumerate(edge_nodes)}

    concrete_route = family.route.some(announcement)
    absent = family.route.none()

    def initial(node: str) -> SymOption:
        if node not in index_of:
            return absent
        is_destination = destination_index == index_of[node]
        return ite_value(is_destination, concrete_route, absent)

    return symbolic, initial, {name: index_of[name] for name in edge_nodes}


def _symbolic_distance(
    fattree: Fattree,
    node: str,
    destination_index: SymBV,
    index_of: dict[str, int],
) -> Callable[[SymBV], SymBV]:
    """``dist(node)`` as a function of the symbolic destination.

    Returns a callable usable as the witness of :func:`until_dynamic`: given
    the symbolic time variable (for its width), it builds the ite-chain that
    selects the concrete distance matching the chosen destination.
    """

    def witness(time: SymBV) -> SymBV:
        width = time.width
        result = SymBV.constant(FATTREE_DIAMETER, width)
        for edge_node, position in index_of.items():
            distance = fattree.distance_to_destination(node, edge_node)
            result = ite_value(destination_index == position, SymBV.constant(distance, width), result)
        return result

    return witness


def _symbolic_adjacency(
    fattree: Fattree,
    node: str,
    destination_index: SymBV,
    index_of: dict[str, int],
) -> SymBool:
    """``adj(node)`` as a predicate over the symbolic destination."""
    matches = [
        destination_index == position
        for edge_node, position in index_of.items()
        if fattree.adjacent_to_destination(node, edge_node)
    ]
    if not matches:
        return SymBool.false()
    return any_of(matches)


def _ap_symmetry(fattree: Fattree) -> DestinationSymmetry:
    """The destination-permutation marker shared by every ``Ap`` builder."""
    return DestinationSymmetry(variable="dest", size=len(fattree.edge_nodes))


def _standard_annotated(
    fattree: Fattree,
    family: BgpRouteFamily,
    network: Network,
    interfaces: dict[str, TemporalPredicate],
    properties: dict[str, TemporalPredicate],
    destination: str | None = None,
) -> AnnotatedNetwork:
    # Single-destination benchmarks carry a fattree symmetry hint: witness
    # times (and hence interfaces) depend only on (role, same pod as the
    # destination, is the destination), so the symmetry-aware checker can
    # partition nodes without hashing their conditions.  All-pairs variants
    # bake per-node destination-index constants into every interface, so no
    # two nodes are isomorphic term-for-term — they carry a
    # DestinationSymmetry marker instead, and the symmetry layer quotients
    # them up to simultaneous destination-index permutation.
    symmetry_key = None if destination is None else fattree_symmetry_key(fattree, destination)
    destination_symmetry = _ap_symmetry(fattree) if destination is None else None
    return AnnotatedNetwork(
        network,
        interfaces,
        properties,
        symmetry_key=symmetry_key,
        destination_symmetry=destination_symmetry,
    )


# ---------------------------------------------------------------------------
# Reach
# ---------------------------------------------------------------------------


def inject_interface_failure(
    annotated: AnnotatedNetwork, node: str | None = None
) -> tuple[AnnotatedNetwork, str]:
    """A copy of ``annotated`` with one node's interface made unsatisfiable.

    The failure-injection recipe shared by the stop-on-failure ablation row
    and the CI parallel-streaming smoke: ``node`` (default: the middle node
    of the selection order) claims it never has a route, so its inductive
    condition — and typically its successors' — must fail.  Returns the
    poisoned network and the chosen node.
    """
    poisoned = node if node is not None else annotated.nodes[len(annotated.nodes) // 2]
    interfaces = {name: annotated.interface(name) for name in annotated.nodes}
    interfaces[poisoned] = globally(lambda r: r.is_none)
    properties = {name: annotated.node_property(name) for name in annotated.nodes}
    injected = AnnotatedNetwork(
        annotated.network,
        interfaces,
        properties,
        minimum_time_width=annotated.minimum_time_width,
    )
    return injected, poisoned


def build_reach(pods: int, all_pairs: bool = False, widths: dict[str, int] | None = None) -> FattreeBenchmark:
    """The Reach benchmark: plain shortest-path-style eBGP, reachability."""
    fattree = Fattree(pods)
    family = bgp_route_family(**(widths or COMPACT_WIDTHS))
    has_route = lambda route: route.is_some  # noqa: E731 - tiny predicate

    reach_property = finally_(FATTREE_DIAMETER, globally(has_route))
    properties = {node: reach_property for node in fattree.nodes}

    if not all_pairs:
        destination = fattree.default_destination()
        network = Network(
            topology=fattree.topology,
            route_shape=family.route,
            initial_routes=_sp_initial(family, destination, _destination_announcement(family)),
            transfer_functions=_identity_transfer(family),
            merge=_bgp_option_merge(),
        )
        interfaces = {
            node: finally_(
                fattree.distance_to_destination(node, destination), globally(has_route)
            )
            for node in fattree.nodes
        }
        annotated = _standard_annotated(
            fattree, family, network, interfaces, properties, destination=destination
        )
        return FattreeBenchmark("SpReach", "reach", False, fattree, family, annotated, destination)

    symbolic, initial, index_of = _ap_destination(fattree, family, _destination_announcement(family))
    network = Network(
        topology=fattree.topology,
        route_shape=family.route,
        initial_routes=initial,
        transfer_functions=_identity_transfer(family),
        merge=_bgp_option_merge(),
        symbolics=(symbolic,),
    )
    interfaces = {
        node: finally_dynamic(
            _symbolic_distance(fattree, node, symbolic.value, index_of),
            globally(has_route),
            max_witness=FATTREE_DIAMETER,
        )
        for node in fattree.nodes
    }
    annotated = _standard_annotated(fattree, family, network, interfaces, properties)
    return FattreeBenchmark("ApReach", "reach", True, fattree, family, annotated, None)


def _bgp_option_merge() -> Callable[[SymOption, SymOption], SymOption]:
    def merge(left: SymOption, right: SymOption) -> SymOption:
        return option_min_merge(left, right, bgp_better)

    return merge


# ---------------------------------------------------------------------------
# Len
# ---------------------------------------------------------------------------


def build_length(pods: int, all_pairs: bool = False, widths: dict[str, int] | None = None) -> FattreeBenchmark:
    """The Len benchmark: bounded path length to the destination."""
    fattree = Fattree(pods)
    family = bgp_route_family(**(widths or COMPACT_WIDTHS))

    def no_better_routes(route: SymOption) -> SymBool:
        payload = route.payload
        return route.is_none | (
            (payload.lp == DEFAULT_LOCAL_PREFERENCE) & (payload.ad == DEFAULT_ADMIN_DISTANCE)
        )

    def length_at_most(bound: int) -> Callable[[SymOption], SymBool]:
        return lambda route: route.is_some & (route.payload.as_path_length <= bound)

    length_property = finally_(FATTREE_DIAMETER, globally(length_at_most(FATTREE_DIAMETER)))
    properties = {node: length_property for node in fattree.nodes}

    if not all_pairs:
        destination = fattree.default_destination()
        network = Network(
            topology=fattree.topology,
            route_shape=family.route,
            initial_routes=_sp_initial(family, destination, _destination_announcement(family)),
            transfer_functions=_identity_transfer(family),
            merge=_bgp_option_merge(),
        )
        interfaces = {
            node: globally(no_better_routes).intersect(
                finally_(
                    fattree.distance_to_destination(node, destination),
                    globally(length_at_most(fattree.distance_to_destination(node, destination))),
                )
            )
            for node in fattree.nodes
        }
        annotated = _standard_annotated(
            fattree, family, network, interfaces, properties, destination=destination
        )
        return FattreeBenchmark("SpLen", "length", False, fattree, family, annotated, destination)

    symbolic, initial, index_of = _ap_destination(fattree, family, _destination_announcement(family))
    network = Network(
        topology=fattree.topology,
        route_shape=family.route,
        initial_routes=initial,
        transfer_functions=_identity_transfer(family),
        merge=_bgp_option_merge(),
        symbolics=(symbolic,),
    )

    def ap_interface(node: str) -> TemporalPredicate:
        distance_of = _symbolic_distance(fattree, node, symbolic.value, index_of)

        def bounded_length(route: SymOption, time: SymBV) -> SymBool:
            # path_length ≤ dist(node), where the distance depends on the
            # symbolic destination; compare by cases since the two bitvectors
            # have different widths and the distance is at most the diameter.
            distance = distance_of(time)
            return route.is_some & _length_within_distance(route.payload.as_path_length, distance)

        eventually_short = until_dynamic(
            distance_of,
            lambda route: SymBool.true(),
            TemporalPredicate(bounded_length, max_witness=FATTREE_DIAMETER),
            max_witness=FATTREE_DIAMETER,
        )
        return globally(no_better_routes).intersect(eventually_short)

    interfaces = {node: ap_interface(node) for node in fattree.nodes}
    annotated = _standard_annotated(fattree, family, network, interfaces, properties)
    return FattreeBenchmark("ApLen", "length", True, fattree, family, annotated, None)


def _length_within_distance(path_length: SymBV, distance: SymBV) -> SymBool:
    """``path_length ≤ distance`` across differing widths (distance ≤ diameter)."""
    result = SymBool.false()
    for value in range(FATTREE_DIAMETER + 1):
        result = result | ((distance == value) & (path_length <= value))
    return result


# ---------------------------------------------------------------------------
# Vf (valley freedom)
# ---------------------------------------------------------------------------


def build_valley_freedom(
    pods: int, all_pairs: bool = False, widths: dict[str, int] | None = None
) -> FattreeBenchmark:
    """The Vf benchmark: reachability under a valley-freedom tagging policy."""
    fattree = Fattree(pods)
    parameters = dict(widths or COMPACT_WIDTHS)
    family = bgp_route_family(communities=(DOWN_COMMUNITY,), **parameters)
    has_route = lambda route: route.is_some  # noqa: E731

    def transfer_for(edge: Edge) -> Callable[[SymOption], SymOption]:
        source, target = edge
        if fattree.is_down_edge(source, target):
            policy = BgpPolicy(add_communities=(DOWN_COMMUNITY,))
        elif fattree.is_up_edge(source, target):
            policy = BgpPolicy(deny_communities=(DOWN_COMMUNITY,))
        else:
            policy = BgpPolicy()
        return policy.apply

    reach_property = finally_(FATTREE_DIAMETER, globally(has_route))
    properties = {node: reach_property for node in fattree.nodes}

    def stable_payload(node_distance: int, must_be_clean: SymBool) -> Callable[[SymOption], SymBool]:
        def predicate(route: SymOption) -> SymBool:
            payload = route.payload
            clean = ~payload.communities.contains(DOWN_COMMUNITY)
            return (
                route.is_some
                & (payload.lp == DEFAULT_LOCAL_PREFERENCE)
                & (payload.ad == DEFAULT_ADMIN_DISTANCE)
                & (payload.as_path_length == node_distance)
                & (must_be_clean.implies(clean))
            )

        return predicate

    if not all_pairs:
        destination = fattree.default_destination()
        network = Network(
            topology=fattree.topology,
            route_shape=family.route,
            initial_routes=_sp_initial(family, destination, _destination_announcement(family)),
            transfer_functions=transfer_for,
            merge=_bgp_option_merge(),
        )
        interfaces = {}
        for node in fattree.nodes:
            distance = fattree.distance_to_destination(node, destination)
            adjacent = SymBool.constant(fattree.adjacent_to_destination(node, destination))
            interfaces[node] = until(
                distance,
                lambda route: route.is_none,
                globally(stable_payload(distance, adjacent)),
            )
        annotated = _standard_annotated(
            fattree, family, network, interfaces, properties, destination=destination
        )
        return FattreeBenchmark("SpVf", "valley_freedom", False, fattree, family, annotated, destination)

    symbolic, initial, index_of = _ap_destination(fattree, family, _destination_announcement(family))
    network = Network(
        topology=fattree.topology,
        route_shape=family.route,
        initial_routes=initial,
        transfer_functions=transfer_for,
        merge=_bgp_option_merge(),
        symbolics=(symbolic,),
    )

    def ap_interface(node: str) -> TemporalPredicate:
        distance_of = _symbolic_distance(fattree, node, symbolic.value, index_of)
        adjacent = _symbolic_adjacency(fattree, node, symbolic.value, index_of)

        def after(route: SymOption, time: SymBV) -> SymBool:
            payload = route.payload
            clean = ~payload.communities.contains(DOWN_COMMUNITY)
            distance = distance_of(time)
            length_matches = _compare_path_length(payload.as_path_length, distance)
            return (
                route.is_some
                & (payload.lp == DEFAULT_LOCAL_PREFERENCE)
                & (payload.ad == DEFAULT_ADMIN_DISTANCE)
                & length_matches
                & (adjacent.implies(clean))
            )

        return until_dynamic(
            distance_of,
            lambda route: route.is_none,
            TemporalPredicate(after, max_witness=FATTREE_DIAMETER),
            max_witness=FATTREE_DIAMETER,
        )

    interfaces = {node: ap_interface(node) for node in fattree.nodes}
    annotated = _standard_annotated(fattree, family, network, interfaces, properties)
    return FattreeBenchmark("ApVf", "valley_freedom", True, fattree, family, annotated, None)


def _compare_path_length(path_length: SymBV, distance: SymBV) -> SymBool:
    """``path_length == distance`` across differing widths (distance ≤ diameter)."""
    if path_length.width == distance.width:
        return path_length == distance
    # The distance is at most the fattree diameter (4), so compare by case.
    result = SymBool.false()
    for value in range(FATTREE_DIAMETER + 1):
        result = result | ((distance == value) & (path_length == value))
    return result


# ---------------------------------------------------------------------------
# Hijack
# ---------------------------------------------------------------------------


def build_hijack(pods: int, all_pairs: bool = False, widths: dict[str, int] | None = None) -> FattreeBenchmark:
    """The Hijack benchmark: route filtering against an adversarial peer.

    A ``hijacker`` node is attached to every core switch and may announce any
    route (its initial route is symbolic, marked with the ``external`` ghost
    bit).  The destination announces the symbolic prefix ``p``; core switches
    drop routes for ``p`` learned from the hijacker.  The property states that
    every internal node eventually holds a route for ``p`` that is not via the
    hijacker.
    """
    fattree = Fattree(pods)
    parameters = dict(widths or COMPACT_WIDTHS)
    family = bgp_route_family(ghost_fields={"external": BoolShape()}, **parameters)

    topology = fattree.topology
    for core in fattree.core_nodes:
        topology.add_undirected_edge(HIJACKER, core)

    prefix_width = parameters["prefix_width"]
    internal_prefix = SymBV.fresh(prefix_width, "prefix")
    prefix_symbolic = SymbolicVariable(name="prefix", value=internal_prefix)

    hijacker_route = family.route.fresh("hijack_announcement")
    hijacker_symbolic = SymbolicVariable(
        name="hijack_announcement",
        value=hijacker_route,
        constraint=family.route.constraint(hijacker_route)
        & (hijacker_route.is_none | hijacker_route.payload.external),
    )

    def transfer_for(edge: Edge) -> Callable[[SymOption], SymOption]:
        source, target = edge
        if source == HIJACKER:
            # Core switches filter hijacker routes for the internal prefix.
            policy = BgpPolicy(guard=lambda payload: payload.prefix != internal_prefix)
        else:
            policy = BgpPolicy()
        return policy.apply

    def merge(left: SymOption, right: SymOption) -> SymOption:
        # Routes for the internal prefix win over routes for other prefixes
        # (the per-prefix RIB abstraction), then the usual decision process.
        def better(a: Any, b: Any) -> SymBool:
            a_internal = a.prefix == internal_prefix
            b_internal = b.prefix == internal_prefix
            return (a_internal & ~b_internal) | ((a_internal == b_internal) & bgp_better(a, b))

        return option_min_merge(left, right, better)

    def internal_route(route: SymOption) -> SymBool:
        return route.is_some & (route.payload.prefix == internal_prefix) & ~route.payload.external

    def no_hijack(route: SymOption) -> SymBool:
        return route.is_none | (route.payload.prefix == internal_prefix).implies(
            ~route.payload.external
        )

    hijack_property = finally_(FATTREE_DIAMETER, globally(internal_route))
    properties: dict[str, TemporalPredicate] = {
        node: hijack_property for node in fattree.nodes
    }
    properties[HIJACKER] = always_true()

    def announcement() -> dict[str, Any]:
        values = family.default_announcement(external=False)
        return values

    def make_initial(sp_destination: str | None, ap_initial: Callable[[str], SymOption] | None):
        concrete = dict(announcement())

        def initial(node: str) -> SymOption:
            if node == HIJACKER:
                return hijacker_route
            if ap_initial is not None:
                base = ap_initial(node)
            elif node == sp_destination:
                base = family.route.some(concrete)
            else:
                base = family.route.none()
            # The destination advertises the symbolic prefix p.
            return base.map(lambda payload: payload.with_fields(prefix=internal_prefix))

        return initial

    if not all_pairs:
        destination = fattree.default_destination()
        network = Network(
            topology=topology,
            route_shape=family.route,
            initial_routes=make_initial(destination, None),
            transfer_functions=transfer_for,
            merge=merge,
            symbolics=(prefix_symbolic, hijacker_symbolic),
        )
        interfaces: dict[str, TemporalPredicate] = {}
        for node in fattree.nodes:
            distance = fattree.distance_to_destination(node, destination)
            interfaces[node] = finally_(distance, globally(internal_route)).intersect(
                globally(no_hijack)
            )
        interfaces[HIJACKER] = always_true()
        annotated = _standard_annotated(
            fattree, family, network, interfaces, properties, destination=destination
        )
        return FattreeBenchmark("SpHijack", "hijack", False, fattree, family, annotated, destination)

    symbolic, ap_initial, index_of = _ap_destination(fattree, family, announcement())
    network = Network(
        topology=topology,
        route_shape=family.route,
        initial_routes=make_initial(None, ap_initial),
        transfer_functions=transfer_for,
        merge=merge,
        symbolics=(symbolic, prefix_symbolic, hijacker_symbolic),
    )
    interfaces = {}
    for node in fattree.nodes:
        distance_of = _symbolic_distance(fattree, node, symbolic.value, index_of)
        interfaces[node] = finally_dynamic(
            distance_of, globally(internal_route), max_witness=FATTREE_DIAMETER
        ).intersect(globally(no_hijack))
    interfaces[HIJACKER] = always_true()
    annotated = AnnotatedNetwork(
        network, interfaces, properties, destination_symmetry=_ap_symmetry(fattree)
    )
    return FattreeBenchmark("ApHijack", "hijack", True, fattree, family, annotated, None)
