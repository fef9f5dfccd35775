"""The benchmark registry: every verifiable network behind one named path.

Harness sweeps, the CLI, the benchmark suite and the tests all construct
networks through one namespace of ``family/property`` names —

* ``fattree/reach``, ``fattree/length``, ``fattree/valley_freedom``,
  ``fattree/hijack`` (the all-pairs ``Ap`` variants via ``all_pairs=True``);
* ``wan/block_to_external`` (alias ``wan/reach``): the synthetic Internet2;
* ``ghost/reach`` (alias of the Figure 10 ``fromw`` construction),
  ``ghost/no_transit``, ``ghost/waypoint``;

— each mapping to a builder with *declared, validated* parameters: unknown
parameter names, wrong types and out-of-range values are rejected with a
:class:`~repro.errors.BenchmarkError` naming the benchmark and the allowed
values, before any network is built.

Every build returns an object satisfying the small
:class:`BuiltBenchmark` contract (``name``, ``annotated``, ``node_count``,
``parameters``), whatever shape the underlying builder produces, so callers
can hand the result straight to :class:`repro.verify.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.annotations import AnnotatedNetwork
from repro.errors import BenchmarkError


@dataclass(frozen=True)
class Parameter:
    """One declared, validated parameter of a registered benchmark."""

    name: str
    kind: type
    default: Any
    description: str = ""
    #: Optional extra validation; returns an error string or ``None``.
    check: Callable[[Any], str | None] | None = None

    def validate(self, benchmark: str, value: Any) -> Any:
        if self.kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if self.kind is not Any:
            # None is legal only for parameters whose declared default is
            # None (e.g. optional overrides); elsewhere it is a type error
            # like any other, reported before the check callback runs.
            allows_none = self.default is None
            if (value is None and not allows_none) or (
                value is not None
                and (
                    not isinstance(value, self.kind)
                    or (self.kind is int and isinstance(value, bool))
                )
            ):
                raise BenchmarkError(
                    f"benchmark {benchmark!r}: parameter {self.name!r} must be "
                    f"{self.kind.__name__}, got {type(value).__name__}"
                )
        if self.check is not None:
            problem = self.check(value)
            if problem is not None:
                raise BenchmarkError(
                    f"benchmark {benchmark!r}: parameter {self.name!r} {problem} "
                    f"(got {value!r})"
                )
        return value


@dataclass(frozen=True)
class BenchmarkSpec:
    """A registered benchmark: a named builder with declared parameters."""

    name: str
    builder: Callable[..., Any]
    description: str
    parameters: tuple[Parameter, ...] = ()
    aliases: tuple[str, ...] = ()

    def build(self, **overrides: Any) -> "BuiltBenchmark":
        declared = {parameter.name: parameter for parameter in self.parameters}
        unknown = set(overrides) - set(declared)
        if unknown:
            raise BenchmarkError(
                f"benchmark {self.name!r} has no parameters {sorted(unknown)}; "
                f"allowed: {sorted(declared) or 'none'}"
            )
        arguments = {}
        for parameter in self.parameters:
            value = overrides.get(parameter.name, parameter.default)
            arguments[parameter.name] = parameter.validate(self.name, value)
        built = self.builder(**arguments)
        if isinstance(built, AnnotatedNetwork):
            return BuiltBenchmark(
                name=self.name, annotated=built, parameters=dict(arguments), raw=built
            )
        return BuiltBenchmark(
            name=getattr(built, "name", self.name),
            annotated=built.annotated,
            parameters=dict(arguments),
            raw=built,
        )


@dataclass
class BuiltBenchmark:
    """The uniform result of :func:`build`: ready for a verification session."""

    name: str
    annotated: AnnotatedNetwork
    parameters: dict[str, Any] = field(default_factory=dict)
    #: The underlying builder result (e.g. a ``FattreeBenchmark``), for
    #: callers that need family-specific details.
    raw: Any = None

    @property
    def network(self):
        return self.annotated.network

    @property
    def node_count(self) -> int:
        return self.annotated.network.topology.node_count


_REGISTRY: dict[str, BenchmarkSpec] = {}
_ALIASES: dict[str, str] = {}


def register(spec: BenchmarkSpec) -> BenchmarkSpec:
    """Register a benchmark spec (and its aliases) by name."""
    if spec.name in _REGISTRY or spec.name in _ALIASES:
        raise BenchmarkError(f"benchmark {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        if alias in _REGISTRY or alias in _ALIASES:
            raise BenchmarkError(f"benchmark alias {alias!r} is already registered")
        _ALIASES[alias] = spec.name
    return spec


def benchmark_names(include_aliases: bool = False) -> tuple[str, ...]:
    """The registered benchmark names, sorted."""
    names = set(_REGISTRY)
    if include_aliases:
        names |= set(_ALIASES)
    return tuple(sorted(names))


def get_spec(name: str) -> BenchmarkSpec:
    """Look up a spec by name or alias; raises with the known names."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise BenchmarkError(
            f"unknown benchmark {name!r}; choose one of {list(benchmark_names(include_aliases=True))}"
        ) from None


def build(name: str, **parameters: Any) -> BuiltBenchmark:
    """Build a registered benchmark with validated parameters."""
    return get_spec(name).build(**parameters)


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------


def _positive(what: str) -> Callable[[Any], str | None]:
    return lambda value: None if value > 0 else f"must be a positive {what}"


def _even_pods(value: Any) -> str | None:
    if value < 2 or value % 2 != 0:
        return "must be an even pod count >= 2"
    return None


def _widths_check(value: Any) -> str | None:
    if value is None:
        return None
    if not isinstance(value, Mapping):
        return "must be a mapping of field-width overrides or None"
    return None


def _fattree_parameters() -> tuple[Parameter, ...]:
    return (
        Parameter("pods", int, 4, "fattree pod count k", _even_pods),
        Parameter("all_pairs", bool, False, "symbolic-destination (Ap) variant"),
        Parameter("widths", Any, None, "route field-width overrides", _widths_check),
    )


def _register_fattree(policy: str, description: str) -> None:
    from repro.networks import benchmarks as fattree

    builders = {
        "reach": fattree.build_reach,
        "length": fattree.build_length,
        "valley_freedom": fattree.build_valley_freedom,
        "hijack": fattree.build_hijack,
    }
    register(
        BenchmarkSpec(
            name=f"fattree/{policy}",
            builder=builders[policy],
            description=description,
            parameters=_fattree_parameters(),
        )
    )


def _build_wan(internal_routers: int, external_peers: int, buggy: bool):
    from repro.config.generator import WanParameters
    from repro.networks.wan import build_wan_benchmark

    return build_wan_benchmark(
        WanParameters(
            internal_routers=internal_routers, external_peers=external_peers, buggy=buggy
        )
    )


def _build_ghost_reach():
    from repro.networks.ghost import reachability_from_destination

    return reachability_from_destination()


def _build_ghost_no_transit():
    from repro.networks.ghost import no_transit_network

    return no_transit_network()


def _build_ghost_waypoint(waypoints: tuple[str, ...]):
    from repro.networks.ghost import unordered_waypoint_network

    return unordered_waypoint_network(waypoints=tuple(waypoints))


def _register_builtins() -> None:
    _register_fattree("reach", "every node eventually has a route (Reach)")
    _register_fattree("length", "bounded path length to the destination (Len)")
    _register_fattree("valley_freedom", "reachability under valley-freedom tagging (Vf)")
    _register_fattree("hijack", "route filtering against an adversarial peer (Hijack)")
    register(
        BenchmarkSpec(
            name="wan/block_to_external",
            builder=_build_wan,
            description="BlockToExternal on the synthetic Internet2 WAN",
            parameters=(
                Parameter(
                    "internal_routers",
                    int,
                    10,
                    "internal ring size",
                    lambda v: None if v >= 3 else "must be at least 3",
                ),
                Parameter(
                    "external_peers", int, 40, "external peer count", _positive("peer count")
                ),
                Parameter("buggy", bool, False, "plant the missing-export-filter bug"),
            ),
            aliases=("wan/reach",),
        )
    )
    register(
        BenchmarkSpec(
            name="ghost/reach",
            builder=_build_ghost_reach,
            description="the running example with the fromw ghost bit (Figure 10)",
        )
    )
    register(
        BenchmarkSpec(
            name="ghost/no_transit",
            builder=_build_ghost_no_transit,
            description="two providers and a customer that must not provide transit",
        )
    )
    register(
        BenchmarkSpec(
            name="ghost/waypoint",
            builder=_build_ghost_waypoint,
            description="a service chain whose routes must traverse every waypoint",
            parameters=(
                Parameter(
                    "waypoints",
                    tuple,
                    ("firewall", "scrubber"),
                    "waypoint node names, in chain order",
                    lambda v: None if len(v) >= 1 else "must name at least one waypoint",
                ),
            ),
        )
    )


_register_builtins()
