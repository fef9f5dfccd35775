"""One cold benchmark process: set up a workload, time its verify() calls, report.

``run.py`` starts this script once per repetition, in a new interpreter, and
never times two repetitions in one process.  The reason is that
``repro.smt.reset_process_solver()`` does not make a process cold again: the
module-level bit-blaster (``_PROCESS_BLASTER``), the hash-consed terms and the
fingerprint digest memo all stay warm, so a second in-process run skips most
bit-blasting (``bitblast_misses`` falls to 0 by the third run).

The script writes one JSON document to ``--out``: the ``time.monotonic()``
reading at the first timed call (``run.py`` subtracts its spawn time to get
``setup_s``), each timed call's latency and verdicts, CPU and peak RSS of the
timed part, exact counters, and with ``--trace`` the per-layer metrics.

Workloads (k=8 fattree, 80 nodes, all on the public ``repro.verify`` API):

* ``sp-reach-cold``: one ``verify()`` of single-destination Reach with
  ``Modular(symmetry="off")``, sequential.
* ``ap-reach-quotient``: one ``verify()`` of all-pairs Reach with
  ``Modular(symmetry="classes")``, sequential (the destination quotient).
* ``sp-length-parallel``: one ``verify()`` of single-destination Length with
  ``Modular(symmetry="off", parallel=2)``.
* ``sp-edit-stream``: set-up fills a delta store with one full verify of
  single-destination Reach under ``Modular(symmetry="classes",
  delta="reuse")``; the timed part is 40 single-node edits alternating
  *break* (``inject_interface_failure`` at a seeded node) and *revert*
  (back to the verified network).

``--seed`` fixes the inputs: the node order handed to ``verify()`` on the
first three workloads, and the poisoned nodes on the edit stream.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from typing import Any

from tracer import install, sat_counters, subtract

PODS = 8
HERE = os.path.dirname(os.path.abspath(__file__))
EDITS = 40
# Breaks cycle through the switch tiers in this fixed proportion (4 core, 8
# aggregation, 8 edge per stream); the seed picks the node within the tier.
# Core and aggregation breaks cost about a sixth more than edge breaks, so a
# free draw would make the stream's total work depend on the seed.
BREAK_TIERS = ("core-", "agg-", "edge-", "agg-", "edge-")

WORKLOADS: dict[str, dict[str, Any]] = {
    "sp-reach-cold": {"benchmark": "fattree/reach", "all_pairs": False, "strategy": {}},
    "ap-reach-quotient": {
        "benchmark": "fattree/reach",
        "all_pairs": True,
        "strategy": {"symmetry": "classes"},
    },
    "sp-length-parallel": {
        "benchmark": "fattree/length",
        "all_pairs": False,
        "strategy": {"parallel": 2},
    },
    "sp-edit-stream": {
        "benchmark": "fattree/reach",
        "all_pairs": False,
        "strategy": {"symmetry": "classes", "delta": "reuse"},
    },
}


def load_expected(workload: str) -> dict[str, Any]:
    with open(os.path.join(HERE, "expected", f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def usage() -> tuple[float, float, float]:
    """CPU seconds of this process and its reaped children, and both peak RSS in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, own.ru_maxrss / 1024.0, children.ru_maxrss / 1024.0


def verdicts(report: Any) -> dict[str, list[list[Any]]]:
    """Per node: ``[condition, holds, has_counterexample]`` in discharge order."""
    return {
        node: [
            [result.condition, result.holds, result.counterexample is not None]
            for result in node_report.results
        ]
        for node, node_report in report.node_reports.items()
    }


def report_counters(report: Any) -> dict[str, int]:
    """Exact counts the report itself carries (no tracing needed)."""
    results = [result for node in report.node_reports.values() for result in node.results]
    counters = {
        "decided": len(results),
        "discharged": sum(
            1 for result in results if not result.reused and result.propagated_from is None
        ),
        "reused": sum(1 for result in results if result.reused),
        "counterexamples": sum(1 for result in results if result.counterexample is not None),
        "classes": report.symmetry_classes or 0,
    }
    for name, value in (report.backend_cache or {}).items():
        counters[f"cache.{name}"] = value
    return counters


def add_into(total: dict[str, int], part: dict[str, int]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def build_ops(
    workload: str, annotated: Any, seed: int, expected: dict[str, Any]
) -> list[tuple[str, str | None, Any, Any]]:
    """The timed calls: ``(kind, poisoned node, network, nodes argument)``."""
    rng = random.Random(seed)
    if workload != "sp-edit-stream":
        order = list(annotated.nodes)
        rng.shuffle(order)
        return [("verify", None, annotated, tuple(order))]
    from repro.networks.benchmarks import inject_interface_failure

    excluded = set(expected["break_excluded"])
    tiers = {
        tier: [node for node in annotated.nodes if node.startswith(tier) and node not in excluded]
        for tier in BREAK_TIERS
    }
    ops: list[tuple[str, str | None, Any, Any]] = []
    for index in range(EDITS):
        if index % 2 == 0:
            node = rng.choice(tiers[BREAK_TIERS[(index // 2) % len(BREAK_TIERS)]])
            poisoned, _ = inject_interface_failure(annotated, node)
            ops.append(("break", node, poisoned, None))
        else:
            ops.append(("revert", None, annotated, None))
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--backend",
        default="incremental",
        help="SMT backend; only the verdict cross-check uses 'fresh'",
    )
    args = parser.parse_args()

    active = install(args.work_dir) if args.trace else None

    from repro.networks import registry
    from repro.verify import Modular, verify

    spec = WORKLOADS[args.workload]
    expected = load_expected(args.workload)
    built = registry.build(spec["benchmark"], pods=PODS, all_pairs=spec["all_pairs"])
    annotated = built.annotated
    options = dict(spec["strategy"], backend=args.backend)
    if options.get("delta") == "reuse":
        options["store"] = os.path.join(args.work_dir, f"store-{os.getpid()}.json")
    strategy = Modular(**options)
    ops = build_ops(args.workload, annotated, args.seed, expected)

    document: dict[str, Any] = {"ops": [], "setup_ops": []}
    if options.get("delta") == "reuse":
        # Filling the store is set-up: it is what a long-running verifier
        # did before the edits arrive.
        fill = verify(annotated, strategy)
        document["setup_ops"].append({"kind": "verify", "node": None, "verdicts": verdicts(fill)})

    setup_totals = None
    if active is not None:
        document["trace_missing"] = active.missing
        setup_totals = (dict(active.self_s), dict(active.calls), dict(active.counts))
    document["first_call"] = time.monotonic()
    if args.setup_only:
        return write(args.out, document)

    cpu_before, _, _ = usage()
    counters: dict[str, int] = {}
    # A pool's SAT work is only visible through the traced workers' files.
    sat_before = sat_counters() if active is not None or strategy.parallel == 1 else None
    workers_seen = 0
    worker_busy = 0.0
    worker_sat: dict[str, int] = {}
    for kind, node, network, nodes in ops:
        entry: dict[str, Any] = {"kind": kind, "node": node}
        since = dict(active.counts) if active is not None else {}
        started = time.perf_counter()
        try:
            if active is not None:
                with active.span("verify.session"):
                    report = verify(network, strategy, nodes=nodes)
            else:
                report = verify(network, strategy, nodes=nodes)
        except Exception as error:  # a failed call is counted by the gate, not fatal
            entry["latency_s"] = time.perf_counter() - started
            entry["error"] = f"{type(error).__name__}: {error}"
            document["ops"].append(entry)
            continue
        entry["latency_s"] = time.perf_counter() - started
        if active is not None:
            collected = active.collect_workers(since)
            workers_seen = max(workers_seen, collected["workers"])
            worker_busy += collected["busy_s"]
            add_into(worker_sat, collected["sat"])
        entry["verdicts"] = verdicts(report)
        add_into(counters, report_counters(report))
        document["ops"].append(entry)
    cpu_after, own_rss, children_rss = usage()

    if sat_before is not None:
        add_into(worker_sat, subtract(sat_counters(), sat_before))
        counters.update({f"sat.{name}": value for name, value in worker_sat.items()})
    if active is not None:
        shipped = active.counts["clauses_shipped"]
        counters["traced.clauses_shipped"] = shipped - setup_totals[2].get("clauses_shipped", 0)
    document["cpu_s"] = cpu_after - cpu_before
    document["peak_rss_mb"] = max(own_rss, children_rss)
    document["counters"] = counters
    # Solver work in a pool depends on which worker gets which node.
    document["schedule_dependent"] = sorted(
        name
        for name in counters
        if strategy.parallel > 1 and name.startswith(("cache.", "sat.", "traced."))
    )
    if active is not None:
        document["layers"] = layer_metrics(
            active, setup_totals, document, counters, workers_seen, worker_busy
        )
    return write(args.out, document)


def layer_metrics(
    active: Any,
    setup_totals: Any,
    document: dict[str, Any],
    counters: dict[str, int],
    workers: int,
    worker_busy: float,
) -> dict[str, float]:
    """Per-layer metrics of the timed part of one traced process."""
    setup_self, setup_calls, setup_counts = setup_totals

    def self_s(layer: str) -> float:
        return active.self_s.get(layer, 0.0) - setup_self.get(layer, 0.0)

    def calls(layer: str) -> int:
        return active.calls.get(layer, 0) - setup_calls.get(layer, 0)

    def count(name: str) -> int:
        return active.counts.get(name, 0) - setup_counts.get(name, 0)

    def cache(name: str) -> int:
        return counters.get(f"cache.{name}", 0)

    traced_verify = sum(op["latency_s"] for op in document["ops"])
    unattributed = self_s("verify.session")
    parallel_wall = count("dispatch_wall_ns") / 1e9
    return {
        "networks.build_s": setup_self.get("networks", 0.0),
        "core.conditions.self_s": self_s("core.conditions"),
        "core.conditions.calls": calls("core.conditions"),
        "core.symmetry.partition_s": self_s("core.symmetry.partition"),
        "core.symmetry.classes": counters["classes"],
        "core.symmetry.discharge_ratio": ratio(counters["discharged"], counters["decided"]),
        "core.symmetry.translate_s": self_s("core.symmetry.translate"),
        "core.fingerprint.self_s": self_s("core.fingerprint"),
        "core.fingerprint.nodes": count("fingerprint_nodes"),
        "verify.store.open_s": self_s("verify.store.open"),
        "verify.store.save_s": self_s("verify.store.save"),
        "verify.store.bytes": count("store_bytes"),
        "verify.store.reuse_ratio": ratio(counters["reused"], counters["decided"]),
        "smt.bitblast.self_s": self_s("smt.bitblast"),
        "smt.bitblast.hit_ratio": ratio(
            cache("bitblast_hits"), cache("bitblast_hits") + cache("bitblast_misses")
        ),
        "smt.tseitin.self_s": self_s("smt.tseitin"),
        "smt.tseitin.misses": cache("tseitin_misses"),
        "smt.tseitin.hit_ratio": ratio(
            cache("tseitin_hits"), cache("tseitin_hits") + cache("tseitin_misses")
        ),
        "smt.incremental.self_s": self_s("smt.incremental"),
        "smt.incremental.clauses_shipped": counters["traced.clauses_shipped"],
        "smt.incremental.guard_hit_ratio": ratio(
            cache("guard_hits"), cache("guard_hits") + cache("guard_misses")
        ),
        "smt.incremental.scopes": cache("scopes"),
        "smt.sat.solve_s": self_s("smt.sat"),
        "smt.sat.calls": calls("smt.sat"),
        "smt.sat.conflicts": counters.get("sat.conflicts", 0),
        "smt.sat.decisions": counters.get("sat.decisions", 0),
        "smt.sat.propagations": counters.get("sat.propagations", 0),
        "core.counterexample.self_s": self_s("core.counterexample"),
        "core.counterexample.count": counters["counterexamples"],
        "core.checker.self_s": self_s("core.checker"),
        "core.parallel.wall_s": parallel_wall,
        "core.parallel.worker_busy_s": worker_busy,
        "core.parallel.utilisation": ratio(worker_busy, workers * parallel_wall),
        "core.parallel.workers": workers,
        "verify.session.unattributed_s": unattributed,
        "verify.session.coverage": ratio(traced_verify - unattributed, traced_verify),
        "verify.session.traced_verify_s": traced_verify,
    }


def write(path: str, document: dict[str, Any]) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
