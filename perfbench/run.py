"""The repository benchmark: cold-process workloads on ``repro.verify``.

    python3 perfbench/run.py --workload sp-edit-stream --seed 1 --seconds 42 --trace 0

Run from the root of a checkout.  Each repetition is a new interpreter
(``perfbench/workload.py``); repetitions run back to back until ``--seconds``
is spent, and the medians are reported.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print the same numbers as a table with units, plus the counts of
the verdict gate and which counters repeated exactly.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates traced and untraced repetitions and reports the per-layer metrics
of the traced ones, with the tracing overhead and the untraced edit
latencies.  Repetitions alternate between two ``PYTHONHASHSEED`` values, so a
counter that repeats across a run is independent of hash ordering.

Every timed call is checked against ``perfbench/expected/<workload>.json``;
a wrong verdict, a raised call or a crashed process is printed to standard
error, makes ``correct`` false and the exit code 1.  ``perfbench/README.md``
lists the workloads, the metrics and which layer each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

from workload import EDITS, HERE, WORKLOADS, load_expected

ROOT = os.path.dirname(HERE)
HASH_SEEDS = ("101", "202")
MIN_SETUP_SAMPLES = 5
# Every process must be gone well within the 180 s a run may take.
HARD_LIMIT_S = 160.0


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of every metric ``BENCHMARK.json`` lists under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def wrong_verdicts(expected: dict[str, Any], op: dict[str, Any]) -> tuple[int, list[str]]:
    """Conditions of one call whose verdict differs from the expected file.

    A node's verdicts must match the expected ``[condition, holds]`` list
    position by position, and a condition carries a counterexample exactly
    when it fails; each missing, extra or different entry counts once.
    """
    observed = op["verdicts"]
    problems: list[str] = []
    wrong = 0
    if len(observed) != expected["nodes"]:
        missing = expected["nodes"] - len(observed)
        wrong += abs(missing) * len(expected["verified"])
        problems.append(f"{len(observed)} nodes reported, expected {expected['nodes']}")
    for node, results in sorted(observed.items()):
        want = expected["poisoned"] if node == op.get("node") else expected["verified"]
        got = [[condition, holds] for condition, holds, _ in results]
        node_wrong = sum(
            1
            for index in range(max(len(want), len(got)))
            if index >= len(want) or index >= len(got) or want[index] != got[index]
        )
        node_wrong += sum(
            1 for _, holds, has_counterexample in results if holds == has_counterexample
        )
        if node_wrong:
            wrong += node_wrong
            problems.append(f"{op['kind']} {node}: got {results}, expected {want}")
    return wrong, problems


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark invocation: spawns repetitions and gathers their documents."""

    def __init__(self, workload: str, seed: int, trace: bool, work_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work_dir = work_dir
        self.expected = load_expected(workload)
        self.started = time.monotonic()
        self.documents: list[dict[str, Any]] = []
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.trace_missing: set[str] = set()
        self.environment = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            # Compiled modules go to the benchmark's own cache, not into src/.
            PYTHONPYCACHEPREFIX=os.path.join(HERE, ".cache", "pycache"),
        )

    def spawn(self, index: int, traced: bool, setup_only: bool = False) -> float:
        """Run one repetition in a new interpreter; returns its wall time."""
        out = os.path.join(self.work_dir, f"rep-{index}.json")
        command = [
            sys.executable,
            os.path.join(HERE, "workload.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--work-dir", self.work_dir,
            "--out", out,
        ]
        if traced:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        environment = dict(self.environment, PYTHONHASHSEED=self.hash_seed(index))
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        # A session of its own, so that a hung repetition is killed together
        # with any pool workers it forked.
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = process.communicate(timeout=max(1.0, remaining))
            crashed = process.returncode != 0
            detail = stderr.strip()[-2000:]
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            crashed, detail = True, f"repetition {index} did not finish in {remaining:.0f} s"
        elapsed = time.monotonic() - spawned
        planned = 0 if setup_only else (EDITS if self.workload == "sp-edit-stream" else 1)
        if crashed or not os.path.exists(out):
            self.attempted += planned
            self.failed += planned
            self.problems.append(f"repetition {index} failed: {detail}")
            return elapsed
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
        os.unlink(out)
        document["traced"] = traced
        self.trace_missing.update(document.get("trace_missing", ()))
        self.setup_samples.append(document["first_call"] - spawned)
        for op in document["setup_ops"]:
            self.gate(op, timed=False)
        if setup_only:
            return elapsed
        for op in document["ops"]:
            self.gate(op, timed=True)
        self.documents.append(document)
        return elapsed

    def hash_seed(self, index: int) -> str:
        # Traced runs alternate traced/untraced repetitions, so the hash seed
        # flips every other repetition there to put both seeds under tracing.
        if self.trace:
            return HASH_SEEDS[((index + 1) // 2) % 2]
        return HASH_SEEDS[index % 2]

    def gate(self, op: dict[str, Any], timed: bool) -> None:
        if timed:
            self.attempted += 1
        if "error" in op:
            self.failed += timed
            self.problems.append(f"{op['kind']} {op['node'] or ''} raised {op['error']}")
            return
        wrong, problems = wrong_verdicts(self.expected, op)
        if wrong:
            self.wrong += wrong
            self.failed += timed
            self.problems.extend(problems[:5])

    def repeat(self, seconds: float) -> None:
        minimum = 2 if self.trace else 1
        durations: list[float] = []
        index = 0
        while True:
            durations.append(self.spawn(index, traced=self.trace and index % 2 == 0))
            index += 1
            spent = time.monotonic() - self.started
            # Another timed repetition must leave room for the set-up-only
            # processes still owed after it, so the run ends within --seconds.
            owed = 0 if self.trace else MIN_SETUP_SAMPLES - len(self.setup_samples) - 1
            owed_s = max(0, owed) * max(self.setup_samples, default=0.0)
            if index >= minimum and spent + max(durations[-2:]) + owed_s > seconds:
                break
            if spent + max(durations[-2:]) > HARD_LIMIT_S:
                break
        if not self.trace:
            for index in range(index, index + MIN_SETUP_SAMPLES - len(self.setup_samples)):
                if time.monotonic() - self.started > HARD_LIMIT_S - 10:
                    break
                self.spawn(index, traced=False, setup_only=True)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.failed == 0 and bool(self.documents)

    def reps(self, traced: bool) -> list[dict[str, Any]]:
        return [document for document in self.documents if document["traced"] == traced]

    def end_to_end(self) -> dict[str, float]:
        reps = self.reps(traced=False)
        return {
            "verify_s": median([sum(op["latency_s"] for op in rep["ops"]) for rep in reps]),
            "setup_s": median(self.setup_samples),
            "cpu_s": median([rep["cpu_s"] for rep in reps]),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
        }

    def edit_p50(self, kind: str) -> float:
        """Median over untraced processes of each one's median latency of ``kind``."""
        per_rep = [
            [op["latency_s"] for op in rep["ops"] if op["kind"] == kind]
            for rep in self.reps(traced=False)
        ]
        return median([median(latencies) for latencies in per_rep if latencies])

    def determinism(self) -> dict[str, tuple[str, int]]:
        """Per counter: ``(mark, median)`` over every repetition that has it."""
        values: dict[str, list[int]] = {}
        schedule_dependent: set[str] = set()
        for rep in self.documents:
            for name, value in rep["counters"].items():
                values.setdefault(name, []).append(value)
            schedule_dependent.update(rep["schedule_dependent"])
        marks = {}
        for name, seen in sorted(values.items()):
            repeated = len(seen) >= 2 and len(set(seen)) == 1
            if name in schedule_dependent:
                mark = "schedule-dependent" + (" (repeated)" if repeated else "")
            elif len(seen) < 2:
                mark = "unchecked (one sample)"
            else:
                mark = "exact" if repeated else "varies"
            marks[name] = (mark, int(statistics.median(seen)))
        return marks

    def per_layer(self) -> dict[str, float]:
        traced = self.reps(traced=True)
        metrics = {
            name: median([rep["layers"][name] for rep in traced])
            for name in traced[0]["layers"]
        }
        untraced_verify = self.end_to_end()["verify_s"]
        metrics["trace.overhead"] = (
            metrics["verify.session.traced_verify_s"] / untraced_verify if untraced_verify else 0.0
        )
        metrics["edit.break_p50_s"] = self.edit_p50("break")
        metrics["edit.revert_p50_s"] = self.edit_p50("revert")
        marks = self.determinism()
        metrics["counters.exact"] = sum(1 for mark, _ in marks.values() if mark == "exact")
        metrics["counters.varying"] = sum(1 for mark, _ in marks.values() if mark == "varies")
        return metrics


def print_table(run: Run, metrics: dict[str, tuple[float, str]]) -> None:
    reps = len(run.documents)
    print(
        f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
        f"processes {reps} timed + {len(run.setup_samples) - reps} set-up only"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'ops':<36} {run.attempted:>14d} count")
    print(f"  {'ops_failed':<36} {run.failed:>14d} count")
    print(f"  {'wrong_verdicts':<36} {run.wrong:>14d} count")
    if run.workload == "sp-edit-stream" and run.reps(traced=False):
        print(f"  {'break_p50_s':<36} {run.edit_p50('break'):>14.6g} s  (20 samples/process)")
        print(f"  {'revert_p50_s':<36} {run.edit_p50('revert'):>14.6g} s  (20 samples/process)")
    if run.documents:
        print("  counters (over both PYTHONHASHSEED values):")
        for name, (mark, value) in run.determinism().items():
            print(f"    {name:<34} {value:>14d}  {mark}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark of repro.verify.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        run = Run(args.workload, args.seed, bool(args.trace), work_dir)
        run.repeat(args.seconds)
        if not run.reps(traced=bool(args.trace)):
            for problem in run.problems:
                print(f"error: {problem}", file=sys.stderr)
            print("error: no repetition completed", file=sys.stderr)
            return 1
        values = run.per_layer() if args.trace else run.end_to_end()
        units = metric_units("per_layer" if args.trace else "end_to_end")
        metrics = {name: (values[name], unit) for name, unit in units.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print_table(run, metrics)
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for entry_point in sorted(run.trace_missing):
        print(f"warning: traced entry point {entry_point} not found", file=sys.stderr)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
