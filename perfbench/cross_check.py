"""Cross-check the expected-verdict files against the fresh SMT backend.

    python3 perfbench/cross_check.py [--seed 1] [workload ...]

Runs one repetition of each workload with ``Modular(backend="fresh")`` (one
new SAT instance per condition, none of the incremental backend's caches) and
applies the same verdict gate as ``run.py``.  The expected files are written
by hand from their rule; this is the independent check that the rule and the
program agree.  Exits 1 when any verdict differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import HERE, ROOT, WORKLOADS, load_expected, wrong_verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="cross-check-", dir=os.path.join(HERE, ".work"))
    environment = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONPYCACHEPREFIX=os.path.join(HERE, ".cache", "pycache"),
    )
    failures = 0
    try:
        for workload in args.workloads:
            out = os.path.join(work_dir, f"{workload}.json")
            subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "workload.py"),
                    "--workload", workload, "--seed", str(args.seed),
                    "--work-dir", work_dir, "--out", out, "--backend", "fresh",
                ],
                cwd=ROOT, env=environment, check=True,
            )
            with open(out, encoding="utf-8") as handle:
                document = json.load(handle)
            expected = load_expected(workload)
            ops = document["setup_ops"] + document["ops"]
            wrong = 0
            for op in ops:
                if "error" in op:
                    print(f"{workload}: {op['kind']} raised {op['error']}", file=sys.stderr)
                    wrong += 1
                    continue
                count, problems = wrong_verdicts(expected, op)
                wrong += count
                for problem in problems:
                    print(f"{workload}: {problem}", file=sys.stderr)
            print(f"{workload}: {len(ops)} calls on the fresh backend, {wrong} wrong verdicts")
            failures += wrong
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
