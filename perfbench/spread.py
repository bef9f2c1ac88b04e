#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads thermo-default certify-scan --seeds 1-10

Runs ``perfbench/run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once
per seed and workload, one after another, and prints for every end-to-end
metric its per-run values, median, quartiles and the spread
(q3 - q1) / median -- the figures a benchmark bound is compared with.  A run
that fails or reports ``correct: false`` is shown and counted.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import _quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    bad = 0
    for name in args.workloads:
        results = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                bad += 1
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                continue
            results.append(result)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: {shown}", flush=True)
        print(f"\n{name}: metric, median, q1, q3, spread=(q3-q1)/median, bound")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, q2, q3 = _quartiles(values)
            print(f"  {metric:<14} {q2:<11.5g} {q1:<11.5g} {q3:<11.5g} {(q3 - q1) / q2:<8.4f} {bound}")
        print(flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
