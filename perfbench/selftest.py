#!/usr/bin/env python3
"""Self-test of the benchmark: its checks must reject wrong answers.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs one operation of each workload, confirms the real outputs pass, then
perturbs them and confirms each perturbation is rejected:

* a surface.csv row moved by 1e-6, a trace.csv iteration count off by one;
* a v.csv scaled by 1 + 1e-4, a w.csv scaled by 1.05, a T_c moved by
  1e-9 relative, a verdict flipped;
* an obstruction ratio moved by 1e-6 relative, an envelope value moved by
  1e-6 relative, a status that contradicts the exit code.

It also checks that BENCHMARK.json lists exactly the metrics run.py
reports, that seed 0 of thermo-default is configs/default.cfg byte for
byte, that inputs depend on the seed alone, and that run.py fails without
printing a result when the package sources are absent.  Takes ~20 s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

os.environ.update(run.THREAD_ENV)
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def rejected(cmd: str, code: int, op_dir: Path, cfg: str, traced=None) -> bool:
    try:
        workloads.check_command(cmd, code, op_dir, cfg, traced)
    except workloads.CheckError as exc:
        print(f"     rejected: {exc}")
        return True
    return False


def edit_csv(path: Path, change) -> None:
    lines = path.read_text().splitlines()
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    change(rows)
    body = "\n".join(",".join(f"{x:.17g}" for x in row) for row in rows)
    path.write_text(lines[0] + "\n" + body + "\n")


def edit_text(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if old not in text:
        raise SystemExit(f"{path.name} does not contain {old!r}")
    path.write_text(text.replace(old, new, 1))


def one_op(name: str, seed: int, tmp: Path, traced: bool) -> tuple[dict, Path]:
    wl = workloads.make(name, seed)
    op_dir = tmp / name
    op = run._run_op(wl, op_dir, traced, time.monotonic() + 170.0)
    expect(op["failed"] == 0, f"{name} seed {seed}: real outputs pass ({op['errors']})")
    return op, op_dir


def test_metric_lists() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    names = {w["name"] for w in bench["workloads"]}
    expect(names == set(workloads._MAKERS), "BENCHMARK.json workloads match workloads.py")


def test_inputs() -> None:
    default = run.ROOT / "configs" / "default.cfg"
    if default.is_file():
        cfg = workloads.make("thermo-default", 0).configs["c0.cfg"]
        expect(cfg == default.read_text(), "seed 0 of thermo-default is configs/default.cfg")
    for name in workloads._MAKERS:
        a, b, c = (workloads.make(name, s) for s in (3, 3, 4))
        expect(a == b and a != c, f"{name}: same seed same inputs, other seed other inputs")


def test_solve(tmp: Path) -> None:
    op, d = one_op("solve-bump-fine", 1, tmp, traced=True)
    trace = {"counts": op["counts"]}
    iterations = int(np.loadtxt(d / "results" / "trace.csv", delimiter=",", skiprows=1)[:, 1].sum())
    expect(
        op["counts"]["solver.picard_solve.iterations"] == iterations,
        f"traced picard iterations equal the trace.csv sum ({iterations})",
    )
    surface = d / "results" / "surface.csv"
    saved = surface.read_text()

    def bump(rows):
        rows[len(rows) // 2, 2] += 1e-6

    edit_csv(surface, bump)
    expect(rejected("solve", 0, d, "c0.cfg", trace), "surface.csv moved by 1e-6 is rejected")
    surface.write_text(saved)
    edit_csv(d / "results" / "trace.csv", lambda rows: rows.__setitem__((0, 1), rows[0, 1] + 1))
    expect(rejected("solve", 0, d, "c0.cfg", trace), "trace.csv off by one iteration is rejected")
    expect(rejected("solve", 3, d, "c0.cfg", trace), "exit code 3 is rejected")


def test_thermo(tmp: Path) -> None:
    _, d = one_op("thermo-default", 0, tmp, traced=False)
    out = d / "results"
    cases = [
        ("v.csv", lambda rows: rows.__setitem__((slice(None), 1), rows[:, 1] * (1 + 1e-4)),
         "v.csv scaled by 1 + 1e-4"),
        ("w.csv", lambda rows: rows.__setitem__((slice(None), 1), rows[:, 1] * 1.05),
         "w.csv scaled by 1.05"),
    ]
    for name, change, what in cases:
        saved = (out / name).read_text()
        edit_csv(out / name, change)
        expect(rejected("thermo", 0, d, "c0.cfg"), f"{what} is rejected")
        (out / name).write_text(saved)
    summary = out / "thermo_summary.txt"
    saved = summary.read_text()
    t_c = float(workloads._summary(summary)["t_c"])
    edit_text(summary, f"t_c = {t_c!r}", f"t_c = {t_c * (1 + 1e-9)!r}")
    expect(rejected("thermo", 0, d, "c0.cfg"), "T_c moved by 1e-9 relative is rejected")
    summary.write_text(saved)
    edit_text(summary, "verdict_b = true", "verdict_b = false")
    expect(rejected("thermo", 0, d, "c0.cfg"), "a false verdict is rejected")


def test_certify(tmp: Path) -> None:
    _, d = one_op("certify-scan", 2, tmp, traced=False)
    report = d / "results0" / "certificate.txt"
    ratio = float(workloads._summary(report)["obstruction_delta2_over_epsilon"])
    edit_text(report, f"= {ratio!r}", f"= {ratio * (1 + 1e-6)!r}")
    expect(rejected("certify", 2, d, "c0.cfg"), "obstruction ratio moved by 1e-6 is rejected")
    edit_text(report, "status = failed", "status = certified")
    expect(rejected("certify", 2, d, "c0.cfg"), "status contradicting the exit code is rejected")

    def nudge(rows):
        rows[len(rows) // 2, 1] *= 1 + 1e-6

    edit_csv(d / "results1" / "envelope_U1.csv", nudge)
    expect(rejected("simple", 0, d, "c1.cfg"), "envelope value moved by 1e-6 is rejected")


def test_bare_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "thermo-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without the package sources run.py exits {proc.returncode} and prints no result")


def main() -> int:
    test_metric_lists()
    test_inputs()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        test_bare_directory(Path(tmp))
        test_solve(Path(tmp))
        test_thermo(Path(tmp))
        test_certify(Path(tmp))
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
