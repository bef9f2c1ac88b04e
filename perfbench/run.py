#!/usr/bin/env python3
"""bcsgap benchmark: seeded workloads through the CLI, checked against oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload thermo-default --seed 1 --seconds 40 --trace 0

One run repeats an operation -- one fresh ``child.py`` process running the
workload's CLI commands -- until ``--seconds`` have passed, checks every
operation's outputs, prints a per-operation table and the metrics, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
operations, times scaled to a reference host speed, see REFERENCE_S).  With ``--trace 1`` operations alternate between untraced and
traced, and the metrics are the per-layer ones from the traced operations,
plus the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 170.0

# The host's speed drifts by a third over minutes (other tenants), moving
# every timing alike.  Each child therefore also times a fixed reference
# loop before it imports bcsgap, a separate process times it again right
# after the child, and wall_s and setup_s are reported in seconds at the
# speed where that loop takes REFERENCE_S:
# raw median * REFERENCE_S / mean reference time of the run.
REFERENCE_S = 0.12

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; ".s" is inclusive time in the call, per operation
PER_LAYER = {
    "solver.picard_solve.calls": "count",
    "solver.picard_solve.s": "s",
    "solver.picard_solve.iterations": "count",
    "solver.picard_solve.iterations_max": "count",
    "gap_operator.apply_values.calls": "count",
    "gap_operator.apply_values.s": "s",
    "gap_operator.apply_values.bytes_computed": "B",
    "gap_operator.apply_values.flops_computed": "flop",
    **{
        f"quadrature.gap_kernel.from_{c}.{m}": u
        for c in ("gap_operator", "simple_gap", "certificate")
        for m, u in (("calls", "count"), ("s", "s"), ("elements", "count"))
    },
    "gap_operator.spectral_radius.calls": "count",
    "gap_operator.spectral_radius.s": "s",
    "gap_operator.spectral_radius.power_iterations": "count",
    "gap_operator.radius_crossing_temperature.s": "s",
    **{
        f"model.potential_matrix.from_{c}.{m}": u
        for c in ("gap_operator", "certificate")
        for m, u in (("calls", "count"), ("s", "s"), ("entries", "count"))
    },
    "simple_gap.solve_delta.calls": "count",
    "simple_gap.solve_delta.misses": "count",
    "simple_gap.solve_delta.hit_ratio": "ratio",
    "simple_gap.solve_delta.s": "s",
    "simple_gap.tau_root.misses": "count",
    "simple_gap.envelope_curve.s": "s",
    "certificate.search_certificate.s": "s",
    "certificate.compute_alpha.calls": "count",
    "certificate.compute_alpha.s": "s",
    "thermo.build_thermo_report.s": "s",
    "fileio.write_csv.calls": "count",
    "fileio.write_csv.bytes": "B",
    "fileio.write_csv.s": "s",
    "cli.build_inputs.s": "s",
    "setup.build_inputs.s": "s",
    "trace.overhead_s": "s",
}


def _environment() -> str:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas!r} blas_threads=1"
    )


def _steal_ticks() -> int | None:
    """Steal ticks of the whole machine so far (read-only diagnostic)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _run_op(wl, op_dir: Path, traced: bool, deadline: float) -> dict:
    """One operation: spawn a child, time it, check its outputs."""
    import workloads

    op_dir.mkdir()
    for name, text in wl.configs.items():
        (op_dir / name).write_text(text)
    (op_dir / "spec.json").write_text(json.dumps({"commands": wl.commands, "trace": traced}))
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(SRC), TMPDIR=str(op_dir))
    op = {"traced": traced, "attempted": len(wl.commands), "errors": []}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "spec.json"],
            cwd=op_dir,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
        res = json.loads((op_dir / "result.json").read_text())
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        op.update(failed=op["attempted"], errors=[f"child did not finish: {exc!r}"])
        return op
    if proc.returncode != 0 or "error" in res:
        op.update(failed=op["attempted"], errors=[res.get("error") or proc.stderr[-2000:]])
        return op
    try:
        after = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--reference"],
            cwd=op_dir,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        reference_after = float(after.stdout)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        op.update(failed=op["attempted"], errors=[f"reference loop did not finish: {exc!r}"])
        return op
    op.update(
        wall_s=res["wall_s"],
        setup_s=res["setup_end"] - t0 - res["reference_s"],
        peak_rss_mb=res["peak_rss_mb"],
        reference_s=(res["reference_s"] + reference_after) / 2,
        build_inputs_s=res["build_inputs_s"],
    )
    trace = res.get("trace")
    if trace is not None:
        from tracing import summarize

        op["spans"] = summarize(str(op_dir / "spans.npz"), trace["names"])
        op["counts"] = trace["counts"]
    acc: dict[str, float] = {}
    failed = 0
    for (cmd, cfg), code in zip(wl.commands, res["exit_codes"]):
        try:
            got = workloads.check_command(cmd, code, op_dir, cfg, trace)
        except workloads.CheckError as exc:
            failed += 1
            op["errors"].append(str(exc))
            continue
        for key, value in got.items():
            acc[key] = max(acc.get(key, 0.0), value)
    op.update(failed=failed, acc=acc)
    return op


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 by ``statistics.quantiles``' default (exclusive) method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: counts of the first traced op, median times.

    ``setup.build_inputs.s`` is the untraced set-up build of every op;
    ``cli.build_inputs.s`` is the CLI's own rebuild inside the pipeline.
    """
    spans = [op["spans"] for op in traced]
    counts = traced[0]["counts"]
    first = spans[0]
    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "s":
            out[name] = statistics.median(s.get(base, {}).get("s", 0.0) for s in spans)
        elif field == "calls":
            out[name] = first.get(base, {}).get("calls", 0)
        else:
            out[name] = counts.get(name, 0)
    calls = out["simple_gap.solve_delta.calls"]
    out["simple_gap.solve_delta.hit_ratio"] = (
        1.0 - out["simple_gap.solve_delta.misses"] / calls if calls else 0.0
    )
    out["setup.build_inputs.s"] = statistics.median(op["build_inputs_s"] for op in traced + untraced)
    out["trace.overhead_s"] = statistics.median(op["wall_s"] for op in traced) - statistics.median(
        op["wall_s"] for op in untraced
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bcsgap" / "__init__.py").is_file():
        print(f"error: no bcsgap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    try:
        wl = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.monotonic()
    hard_deadline = started + CHILD_TIMEOUT_S
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {_environment()}")
    for name, text in wl.configs.items():
        keys = [line for line in text.splitlines() if line.startswith(("potential.", "params.eps"))]
        print(f"input {name}: {'; '.join(keys)}")
    steal0 = _steal_ticks()

    # Start another operation only while it is expected to finish within
    # --seconds, judged by the median cost (run plus check) of those so far.
    WORK.mkdir(exist_ok=True)
    ops: list[dict] = []
    costs: list[float] = []
    min_ops = 2 if args.trace else 1
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        while len(ops) < min_ops or time.monotonic() - started + statistics.median(costs) <= args.seconds:
            t = time.monotonic()
            op_dir = Path(tmp) / f"op{len(ops)}"
            ops.append(_run_op(wl, op_dir, bool(args.trace) and len(ops) % 2 == 1, hard_deadline))
            shutil.rmtree(op_dir, ignore_errors=True)
            costs.append(time.monotonic() - t)
            if "wall_s" not in ops[-1]:
                break
    try:
        WORK.rmdir()
    except OSError:
        pass
    steal1 = _steal_ticks()

    print("op  traced  wall_s     setup_s    peak_rss_mb  reference_s  failed/attempted")
    for i, op in enumerate(ops):
        if "wall_s" in op:
            print(
                f"{i:<3} {'yes' if op['traced'] else 'no':<6}  {op['wall_s']:<9.4f}  "
                f"{op['setup_s']:<9.4f}  {op['peak_rss_mb']:<11.1f}  {op['reference_s']:<11.4f}  "
                f"{op['failed']}/{op['attempted']}"
            )
        else:
            print(f"{i:<3} {'yes' if op['traced'] else 'no':<6}  (no timing)  {op['failed']}/{op['attempted']}")
        for err in op["errors"]:
            print(f"    FAILED: {err.strip()}")

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    timed = [op for op in ops if "wall_s" in op]
    untraced = [op for op in timed if not op["traced"]]
    traced_ops = [op for op in timed if op["traced"]]
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.4g}")
    if steal0 is not None and steal1 is not None:
        print(f"steal ticks during run (whole machine): {steal1 - steal0}")

    metrics: dict[str, dict] = {}
    if untraced and (traced_ops or not args.trace):
        values = {
            "wall_s": [op["wall_s"] for op in untraced],
            "setup_s": [op["setup_s"] for op in timed],
            "peak_rss_mb": [op["peak_rss_mb"] for op in untraced],
        }
        reference = statistics.mean(op["reference_s"] for op in timed)
        scale = {"wall_s": REFERENCE_S / reference, "setup_s": REFERENCE_S / reference, "peak_rss_mb": 1.0}
        print(
            f"reference loop: mean {reference:.4g} s over {len(timed)} ops; "
            f"times are scaled by {REFERENCE_S:g}/{reference:.4g} = {REFERENCE_S / reference:.4g}"
        )
        print("metric                unit    value         raw median    raw q1        raw q3        n")
        reported = {}
        for name, vals in values.items():
            q1, q2, q3 = _quartiles(vals)
            reported[name] = q2 * scale[name]
            print(
                f"{name:<21} {END_TO_END[name]:<7} {reported[name]:<13.6g} "
                f"{q2:<13.6g} {q1:<13.6g} {q3:<13.6g} {len(vals)}"
            )
        print("accuracy against the oracles (worst over operations; checked, not a metric)")
        acc: dict[str, float] = {}
        for op in timed:
            for key, value in op.get("acc", {}).items():
                acc[key] = max(acc.get(key, 0.0), value)
        for name, unit in workloads.ACCURACY.items():
            shown = f"{acc[name]:.4g}" if name in acc else "n/a"
            print(f"{name:<21} {unit:<7} {shown}")
        if args.trace:
            layer = _per_layer(traced_ops, untraced)
            _print_spans(traced_ops[0]["spans"])
            print("per-layer metrics (counts: first traced op; times: median over traced ops)")
            for name, value in layer.items():
                print(f"  {name:<50} {value:.6g} {PER_LAYER[name]}")
            metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in layer.items()}
        else:
            metrics = {name: {"value": reported[name], "unit": unit} for name, unit in END_TO_END.items()}
    if not metrics:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _print_spans(spans: dict[str, dict[str, float]]) -> None:
    print("spans of the first traced op, by self time")
    print(f"  {'name':<58} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, rec in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        if ".from_" in name and rec["calls"]:
            print(f"  {name:<58} {rec['calls']:>9} {rec['s']:>10.4f} {rec['self_s']:>10.4f}")


if __name__ == "__main__":
    raise SystemExit(main())
