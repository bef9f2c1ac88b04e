"""Seeded inputs and output checks for the benchmark workloads.

Each workload turns a seed into ``.cfg`` files and the list of CLI commands
one operation runs on them.  The checks compare each command's outputs with
an oracle that does not go through the code path under test:

* the scalar constant-coupling route of ``bcsgap.simple_gap``
  (``tau_root``, ``solve_delta``, ``implicit_slope_v``), whose integrals use
  their own reference quadrature instead of the Nystrom grid;
* ``adaptive_integrate`` for envelope residuals and the specific-heat jump;
* ``apply_A`` for the fixed-point residual of a solved surface.

A check raises ``CheckError`` when an output is wrong; otherwise it returns
the accuracy figures it measured.  Callers import this module only after
putting the package's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from bcsgap.cli import build_inputs, parse_config
from bcsgap.gap_operator import GapField, apply_A
from bcsgap.model import coupling_margin_bounds, make_params
from bcsgap.quadrature import adaptive_integrate, gap_curvature, gap_kernel
from bcsgap.simple_gap import implicit_slope_v, solve_delta, tau_root

# The shipped configs/default.cfg, byte for byte; seed 0 of thermo-default
# hands it to the program unchanged.
DEFAULT_CFG = """\
# Default run: constant coupling 0.30 with the 3% margin envelope,
# Debye energy 1, cutoff 0.005, 160-node grid.
params.hbar_omega_d = 1.0
params.epsilon = 0.005
params.n0 = 1.0

potential.variant = constant
potential.u0 = 0.3

grid.panels = 16
grid.order = 10

solver.tol = 1e-11
solver.t_resolution = 24
solver.span_decades = 2.2

output.dir = results
seed = 42
"""

# Tolerances of the output checks.  w carries a known curvature-estimator
# defect of about 1e-2 relative; its bound only catches a gross change.
TC_REL_TOL = 1e-10
V_REL_TOL = 1e-6
W_REL_TOL = 2e-2
DELTA_CV_REL_TOL = 1e-6
FIXED_POINT_TOL = 1e-9
OBSTRUCTION_REL_TOL = 1e-9
ENVELOPE_RESIDUAL_TOL = 1e-9

# Accuracy figures every workload reports (0 where it has no such output).
ACCURACY = {
    "tc_err": "abs",
    "v_rel_err": "rel",
    "w_rel_err": "rel",
    "delta_cv_rel_err": "rel",
    "fixed_point_residual": "abs",
    "obstruction_rel_err": "rel",
    "envelope_residual": "abs",
}


class CheckError(AssertionError):
    """An output disagrees with its oracle or is malformed."""


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, str]  # file name -> text
    commands: list[tuple[str, str]]  # (command, config file name)


def make(name: str, seed: int) -> Workload:
    if name not in _MAKERS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(_MAKERS)}")
    return _MAKERS[name](seed)


def _thermo_default(seed: int) -> Workload:
    text = DEFAULT_CFG
    if seed != 0:
        u0 = round(random.Random(seed).uniform(0.295, 0.305), 6)
        text = text.replace("potential.u0 = 0.3\n", f"potential.u0 = {u0!r}\n")
    return Workload("thermo-default", {"c0.cfg": text}, [("thermo", "c0.cfg")])


def _solve_bump_fine(seed: int) -> Workload:
    # amplitude * width is held at -5e-4: the Picard step count follows the
    # bump's overall strength, so every seed costs about the same (+-2%)
    width = round(random.Random(seed).uniform(0.1, 0.2), 4)
    amplitude = round(-5e-4 / width, 6)
    text = f"""\
params.hbar_omega_d = 1.0
params.epsilon = 0.005
params.n0 = 1.0
params.u1 = 0.291
params.u2 = 0.309
potential.variant = gaussian_bump
potential.base = 0.3
potential.amplitude = {amplitude!r}
potential.width = {width!r}
grid.panels = 64
grid.order = 10
solver.tol = 1e-11
solver.t_resolution = 8
solver.span_decades = 1.0
output.dir = results
seed = {seed}
"""
    return Workload("solve-bump-fine", {"c0.cfg": text}, [("solve", "c0.cfg")])


CERTIFY_SCAN_CONFIGS = 4


def _certify_scan(seed: int) -> Workload:
    # one u0 per stratum of [0.28, 0.32] keeps the cost of a sweep steady
    # across seeds; every draw lies well inside what make_params accepts
    rng = random.Random(seed)
    configs: dict[str, str] = {}
    commands: list[tuple[str, str]] = []
    for k in range(CERTIFY_SCAN_CONFIGS):
        u0 = round(0.28 + 0.01 * (k + rng.random()), 4)
        eps = round(0.004 * 2.0 ** rng.random(), 5)
        lo, hi = coupling_margin_bounds(u0, 0.03)
        make_params(1.0, eps, 1.0, lo, hi)
        name = f"c{k}.cfg"
        configs[name] = f"""\
params.hbar_omega_d = 1.0
params.epsilon = {eps!r}
params.n0 = 1.0
potential.variant = constant
potential.u0 = {u0!r}
grid.panels = 16
grid.order = 10
output.dir = results{k}
seed = {seed}
"""
        commands += [("certify", name), ("simple", name)]
    return Workload("certify-scan", configs, commands)


_MAKERS: dict[str, Callable[[int], Workload]] = {
    "thermo-default": _thermo_default,
    "solve-bump-fine": _solve_bump_fine,
    "certify-scan": _certify_scan,
}

# ---------------------------------------------------------------------------
# oracles


def _summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckError(f"{path.name}: malformed line {line!r}")
        out[key.strip()] = value.strip()
    return out


def _csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


@lru_cache(maxsize=None)
def constant_coupling_oracle(u0: float, params) -> dict[str, float]:
    """T_c, v, w and the specific-heat jump of a constant coupling u0.

    w comes from the scalar route alone: s(h) = solve_delta(u0, tau - h)^2
    equals v h + (w/2) h^2 + O(h^3), so a degree-5 polynomial fit of s(h)/h
    on h in [3e-4, 3e-2] tau gives v as its value and w/2 as its slope at
    h = 0.  The fit's v must match implicit_slope_v, which validates it.
    """
    tau = tau_root(u0, params)
    v = implicit_slope_v(u0, params)
    h = tau * np.geomspace(3e-4, 3e-2, 16)
    q = np.array([solve_delta(u0, tau - x, params) ** 2 for x in h]) / h
    coeff = np.polynomial.polynomial.polyfit(h / tau, q, 5)
    if abs(coeff[0] - v) > 1e-9 * v:
        raise RuntimeError(f"w oracle fit disagrees with implicit_slope_v: {coeff[0]!r} vs {v!r}")
    w = 2.0 * coeff[1] / tau
    g = adaptive_integrate(
        gap_curvature,
        params.epsilon_cutoff / (2.0 * tau),
        params.hbar_omega_d / (2.0 * tau),
        log_spacing=False,
    )
    delta_cv = -(params.n0_dos / (8.0 * tau)) * v * v * g
    return {"tau": tau, "v": v, "w": w, "delta_cv": delta_cv}


def _inputs(cfg_path: Path):
    return build_inputs(parse_config(cfg_path))


def _rel(a: np.ndarray | float, b: float) -> float:
    return float(np.max(np.abs(np.asarray(a) - b)) / abs(b))


def check_thermo(out: Path, cfg_path: Path, code: int, traced: dict | None) -> dict[str, float]:
    params, potential, _, _ = _inputs(cfg_path)
    summary = _summary(out / "thermo_summary.txt")
    for key in ("verdict_a", "verdict_b", "verdict_c"):
        if summary.get(key) != "true":
            raise CheckError(f"thermo_summary.txt: {key} = {summary.get(key)!r}")
    ref = constant_coupling_oracle(potential.u0, params)
    acc = {
        "tc_err": abs(float(summary["t_c"]) - ref["tau"]),
        "v_rel_err": _rel(_csv(out / "v.csv")[:, 1], ref["v"]),
        "w_rel_err": _rel(_csv(out / "w.csv")[:, 1], ref["w"]),
        "delta_cv_rel_err": _rel(float(summary["delta_cv"]), ref["delta_cv"]),
    }
    limits = {
        "tc_err": TC_REL_TOL * ref["tau"],
        "v_rel_err": V_REL_TOL,
        "w_rel_err": W_REL_TOL,
        "delta_cv_rel_err": DELTA_CV_REL_TOL,
    }
    for key, limit in limits.items():
        if not acc[key] <= limit:
            raise CheckError(f"{key} = {acc[key]:.3e} exceeds {limit:.1e}")
    return acc


def check_solve(out: Path, cfg_path: Path, code: int, traced: dict | None) -> dict[str, float]:
    params, potential, grid, _ = _inputs(cfg_path)
    tol = float(parse_config(cfg_path).get("solver.tol", 1e-11))
    rows = _csv(out / "surface.csv")
    n = grid.size
    if rows.shape[1] != 3 or rows.shape[0] % n:
        raise CheckError(f"surface.csv has shape {rows.shape}, grid has {n} nodes")
    t = rows[::n, 0]
    u = rows[:, 2].reshape(-1, n)
    if not np.array_equal(rows[:, 1].reshape(-1, n), np.broadcast_to(grid.nodes, u.shape)):
        raise CheckError("surface.csv x column does not match the grid nodes")
    if np.any(rows[:, 0].reshape(-1, n) != t[:, None]):
        raise CheckError("surface.csv T column is not constant within a row")
    t_c = float(_summary(out / "tc.txt")["t_c"])
    if t[-1] != t_c or np.any(u[-1] != 0.0):
        raise CheckError("surface.csv does not end with the zero row at T_c")
    slack = 1e-9 + 2.0 * tol
    residual = 0.0
    for T, row in zip(t[:-1], u[:-1]):
        d1 = solve_delta(params.u_lower, float(T), params)
        d2 = solve_delta(params.u_upper, float(T), params)
        if np.any(row < d1 - slack) or np.any(row > d2 + slack):
            raise CheckError(f"surface row T={T!r} leaves the envelope [{d1!r}, {d2!r}]")
        image = apply_A(GapField(temperature=float(T), values=row), potential, grid).values
        residual = max(residual, float(np.max(np.abs(image - row))))
    if not residual <= FIXED_POINT_TOL:
        raise CheckError(f"fixed_point_residual = {residual:.3e} exceeds {FIXED_POINT_TOL:.0e}")
    iterations = int(_csv(out / "trace.csv")[:, 1].sum())
    if traced is not None:
        counted = traced["counts"].get("solver.picard_solve.iterations", 0)
        if counted != iterations:
            raise CheckError(f"traced picard iterations {counted} != trace.csv sum {iterations}")
    return {"fixed_point_residual": residual}


def check_certify(out: Path, cfg_path: Path, code: int, traced: dict | None) -> dict[str, float]:
    params, potential, _, _ = _inputs(cfg_path)
    report = _summary(out / "certificate.txt")
    status = report.get("status")
    if (status, code) not in (("certified", 0), ("failed", 2)):
        raise CheckError(f"certificate.txt status {status!r} with exit code {code}")
    if status == "certified":
        if not (float(report["alpha"]) < 1.0 and float(report["delta2_at_tau"]) < params.epsilon_cutoff):
            raise CheckError("certified status with alpha >= 1 or Delta2(tau) >= epsilon")
        return {}
    t_c = tau_root(potential.u0, params)
    expected = solve_delta(params.u_upper, t_c, params) / params.epsilon_cutoff
    err = _rel(float(report["obstruction_delta2_over_epsilon"]), expected)
    if not err <= OBSTRUCTION_REL_TOL:
        raise CheckError(f"obstruction ratio off by {err:.3e} relative")
    return {"obstruction_rel_err": err}


def check_simple(out: Path, cfg_path: Path, code: int, traced: dict | None) -> dict[str, float]:
    params, _, _, _ = _inputs(cfg_path)
    summary = _summary(out / "simple_summary.txt")
    worst = 0.0
    for name, U in (("U1", params.u_lower), ("U2", params.u_upper)):
        curve = _csv(out / f"envelope_{name}.csv")
        tau = float(summary[f"tau_{name}"])
        if curve[-1, 0] != tau or np.any(np.diff(curve[:, 1]) > 0):
            raise CheckError(f"envelope_{name}.csv does not fall monotonically to tau_{name}")
        worst = max(worst, _envelope_residual(U, params, curve.tobytes()))
    if not float(summary["tau_U1"]) < float(summary["tau_U2"]):
        raise CheckError("simple_summary.txt: tau_U1 >= tau_U2")
    if not worst <= ENVELOPE_RESIDUAL_TOL:
        raise CheckError(f"envelope residual {worst:.3e} exceeds {ENVELOPE_RESIDUAL_TOL:.0e}")
    return {"envelope_residual": worst}


@lru_cache(maxsize=None)
def _envelope_residual(U: float, params, curve_bytes: bytes) -> float:
    """Largest |1 - U * integral| over the positive rows of an envelope."""
    curve = np.frombuffer(curve_bytes).reshape(-1, 2)
    worst = 0.0
    for T, delta in curve[curve[:, 1] > 0.0]:
        integral = adaptive_integrate(
            lambda xi: gap_kernel(xi, delta * delta, T),
            params.epsilon_cutoff,
            params.hbar_omega_d,
        )
        worst = max(worst, abs(1.0 - U * integral))
    return worst


EXPECTED_CODES = {"thermo": (0,), "solve": (0,), "simple": (0,), "certify": (0, 2)}
_CHECKS = {
    "thermo": check_thermo,
    "solve": check_solve,
    "certify": check_certify,
    "simple": check_simple,
}


def check_command(
    cmd: str, code: int, op_dir: Path, cfg_name: str, traced: dict | None
) -> dict[str, float]:
    """Check one command's exit code and outputs; return its accuracy."""
    if code not in EXPECTED_CODES[cmd]:
        raise CheckError(f"{cmd} {cfg_name} exited with {code}")
    cfg_path = op_dir / cfg_name
    out = op_dir / str(parse_config(cfg_path).get("output.dir"))
    try:
        return _CHECKS[cmd](out, cfg_path, code, traced)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        raise CheckError(f"{cmd} {cfg_name}: unreadable output: {exc!r}") from exc

