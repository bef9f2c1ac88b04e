"""Command-line orchestration: config ingestion, pipeline execution, CSV and
report emission.

Config format: flat ``key = value`` text with dotted section prefixes and
``#`` comments, e.g.::

    params.epsilon = 0.005
    potential.variant = constant
    potential.u0 = 0.3

Command line: ``bcsgap {simple|certify|solve|thermo} CONFIG``,
``bcsgap gcheck [--out DIR]``, or ``-h``/``--help`` for the usage.  Exit
codes: 0 ok, 2 certificate failure, 3 non-convergence, 4 malformed command
line, invalid config, unreadable input file or unusable output directory.
Re-running a command with the same config produces byte-identical output;
nothing here draws randomness.
"""

from __future__ import annotations

import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .certificate import ContractionCertificate, format_certificate_report, search_certificate
from .fileio import atomic_write, fmt, write_csv
from .gap_operator import as_operator, spectral_tc
from .model import (
    ConstantPotential,
    GaussianBumpPotential,
    PhysicalParams,
    PotentialSpec,
    build_grid,
    coupling_margin_bounds,
    load_potential_table_csv,
    make_params,
    validate_potential,
)
from .quadrature import EnergyGrid, gap_curvature
from .simple_gap import envelope_curve
from .solver import ConvergenceError, GapSurface, solve_surface
from .thermo import build_thermo_report, g_integral_to_infinity, require_resolution

__all__ = ["ConfigError", "parse_config", "build_inputs", "main"]

EXIT_OK = 0
EXIT_CERTIFICATE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BAD_CONFIG = 4

_DEFAULT_MARGIN = 0.03

_KNOWN_KEYS = {
    "params.hbar_omega_d": float,
    "params.epsilon": float,
    "params.n0": float,
    "params.u1": float,
    "params.u2": float,
    "potential.variant": str,
    "potential.u0": float,
    "potential.csv": str,
    "potential.base": float,
    "potential.amplitude": float,
    "potential.width": float,
    "grid.panels": int,
    "grid.order": int,
    "solver.tol": float,
    "solver.max_iter": int,
    "solver.t_resolution": int,
    "solver.span_decades": float,
    "output.dir": str,
    "seed": int,
}

# the potential.* keys that each variant reads
_VARIANT_KEYS = {
    "constant": ("u0",),
    "gaussian_bump": ("base", "amplitude", "width"),
    "table": ("csv",),
}


class ConfigError(ValueError):
    pass


def _require(cfg: dict[str, object], key: str):
    """cfg[key], or a ConfigError naming the missing key."""
    if key not in cfg:
        raise ConfigError(f"missing required key {key}")
    return cfg[key]


def parse_config(path: str | Path) -> dict[str, object]:
    """Parse a flat key = value config file; unknown keys are rejected."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        caster = _KNOWN_KEYS[key]
        try:
            raw[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return raw


def build_inputs(
    cfg: dict[str, object],
) -> tuple[PhysicalParams, PotentialSpec, EnergyGrid, float | None]:
    """Materialise params, potential and grid from a parsed config.

    For constant potentials without explicit coupling bounds, a strict
    margin band is imposed; the margin used is returned for the record.
    The bounds params.u1 and params.u2 are set together or not at all, and
    a potential.* key that the variant does not read is refused.
    """
    variant = str(cfg.get("potential.variant", "constant"))
    if variant not in _VARIANT_KEYS:
        raise ConfigError(f"unknown potential.variant {variant!r}")
    for key in cfg:
        section, _, name = key.partition(".")
        if section == "potential" and name not in ("variant", *_VARIANT_KEYS[variant]):
            raise ConfigError(f"potential.variant {variant!r} does not read {key}")
    margin_used: float | None = None

    if variant == "constant":
        u0 = float(_require(cfg, "potential.u0"))
        potential: PotentialSpec = ConstantPotential(u0=u0)
    elif variant == "gaussian_bump":
        potential = GaussianBumpPotential(
            base=float(_require(cfg, "potential.base")),
            amplitude=float(_require(cfg, "potential.amplitude")),
            width=float(_require(cfg, "potential.width")),
        )
    else:
        potential = load_potential_table_csv(str(_require(cfg, "potential.csv")))

    has_u1, has_u2 = "params.u1" in cfg, "params.u2" in cfg
    if has_u1 != has_u2:
        given, missing = ("u1", "u2") if has_u1 else ("u2", "u1")
        raise ConfigError(f"params.{missing} is required when params.{given} is set")
    if has_u1:
        u1, u2 = float(cfg["params.u1"]), float(cfg["params.u2"])
    elif variant == "constant":
        u1, u2 = coupling_margin_bounds(float(_require(cfg, "potential.u0")), _DEFAULT_MARGIN)
        margin_used = _DEFAULT_MARGIN
    else:
        raise ConfigError("params.u1 and params.u2 are required for non-constant potentials")

    params = make_params(
        hbar_omega_d=float(cfg.get("params.hbar_omega_d", 1.0)),
        epsilon_cutoff=float(_require(cfg, "params.epsilon")),
        n0_dos=float(cfg.get("params.n0", 1.0)),
        u_lower=u1,
        u_upper=u2,
    )
    validate_potential(potential, params)
    grid = build_grid(
        params,
        panels=int(cfg.get("grid.panels", 16)),
        order=int(cfg.get("grid.order", 10)),
    )
    return params, potential, grid, margin_used


def _outdir(cfg: dict[str, object]) -> Path:
    out = Path(str(cfg.get("output.dir", ".")))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simple(cfg: dict[str, object]) -> int:
    params, _, _, _ = build_inputs(cfg)
    out = _outdir(cfg)
    summary: list[str] = []
    for name, u in (("U1", params.u_lower), ("U2", params.u_upper)):
        curve = envelope_curve(u, params)
        rows = zip(curve.t_nodes, curve.delta_values)
        write_csv(out / f"envelope_{name}.csv", ["T", "delta"], rows)
        for key in ("tau", "tau_lo", "tau_hi", "delta0", "quadrature_bound"):
            summary.append(f"{key}_{name} = {fmt(getattr(curve, key))}\n")
    summary.append(f"reference_nodes = {curve.reference_nodes}\n")
    atomic_write(out / "simple_summary.txt", summary)
    return EXIT_OK


def cmd_certify(cfg: dict[str, object]) -> int:
    params, potential, grid, margin = build_inputs(cfg)
    out = _outdir(cfg)
    op = as_operator(potential, grid)
    outcome = search_certificate(op, params, t_c=spectral_tc(op, params), coupling_margin=margin)
    atomic_write(out / "certificate.txt", format_certificate_report(outcome))
    return EXIT_OK if isinstance(outcome, ContractionCertificate) else EXIT_CERTIFICATE


def _lattice(cfg: dict[str, object]) -> tuple[int, float]:
    """(t_resolution, span_decades) of the surface's temperature lattice."""
    return (
        int(cfg.get("solver.t_resolution", 24)),
        float(cfg.get("solver.span_decades", 2.2)),
    )


def _solve(cfg: dict[str, object]) -> tuple[PhysicalParams, GapSurface]:
    """Params, and the surface solved with the config's gap operator, which it carries."""
    params, potential, grid, _ = build_inputs(cfg)
    t_resolution, span_decades = _lattice(cfg)
    surface = solve_surface(
        as_operator(potential, grid),
        params,
        t_resolution=t_resolution,
        tol=float(cfg.get("solver.tol", 1e-11)),
        span_decades=span_decades,
        max_iter=int(cfg.get("solver.max_iter", 2_000_000)),
    )
    return params, surface


def _write_surface(out: Path, surface: GapSurface) -> None:
    # write_csv's format, with each T and x formatted once, not once a cell,
    # and one chunk per temperature row
    xs = ["%.17g," % x for x in surface.op.grid.nodes]
    rows = (
        "".join([t + x + "%.17g\n" % u for x, u in zip(xs, row)])
        for t, row in zip(("%.17g," % T for T in surface.t_nodes), surface.values)
    )
    atomic_write(out / "surface.csv", chain(["T,x,u\n"], rows))
    atomic_write(
        out / "tc.txt",
        [
            f"t_c = {fmt(surface.t_c)}\n",
            f"operator_rank = {surface.op.rank}\n",
            f"operator_error = {fmt(surface.op.error)}\n",
        ],
    )
    trace_rows = (
        (T, tr.iterations, tr.rate)
        for T, tr in zip(surface.t_nodes[:-1], surface.traces)
    )
    write_csv(out / "trace.csv", ["T", "iterations", "rate_bound"], trace_rows)


def cmd_solve(cfg: dict[str, object]) -> int:
    _, surface = _solve(cfg)
    _write_surface(_outdir(cfg), surface)
    return EXIT_OK


def cmd_thermo(cfg: dict[str, object]) -> int:
    require_resolution(*_lattice(cfg))
    params, surface = _solve(cfg)
    grid = surface.op.grid
    outcome = search_certificate(surface.op, params, t_c=surface.t_c)
    report = build_thermo_report(surface, params, outcome)
    out = _outdir(cfg)
    write_csv(out / "psi.csv", ["T", "psi"], zip(report.t_nodes, report.psi_values))
    write_csv(out / "entropy.csv", ["T", "s"], zip(report.t_nodes, report.entropy_values))
    write_csv(out / "heat.csv", ["T", "cv"], zip(report.t_nodes, report.specific_heat_values))
    write_csv(
        out / "v.csv",
        ["x", "v", "error"],
        zip(grid.nodes, report.v_table.values, report.v_table.extrapolation_error),
    )
    write_csv(
        out / "w.csv",
        ["x", "w", "error"],
        zip(grid.nodes, report.w_table.values, report.w_table.extrapolation_error),
    )
    lines = [
        f"t_c = {fmt(report.t_c)}\n",
        f"alpha = {fmt(report.alpha)}\n",
        f"rate_bound = {fmt(report.rate_bound)}\n",
        f"certified = {str(report.certified).lower()}\n",
        f"delta_cv = {fmt(report.delta_cv)}\n",
        f"psi_second_tc = {fmt(report.psi_second_tc_form_a)}\n",
        f"verdict_a = {str(report.verdict.a).lower()}\n",
        f"verdict_b = {str(report.verdict.b).lower()}\n",
        f"verdict_c = {str(report.verdict.c).lower()}\n",
    ]
    atomic_write(out / "thermo_summary.txt", lines)
    return EXIT_OK


def cmd_gcheck(out_dir: str | Path = ".") -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    etas = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 121)))
    write_csv(out / "g.csv", ["eta", "g"], zip(etas, gap_curvature(etas)))
    estimate, tail = g_integral_to_infinity()
    lines = [
        f"g_zero = {fmt(gap_curvature(0.0))}\n",
        f"integral_estimate = {fmt(estimate)}\n",
        f"tail_bound = {fmt(tail)}\n",
    ]
    atomic_write(out / "g_summary.txt", lines)
    return EXIT_OK


_USAGE = "usage: bcsgap {simple|certify|solve|thermo} CONFIG | bcsgap gcheck [--out DIR]"
# command -> handler of a parsed CONFIG; gcheck takes an output directory instead
_COMMANDS = {"simple": cmd_simple, "certify": cmd_certify, "solve": cmd_solve, "thermo": cmd_thermo}


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; never raises SystemExit."""
    args = sys.argv[1:] if argv is None else list(argv)
    if "-h" in args or "--help" in args:
        print(_USAGE)
        return EXIT_OK
    try:
        match args:
            case [name, config] if name in _COMMANDS:
                return _COMMANDS[name](parse_config(config))
            case ["gcheck"] | ["gcheck", "--out", _]:
                return cmd_gcheck(*args[2:])
            case []:
                problem = "no command given"
            case ["gcheck", *rest]:
                problem = f"gcheck takes [--out DIR], not {' '.join(rest)!r}"
            case [name, *rest] if name in _COMMANDS:
                problem = f"{name} takes one CONFIG path, got {len(rest)}"
            case [name, *_]:
                problem = f"unknown command {name!r}"
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    # ConfigError, ParamsError and PotentialError are ValueErrors; an OSError
    # (an unreadable file, an unusable output directory) names its path
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(f"{_USAGE}\nerror: {problem}", file=sys.stderr)
    return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
