import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bcsgap
from bcsgap import certificate, cli, simple_gap, solver
from bcsgap.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CERTIFICATE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    ConfigError,
    build_inputs,
    main,
    parse_config,
)
from bcsgap.gap_operator import spectral_tc
from bcsgap.simple_gap import tau_root

BASE_CONFIG = """\
# constant-coupling run, shrunk for test speed
params.hbar_omega_d = 1.0
params.epsilon = 0.005
params.n0 = 1.0
potential.variant = constant
potential.u0 = 0.3
grid.panels = 16
grid.order = 10
solver.t_resolution = 10
solver.span_decades = 2.05
solver.tol = 1e-9
"""


def _write_config(tmp_path: Path, extra: str = "", name: str = "run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(BASE_CONFIG + extra)
    return path


def test_parse_config_values(tmp_path):
    cfg = parse_config(_write_config(tmp_path, "seed = 7\n"))
    assert cfg.get("params.epsilon") == 0.005
    assert cfg.get("solver.t_resolution") == 10
    assert cfg.get("seed") == 7
    assert cfg.get("seed_missing") is None


def test_parse_config_rejects_unknown_key(tmp_path):
    path = _write_config(tmp_path, "params.bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_parse_config_rejects_duplicates_and_syntax(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(_write_config(tmp_path, "params.epsilon = 0.004\n"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("params.epsilon\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config(bad)
    worse = tmp_path / "worse.cfg"
    worse.write_text("params.epsilon = not_a_number\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(worse)


def test_build_inputs_applies_margin(tmp_path):
    params, potential, grid, margin = build_inputs(
        parse_config(_write_config(tmp_path))
    )
    assert margin == 0.03
    assert params.u_lower == pytest.approx(0.291, rel=1e-15)
    assert params.u_upper == pytest.approx(0.309, rel=1e-15)
    assert grid.size == 160


def test_build_inputs_explicit_bounds(tmp_path):
    cfg = parse_config(
        _write_config(tmp_path, "params.u1 = 0.25\nparams.u2 = 0.35\n")
    )
    params, _, _, margin = build_inputs(cfg)
    assert margin is None
    assert params.u_lower == 0.25


@pytest.mark.parametrize("given, missing", [("u1", "u2"), ("u2", "u1")])
def test_a_lone_coupling_bound_is_refused_by_name(given, missing, tmp_path, capsys):
    # one bound alone would silently fall back to the margin band
    cfg_path = _write_config(
        tmp_path, f"params.{given} = 0.2\noutput.dir = {tmp_path / 'out'}\n"
    )
    assert main(["simple", str(cfg_path)]) == EXIT_BAD_CONFIG
    assert f"params.{missing} is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_simple_outputs(tmp_path):
    cfg_path = _write_config(tmp_path, f"output.dir = {tmp_path / 'out'}\n")
    assert main(["simple", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    lines = (out / "simple_summary.txt").read_text().splitlines()
    entries = dict(line.split(" = ") for line in lines)
    tau1, tau2 = float(entries["tau_U1"]), float(entries["tau_U2"])
    assert tau1 < tau2
    d0 = float(entries["delta0_U1"])
    u1 = 0.291
    expected = math.sqrt(
        (1 - 0.005 * math.exp(1 / u1)) * (1 - 0.005 * math.exp(-1 / u1))
    ) / math.sinh(1 / u1)
    assert d0 == pytest.approx(expected, rel=1e-9)
    for name in ("envelope_U1.csv", "envelope_U2.csv"):
        rows = (out / name).read_text().splitlines()
        assert rows[0] == "T,delta"
        deltas = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(deltas, deltas[1:]))


def test_cmd_certify_reports_failure(tmp_path):
    cfg_path = _write_config(tmp_path, f"output.dir = {tmp_path / 'out'}\n")
    assert main(["certify", str(cfg_path)]) == EXIT_CERTIFICATE
    report = (tmp_path / "out" / "certificate.txt").read_text()
    assert "status = failed" in report
    assert "best_alpha = " in report


def test_certify_reports_an_unproven_bound_as_infinite(
    tmp_path, monkeypatch, params, grid, const_potential
):
    # with no widening allowed, no root window proves a side: Delta2(tau)
    # has no upper edge, so the bound has none either; the search still
    # reports failure, and certificate.txt an alpha_upper float() reads
    monkeypatch.setattr(simple_gap, "_WINDOW_WIDENINGS", 0)
    t_c = spectral_tc(const_potential, params, grid)
    tau = 0.5 * (tau_root(params.u_lower, params) + t_c)
    result = certificate.compute_alpha(tau, const_potential, params, grid, t_c=t_c)
    assert result.upper == math.inf and 1.0 < result.alpha < math.inf
    cfg_path = _write_config(tmp_path, f"output.dir = {tmp_path / 'out'}\n")
    assert main(["certify", str(cfg_path)]) == EXIT_CERTIFICATE
    lines = (tmp_path / "out" / "certificate.txt").read_text().splitlines()
    values = dict(line.split(" = ") for line in lines)
    assert values["status"] == "failed"
    assert float(values["alpha_upper"]) == math.inf
    assert lines.index(f"alpha_upper = {values['alpha_upper']}") == (
        lines.index(f"best_alpha = {values['best_alpha']}") + 1
    )


def test_cmd_solve_and_thermo_outputs(tmp_path):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, f"output.dir = {out}\n")
    assert main(["thermo", str(cfg_path)]) == EXIT_OK
    assert main(["solve", str(cfg_path)]) == EXIT_OK

    surface_rows = (out / "surface.csv").read_text().splitlines()
    assert surface_rows[0] == "T,x,u"
    tc = float((out / "tc.txt").read_text().split(" = ")[1])
    terminal = [r for r in surface_rows[1:] if float(r.split(",")[0]) == tc]
    assert len(terminal) == 160
    assert all(float(r.split(",")[2]) == 0.0 for r in terminal)

    trace_rows = (out / "trace.csv").read_text().splitlines()
    assert trace_rows[0] == "T,iterations,final_ratio"

    summary = dict(
        line.split(" = ")
        for line in (out / "thermo_summary.txt").read_text().splitlines()
    )
    assert set(summary) == {
        "t_c", "alpha", "delta_cv", "psi_second_tc",
        "verdict_a", "verdict_b", "verdict_c",
    }
    assert float(summary["delta_cv"]) > 0.0
    assert float(summary["psi_second_tc"]) < 0.0
    assert summary["verdict_a"] == summary["verdict_b"] == summary["verdict_c"] == "true"

    psi_rows = (out / "psi.csv").read_text().splitlines()
    last = psi_rows[-1].split(",")
    assert float(last[0]) == tc
    assert float(last[1]) == 0.0

    for name in ("entropy.csv", "heat.csv", "v.csv", "w.csv"):
        assert (out / name).exists()
    v_rows = (out / "v.csv").read_text().splitlines()
    assert v_rows[0] == "x,v,error"
    assert all(float(r.split(",")[1]) > 0 for r in v_rows[1:])


def test_cmd_gcheck(tmp_path):
    assert main(["gcheck", "--out", str(tmp_path)]) == EXIT_OK
    g_rows = (tmp_path / "g.csv").read_text().splitlines()
    assert g_rows[0] == "eta,g"
    values = np.array([float(r.split(",")[1]) for r in g_rows[1:]])
    assert np.all(values < 0.0)
    summary = dict(
        line.split(" = ") for line in (tmp_path / "g_summary.txt").read_text().splitlines()
    )
    assert float(summary["g_zero"]) == -2.0 / 3.0
    assert float(summary["integral_estimate"]) == pytest.approx(-0.852557, abs=2e-6)
    assert float(summary["tail_bound"]) <= 1e-6


def test_exit_code_invalid_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("params.bogus = 1\n")
    assert main(["simple", str(bad)]) == EXIT_BAD_CONFIG
    missing = tmp_path / "nope.cfg"
    assert main(["simple", str(missing)]) == EXIT_BAD_CONFIG
    # physically invalid parameters also map to config failure
    physics = tmp_path / "physics.cfg"
    physics.write_text(BASE_CONFIG.replace("0.005", "0.5"))
    assert main(["simple", str(physics)]) == EXIT_BAD_CONFIG


def test_exit_code_non_convergence(tmp_path):
    cfg_path = _write_config(
        tmp_path, f"solver.max_iter = 5\noutput.dir = {tmp_path / 'out'}\n"
    )
    assert main(["solve", str(cfg_path)]) == EXIT_NO_CONVERGENCE


def test_solve_certifies_every_node_through_picard(tmp_path, monkeypatch):
    # the iterations column of trace.csv counts picard_solve's operator
    # applications, one picard_solve call per node, as a counting wrapper
    # around picard_solve sees them
    counted: list[int] = []
    surfaces = []
    real_picard, real_surface = solver.picard_solve, cli.solve_surface

    def counting_picard(*args, **kwargs):
        out = real_picard(*args, **kwargs)
        counted.append(out[1].iterations)
        return out

    def keeping_surface(*args, **kwargs):
        surfaces.append(real_surface(*args, **kwargs))
        return surfaces[-1]

    monkeypatch.setattr(solver, "picard_solve", counting_picard)
    monkeypatch.setattr(cli, "solve_surface", keeping_surface)
    out = tmp_path / "out"
    assert main(["solve", str(_write_config(tmp_path, f"output.dir = {out}\n"))]) == EXIT_OK
    written = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)[:, 1]
    (surface,) = surfaces
    assert len(counted) == len(surface.traces) == written.size == 10
    assert sum(counted) == sum(tr.iterations for tr in surface.traces) == written.sum()


@pytest.mark.parametrize(
    "setting, value",
    [
        ("solver.span_decades", "1.0"),
        ("solver.t_resolution", "5"),
    ],
)
def test_thermo_refuses_a_coarse_lattice_before_solving(
    setting, value, tmp_path, monkeypatch, capsys
):
    # the report's near-T_c check is known from the config: no surface is
    # solved (and no certificate searched) for a lattice it would refuse
    solves: list[tuple] = []
    real_surface = cli.solve_surface

    def counting_surface(*args, **kwargs):
        solves.append(args)
        return real_surface(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_surface", counting_surface)
    lines = [
        f"{setting} = {value}" if line.startswith(setting) else line
        for line in BASE_CONFIG.splitlines()
    ]
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text("\n".join(lines) + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["thermo", str(cfg_path)]) == EXIT_BAD_CONFIG
    assert solves == []
    err = capsys.readouterr().err
    assert "insufficient near-T_c resolution" in err
    if setting == "solver.t_resolution":
        # the one interpolant behind the limits at T_c needs 6 nodes
        assert f"need at least 6 nodes below T_c, got {value}" in err


@pytest.mark.parametrize(
    "setting, value, message",
    [
        ("solver.tol", "-1e-9", "tol must be nonnegative"),
        ("solver.span_decades", "0", "span_decades must be positive"),
        ("solver.span_decades", "-1", "span_decades must be positive"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "thermo"])
def test_bad_lattice_or_tolerance_is_refused_before_solving(
    command, setting, value, message, tmp_path, monkeypatch, capsys
):
    # a negative tol would spend the whole iteration budget on the first
    # node, and a span of no decades would put every node at tau1
    located: list[tuple] = []
    monkeypatch.setattr(solver, "spectral_tc", lambda *args: located.append(args))
    lines = [
        f"{setting} = {value}" if line.startswith(setting) else line
        for line in BASE_CONFIG.splitlines()
    ]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("\n".join(lines) + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert main([command, str(cfg_path)]) == EXIT_BAD_CONFIG
    assert message in capsys.readouterr().err
    assert located == []


def test_zero_tolerance_is_accepted(tmp_path):
    cfg_path = tmp_path / "exact.cfg"
    cfg_path.write_text(
        BASE_CONFIG.replace("solver.tol = 1e-9", "solver.tol = 0")
        + f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["solve", str(cfg_path)]) == EXIT_OK


def _count_searches(monkeypatch) -> list[dict]:
    # every package binding of search_certificate, counted with its keywords
    calls: list[dict] = []
    real = certificate.search_certificate

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    modules = [bcsgap] + [
        importlib.import_module(f"bcsgap.{info.name}")
        for info in pkgutil.iter_modules(bcsgap.__path__)
    ]
    for module in modules:
        if getattr(module, "search_certificate", None) is real:
            monkeypatch.setattr(module, "search_certificate", counting)
    return calls


@pytest.mark.parametrize("command, searches", [("solve", 0), ("thermo", 1)])
def test_only_thermo_runs_the_certificate_search(
    command, searches, tmp_path, monkeypatch
):
    # the surface solve certifies its rows without the search; thermo runs
    # it once, on the T_c of the solved surface, for the reported alpha
    calls = _count_searches(monkeypatch)
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, f"output.dir = {out}\n")
    assert main([command, str(cfg_path)]) == EXIT_OK
    assert len(calls) == searches
    if searches:
        summary = (out / "thermo_summary.txt").read_text()
        assert f"t_c = {cli.fmt(calls[0]['t_c'])}\n" in summary


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _write_config(tmp_path, f"output.dir = {out_a}\n", name="a.cfg")
    cfg_b = _write_config(tmp_path, f"output.dir = {out_b}\n", name="b.cfg")
    assert main(["simple", str(cfg_a)]) == EXIT_OK
    assert main(["simple", str(cfg_b)]) == EXIT_OK
    for name in ("envelope_U1.csv", "envelope_U2.csv", "simple_summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
