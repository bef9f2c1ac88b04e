import importlib
import inspect
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcsgap
from bcsgap import certificate, cli, gap_operator, simple_gap, solver
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
from bcsgap.gap_operator import as_operator, spectral_tc
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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("params.epsilon = 0.005\n", "", "missing required key params.epsilon"),
        (
            "potential.variant = constant\n",
            "potential.variant = cubic\n",
            "unknown potential.variant 'cubic'",
        ),
        (
            "potential.variant = constant\npotential.u0 = 0.3\n",
            "potential.variant = gaussian_bump\npotential.base = 0.3\n"
            "potential.amplitude = -0.004\npotential.width = 0.15\n",
            "params.u1 and params.u2 are required for non-constant potentials",
        ),
    ],
    ids=["no-epsilon", "unknown-variant", "bump-without-bounds"],
)
def test_an_incomplete_or_unknown_config_is_refused_by_name(
    old, new, message, tmp_path, capsys
):
    assert old in BASE_CONFIG
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE_CONFIG.replace(old, new) + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["simple", str(cfg_path)]) == EXIT_BAD_CONFIG
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_simple_outputs(tmp_path):
    cfg_path = _write_config(tmp_path, f"output.dir = {tmp_path / 'out'}\n")
    assert main(["simple", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    lines = (out / "simple_summary.txt").read_text().splitlines()
    entries = dict(line.split(" = ") for line in lines)
    tau1, tau2 = float(entries["tau_U1"]), float(entries["tau_U2"])
    assert tau1 < tau2
    # each tau lies in the window proven around it, its error bar
    for name, tau in (("U1", tau1), ("U2", tau2)):
        lo, hi = float(entries[f"tau_lo_{name}"]), float(entries[f"tau_hi_{name}"])
        assert 0.0 < lo <= tau <= hi <= tau * (1.0 + 1e-11), name
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
    # the rule's size, and each curve's largest quadrature bound Q, which
    # must stay below 1/16 of the rounding bound; that bound falls in T, so
    # its value at tau is below its value at every solved temperature
    params = build_inputs(parse_config(cfg_path))[0]
    rule = simple_gap._reference_rule(params)
    assert int(entries["reference_nodes"]) == rule.nodes.size
    for name, u, tau in (("U1", params.u_lower, tau1), ("U2", params.u_upper, tau2)):
        bound = float(entries[f"quadrature_bound_{name}"])
        assert 0.0 < bound <= simple_gap._rounding_bound(u, tau, rule) / 16.0


def test_cmd_certify_reports_failure(tmp_path):
    cfg_path = _write_config(tmp_path, f"output.dir = {tmp_path / 'out'}\n")
    assert main(["certify", str(cfg_path)]) == EXIT_CERTIFICATE
    report = (tmp_path / "out" / "certificate.txt").read_text()
    assert "status = failed" in report
    assert "best_alpha = " in report


def test_certify_reports_an_unproven_bound_as_infinite(
    tmp_path, monkeypatch, params, const_op
):
    # with no widening allowed, no root window proves a side: Delta2(tau)
    # has no upper edge, so the bound has none either; the search still
    # reports failure, and certificate.txt an alpha_upper float() reads.
    # T_c's window is proven by the same checks, so T_c is located before
    # they are switched off, and certify is handed it
    t_c = spectral_tc(const_op, params)
    monkeypatch.setattr(simple_gap, "_WINDOW_WIDENINGS", 0)
    monkeypatch.setattr(cli, "spectral_tc", lambda *args: t_c)
    tau = 0.5 * (tau_root(params.u_lower, params) + t_c)
    result = certificate.compute_alpha(tau, const_op, params, t_c=t_c)
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


def test_an_unproven_tc_exits_4_naming_the_bracket(tmp_path, monkeypatch, capsys):
    # a T_c window that proves neither side (here its bound made infinite)
    # is a ValueError naming the bracket, which the command reports by exit 4
    monkeypatch.setattr(gap_operator, "_ratio_bound", lambda op: math.inf)
    cfg_path = _write_config(tmp_path, f"output.dir = {tmp_path / 'out'}\n")
    assert main(["certify", str(cfg_path)]) == EXIT_BAD_CONFIG
    assert "error: bracket invalid" in capsys.readouterr().err


def test_cmd_solve_and_thermo_outputs(tmp_path):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, f"output.dir = {out}\n")
    assert main(["thermo", str(cfg_path)]) == EXIT_OK
    assert main(["solve", str(cfg_path)]) == EXIT_OK

    surface_rows = (out / "surface.csv").read_text().splitlines()
    assert surface_rows[0] == "T,x,u"
    tc_text = (out / "tc.txt").read_text()
    tc_lines = dict(line.split(" = ") for line in tc_text.splitlines())
    assert set(tc_lines) == {"t_c", "operator_rank", "operator_error"}
    # a constant potential factors exactly with rank one
    assert tc_lines["operator_rank"] == "1" and float(tc_lines["operator_error"]) == 0.0
    tc = float(tc_lines["t_c"])
    terminal = [r for r in surface_rows[1:] if float(r.split(",")[0]) == tc]
    assert len(terminal) == 160
    assert all(float(r.split(",")[2]) == 0.0 for r in terminal)

    trace_rows = (out / "trace.csv").read_text().splitlines()
    assert trace_rows[0] == "T,iterations,rate_bound"

    summary = dict(
        line.split(" = ")
        for line in (out / "thermo_summary.txt").read_text().splitlines()
    )
    assert set(summary) == {
        "t_c", "alpha", "rate_bound", "certified", "delta_cv", "psi_second_tc",
        "verdict_a", "verdict_b", "verdict_c",
    }
    # the fallback alpha is not a measured rate; the rate bound is
    assert summary["certified"] == "false"
    assert float(summary["alpha"]) == 0.95 < float(summary["rate_bound"]) < 1.0
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


def test_thermo_at_a_tiny_cutoff_passes_the_curvature_cross_check(tmp_path):
    # at epsilon = 1e-9 form B's bracket cancels to its rounding, 2.7e-8 of
    # form A here; the cross-check allows form B's own rounding bound and
    # no longer stops the run
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        BASE_CONFIG.replace("epsilon = 0.005", "epsilon = 1e-9").replace("u0 = 0.3", "u0 = 0.9")
        + f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["thermo", str(cfg_path)]) == EXIT_OK
    summary = (tmp_path / "out" / "thermo_summary.txt").read_text().splitlines()
    assert {"verdict_a = true", "verdict_b = true", "verdict_c = true"} <= set(summary)


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


TABLE_CONFIG = """\
params.hbar_omega_d = 1.0
params.epsilon = 0.005
params.u1 = 0.291
params.u2 = 0.309
potential.variant = table
grid.panels = 16
grid.order = 10
"""


@pytest.mark.parametrize(
    "rows, message",
    [
        # one node above U2 = 0.309, between lattice points 2e-4 apart
        (
            [(x, xi, 0.33 if x == xi == 0.5 else 0.3)
             for x in (0.0, 0.4999, 0.5, 0.5001, 1.0)
             for xi in (0.0, 0.4999, 0.5, 0.5001, 1.0)],
            "potential range [0.3, 0.33] leaves the open coupling band",
        ),
        # a 3 x 2 table written xi-major
        (
            [(x, xi, 0.3) for xi in (0.0, 1.0) for x in (0.0, 0.5, 1.0)],
            "x-major order",
        ),
    ],
    ids=["node-above-band", "xi-major"],
)
def test_a_bad_table_exits_as_a_bad_config(rows, message, tmp_path, capsys):
    table = tmp_path / "pot.csv"
    table.write_text("x,xi,u\n" + "".join(f"{x!r},{xi!r},{u!r}\n" for x, xi, u in rows))
    cfg_path = tmp_path / "table.cfg"
    cfg_path.write_text(
        TABLE_CONFIG + f"potential.csv = {table}\noutput.dir = {tmp_path / 'out'}\n"
    )
    assert main(["solve", str(cfg_path)]) == EXIT_BAD_CONFIG
    assert message in capsys.readouterr().err


BUMP_KEYS = """\
potential.base = 0.3
potential.amplitude = 0.05
potential.width = 0.05
params.u1 = 0.2
params.u2 = 0.4
"""


@pytest.mark.parametrize(
    "variant, stray, message",
    [
        # no variant line: the default, constant, reads u0 alone
        ("", "", "potential.variant 'constant' does not read potential.base"),
        (
            "potential.variant = gaussian_bump\n",
            "potential.u0 = 0.5\npotential.csv = nonexistent.csv\n",
            "potential.variant 'gaussian_bump' does not read potential.u0",
        ),
    ],
    ids=["constant-with-bump-keys", "bump-with-constant-and-table-keys"],
)
def test_a_key_of_another_variant_is_refused_by_name(
    variant, stray, message, tmp_path, capsys
):
    # the parent ran the first as the constant 0.3 and ignored the bump keys
    base = BASE_CONFIG.replace("potential.variant = constant\n", "")
    if variant:
        base = base.replace("potential.u0 = 0.3\n", "")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        base + variant + BUMP_KEYS + stray + f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["certify", str(cfg_path)]) == EXIT_BAD_CONFIG
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_missing_table_file_exits_as_a_bad_config(tmp_path, capsys):
    missing = tmp_path / "nonexistent.csv"
    cfg_path = tmp_path / "table.cfg"
    cfg_path.write_text(TABLE_CONFIG + f"potential.csv = {missing}\n")
    assert main(["certify", str(cfg_path)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simple", "gcheck"])
def test_an_unusable_output_directory_exits_as_a_bad_config(command, tmp_path, capsys):
    # an output directory below a regular file cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    if command == "gcheck":
        argv = ["gcheck", "--out", str(out)]
    else:
        argv = [command, str(_write_config(tmp_path, f"output.dir = {out}\n"))]
    assert main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err


def test_exit_code_non_convergence(tmp_path, capsys):
    # at tol = 0 only a step of exactly zero stops, so one Picard step runs out
    cfg_path = tmp_path / "exact.cfg"
    cfg_path.write_text(
        BASE_CONFIG.replace("solver.tol = 1e-9", "solver.tol = 0")
        + f"solver.max_iter = 1\noutput.dir = {tmp_path / 'out'}\n"
    )
    assert main(["solve", str(cfg_path)]) == EXIT_NO_CONVERGENCE
    assert "after 1 iterations" in capsys.readouterr().err


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
        ("solver.max_iter", "0", "max_iter must be at least 1, got 0"),
        ("solver.max_iter", "-5", "max_iter must be at least 1, got -5"),
        ("solver.t_resolution", "1", "need at least 2 temperature nodes"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "thermo"])
def test_bad_lattice_or_tolerance_is_refused_before_solving(
    command, setting, value, message, tmp_path, monkeypatch, capsys
):
    # a negative tol would spend the whole iteration budget on the first
    # node, a span of no decades would put every node at tau1, and a budget
    # below one is no failure to converge
    located: list[tuple] = []
    monkeypatch.setattr(solver, "spectral_tc", lambda *args: located.append(args))
    lines = [line for line in BASE_CONFIG.splitlines() if not line.startswith(setting)]
    lines.append(f"{setting} = {value}")
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
    # every package binding of search_certificate, counted with its arguments
    calls: list[dict] = []
    real = certificate.search_certificate

    def counting(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
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


@pytest.mark.parametrize("command, code", [("certify", EXIT_CERTIFICATE), ("thermo", EXIT_OK)])
def test_the_search_gets_the_operator_the_command_built(
    command, code, tmp_path, monkeypatch
):
    # certify builds one operator and hands it to T_c location and to the
    # search; thermo hands over the operator its surface was solved with
    built, located = [], []
    real_build, real_tc = cli.as_operator, cli.spectral_tc

    def building(*args):
        built.append(real_build(*args))
        return built[-1]

    def locating(op, params):
        located.append(op)
        return real_tc(op, params)

    monkeypatch.setattr(cli, "as_operator", building)
    monkeypatch.setattr(cli, "spectral_tc", locating)
    calls = _count_searches(monkeypatch)
    cfg_path = _write_config(tmp_path, f"output.dir = {tmp_path / 'out'}\n")
    assert main([command, str(cfg_path)]) == code
    assert len(built) == 1 and len(calls) == 1
    assert calls[0]["op"] is built[0]
    assert all(op is built[0] for op in located)
    assert len(located) == (command == "certify")


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _write_config(tmp_path, f"output.dir = {out_a}\n", name="a.cfg")
    cfg_b = _write_config(tmp_path, f"output.dir = {out_b}\n", name="b.cfg")
    assert main(["simple", str(cfg_a)]) == EXIT_OK
    # from cold caches, so that the second run recomputes every tau and root
    for cached in (tau_root, simple_gap._tau_window,
                   simple_gap._reference_rule, simple_gap.solve_delta):
        cached.cache_clear()
    assert main(["simple", str(cfg_b)]) == EXIT_OK
    for name in ("envelope_U1.csv", "envelope_U2.csv", "simple_summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


BUMP_CONFIG = """\
params.hbar_omega_d = 1.0
params.epsilon = 0.005
params.n0 = 1.0
params.u1 = 0.291
params.u2 = 0.309
potential.variant = gaussian_bump
potential.base = 0.3
potential.amplitude = -0.004
potential.width = 0.125
grid.panels = 16
grid.order = 10
solver.t_resolution = 4
solver.span_decades = 1.0
"""


@pytest.mark.parametrize("width", ["0.0", "nan"])
def test_a_bump_of_no_width_is_refused_by_name(width, tmp_path, capsys):
    # refused before U is evaluated, so no RuntimeWarning (an error here)
    cfg_path = tmp_path / "bump.cfg"
    cfg_path.write_text(
        BUMP_CONFIG.replace("width = 0.125", f"width = {width}")
        + f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["solve", str(cfg_path)]) == EXIT_BAD_CONFIG
    assert f"bump width = {width} must be nonzero and not NaN" in capsys.readouterr().err


def test_solve_reports_the_bump_factorisation(tmp_path, monkeypatch):
    # tc.txt names the operator's rank and factorisation error, and
    # surface.csv holds one row per (T, x) pair, each cell as fmt writes it
    surfaces = []
    real_surface = cli.solve_surface

    def keeping_surface(*args, **kwargs):
        surfaces.append(real_surface(*args, **kwargs))
        return surfaces[-1]

    monkeypatch.setattr(cli, "solve_surface", keeping_surface)
    out = tmp_path / "out"
    cfg_path = tmp_path / "bump.cfg"
    cfg_path.write_text(BUMP_CONFIG + f"output.dir = {out}\n")
    assert main(["solve", str(cfg_path)]) == EXIT_OK
    _, potential, grid, _ = build_inputs(parse_config(cfg_path))
    op = as_operator(potential, grid)
    (surface,) = surfaces
    assert (out / "tc.txt").read_text() == (
        f"t_c = {cli.fmt(surface.t_c)}\n"
        f"operator_rank = {op.rank}\n"
        f"operator_error = {cli.fmt(op.error)}\n"
    )
    assert 1 < op.rank < grid.size and 0.0 < op.error < 1e-16
    expected = ["T,x,u"] + [
        f"{cli.fmt(T)},{cli.fmt(x)},{cli.fmt(surface.values[i, j])}"
        for i, T in enumerate(surface.t_nodes)
        for j, x in enumerate(grid.nodes)
    ]
    assert (out / "surface.csv").read_text() == "\n".join(expected) + "\n"


def test_importing_the_cli_loads_no_scipy():
    # a cold scipy import takes about a second, all of it set-up time
    src = Path(bcsgap.__file__).resolve().parents[1]
    code = (
        "import sys; import bcsgap.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=src, timeout=120,
    )
    assert done.stdout.strip() == "[]"


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def test_a_thermo_run_loads_no_numpy_polynomial(tmp_path):
    # importing numpy.polynomial cost every process 3-5 ms of set-up: the
    # Gauss-Legendre rule, the stencils and the slopes do without it
    src = Path(bcsgap.__file__).resolve().parents[1]
    config = tmp_path / "default.cfg"
    config.write_text(
        DEFAULT_CONFIG.read_text().replace("output.dir = results", f"output.dir = {tmp_path}")
    )
    code = (
        "import sys; import bcsgap.cli as cli; "
        f"cli.build_inputs(cli.parse_config({str(config)!r})); "
        f"assert cli.main(['thermo', {str(config)!r}]) == 0; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=src, timeout=120
    )
    assert done.returncode == 0 and done.stdout.strip() == "[]", done.stderr
    assert (tmp_path / "thermo_summary.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", str(DEFAULT_CONFIG)],
        ["thermo"],
        ["simple", str(DEFAULT_CONFIG), str(DEFAULT_CONFIG)],
        ["gcheck", "--out"],
        [],
    ],
    ids=["unknown-command", "missing-config", "extra-argument", "out-without-value", "no-command"],
)
def test_a_malformed_command_line_exits_as_a_bad_config(argv, capsys):
    # 2 is the certificate-failure code: a malformed line returns 4, with
    # the usage and the error on stderr, and raises no SystemExit
    assert main(argv) == EXIT_BAD_CONFIG
    shown = capsys.readouterr()
    usage, error = shown.err.splitlines()
    assert usage.startswith("usage: bcsgap ") and error.startswith("error: ")
    assert shown.out == ""


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_and_exits_ok(flag, capsys):
    assert main([flag]) == EXIT_OK
    shown = capsys.readouterr()
    assert shown.out.startswith("usage: bcsgap ") and shown.err == ""


def test_the_command_line_is_read_without_argparse(tmp_path):
    # building an argparse parser cost each call about a millisecond, and the
    # first one imported gettext and locale: the module run as a program
    # answers --help and a malformed line itself, and neither importing the
    # cli nor a gcheck run loads any of the three
    src = Path(bcsgap.__file__).resolve().parents[1]

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, cwd=src, timeout=120
        )

    shown = run("-m", "bcsgap.cli", "--help")
    assert shown.returncode == EXIT_OK and shown.stdout.startswith("usage: bcsgap ")
    bad = run("-m", "bcsgap.cli", "bogus", str(DEFAULT_CONFIG))
    assert bad.returncode == EXIT_BAD_CONFIG and bad.stderr.startswith("usage: bcsgap ")
    code = (
        "import sys; import bcsgap.cli as cli; "
        f"assert cli.main(['gcheck', '--out', {str(tmp_path)!r}]) == 0; "
        "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"
    )
    done = run("-c", code)
    assert done.returncode == 0 and done.stdout.strip() == "[]", done.stderr


@pytest.mark.parametrize("span", ["8", "14"])
@pytest.mark.parametrize("command", ["solve", "thermo"])
def test_a_span_that_reaches_into_the_zero_phase_slack_is_refused(
    command, span, tmp_path, capsys
):
    # on the default config these spans put nodes so close below T_c that
    # their rows come back zero: 2 of them at span 8 and 11 at span 14
    lines = [
        f"solver.span_decades = {span}" if line.startswith("solver.span_decades") else line
        for line in DEFAULT_CONFIG.read_text().splitlines()
        if not line.startswith("output.dir")
    ]
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text("\n".join(lines) + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert main([command, str(cfg_path)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "came back zero below T_c" in err
    assert f"solver.span_decades (now {float(span)!r})" in err


@pytest.mark.parametrize("span", ["16", "400"])
@pytest.mark.parametrize("command", ["solve", "thermo"])
def test_a_span_that_collapses_the_lattice_onto_t_c_is_refused_before_any_node(
    command, span, tmp_path, monkeypatch, capsys
):
    # past about 15.5 decades the deepest nodes round onto each other and
    # onto T_c: 23 distinct nodes are left at span 16 and 2 at span 400
    seeds: list[tuple] = []
    monkeypatch.setattr(solver, "newton_seed", lambda *args, **kwargs: seeds.append(args))
    lines = [
        f"solver.span_decades = {span}" if line.startswith("solver.span_decades") else line
        for line in DEFAULT_CONFIG.read_text().splitlines()
        if not line.startswith("output.dir")
    ]
    cfg_path = tmp_path / "deep.cfg"
    cfg_path.write_text("\n".join(lines) + f"\noutput.dir = {tmp_path / 'out'}\n")
    assert main([command, str(cfg_path)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"solver.span_decades = {float(span)!r} collapses the lattice onto T_c" in err
    assert seeds == []
