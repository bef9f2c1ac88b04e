import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcsgap import model, thermo
from bcsgap._record import replace
from bcsgap.certificate import ContractionCertificate
from bcsgap.model import make_params, build_grid
from bcsgap.quadrature import gap_curvature
from bcsgap.simple_gap import implicit_slope_v, tau_root
from bcsgap.solver import solve_surface
from bcsgap.thermo import (
    build_thermo_report,
    cutoff_divergence_scan,
    delta_cv,
    entropy_and_heat,
    f_consistency,
    first_derivative_three_terms,
    g_consistency,
    g_integral_to_infinity,
    limit_tables,
    psi,
    psi_perturbation_bound,
    psi_second_at_tc,
    psi_table,
    require_resolution,
)

from oracles import constant_psi_derivatives, curvature_w_oracle, zeta3_series


# ---------------------------------------------------------------------------
# the limit rule


def test_limit_at_zero_polynomial():
    d = np.array([0.4, 0.2, 0.1, 0.05])
    vals = 3.0 + 2.0 * d - 5.0 * d**2
    (limit, slope), err = thermo._limit_at_zero(d, vals, (0, 1))
    assert limit == pytest.approx(3.0, abs=1e-12)
    assert slope == pytest.approx(2.0, abs=1e-10)
    assert np.all(err <= 1e-10)


def _exact_stencil(nodes, at, orders) -> list[list[Fraction]]:
    """The Lagrange basis polynomials' derivatives at ``at``, in exact
    rational arithmetic on the doubles given."""
    a, xs = Fraction(float(at)), [Fraction(float(x)) for x in nodes]
    rows = []
    for k in orders:
        row = []
        for j, xj in enumerate(xs):
            poly, denominator = [Fraction(1)], Fraction(1)  # coefficients in y = x - a
            for i, xi in enumerate(xs):
                if i != j:
                    poly = [Fraction(0)] + poly
                    for p in range(len(poly) - 1):
                        poly[p] += poly[p + 1] * (a - xi)
                    denominator *= xj - xi
            row.append(poly[k] * math.factorial(k) / denominator)
        rows.append(row)
    return rows


def test_stencil_weights_are_exact_to_a_few_ulps(const_surface):
    # each stencil's weights against exact Lagrange-derivative weights, the
    # error relative to the stencil's largest weight: on the default lattice's
    # entropy/heat windows and on the limit window at offset 0; a moment-
    # equation solve errs by about 4e2 eps here
    surface, _ = const_surface
    t = surface.t_nodes
    start = np.clip(np.arange(t.size) - 3, 0, t.size - 6)
    windows = t[start[:, None] + np.arange(6)]
    offsets = (surface.t_c - t[:-1])[-6:]
    cases = [
        *zip(thermo._stencil(windows, t, (1, 2)), windows, t, [(1, 2)] * t.size),
        (thermo._stencil(offsets, 0.0, (0, 1)), offsets, 0.0, (0, 1)),
    ]
    errors = [
        abs(Fraction(float(w)) - e) / max(map(abs, exact))
        for weights, nodes, at, orders in cases
        for row, exact in zip(weights, _exact_stencil(nodes, at, orders))
        for w, e in zip(row, exact)
    ]
    assert len(cases) == 26
    assert max(errors) <= 8 * np.finfo(float).eps


def test_slope_is_the_least_squares_line():
    x = np.log(np.geomspace(1e-3, 1e-1, 6))
    y = 1.5 * x - 0.25 + 1e-3 * np.sin(7.0 * x)
    assert thermo._slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)
    assert thermo._slope(x, 2.0 * x + 3.0) == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# potential difference


def test_psi_zero_field_is_exactly_zero(params, grid):
    assert psi(0.03, np.zeros(grid.size), params, grid) == 0.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    epsilon=st.floats(1e-9, 0.03),
    panels=st.integers(1, 64),
    order=st.integers(2, 30),
    T=st.floats(1e-300, 1e3),
)
def test_psi_of_the_zero_field_is_exactly_zero_on_every_grid(epsilon, panels, order, T):
    # sqrt(xi*xi) rounds back to xi, so every term of Psi is exactly zero:
    # the T_c row of a surface, the zero field, has Psi(T_c) = 0.0 with no check
    p = make_params(1.0, epsilon, 1.0, 0.291, 0.309)
    g = build_grid(p, panels=panels, order=order)
    assert psi(T, np.zeros(g.size), p, g) == 0.0


def test_psi_negative_and_increasing_on_surface(const_surface, params):
    surface, _ = const_surface
    psis = psi_table(surface, params)
    assert np.all(psis[:-1] < 0.0)
    assert psis[-1] == 0.0
    assert np.all(np.diff(psis) > 0.0)


def test_psi_quadratic_approach_is_bounded(const_surface, const_report, params, grid):
    surface, _ = const_surface
    psis = const_report.psi_values
    offsets = surface.t_c - surface.t_nodes[:-1]
    ratio = np.abs(psis[:-1]) / offsets**2
    assert np.max(ratio) <= abs(const_report.psi_second_tc_form_a)


# ---------------------------------------------------------------------------
# v and w extraction


def test_v_matches_implicit_slope(const_report, params):
    v = const_report.v_table
    target = implicit_slope_v(0.3, params)
    assert np.max(np.abs(v.values - target)) / target <= 1e-3
    assert np.all(v.values > 0.0)


def test_v_constant_in_energy_for_constant_potential(const_report):
    v = const_report.v_table.values
    assert (np.max(v) - np.min(v)) / np.max(v) <= 1e-9


def test_limits_match_scalar_oracles(const_report, params):
    # a constant coupling's v and w are the scalar gap's: v in closed form,
    # w from a fit of the scalar gap squared near tau
    v = const_report.v_table.values
    w = const_report.w_table.values
    v_target = implicit_slope_v(0.3, params)
    w_target = curvature_w_oracle(0.3, params)
    assert np.max(np.abs(v - v_target)) <= 1e-9 * v_target
    assert np.max(np.abs(w - w_target)) <= 1e-6 * abs(w_target)


def test_v_requires_resolution(const_op, params):
    shallow = solve_surface(const_op, params, t_resolution=8, span_decades=1.0, tol=1e-9)
    with pytest.raises(ValueError, match="resolution"):
        limit_tables(shallow, psi_table(shallow, params))


def test_six_nodes_over_two_decades_are_enough():
    require_resolution(6, 2.2)  # the interpolant's depth; 5 is refused in test_cli


def test_limit_tables_refuse_a_nonpositive_slope(const_surface, params):
    surface, _ = const_surface
    values = surface.values.copy()
    values[:-1, 7] = 0.0  # one x column zero below T_c
    zeroed = replace(surface, values=values)
    with pytest.raises(ValueError, match="positive"):
        limit_tables(zeroed, psi_table(zeroed, params))


def test_w_constant_in_energy_and_estimators_agree(const_surface, params):
    surface, _ = const_surface
    _, w, *_ = limit_tables(surface, psi_table(surface, params))
    assert w.estimator_mismatch <= 1e-2
    spread = np.max(w.values) - np.min(w.values)
    assert spread <= 1e-2 * np.max(np.abs(w.values))


@pytest.mark.parametrize("surface_name", ["const_surface", "gauss_surface"])
def test_w_consistency_with_curvature_functional(surface_name, request, params):
    surface = request.getfixturevalue(surface_name)
    if surface_name == "const_surface":
        surface, _ = surface  # the fixture carries the solve's wall time
    v, w, *_ = limit_tables(surface, psi_table(surface, params))
    assert g_consistency(v.values, w.values, surface) <= 1e-8


def _count_potential_matrices(monkeypatch) -> list[tuple[int, ...]]:
    # every binding of model.potential_matrix in the package, counted
    shapes: list[tuple[int, ...]] = []
    real = model.potential_matrix

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        shapes.append(out.shape)
        return out

    for name in ("gap_operator", "certificate", "solver", "thermo", "cli"):
        module = importlib.import_module(f"bcsgap.{name}")
        if getattr(module, "potential_matrix", None) is real:
            monkeypatch.setattr(module, "potential_matrix", counting)
    return shapes


def test_thermo_builds_no_second_potential_matrix(
    const_surface, const_report, params, default_search_outcome, monkeypatch,
):
    surface, _ = const_surface
    shapes = _count_potential_matrices(monkeypatch)
    build_thermo_report(surface, params, default_search_outcome)
    # the consistency functionals act through the operator's factors
    v, w = const_report.v_table.values, const_report.w_table.values
    f_consistency(v, surface)
    g_consistency(v, w, surface)
    assert shapes == []


def test_thermo_report_is_one_pass(const_surface, params, default_search_outcome, monkeypatch):
    # v, w and the finite-difference Psi''(T_c) are columns of one
    # extrapolation (a 6- and a 5-node stencil), the entropy/heat tables take
    # one more, and the verdict reuses the report's numbers
    surface, _ = const_surface
    calls = dict.fromkeys(
        ("_stencil", "_limit_at_zero", "psi_second_at_tc", "_curvature_integral"), 0
    )
    for name in calls:

        def counting(*args, _name=name, _real=getattr(thermo, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(thermo, name, counting)
    build_thermo_report(surface, params, default_search_outcome)
    assert calls["_stencil"] == 3
    assert calls["_limit_at_zero"] == 1
    assert calls["psi_second_at_tc"] == 1
    assert calls["_curvature_integral"] <= 2
    assert not hasattr(thermo, "second_order_verdict")


# ---------------------------------------------------------------------------
# eigen-consistency of sqrt(v)


def test_f_consistency_small_at_fixed_point(const_surface, const_report):
    surface, _ = const_surface
    assert f_consistency(const_report.v_table.values, surface) <= 1e-3


def test_f_consistency_scale_free(const_surface, const_report):
    surface, _ = const_surface
    v = const_report.v_table.values
    base = f_consistency(v, surface)
    scaled = f_consistency(4.0 * v, surface)
    assert scaled == pytest.approx(base, abs=1e-14)


def test_f_consistency_detects_perturbation(const_surface, const_report):
    surface, _ = const_surface
    v = const_report.v_table.values
    rng = np.random.default_rng(42)
    noisy = v * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, v.size))
    base = f_consistency(v, surface)
    assert f_consistency(noisy, surface) > 10.0 * base


# ---------------------------------------------------------------------------
# the curvature kernel and its integral


def test_g_at_zero_exact():
    assert gap_curvature(0.0) == -2.0 / 3.0


def test_g_negative_on_log_grid():
    etas = np.geomspace(1e-3, 1e3, 60)
    assert np.all(gap_curvature(etas) < 0.0)


def test_g_large_argument_tail():
    assert gap_curvature(50.0) == pytest.approx(-math.tanh(50.0) / 50.0**3, rel=1e-10)


def test_g_derivative_vanishes_at_origin_and_infinity():
    for h in (1e-2, 1e-3, 1e-4):
        assert abs((gap_curvature(h) - gap_curvature(0.0)) / h) <= 1.0 * h  # slope ~ (16/15) h
    assert abs(gap_curvature(60.0)) < 1e-5
    assert abs((gap_curvature(60.0 + 1e-3) - gap_curvature(60.0)) / 1e-3) < 1e-5


def test_g_integral_matches_series_constant():
    estimate, tail_bound = g_integral_to_infinity()
    target = -7.0 * zeta3_series() / math.pi**2
    assert tail_bound <= 1e-6
    assert abs(estimate - target) <= 1e-6


# ---------------------------------------------------------------------------
# specific-heat jump and curvature forms


def test_delta_cv_positive_and_identity(const_surface, const_report, params, grid):
    surface, _ = const_surface
    jump = const_report.delta_cv
    assert jump > 0.0
    form_a = const_report.psi_second_tc_form_a
    assert abs(jump + surface.t_c * form_a) <= 1e-10 * jump


def test_delta_cv_linear_in_dos(const_surface, const_report, grid):
    surface, _ = const_surface
    doubled = make_params(1.0, 0.005, 2.0, 0.291, 0.309)
    single = make_params(1.0, 0.005, 1.0, 0.291, 0.309)
    v = const_report.v_table.values
    one = delta_cv(v, surface.t_c, single, grid)
    two = delta_cv(v, surface.t_c, doubled, grid)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_delta_cv_weak_coupling_normalization():
    # at a small cutoff the jump normalized by N0*v approaches one
    p = make_params(1.0, 1e-4, 1.0, 0.291, 0.309)
    g4 = build_grid(p, panels=16, order=10)
    v = implicit_slope_v(0.3, p)
    t_c = tau_root(0.3, p)
    jump = delta_cv(np.full(g4.size, v), t_c, p, g4)
    assert jump / (p.n0_dos * v) == pytest.approx(1.0, rel=1e-2)


def test_psi_second_forms_agree(const_report):
    a, b = const_report.psi_second_tc_form_a, const_report.psi_second_tc_form_b
    assert a < 0.0 and b < 0.0
    assert abs(a - b) <= 1e-8 * abs(a)


def test_three_term_first_derivative_cancellation(const_surface, const_report, params, grid):
    surface, _ = const_surface
    t1, t2, t3 = first_derivative_three_terms(
        const_report.v_table.values, surface.t_c, params, grid
    )
    assert t1 > 0.0 and t2 < 0.0 and t3 < 0.0
    assert abs(t1 + t2 + t3) <= 1e-10 * abs(t1)


# ---------------------------------------------------------------------------
# verdict


def test_verdict_all_true_on_default_config(const_report):
    verdict = const_report.verdict
    assert verdict.a and verdict.b and verdict.c
    assert const_report.psi_values[-1] == 0.0
    assert verdict.first_derivative_order >= 0.9
    assert verdict.three_term_relative <= 1e-10
    assert const_report.psi_second_tc_form_a < 0.0
    # FD second derivative of the potential difference converges to the form
    assert verdict.second_derivative_fd == pytest.approx(
        const_report.psi_second_tc_form_a, rel=1e-4
    )


def test_report_carries_certificate_alpha(const_surface, params):
    surface, _ = const_surface
    certificate = ContractionCertificate(
        tau=surface.tau,
        epsilon=params.epsilon_cutoff,
        alpha=0.9,
        max_location=(surface.tau, params.epsilon_cutoff),
        delta2_at_tau=0.5 * params.epsilon_cutoff,
    )
    report = build_thermo_report(surface, params, certificate)
    assert report.certified is True
    assert report.alpha == 0.9
    assert report.rate_bound == max(tr.rate for tr in surface.traces)


def test_uncertified_report_carries_the_measured_rate_bound(const_surface, const_report):
    surface, _ = const_surface
    rate = const_report.rate_bound
    assert rate == max(tr.rate for tr in surface.traces)
    assert 0.999 < rate < 1.0  # the contraction weakens toward T_c
    assert const_report.certified is False
    assert const_report.alpha == min(rate + 0.1, 0.95) == 0.95


# ---------------------------------------------------------------------------
# entropy and specific heat tables


def test_entropy_and_heat_tables(const_surface, const_report):
    surface, _ = const_surface
    entropy, heat = (
        const_report.entropy_values,
        const_report.specific_heat_values,
    )
    # entropy difference vanishes at the transition: no latent heat
    assert abs(entropy[-1]) <= 1e-5 * np.max(np.abs(entropy))
    # the tabulated jump agrees with the closed-form jump
    assert heat[-2] == pytest.approx(const_report.delta_cv, rel=5e-2)


def test_heat_at_tc_is_the_jump(const_report):
    # at the T_c row the one-sided interpolant gives the closed-form jump
    heat = const_report.specific_heat_values
    assert heat[-1] == pytest.approx(const_report.delta_cv, rel=1e-6)


@pytest.mark.parametrize("where", ["coolest", "middle", "nearest_tc"])
def test_entropy_and_heat_match_the_mpmath_oracle(where, const_surface, const_report, params, grid):
    surface, _ = const_surface
    i = {"coolest": 0, "middle": surface.t_nodes.size // 2, "nearest_tc": -2}[where]
    T = float(surface.t_nodes[i])
    first, second = constant_psi_derivatives(
        0.3, T, 1e-8 * (surface.t_c - T), params, grid
    )
    assert const_report.entropy_values[i] == pytest.approx(-first, rel=1e-7)
    assert const_report.specific_heat_values[i] == pytest.approx(-T * second, rel=1e-6)


def test_entropy_and_heat_agree_on_nested_lattices(gauss_op, params):
    # every third node of the 70-node lattice is a node of the 24-node one
    tables = []
    for n in (24, 70):
        surface = solve_surface(gauss_op, params, t_resolution=n, span_decades=2.2)
        psis = psi_table(surface, params)
        tables.append((surface.t_nodes, *entropy_and_heat(surface.t_nodes, psis)))
    (t, entropy, heat), (t_fine, entropy_fine, heat_fine) = tables
    pick = np.r_[np.arange(0, 70, 3), 70]
    assert np.allclose(t, t_fine[pick], rtol=1e-15, atol=0.0)
    below = slice(None, -1)  # the entropy difference vanishes at T_c
    assert np.all(np.abs(entropy - entropy_fine[pick])[below] <= 1e-6 * np.abs(entropy[below]))
    assert np.all(np.abs(heat - heat_fine[pick]) <= 5e-6 * np.abs(heat))


def test_entropy_and_heat_zero_input():
    t = np.linspace(0.03, 0.04, 7)
    entropy, heat = entropy_and_heat(t, np.zeros(7))
    assert np.all(entropy == 0.0)
    assert np.all(heat == 0.0)


def test_entropy_and_heat_needs_six_nodes():
    with pytest.raises(ValueError, match="6 temperature nodes"):
        entropy_and_heat(np.linspace(0.0, 1.0, 5), np.zeros(5))
    t = np.linspace(0.0, 1.0, 6)
    entropy, heat = entropy_and_heat(t, t**5)
    assert entropy == pytest.approx(-5.0 * t**4, abs=1e-12)
    assert heat == pytest.approx(-20.0 * t**4, abs=1e-12)


def test_entropy_and_heat_refuses_a_length_mismatch():
    with pytest.raises(ValueError, match="one potential value per temperature"):
        entropy_and_heat(np.linspace(0.0, 1.0, 7), np.zeros(6))


# ---------------------------------------------------------------------------
# perturbation bound


def test_perturbation_bound_trivial_case(const_surface, const_report, params):
    surface, _ = const_surface
    row = surface.values[10]
    lhs, rhs = psi_perturbation_bound(
        row, row, float(surface.t_nodes[10]), surface, params, alpha=const_report.alpha
    )
    assert lhs == 0.0 and rhs == 0.0


def test_perturbation_bound_random_sweep(const_surface, const_report, params):
    surface, _ = const_surface
    rng = np.random.default_rng(42)
    slack = []
    for _ in range(50):
        i = int(rng.integers(0, len(surface.t_nodes) - 1))
        t = float(surface.t_nodes[i])
        base = surface.values[i]
        bump = rng.uniform(0.0, 1e-4, base.size)
        from bcsgap.simple_gap import solve_delta

        d2 = solve_delta(params.u_upper, t, params)
        perturbed = np.minimum(base + bump, d2)  # clipped to the envelope
        lhs, rhs = psi_perturbation_bound(
            perturbed, base, t, surface, params, alpha=const_report.alpha
        )
        assert lhs <= rhs
        if lhs > 0:
            slack.append(rhs / lhs)
    assert min(slack) >= 1.0


# ---------------------------------------------------------------------------
# cutoff divergence


def test_cutoff_scan_slope(params):
    v = implicit_slope_v(0.3, params)
    scan = cutoff_divergence_scan(v, [1e-2, 1e-3, 1e-4, 1e-5], 1.0, 1.0)
    assert scan.slope == pytest.approx(scan.slope_target, rel=1e-6)
    assert scan.slope_target == v


def test_cutoff_scan_halving_increment():
    scan = cutoff_divergence_scan(0.35, [2e-3, 1e-3], 1.0, 1.0)
    increment = scan.values[1] - scan.values[0]
    assert increment == pytest.approx(0.35 * math.log(2.0), rel=1e-9)


def test_cutoff_scan_empty_interval():
    scan = cutoff_divergence_scan(0.35, [1.0, 0.5], 1.0, 1.0)
    assert scan.values[0] == 0.0


def test_cutoff_scan_validates_sequence():
    with pytest.raises(ValueError):
        cutoff_divergence_scan(0.35, [1e-3, 1e-2], 1.0, 1.0)
    with pytest.raises(ValueError):
        cutoff_divergence_scan(0.35, [1e-2, -1e-3], 1.0, 1.0)
