import numpy as np
import pytest

import bcsgap.certificate as certificate
from bcsgap.certificate import (
    AlphaResult,
    CertificateFailure,
    ContractionCertificate,
    alpha_integrand,
    compute_alpha,
    format_certificate_report,
    search_certificate,
)
from bcsgap.gap_operator import apply_A, as_operator, sample_envelope_field, spectral_tc
from bcsgap.model import (
    ConstantPotential,
    GaussianBumpPotential,
    TablePotential,
    make_params,
    potential_matrix,
    validate_potential,
)
from bcsgap.quadrature import gap_kernel
from bcsgap.simple_gap import solve_delta, solve_delta_many, tau_root


def _envelope_term(T, x, potential, params, grid):
    # first half of the bound: the kernel integral at the upper envelope
    d2 = solve_delta(params.u_upper, T, params)
    row = potential_matrix(potential, x, grid.nodes)[0]
    return float(np.dot(grid.weights, row * gap_kernel(grid.nodes, d2 * d2, T)))


def test_envelope_term_is_one_for_top_coupling(params, grid):
    # a constant potential equal to the upper bound integrates to exactly one
    # against its own envelope, at any temperature below its vanishing point
    top = ConstantPotential(params.u_upper)
    for t in (0.01, 0.03, 0.041):
        assert _envelope_term(t, 0.4, top, params, grid) == pytest.approx(
            1.0, abs=1e-12
        )


def test_envelope_term_scales_with_coupling_fraction(params, grid):
    pot = ConstantPotential(0.8 * params.u_upper)
    assert _envelope_term(0.035, 0.4, pot, params, grid) == pytest.approx(
        0.8, abs=1e-9
    )


def test_envelope_term_below_one_everywhere(const_potential, params, grid):
    t_c = tau_root(0.3, params)
    tau1 = tau_root(params.u_lower, params)
    for t in np.linspace(tau1, t_c, 16):
        for x in np.linspace(params.epsilon_cutoff, params.hbar_omega_d, 16):
            assert _envelope_term(float(t), float(x), const_potential, params, grid) < 1.0


def test_cutoff_term_vanishes_as_envelope_drops(const_potential, const_op, params, grid):
    # the second half of the bound scales as Delta2(tau)^2
    t_c = tau_root(0.3, params)
    tau2 = tau_root(params.u_upper, params)
    taus = [t_c, 0.5 * (t_c + tau2), tau2 * 0.999]
    seconds = []
    for tau in taus:
        total = alpha_integrand(t_c, 0.4, tau, const_op, params)
        seconds.append(total - _envelope_term(t_c, 0.4, const_potential, params, grid))
    d2s = [solve_delta(params.u_upper, tau, params) for tau in taus]
    assert seconds[0] > seconds[1] > seconds[2] >= 0.0
    # quadratic scaling in the envelope value
    assert seconds[1] / seconds[0] == pytest.approx((d2s[1] / d2s[0]) ** 2, rel=1e-9)


def test_compute_alpha_reports_large_bound_on_default_config(params, const_surface):
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    result = compute_alpha(tau1, surface.op, params, t_c=surface.t_c)
    # Delta2(tau1) >> eps: the cutoff term dominates and the bound is >> 1,
    # reported rather than raised
    assert result.alpha > 1.0
    assert tau1 <= result.t_at_max <= surface.t_c
    assert params.epsilon_cutoff <= result.x_at_max <= params.hbar_omega_d


def test_compute_alpha_nonincreasing_in_tau(params, const_surface):
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    a_lo = compute_alpha(tau1, surface.op, params, t_c=surface.t_c)
    a_hi = compute_alpha(0.5 * (tau1 + surface.t_c), surface.op, params, t_c=surface.t_c)
    assert a_hi.alpha <= a_lo.alpha


def test_compute_alpha_rejects_degenerate_interval(params, const_surface):
    surface, _ = const_surface
    with pytest.raises(ValueError, match="tau"):
        compute_alpha(surface.t_c, surface.op, params, t_c=surface.t_c)
    with pytest.raises(ValueError, match="tau"):
        compute_alpha(surface.t_c * 1.01, surface.op, params, t_c=surface.t_c)


def test_search_fails_on_default_config_with_diagnostics(default_search_outcome, params):
    outcome = default_search_outcome
    assert isinstance(outcome, CertificateFailure)
    assert 1.0 <= outcome.best_alpha <= outcome.alpha_upper
    # the obstruction: the upper envelope at T_c is far above the cutoff
    assert outcome.obstruction_ratio == outcome.delta2_at_tc / params.epsilon_cutoff
    assert outcome.obstruction_ratio > 1.0
    report = format_certificate_report(outcome)
    assert "status = failed" in report
    assert "best_alpha" in report and "alpha_upper" in report
    assert "obstruction_delta2_over_epsilon" in report


def test_certificate_report_values_are_plain_numbers(default_search_outcome):
    # every value but the status is written as a number float() reads back,
    # the lattice maximiser included
    lines = format_certificate_report(default_search_outcome).splitlines()
    values = dict(line.split(" = ") for line in lines)
    assert values.pop("status") == "failed"
    assert {"max_T", "max_x"} <= values.keys()
    for text in values.values():
        float(text)  # raises ValueError on e.g. "np.float64(0.02)"


def test_search_fails_even_for_near_top_coupling(grid):
    # coupling within 1e-6 of the envelope top: the envelope at T_c drops
    # well below the cutoff, yet the bound still lands just above one --
    # the cutoff term's growth always outpaces the envelope-term gap
    params = make_params(1.0, 0.005, 1.0, 0.291, 0.309)
    op = as_operator(ConstantPotential(0.309 - 1e-6), grid)
    outcome = search_certificate(op, params, t_c=spectral_tc(op, params))
    assert isinstance(outcome, CertificateFailure)
    assert outcome.obstruction_ratio < 1.0  # envelope did drop below the cutoff
    assert 1.0 < outcome.best_alpha < 1.01  # but the bound stays above one


def test_contraction_bound_dominates_empirical_ratios(
    const_potential, params, grid, const_surface
):
    # Lipschitz property: even a bound >= 1 must dominate observed ratios
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    bound = compute_alpha(tau1, surface.op, params, t_c=surface.t_c)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        t = float(rng.uniform(tau1, surface.t_c))
        u = sample_envelope_field(t, params, grid, rng)
        v = sample_envelope_field(t, params, grid, rng)
        du = float(np.max(np.abs(u.values - v.values)))
        if du == 0.0:
            continue
        dau = float(
            np.max(
                np.abs(
                    apply_A(u, const_potential, grid).values
                    - apply_A(v, const_potential, grid).values
                )
            )
        )
        worst = max(worst, dau / du)
    assert worst <= bound.alpha


def test_certificate_constructor_enforces_invariants():
    with pytest.raises(ValueError, match="alpha < 1"):
        ContractionCertificate(
            tau=0.03, epsilon=0.005, alpha=1.2, max_location=(0.03, 0.5),
            delta2_at_tau=0.001,
        )
    with pytest.raises(ValueError, match="epsilon"):
        ContractionCertificate(
            tau=0.03, epsilon=0.005, alpha=0.9, max_location=(0.03, 0.5),
            delta2_at_tau=0.01,
        )


def test_certificate_report_format_for_success_object():
    cert = ContractionCertificate(
        tau=0.04, epsilon=0.005, alpha=0.8, max_location=(0.041, 0.3),
        delta2_at_tau=0.004, coupling_margin=0.03,
    )
    report = format_certificate_report(cert)
    assert "status = certified" in report
    for key in ("tau", "epsilon", "alpha", "max_T", "max_x", "delta2_at_tau",
                "coupling_margin"):
        assert f"{key} = " in report


def test_alpha_result_location_fields(params, const_surface):
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    result = compute_alpha(tau1, surface.op, params, t_c=surface.t_c)
    assert isinstance(result, AlphaResult)
    direct = alpha_integrand(result.t_at_max, result.x_at_max, tau1, surface.op, params)
    assert direct == result.alpha


def test_bound_has_one_formula_on_default_config(default_search_outcome, const_op, params):
    # a constant coupling's bound does not depend on x, so every lattice row
    # ties and the first, x = eps, is reported; the one-point evaluator
    # returns the reported value itself, not one an ulp away
    outcome = default_search_outcome
    t_max, x_max = outcome.max_location
    assert x_max == params.epsilon_cutoff
    direct = alpha_integrand(t_max, x_max, outcome.best_tau, const_op, params)
    assert direct == outcome.best_alpha


def _skewed_table():
    # bilinear in x and xi, peaking at the x node 0.375, off the 256-point
    # lattice, and leaning in xi
    x_nodes, xi_nodes = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 5)
    shape = 6.75 * x_nodes * (1.0 - x_nodes) ** 2
    return TablePotential(
        x_nodes, xi_nodes, 0.298 + 0.008 * np.outer(shape, 1.0 + 0.1 * xi_nodes)
    )


def _fine_scan(op, tau, t_c, params, n=1021):
    # largest bound on an n x n lattice of [tau, T_c] x [eps, hbar_omega_d],
    # summed by a BLAS product: its own rounding, not compute_alpha's
    ts = np.linspace(tau, t_c, n)
    xs = np.linspace(params.epsilon_cutoff, params.hbar_omega_d, n)
    d2 = solve_delta_many(params.u_upper, ts, params)
    prefactor = solve_delta(params.u_upper, tau, params) ** 2 / (
        2.0 * params.epsilon_cutoff**2
    )
    grid = op.grid
    urows = potential_matrix(op.potential, xs, grid.nodes)
    best = (-np.inf, tau, xs[0])
    for t, d in zip(ts.tolist(), d2.tolist()):
        kernel = gap_kernel(grid.nodes, d * d, t)
        kernel += prefactor * gap_kernel(grid.nodes, 0.0, t)
        row = urows @ (grid.weights * kernel)
        i = int(np.argmax(row))
        if row[i] > best[0]:
            best = (float(row[i]), t, float(xs[i]))
    return best


@pytest.mark.parametrize(
    "potential, interior",
    [
        (GaussianBumpPotential(base=0.3, amplitude=5e-3, width=0.1), True),
        (_skewed_table(), True),
        (GaussianBumpPotential(base=0.3, amplitude=-5e-3, width=0.1), False),
    ],
    ids=["bump", "table", "dip"],
)
def test_bound_encloses_a_fine_scan(potential, interior, params, grid):
    # the upper bound must cover a 1021 x 1021 scan of the rectangle, and
    # the point value found must come within 1e-6 of that scan's maximum;
    # the bump and the table peak inside (eps, hbar_omega_d) in x, and the
    # dip, which takes _x_bound's dip branch, at hbar_omega_d
    validate_potential(potential, params)
    tau1 = tau_root(params.u_lower, params)
    op = as_operator(potential, grid)
    t_c = spectral_tc(op, params)
    result = compute_alpha(tau1, op, params, t_c=t_c)
    finest, t_at, x_at = _fine_scan(op, tau1, t_c, params)
    assert alpha_integrand(t_at, x_at, tau1, op, params) == pytest.approx(finest, rel=1e-13)
    if interior:
        assert params.epsilon_cutoff < result.x_at_max < params.hbar_omega_d
    assert (1.0 - 1e-6) * finest <= result.alpha <= result.upper
    assert finest <= result.upper


def _table_cell_row(params, grid):
    # one cell's weighted kernel row at tau1, and a cell over the table's
    # x nodes 0.375 and 0.5, the first its peak
    tau1 = tau_root(params.u_lower, params)
    d2 = solve_delta(params.u_upper, tau1, params)
    return grid.weights * gap_kernel(grid.nodes, d2 * d2, tau1), 0.3, 0.6


def test_table_cell_bound_is_the_largest_g_at_its_ends_and_inner_nodes(params, grid):
    # g is linear in x between the table's x nodes: a fine scan of the cell
    # finds nothing above the largest of g at 0.3, 0.375, 0.5 and 0.6
    table = _skewed_table()
    row, xa, xb = _table_cell_row(params, grid)
    bound, slack = certificate._x_bound(table, xa, xb, grid.nodes, row)
    at = [
        float(np.dot(potential_matrix(table, x, grid.nodes)[0], row))
        for x in (xa, 0.375, 0.5, xb)
    ]
    assert bound == pytest.approx(max(at), rel=1e-15)
    assert bound == pytest.approx(at[1], rel=1e-15)
    assert slack == 0.0
    scan = potential_matrix(table, np.linspace(xa, xb, 1001), grid.nodes) @ row
    assert scan.max() <= (1.0 + 1e-14) * bound


def test_table_cell_bound_takes_one_potential_matrix_call(params, grid, monkeypatch):
    table = _skewed_table()
    row, xa, xb = _table_cell_row(params, grid)
    calls = []
    real = certificate.potential_matrix

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certificate, "potential_matrix", counting)
    certificate._x_bound(table, xa, xb, grid.nodes, row)
    assert len(calls) == 1
    assert np.array_equal(calls[0][1], [xa, 0.375, 0.5, xb])


def _bump_interval(params, grid):
    op = as_operator(GaussianBumpPotential(base=0.3, amplitude=5e-3, width=0.1), grid)
    return op, tau_root(params.u_lower, params), spectral_tc(op, params)


def test_enclosure_closes_on_the_bump_with_few_roots(params, grid, monkeypatch):
    # best first: only the cell of largest bound is split, so the bump's
    # widest interval closes to 1e-9 with few envelope roots
    bump, tau1, t_c = _bump_interval(params, grid)
    solved = []
    real = certificate._solve_windows

    def counting(U, Ts, params):
        solved.extend(Ts)
        return real(U, Ts, params)

    monkeypatch.setattr(certificate, "_solve_windows", counting)
    result = compute_alpha(tau1, bump, params, t_c=t_c)
    assert result.upper - result.alpha <= certificate._GAP * result.upper
    assert len(solved) <= 24


def test_enclosure_out_of_roots_still_bounds_a_fine_scan(params, grid, monkeypatch):
    # with the root budget spent before the cells close, the top cell
    # cannot be split; its bound is returned and still covers the maximum
    bump, tau1, t_c = _bump_interval(params, grid)
    monkeypatch.setattr(certificate, "_ROOT_BUDGET", 8)
    result = compute_alpha(tau1, bump, params, t_c=t_c)
    finest = _fine_scan(bump, tau1, t_c, params)[0]
    assert result.upper - result.alpha > certificate._GAP * result.upper
    assert result.alpha <= finest <= result.upper


def test_enclosure_closes_on_a_constant_potential(params, const_surface):
    # a constant coupling's bound peaks at (tau, eps), a cell corner; the
    # cells close to 1e-9 relative both over the search's first, narrow
    # interval and over the widest, [tau1, T_c]
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    narrow = surface.t_c - (surface.t_c - tau1) * 0.5**23
    for tau in (narrow, tau1):
        result = compute_alpha(tau, surface.op, params, t_c=surface.t_c)
        assert (result.t_at_max, result.x_at_max) == (tau, params.epsilon_cutoff)
        assert result.alpha <= result.upper <= (1.0 + 1e-9) * result.alpha
        assert result.delta2_at_tau == solve_delta(params.u_upper, tau, params)
        assert result.delta2_at_tc == solve_delta(params.u_upper, surface.t_c, params)


@pytest.mark.parametrize("upper, certified", [(0.75, True), (1.0, False)])
def test_search_certifies_on_the_upper_bound_only(
    upper, certified, const_op, params, monkeypatch
):
    # no envelope family here comes near a bound below one, so the search's
    # decision is checked on a stand-in enclosure: a point value below one
    # certifies nothing unless the upper bound is below one too, and a
    # certificate carries the upper bound and the edge root at its tau
    t_c = tau_root(0.3, params)

    def enclosure(tau, *args, t_c):
        return AlphaResult(
            alpha=0.5, upper=upper, t_at_max=tau, x_at_max=params.epsilon_cutoff,
            delta2_at_tau=1e-3 * tau, delta2_at_tc=2e-3, delta2_at_tau_upper=2e-3 * tau,
        )

    monkeypatch.setattr(certificate, "compute_alpha", enclosure)
    outcome = search_certificate(const_op, params, t_c=t_c)
    if certified:
        tau1 = tau_root(params.u_lower, params)
        assert isinstance(outcome, ContractionCertificate)
        assert (outcome.tau, outcome.alpha) == (tau1, upper)
        assert outcome.delta2_at_tau == 1e-3 * tau1
    else:
        assert isinstance(outcome, CertificateFailure)
        assert (outcome.best_alpha, outcome.alpha_upper) == (0.5, upper)
        assert outcome.delta2_at_tc == 2e-3


@pytest.mark.parametrize("window_top, certified", [(0.999, True), (1.0, False)])
def test_search_certifies_on_the_window_of_delta2_at_tau(
    window_top, certified, const_op, params, monkeypatch
):
    # Delta2(tau) < epsilon must hold for the whole window proven around the
    # root: a stand-in enclosure with upper < 1 and its point below epsilon
    # certifies only if the window's upper edge is below epsilon too
    eps = params.epsilon_cutoff
    t_c = tau_root(0.3, params)

    def enclosure(tau, *args, t_c):
        return AlphaResult(
            alpha=0.5, upper=0.75, t_at_max=tau, x_at_max=eps,
            delta2_at_tau=0.5 * eps, delta2_at_tc=2e-3,
            delta2_at_tau_upper=window_top * eps,
        )

    monkeypatch.setattr(certificate, "compute_alpha", enclosure)
    outcome = search_certificate(const_op, params, t_c=t_c)
    assert isinstance(outcome, ContractionCertificate) == certified
    if not certified:
        assert isinstance(outcome, CertificateFailure)
        assert outcome.alpha_upper == 0.75
