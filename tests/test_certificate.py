import numpy as np
import pytest

from bcsgap.certificate import (
    AlphaResult,
    CertificateFailure,
    ContractionCertificate,
    alpha_integrand,
    compute_alpha,
    format_certificate_report,
    search_certificate,
)
from bcsgap.gap_operator import apply_A, sample_envelope_field, spectral_tc
from bcsgap.model import (
    ConstantPotential,
    GaussianBumpPotential,
    make_params,
    potential_matrix,
)
from bcsgap.quadrature import gap_kernel
from bcsgap.simple_gap import solve_delta, tau_root


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


def test_cutoff_term_vanishes_as_envelope_drops(const_potential, params, grid):
    # the second half of the bound scales as Delta2(tau)^2
    t_c = tau_root(0.3, params)
    tau2 = tau_root(params.u_upper, params)
    taus = [t_c, 0.5 * (t_c + tau2), tau2 * 0.999]
    seconds = []
    for tau in taus:
        total = alpha_integrand(t_c, 0.4, tau, const_potential, params, grid)
        seconds.append(total - _envelope_term(t_c, 0.4, const_potential, params, grid))
    d2s = [solve_delta(params.u_upper, tau, params) for tau in taus]
    assert seconds[0] > seconds[1] > seconds[2] >= 0.0
    # quadratic scaling in the envelope value
    assert seconds[1] / seconds[0] == pytest.approx((d2s[1] / d2s[0]) ** 2, rel=1e-9)


def test_compute_alpha_reports_large_bound_on_default_config(
    const_potential, params, grid, const_surface
):
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    result = compute_alpha(tau1, const_potential, params, grid, t_c=surface.t_c)
    # Delta2(tau1) >> eps: the cutoff term dominates and the bound is >> 1,
    # reported rather than raised
    assert result.alpha > 1.0
    assert tau1 <= result.t_at_max <= surface.t_c
    assert params.epsilon_cutoff <= result.x_at_max <= params.hbar_omega_d


def test_compute_alpha_nonincreasing_in_tau(const_potential, params, grid, const_surface):
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    a_lo = compute_alpha(tau1, const_potential, params, grid, t_c=surface.t_c)
    a_hi = compute_alpha(
        0.5 * (tau1 + surface.t_c), const_potential, params, grid, t_c=surface.t_c
    )
    assert a_hi.alpha <= a_lo.alpha


def test_compute_alpha_rejects_degenerate_interval(const_potential, params, grid, const_surface):
    surface, _ = const_surface
    with pytest.raises(ValueError, match="tau"):
        compute_alpha(surface.t_c, const_potential, params, grid, t_c=surface.t_c)
    with pytest.raises(ValueError, match="tau"):
        compute_alpha(surface.t_c * 1.01, const_potential, params, grid, t_c=surface.t_c)


def test_search_fails_on_default_config_with_diagnostics(default_search_outcome, params):
    outcome = default_search_outcome
    assert isinstance(outcome, CertificateFailure)
    assert outcome.best_alpha >= 1.0
    # the obstruction: the upper envelope at T_c is far above the cutoff
    assert outcome.obstruction_ratio == outcome.delta2_at_tc / params.epsilon_cutoff
    assert outcome.obstruction_ratio > 1.0
    report = format_certificate_report(outcome)
    assert "status = failed" in report
    assert "best_alpha" in report
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
    pot = ConstantPotential(0.309 - 1e-6)
    outcome = search_certificate(pot, params, grid, t_c=spectral_tc(pot, params, grid))
    assert isinstance(outcome, CertificateFailure)
    assert outcome.obstruction_ratio < 1.0  # envelope did drop below the cutoff
    assert 1.0 < outcome.best_alpha < 1.01  # but the bound stays above one


def test_contraction_bound_dominates_empirical_ratios(
    const_potential, params, grid, const_surface
):
    # Lipschitz property: even a bound >= 1 must dominate observed ratios
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    bound = compute_alpha(tau1, const_potential, params, grid, t_c=surface.t_c)
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


def test_alpha_result_location_fields(const_potential, params, grid, const_surface):
    surface, _ = const_surface
    tau1 = tau_root(params.u_lower, params)
    result = compute_alpha(tau1, const_potential, params, grid, t_c=surface.t_c)
    assert isinstance(result, AlphaResult)
    direct = alpha_integrand(
        result.t_at_max, result.x_at_max, tau1, const_potential, params, grid
    )
    assert direct == result.alpha


def test_bound_has_one_formula_on_default_config(
    default_search_outcome, const_potential, params, grid
):
    # a constant coupling's bound does not depend on x, so every lattice row
    # ties and the first, x = eps, is reported; the one-point evaluator
    # returns the reported value itself, not one an ulp away
    outcome = default_search_outcome
    t_max, x_max = outcome.max_location
    assert x_max == params.epsilon_cutoff
    direct = alpha_integrand(
        t_max, x_max, outcome.best_tau, const_potential, params, grid
    )
    assert direct == outcome.best_alpha


def test_lattice_bound_near_an_interior_maximiser(params, grid):
    # a bump of positive amplitude puts the maximiser inside (eps, hbar_omega_d)
    # in x; the 256-point lattice is nested in a 1021-point scan at the
    # reported T, so it can only sit below that scan's maximum, and by at most
    # the lattice's spacing error
    bump = GaussianBumpPotential(base=0.3, amplitude=5e-3, width=0.1)
    tau1 = tau_root(params.u_lower, params)
    result = compute_alpha(tau1, bump, params, grid, t_c=spectral_tc(bump, params, grid))
    assert params.epsilon_cutoff < result.x_at_max < params.hbar_omega_d
    xs = np.linspace(params.epsilon_cutoff, params.hbar_omega_d, 1021)
    finest = max(
        alpha_integrand(result.t_at_max, float(x), tau1, bump, params, grid) for x in xs
    )
    assert (1.0 - 1e-6) * finest <= result.alpha <= (1.0 + 1e-14) * finest
