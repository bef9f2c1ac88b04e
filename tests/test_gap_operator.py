import numpy as np
import pytest

from bcsgap import gap_operator
from bcsgap.gap_operator import (
    GapField,
    apply_A,
    as_operator,
    kernel_matrix,
    radius_crossing_temperature,
    sample_envelope_field,
    spectral_radius,
    spectral_tc,
)
from bcsgap.model import (
    ConstantPotential,
    GaussianBumpPotential,
    TablePotential,
    build_grid,
    validate_potential,
)
from bcsgap.quadrature import gap_kernel
from bcsgap.simple_gap import solve_delta, tau_root
from oracles import bisect_tc


def test_apply_preserves_zero(const_potential, params, grid):
    zero = GapField(temperature=0.03, values=np.zeros(grid.size))
    out = apply_A(zero, const_potential, grid)
    assert np.all(out.values == 0.0)
    assert out.temperature == 0.03


def test_constant_input_gives_constant_output(const_potential, params, grid):
    u = GapField(temperature=0.03, values=np.full(grid.size, 0.02))
    out = apply_A(u, const_potential, grid).values
    assert np.max(out) - np.min(out) <= 1e-15 * np.max(out)


def test_apply_rejects_mismatched_grid(const_potential, grid):
    with pytest.raises(ValueError, match="does not match"):
        apply_A(GapField(0.03, np.zeros(grid.size - 1)), const_potential, grid)


def test_gap_field_rejects_negative_values():
    with pytest.raises(ValueError, match="nonnegative"):
        GapField(0.03, np.array([0.1, -0.1]))


def test_envelope_preservation(const_potential, params, grid):
    # fields between the envelope curves stay between them under the operator
    rng = np.random.default_rng(42)
    tau1 = tau_root(params.u_lower, params)
    t_c = tau_root(0.3, params)
    for _ in range(100):
        t = float(rng.uniform(0.8 * tau1, t_c))
        u = sample_envelope_field(t, params, grid, rng)
        out = apply_A(u, const_potential, grid).values
        d1 = solve_delta(params.u_lower, t, params)
        d2 = solve_delta(params.u_upper, t, params)
        assert np.all(out >= d1 - 1e-9)
        assert np.all(out <= d2 + 1e-9)


def test_monotone_in_field(const_potential, params, grid):
    rng = np.random.default_rng(42)
    t_c = tau_root(0.3, params)
    for _ in range(100):
        t = float(rng.uniform(0.02, t_c))
        d2 = solve_delta(params.u_upper, t, params)
        lo = rng.uniform(0.0, 0.7, grid.size) * d2
        hi = lo + rng.uniform(0.0, 0.3, grid.size) * d2
        out_lo = apply_A(GapField(t, lo), const_potential, grid).values
        out_hi = apply_A(GapField(t, np.minimum(hi, d2)), const_potential, grid).values
        assert np.all(out_lo <= out_hi + 1e-12)


def test_monotone_in_temperature(const_potential, params, grid):
    # the same field values applied at a colder temperature dominate
    rng = np.random.default_rng(7)
    for _ in range(100):
        t1 = float(rng.uniform(0.01, 0.05))
        t2 = t1 + float(rng.uniform(1e-4, 0.05))
        vals = rng.uniform(0.0, 0.06, grid.size)
        cold = apply_A(GapField(t1, vals), const_potential, grid).values
        warm = apply_A(GapField(t2, vals), const_potential, grid).values
        assert np.all(cold >= warm - 1e-12)


def test_positivity(const_potential, params, grid):
    u = np.zeros(grid.size)
    u[grid.size // 2] = 0.01  # nonzero somewhere only
    out = apply_A(GapField(0.03, u), const_potential, grid).values
    assert np.all(out > 0.0)


def test_kernel_matrix_row_sums_constant_potential(const_potential, params, grid):
    t = 0.035
    k = kernel_matrix(t, const_potential, grid)
    rows = k.sum(axis=1)
    expected = 0.3 * float(np.dot(grid.weights, gap_kernel(grid.nodes, 0.0, t)))
    assert rows == pytest.approx(np.full(grid.size, expected), rel=1e-14)
    assert np.all(k > 0.0)


def test_kernel_matrix_unit_row_sum_at_tau(const_potential, params, grid):
    tau = tau_root(0.3, params)
    rows = kernel_matrix(tau, const_potential, grid).sum(axis=1)
    assert rows == pytest.approx(np.ones(grid.size), abs=1e-12)


def test_kernel_matrix_entries_decrease_with_temperature(const_potential, grid):
    cold = kernel_matrix(0.03, const_potential, grid)
    warm = kernel_matrix(0.04, const_potential, grid)
    assert np.all(warm < cold)


def test_kernel_matrix_requires_positive_temperature(const_potential, grid):
    with pytest.raises(ValueError):
        kernel_matrix(0.0, const_potential, grid)


def test_spectral_radius_constant_potential(const_potential, params, grid):
    t = 0.035
    result = spectral_radius(t, const_potential, grid)
    expected = 0.3 * float(np.dot(grid.weights, gap_kernel(grid.nodes, 0.0, t)))
    assert result.radius == pytest.approx(expected, rel=1e-12)
    vec = result.eigenvector
    assert np.max(vec) == pytest.approx(1.0, rel=1e-15)  # sup-norm one
    assert np.max(vec) - np.min(vec) <= 1e-10  # constant eigenvector


def test_spectral_radius_decreasing_in_temperature(gauss_potential, grid):
    ts = np.linspace(0.03, 0.045, 6)
    radii = [spectral_radius(float(t), gauss_potential, grid).radius for t in ts]
    assert np.all(np.diff(radii) < 0.0)


def test_spectral_radius_is_one_at_tau(const_potential, params, grid):
    tau = tau_root(0.3, params)
    assert spectral_radius(tau, const_potential, grid).radius == pytest.approx(
        1.0, abs=1e-9
    )


def test_radius_crossing_requires_valid_bracket(params, grid):
    # a potential outside the coupling band breaks the bracket
    tau1, tau2 = tau_root(params.u_lower, params), tau_root(params.u_upper, params)
    with pytest.raises(ValueError, match="bracket invalid"):
        radius_crossing_temperature(ConstantPotential(0.35), grid, tau1, tau2)


def test_sampled_envelope_fields_are_admissible(params, grid):
    rng = np.random.default_rng(3)
    t = 0.03
    d1 = solve_delta(params.u_lower, t, params)
    d2 = solve_delta(params.u_upper, t, params)
    for _ in range(20):
        u = sample_envelope_field(t, params, grid, rng).values
        assert np.all(u >= d1 - 1e-15)
        assert np.all(u <= d2 + 1e-15)


def _skew_table(params) -> TablePotential:
    # U(x, xi) != U(xi, x): a coupling that grows with x and falls with xi
    nodes = np.linspace(params.epsilon_cutoff, params.hbar_omega_d, 21)
    values = 0.3 + 0.008 * np.tanh(3.0 * (nodes[:, None] - 1.5 * nodes[None, :] + 0.3))
    table = TablePotential(nodes, nodes, values)
    validate_potential(table, params)
    return table


def _tc_cases(params, grid):
    # (potential, grid): the constant and Gaussian-bump fixtures, the
    # 640-node bump grid of the benchmark, and a non-symmetric table
    return {
        "constant": (ConstantPotential(u0=0.3), grid),
        "bump": (GaussianBumpPotential(base=0.30, amplitude=0.005, width=0.2), grid),
        "bump-640": (
            GaussianBumpPotential(base=0.3, amplitude=-0.004409, width=0.1134),
            build_grid(params, panels=64, order=10),
        ),
        "skew-table": (_skew_table(params), grid),
    }


# Perron solves per T_c: two for the bracket check, then a left and a right
# one per Newton step.  Measured: 11 solves on every case above, with 26 to
# 62 power iterations in all.
MAX_PERRON_SOLVES = 13
MAX_POWER_ITERATIONS = 70


@pytest.mark.parametrize("case", ["constant", "bump", "bump-640", "skew-table"])
def test_newton_tc_matches_bisection(case, params, grid, monkeypatch):
    potential, case_grid = _tc_cases(params, grid)[case]
    tau1, tau2 = tau_root(params.u_lower, params), tau_root(params.u_upper, params)
    reference = bisect_tc(potential, case_grid, tau1, tau2)
    solves = []
    real = gap_operator.spectral_radius

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        solves.append(out.iterations)
        return out

    # every Perron solve goes through spectral_radius, where the benchmark's
    # tracer counts calls and power iterations
    monkeypatch.setattr(gap_operator, "spectral_radius", counting)
    t_c = spectral_tc(potential, params, case_grid)
    assert abs(t_c - reference) <= 2e-13 * reference
    assert tau1 < t_c < tau2
    assert len(solves) <= MAX_PERRON_SOLVES
    assert sum(solves) <= MAX_POWER_ITERATIONS


def test_left_perron_vector_of_nonsymmetric_table(params, grid):
    table = _skew_table(params)
    op = as_operator(table, grid)
    t = 0.0372
    m = kernel_matrix(t, op, grid)
    right = op.perron(t)
    left = op.perron(t, left=True)
    phi, psi = right.eigenvector, left.eigenvector
    assert left.radius == pytest.approx(right.radius, rel=1e-12)
    assert np.max(np.abs(psi @ m - right.radius * psi)) <= 1e-12 * np.max(psi)
    assert np.max(np.abs(m @ phi - right.radius * phi)) <= 1e-12 * np.max(phi)
    # the two vectors differ, so a right vector would not do as psi
    assert np.max(np.abs(psi / np.max(psi) - phi / np.max(phi))) > 1e-3

    # the slope rho'(T) from <psi, W (dk0/dT * phi)> / <psi, phi> is the
    # derivative of the Perron root
    rho, slope = op.radius_and_slope(t, phi, psi)
    assert rho == pytest.approx(right.radius, rel=1e-14)
    h = 1e-6 * t
    fd = (op.perron(t + h).radius - op.perron(t - h).radius) / (2.0 * h)
    assert slope == pytest.approx(fd, rel=1e-7)
    _, wrong = op.radius_and_slope(t, phi, phi)
    assert abs(wrong - fd) > 1e-4 * abs(fd)


def test_operator_input_is_used_as_built(const_potential, params, grid):
    op = as_operator(const_potential, grid)
    assert as_operator(op, grid) is op
    t = 0.035
    assert spectral_radius(t, op, grid).radius == spectral_radius(
        t, const_potential, grid
    ).radius
    other = build_grid(params, panels=8, order=10)
    with pytest.raises(ValueError, match="different grid"):
        as_operator(op, other)
