import math

import numpy as np
import pytest

from bcsgap import gap_operator
from bcsgap.gap_operator import (
    GapField,
    PerronRoot,
    apply_A,
    as_operator,
    radius_crossing_temperature,
    spectral_radius,
    spectral_tc,
    weighted_potential_matrix,
)
from bcsgap.model import (
    ConstantPotential,
    GaussianBumpPotential,
    TablePotential,
    build_grid,
    potential_matrix,
    validate_potential,
)
from bcsgap.quadrature import gap_kernel, kernel_jet
from bcsgap.simple_gap import _tau_window, solve_delta, tau_root
from bcsgap.solver import solve_surface
from oracles import bisect_tc, kernel_matrix
from paper_checks import sample_envelope_field
from test_simple_gap import _count_widenings


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gap_field_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        GapField(0.03, np.array([bad, 0.1]))


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


def test_spectral_radius_constant_potential(const_op, params, grid):
    t = 0.035
    result = spectral_radius(t, const_op)
    expected = 0.3 * float(np.dot(grid.weights, gap_kernel(grid.nodes, 0.0, t)))
    assert result.radius == pytest.approx(expected, rel=1e-12)
    vec = result.eigenvector
    assert np.max(vec) == pytest.approx(1.0, rel=1e-15)  # sup-norm one
    assert np.max(vec) - np.min(vec) <= 1e-10  # constant eigenvector


def test_spectral_radius_decreasing_in_temperature(gauss_op):
    ts = np.linspace(0.03, 0.045, 6)
    radii = [spectral_radius(float(t), gauss_op).radius for t in ts]
    assert np.all(np.diff(radii) < 0.0)


def test_spectral_radius_is_one_at_tau(const_op, params):
    tau = tau_root(0.3, params)
    assert spectral_radius(tau, const_op).radius == pytest.approx(1.0, abs=1e-9)


def test_radius_crossing_requires_valid_bracket(params, grid):
    # a potential outside the coupling band breaks the bracket
    tau1, tau2 = tau_root(params.u_lower, params), tau_root(params.u_upper, params)
    with pytest.raises(ValueError, match="bracket invalid"):
        radius_crossing_temperature(as_operator(ConstantPotential(0.35), grid), tau1, tau2)


@pytest.mark.parametrize("coupling", [0.28, 0.35])
def test_a_potential_outside_its_band_is_refused_within_six_perron_solves(
    coupling, params, grid, monkeypatch
):
    # every computed rho - 1 on spectral_tc's bracket has one sign: Newton's
    # first step out of the bracket queries the end it passed, rather than
    # halving toward it down to adjacent doubles, and the refusal names it
    solves = []
    real = gap_operator.spectral_radius

    def counting(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    op = as_operator(ConstantPotential(coupling), grid)
    monkeypatch.setattr(gap_operator, "spectral_radius", counting)
    with pytest.raises(ValueError, match="bracket invalid"):
        radius_crossing_temperature(op, *_tc_bracket(params))
    assert len(solves) <= 6


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


# Perron solves per T_c: a right and a left one per Newton step; the
# window's edges cost one product each.  Measured: 8 solves on every case
# above, with 19 to 49 power iterations in all.
MAX_PERRON_SOLVES = 10
MAX_POWER_ITERATIONS = 70
TC_CASES = ["constant", "bump", "bump-640", "skew-table"]


@pytest.fixture(scope="module")
def bisected_tc(params, grid):
    """``bisect_tc``'s root for a case of ``_tc_cases``, bisected at its first use."""
    roots: dict[str, float] = {}

    def root(case: str) -> float:
        if case not in roots:
            potential, case_grid = _tc_cases(params, grid)[case]
            tau1, tau2 = tau_root(params.u_lower, params), tau_root(params.u_upper, params)
            roots[case] = bisect_tc(potential, case_grid, tau1, tau2)
        return roots[case]

    return root


def _tc_bracket(params) -> tuple[float, float]:
    """spectral_tc's bracket: [tau_lo(U1), tau_hi(U2)]."""
    return _tau_window(params.u_lower, params)[1], _tau_window(params.u_upper, params)[2]


@pytest.mark.parametrize("case", TC_CASES)
def test_newton_tc_matches_bisection(case, params, grid, monkeypatch, bisected_tc):
    potential, case_grid = _tc_cases(params, grid)[case]
    op = as_operator(potential, case_grid)
    tau1, tau2 = tau_root(params.u_lower, params), tau_root(params.u_upper, params)
    reference = bisected_tc(case)
    solves = []
    real = gap_operator.spectral_radius

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        solves.append(out.iterations)
        return out

    # every Perron solve goes through spectral_radius, where the benchmark's
    # tracer counts calls and power iterations
    monkeypatch.setattr(gap_operator, "spectral_radius", counting)
    t_c = spectral_tc(op, params)
    assert abs(t_c - reference) <= 2e-13 * reference
    assert tau1 < t_c < tau2
    assert len(solves) <= MAX_PERRON_SOLVES
    assert sum(solves) <= MAX_POWER_ITERATIONS


def test_tc_evaluates_the_kernel_once_per_newton_point(params, grid, monkeypatch):
    # the default config's T_c: 4 Newton points, each one kernel_jet call
    # for both Perron solves and the slope, and 2 edge checks, one each;
    # a Perron solve that computes its own k0 gives the same triple
    op = as_operator(ConstantPotential(0.3), grid)
    bracket = _tc_bracket(params)
    kernels, solves = [], []
    real_jet, real_solve = gap_operator.kernel_jet, gap_operator.spectral_radius

    def counting_jet(*args, **kwargs):
        kernels.append(args[2])
        return real_jet(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        solves.append(args[0])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(gap_operator, "kernel_jet", counting_jet)
    monkeypatch.setattr(gap_operator, "spectral_radius", counting_solve)
    shared = radius_crossing_temperature(op, *bracket)
    assert (len(kernels), len(solves)) == (6, 8)
    assert kernels[:4] == solves[::2] == solves[1::2]
    assert sorted(kernels[4:]) == [shared[1], shared[2]]

    def own_k0(*args, k0=None, **kwargs):
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(gap_operator, "spectral_radius", own_k0)
    assert radius_crossing_temperature(op, *bracket) == shared


@pytest.mark.parametrize("case", TC_CASES)
def test_tc_window_holds_its_point_and_the_bisected_root(
    case, params, grid, monkeypatch, bisected_tc
):
    # T_c is the point of a window whose edges simple_gap's checks prove on
    # Collatz-Wielandt bounds of rho: the window lies inside the bracket and
    # holds spectral_tc's float and bisect_tc's adjacent-doubles root, and
    # no edge check fails and widens
    potential, case_grid = _tc_cases(params, grid)[case]
    op = as_operator(potential, case_grid)
    lo, hi = _tc_bracket(params)
    failed = _count_widenings(monkeypatch)
    t_c, lo_w, hi_w = radius_crossing_temperature(op, lo, hi)
    assert failed == [0, 0]
    assert t_c == spectral_tc(op, params)
    assert lo < lo_w <= t_c <= hi_w < hi
    assert lo_w <= bisected_tc(case) <= hi_w


@pytest.mark.parametrize("coupling", ["u_lower", "u_upper"])
def test_radius_crossing_at_a_band_edge_is_enclosed_inside_the_bracket_or_refused(
    coupling, params, grid
):
    # a constant potential at U1 or U2 puts T_c at an end of the bracket's
    # tau windows: its window must lie strictly inside the bracket, or the
    # bracket is refused by name; so is a bracket end that is not finite
    op = as_operator(ConstantPotential(getattr(params, coupling)), grid)
    lo, hi = _tc_bracket(params)
    try:
        t_c, lo_w, hi_w = radius_crossing_temperature(op, lo, hi)
    except ValueError as err:
        assert "bracket invalid" in str(err)
    else:
        assert lo < lo_w <= t_c <= hi_w < hi
    with pytest.raises(ValueError, match="bracket invalid"):
        radius_crossing_temperature(op, lo, math.inf)


def test_tc_edges_rest_on_collatz_wielandt_bounds(params, grid, monkeypatch, bisected_tc):
    # Perron vectors perturbed by 1e-5: the two-sided Rayleigh quotient of
    # Newton's steps then errs in the second order and moves Newton's point
    # some 2e-10 of T_c off, hundreds of window widths, while the ratios
    # (M phi)/phi of a perturbed phi spread by about 2e-5 about rho.  Edges proven on those bounds
    # prove nothing within the widening budget, and T_c is refused; an edge
    # proven on the Rayleigh quotient's sign would enclose the wrong point
    op = as_operator(ConstantPotential(0.3), grid)
    lo, hi = _tc_bracket(params)
    real = gap_operator.spectral_radius
    tilt = 1.0 + 1e-5 * np.cos(7.0 * grid.nodes)

    def perturbed(*args, **kwargs):
        out = real(*args, **kwargs)
        return PerronRoot(out.radius, out.eigenvector * tilt, out.iterations)

    monkeypatch.setattr(gap_operator, "spectral_radius", perturbed)
    try:
        _, lo_w, hi_w = radius_crossing_temperature(op, lo, hi)
    except ValueError as err:
        assert "bracket invalid" in str(err)
    else:
        assert lo_w <= bisected_tc("constant") <= hi_w


def test_left_perron_vector_of_nonsymmetric_table(params, grid):
    table = _skew_table(params)
    op = as_operator(table, grid)
    t = 0.0372
    m = kernel_matrix(t, table, grid)
    right = spectral_radius(t, op)
    left = spectral_radius(t, op, left=True)
    phi, psi = right.eigenvector, left.eigenvector
    assert left.radius == pytest.approx(right.radius, rel=1e-12)
    assert np.all(phi > 0.0) and np.all(psi > 0.0)
    assert np.max(phi) == 1.0 and np.max(psi) == 1.0
    assert np.max(np.abs(psi @ m - right.radius * psi)) <= 1e-12 * np.max(psi)
    assert np.max(np.abs(m @ phi - right.radius * phi)) <= 1e-12 * np.max(phi)
    # the two vectors differ, so a right vector would not do as psi
    assert np.max(np.abs(psi / np.max(psi) - phi / np.max(phi))) > 1e-3

    # the slope rho'(T) from <psi, W (dk0/dT * phi)> / <psi, phi> is the
    # derivative of the Perron root
    jet = kernel_jet(grid.xi2, 0.0, t, "T")
    rho, slope = op.radius_and_slope(jet, phi, psi)
    assert rho == pytest.approx(right.radius, rel=1e-14)
    h = 1e-6 * t
    fd = (spectral_radius(t + h, op).radius - spectral_radius(t - h, op).radius) / (2.0 * h)
    assert slope == pytest.approx(fd, rel=1e-7)
    _, wrong = op.radius_and_slope(jet, phi, phi)
    assert abs(wrong - fd) > 1e-4 * abs(fd)


# ---------------------------------------------------------------------------
# the factored operator against the dense W


def _factor_cases(params, grid):
    # (potential, grid): rank one, the bump at the benchmark's extreme
    # widths on its 640-node grid, and a table that is not symmetric
    fine = build_grid(params, panels=64, order=10)
    return {
        "constant": (ConstantPotential(u0=0.3), grid),
        "bump-0.1": (GaussianBumpPotential(base=0.3, amplitude=-0.005, width=0.1), fine),
        "bump-0.2": (GaussianBumpPotential(base=0.3, amplitude=-0.0025, width=0.2), fine),
        "skew-table": (_skew_table(params), grid),
    }


FACTOR_CASES = ["constant", "bump-0.1", "bump-0.2", "skew-table"]


@pytest.mark.parametrize("case", FACTOR_CASES)
def test_factored_actions_match_dense_w(case, params, grid):
    potential, case_grid = _factor_cases(params, grid)[case]
    op = as_operator(potential, case_grid)
    dense = weighted_potential_matrix(potential, case_grid)
    assert op.left.shape == (case_grid.size, op.rank)
    assert op.right.shape == (op.rank, case_grid.size)
    assert 2 * op.rank < case_grid.size
    t = 0.035
    rng = np.random.default_rng(5)
    u = rng.uniform(0.5, 1.0, case_grid.size) * solve_delta(params.u_upper, t, params)
    v = rng.uniform(-1.0, 1.0, case_grid.size)
    _, d = kernel_jet(case_grid.nodes**2, u * u, t, "u")
    k0 = gap_kernel(case_grid.nodes, 0.0, t)
    image = u * gap_kernel(case_grid.nodes, u * u, t)
    triples = [
        (op.apply(u, t), apply_A(GapField(t, u), potential, case_grid).values, image),
        (op.jacobian_action(d, v), dense @ (d * v), d * v),
        (op.kernel_action(v, t), dense @ (k0 * v), k0 * v),
    ]
    for factored, reference, vector in triples:
        # rounding scale of the products: |W| |vector|
        scale = np.max(np.abs(dense) @ np.abs(vector))
        assert np.max(np.abs(factored - reference)) <= 1e-14 * scale
    assert np.max(np.abs(op.rmatvec(v) - v @ dense)) <= 1e-14 * np.max(np.abs(v) @ np.abs(dense))


@pytest.mark.parametrize("case", FACTOR_CASES)
def test_perron_pair_is_an_eigenpair_of_the_dense_kernel(case, params, grid):
    potential, case_grid = _factor_cases(params, grid)[case]
    op = as_operator(potential, case_grid)
    t = 0.036
    m = kernel_matrix(t, potential, case_grid)
    right, left = spectral_radius(t, op), spectral_radius(t, op, left=True)
    phi, psi = right.eigenvector, left.eigenvector
    assert left.radius == pytest.approx(right.radius, rel=1e-13)
    assert np.all(phi > 0.0) and np.all(psi > 0.0)
    assert np.max(np.abs(m @ phi - right.radius * phi)) <= 1e-13
    assert np.max(np.abs(psi @ m - right.radius * psi)) <= 1e-13
    # the Rayleigh quotient of the dense kernel agrees with the iteration's
    rayleigh = float(psi @ m @ phi) / float(psi @ phi)
    assert rayleigh == pytest.approx(right.radius, rel=1e-14)


# The tail bound stays below one rounding unit of U by construction, so the
# dense W and L R, each rounded, differ by more than the bound alone: the
# comparison allows this many units of eps * max|U| on top.
FACTOR_ROUNDING_ULPS = 16


@pytest.mark.parametrize("case", ["bump-0.1", "bump-0.2"])
def test_gaussian_factor_error_bounds_the_dense_difference(case, params, grid):
    potential, case_grid = _factor_cases(params, grid)[case]
    op = as_operator(potential, case_grid)
    dense = weighted_potential_matrix(potential, case_grid)
    gap = np.max(np.abs(dense - op.left @ op.right) / case_grid.weights[None, :])
    eps = np.finfo(float).eps
    u_max = potential.base + abs(potential.amplitude)
    assert 0.0 < op.error < eps * u_max
    assert gap <= op.error + FACTOR_ROUNDING_ULPS * eps * u_max


@pytest.mark.parametrize("degree", [6, 10, 16, 24])
def test_chebyshev_tail_bounds_the_interpolation_error(degree, params):
    # below the chosen degree the truncation error dwarfs rounding, and the
    # Bernstein-ellipse bound must cover it on the grid
    fine = build_grid(params, panels=64, order=10)
    x = fine.nodes
    width = 0.1
    mid, half = 0.5 * (x[-1] + x[0]), 0.5 * (x[-1] - x[0])
    centres = mid + half * np.cos(np.pi * np.arange(degree + 1) / degree)
    bump = GaussianBumpPotential(base=0.0, amplitude=1.0, width=width)
    exact = potential_matrix(bump, x, x)
    interpolated = gap_operator._barycentric(centres, x) @ potential_matrix(bump, centres, x)
    measured = np.max(np.abs(exact - interpolated))
    log_rho, log_tail = gap_operator._log_tail(half, width)
    bound = float(np.exp(np.min(log_tail - degree * log_rho)))
    assert measured > 1e-12  # the truncation, not rounding, is measured
    assert measured <= bound


def test_table_factors_are_exact_hat_functions(params, grid):
    # bilinear interpolation is linear in x between the table's x-nodes
    table = _skew_table(params)
    op = as_operator(table, grid)
    assert op.rank == table.x_nodes.size and op.error == 0.0
    assert np.all(op.left >= 0.0)
    assert np.allclose(op.left.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    dense = weighted_potential_matrix(table, grid)
    assert np.max(np.abs(dense - op.left @ op.right)) <= 4e-16 * np.max(dense)
    # x-nodes short of the grid's ends: the factors extrapolate as the
    # bilinear interpolant does, with hat weights up to 3 and -2 at the ends
    # that scale the rounding up
    inner = TablePotential(table.x_nodes[2:-2], table.xi_nodes, table.values[2:-2])
    op = as_operator(inner, grid)
    dense = weighted_potential_matrix(inner, grid)
    assert op.rank == inner.x_nodes.size and np.min(op.left) < 0.0
    assert np.max(np.abs(dense - op.left @ op.right)) <= 2e-15 * np.max(dense)


def test_constant_factors_have_rank_one(const_potential, grid):
    op = as_operator(const_potential, grid)
    assert op.rank == 1 and op.error == 0.0
    assert np.array_equal(op.left @ op.right, weighted_potential_matrix(const_potential, grid))


def test_factors_fall_back_to_dense_w_where_rank_would_reach_half_of_n(params):
    # L (R v) costs 2 n r against the n^2 of W v: a bump too narrow for
    # fewer Chebyshev points than half of 20 nodes, a table with as many
    # x-nodes as the grid has nodes, and one with 11 are held as W itself
    coarse = build_grid(params, panels=2, order=10)
    span = (params.epsilon_cutoff, params.hbar_omega_d)
    potentials = [GaussianBumpPotential(base=0.3, amplitude=0.005, width=0.01)]
    for size in (coarse.size, 11):
        nodes = np.linspace(*span, size)
        values = 0.3 + 0.001 * np.sin(nodes[:, None] + nodes[None, :])
        potentials.append(TablePotential(nodes, nodes, values))
    v = np.random.default_rng(3).uniform(-1.0, 1.0, coarse.size)
    for potential in potentials:
        op = as_operator(potential, coarse)
        dense = weighted_potential_matrix(potential, coarse)
        assert op.left is None and op.rank == coarse.size and op.error == 0.0
        assert np.array_equal(op.right, dense)
        assert np.array_equal(op.matvec(v), dense @ v)
        assert np.array_equal(op.rmatvec(v), v @ dense)
    # 9 x-nodes: 2 r < n, so the hat functions are kept
    nodes = np.linspace(*span, 9)
    table = TablePotential(nodes, nodes, 0.3 + 0.001 * np.sin(nodes[:, None] + nodes[None, :]))
    assert as_operator(table, coarse).rank == 9


def test_bump_surface_at_1280_nodes_builds_no_n_by_n_matrix(params, monkeypatch):
    fine = build_grid(params, panels=128, order=10)
    shapes: list[tuple[int, ...]] = []
    real = gap_operator.potential_matrix

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(gap_operator, "potential_matrix", counting)
    potential = GaussianBumpPotential(base=0.3, amplitude=-0.004409, width=0.1134)
    solve_surface(as_operator(potential, fine), params, t_resolution=3, span_decades=1.0)
    assert len(shapes) == 1
    rows, cols = shapes[0]
    assert cols == fine.size and rows < 64
