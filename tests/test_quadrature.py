import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcsgap import quadrature
from bcsgap.quadrature import (
    EnergyGrid,
    adaptive_integrate,
    gap_curvature,
    gap_kernel,
    gauss_legendre_panels,
    kernel_jet,
    sech,
)

LN_200 = 5.2983173665480367  # ln(1/0.005), frozen from 40-digit evaluation


def test_integrate_constant(grid, params):
    width = params.hbar_omega_d - params.epsilon_cutoff
    assert grid.weights @ np.ones(grid.size) == pytest.approx(width, rel=1e-14)


def test_integrate_linear_exact(grid, params):
    a, b = params.epsilon_cutoff, params.hbar_omega_d
    exact = (b * b - a * a) / 2.0
    assert grid.weights @ grid.nodes == pytest.approx(exact, rel=1e-14)


def test_integrate_reciprocal(grid):
    assert grid.weights @ (1.0 / grid.nodes) == pytest.approx(LN_200, rel=1e-10)


def test_gap_kernel_zero_s_branch():
    xi = np.array([0.01, 0.1, 1.0])
    t = 0.05
    expected = np.tanh(xi / (2 * t)) / xi
    assert gap_kernel(xi, 0.0, t) == pytest.approx(expected, rel=1e-15)


def test_gap_kernel_saturates_at_low_temperature():
    # tanh argument is 500, where numpy's tanh is exactly 1: k is 1/xi
    assert abs(gap_kernel(1.0, 0.0, 0.001) - 1.0) <= 1e-12


def test_gap_kernel_zero_temperature_limit():
    assert gap_kernel(0.3, 0.16, 0.0) == pytest.approx(1.0 / math.sqrt(0.09 + 0.16), rel=1e-15)


# kernel_jet takes tanh unclamped: numpy's tanh must give exactly 1 from
# 19.1 on (where 1 - tanh < 2^-54), on short arrays and on long ones
@pytest.mark.parametrize("size", [1, 7, 64, 7680])
def test_numpy_tanh_is_exactly_one_from_19_on(size):
    for z in (19.1, 40.0, 1e3, 1e300, math.inf):
        assert np.all(np.tanh(np.full(size, z)) == 1.0)


def test_kernel_jet_saturates_at_zero_temperature():
    xi = np.geomspace(0.005, 1.0, 64)
    r = np.sqrt(xi * xi + 0.04)
    k, k_s, k_t = kernel_jet(xi * xi, 0.04, 0.0, "sT")
    assert np.array_equal(k, 1.0 / r)
    np.testing.assert_allclose(k_s, -0.5 / r**3, rtol=1e-15, atol=0.0)
    assert np.all(k_t == 0.0)


def test_gap_kernel_monotone_spot_check():
    assert gap_kernel(0.1, 0.01, 0.05) > gap_kernel(0.1, 0.04, 0.05)


@settings(derandomize=True, max_examples=200)
@given(
    xi=st.floats(0.005, 1.0),
    s1=st.floats(0.0, 0.5),
    ds=st.floats(1e-6, 0.5),
    t=st.floats(1e-3, 1.0),
)
def test_gap_kernel_strictly_decreasing_in_s(xi, s1, ds, t):
    assert gap_kernel(xi, s1, t) > gap_kernel(xi, s1 + ds, t)


@settings(derandomize=True, max_examples=200)
@given(
    xi=st.floats(0.005, 1.0),
    s=st.floats(0.0, 0.5),
    t1=st.floats(1e-3, 1.0),
    dt=st.floats(1e-4, 1.0),
)
def test_gap_kernel_strictly_decreasing_in_t(xi, s, t1, dt):
    k_cold, k_warm = gap_kernel(xi, s, t1), gap_kernel(xi, s, t1 + dt)
    assert k_cold >= k_warm
    if gap_kernel(xi, s, t1) < 0.999 / math.sqrt(xi * xi + s):  # not saturated
        assert k_cold > k_warm


def test_gap_kernel_rows_slope_matches_curvature_identity():
    # k_s = gap_curvature(r/2T) / (16 T^3), with r/2T from 1e-3 (T = 2.5)
    # through the series' 0.1 crossover to beyond tanh's saturation (T = 0.01)
    xi = np.geomspace(0.005, 1.0, 50)
    cases = [(s, T) for T in (0.01, 0.04, 0.5, 2.5) for s in (0.0, 1e-4, 4e-3)]
    s, T = (np.array(c)[:, None] for c in zip(*cases))
    k, dk = kernel_jet(xi * xi, s, T, "s")
    for (s, T), k_row, dk_row in zip(cases, k, dk):
        assert np.array_equal(k_row, gap_kernel(xi, s, T))
        eta = np.sqrt(xi * xi + s) / (2.0 * T)
        expected = gap_curvature(eta) / (16.0 * T**3)
        assert np.all(dk_row < 0.0)
        np.testing.assert_allclose(dk_row, expected, rtol=1e-12, atol=0.0)


def test_gap_kernel_rows_zero_temperature_branch():
    xi = np.geomspace(0.005, 1.0, 20)
    cases = [(0.0, 0.0), (1e-3, 0.0), (1e-3, 0.02)]  # a warm row beside the cold ones
    s, T = (np.array(c)[:, None] for c in zip(*cases))
    k, dk, dk_t, du = kernel_jet(xi * xi, s, T, "sTu")
    for i, (s, T) in enumerate(cases[:2]):
        r = np.sqrt(xi * xi + s)
        assert np.array_equal(k[i], gap_kernel(xi, s, T))
        np.testing.assert_allclose(dk[i], -0.5 / r**3, rtol=1e-14, atol=0.0)
        assert np.all(dk_t[i] == 0.0)
        np.testing.assert_allclose(du[i], xi * xi / r**3, rtol=1e-14, atol=0.0)
    assert np.array_equal(k[2], gap_kernel(xi, 1e-3, 0.02))
    assert np.all(dk_t[2] < 0.0)


def test_gap_kernel_rows_equal_gap_kernel_element_for_element():
    # a root's value does not depend on its block: each row of a block's k
    # equals the kernel evaluated on that row alone (gap_kernel, which is
    # kernel_jet's k at xi * xi), whatever the other rows of the block hold
    # and whichever partials are asked for
    rng = np.random.default_rng(7)
    xi = np.geomspace(0.005, 1.0, 97)
    for _ in range(40):
        m = int(rng.integers(1, 18))
        s = rng.uniform(0.0, 0.1, m) ** rng.uniform(1.0, 4.0, m)
        T = rng.uniform(0.0, 0.05, m) ** rng.uniform(1.0, 3.0, m)
        T[rng.random(m) < 0.2] = 0.0  # cold rows
        T[rng.random(m) < 0.2] *= 1e-3  # saturated rows
        for partials in ("", "s", "sTu"):
            k = kernel_jet(xi * xi, s[:, None], T[:, None], partials)[0]
            for i in range(m):
                assert np.array_equal(k[i], gap_kernel(xi, s[i], T[i])), (s[i], T[i])


def _reference_jet(xi, s, T):
    """(k, k_s, k_T, d(u k(u^2))/du at u^2 = s) to 40 digits, the partials
    by mpmath's numerical differentiation.  k_T falls like e^(-2 eta) while
    k does not, so 2 eta more digits keep it resolved."""
    eta = math.sqrt(xi * xi + s) / (2.0 * T) if T > 0 else 0.0
    with mp.workdps(40 + int(2.0 * eta)):
        xi, s, T = mp.mpf(xi), mp.mpf(s), mp.mpf(T)

        def k(s, T):
            r = mp.sqrt(xi * xi + s)
            return mp.tanh(r / (2 * T)) / r if T > 0 else 1 / r

        if T == 0:
            r = mp.sqrt(xi * xi + s)
            jet = (1 / r, -1 / (2 * r**3), 0, xi * xi / r**3)
        else:
            jet = (
                k(s, T),
                mp.diff(lambda x: k(x, T), s),
                mp.diff(lambda x: k(s, x), T),
                mp.diff(lambda u: u * k(u * u, T), mp.sqrt(s)),
            )
        return [float(x) for x in jet]


def test_kernel_jet_matches_a_40_digit_reference():
    # xi in [0.005, 1], s in [0, 4e-3], T in [0.002, 5] and T = 0: eta runs
    # from 5e-4 through the 0.1 crossover (both sides, pinned at T = 0.3) to
    # 250, beyond tanh's saturation at 40
    cases = [
        (xi, s, T)
        for xi in np.geomspace(0.005, 1.0, 7)
        for s in (0.0, 1e-5, 4e-3)
        for T in (0.0, 0.002, 0.02, 0.3, 5.0)
    ]
    cases += [(0.6 * eta, 0.0, 0.3) for eta in (1e-3 / 0.3, 0.0999, 0.1001)]
    xi, s, T = (np.array(c) for c in zip(*cases))
    jet = np.array(kernel_jet(xi * xi, s, T, "sTu"))
    reference = np.array([_reference_jet(*c) for c in cases]).T
    worst = [
        float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))
        for got, ref in zip(jet, reference)
    ]
    # k_s keeps a cancellation of ~150x just above the crossover (measured
    # 3.0e-14 at eta = 0.11), and k_T ~ e^(-2 eta) inherits 2 eta times the
    # rounding of eta itself (6.3e-14 at eta = 250)
    bounds = (1e-15, 1e-13, 2e-13, 2e-15)
    for name, err, bound in zip(("k", "k_s", "k_T", "u"), worst, bounds):
        assert err <= bound, (name, err)


def test_kernel_jet_refuses_an_unknown_partial():
    with pytest.raises(ValueError, match="unknown partial"):
        kernel_jet(np.ones(3), 0.0, 0.1, "x")


def test_adaptive_matches_analytic():
    value = adaptive_integrate(lambda x: 1.0 / x, 0.005, 1.0)
    assert value == pytest.approx(LN_200, rel=1e-12)


def test_adaptive_convergence_criterion():
    # the doubled rule must be within max(abs_tol, rel_tol*|I|) of the result
    f = lambda x: np.tanh(x / 0.08) / x
    coarse = adaptive_integrate(f, 0.005, 1.0)
    nodes, weights = gauss_legendre_panels(np.geomspace(0.005, 1.0, 513), 10)
    fine = float(np.dot(weights, f(nodes)))
    assert abs(coarse - fine) <= max(1e-12, 1e-10 * abs(fine))


def test_adaptive_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_integrate(lambda x: x, 1.0, 1.0)


def test_sech_matches_cosh_and_survives_large_arguments():
    z = np.array([0.0, 0.5, 5.0, 30.0])
    assert sech(z) == pytest.approx(1.0 / np.cosh(z), rel=1e-15)
    assert sech(800.0) == 0.0  # underflows cleanly, no overflow


def test_curvature_at_zero_is_exactly_minus_two_thirds():
    assert gap_curvature(0.0) == -2.0 / 3.0


def test_curvature_matches_high_precision():
    def ref(x):
        with mp.workdps(30):
            x = mp.mpf(x)
            return float(1 / (x**2 * mp.cosh(x) ** 2) - mp.tanh(x) / x**3)

    for eta in [1e-4, 1e-3, 0.01, 0.05, 0.099, 0.1, 0.101, 0.3, 1.0, 3.0, 10.0]:
        assert gap_curvature(eta) == pytest.approx(ref(eta), rel=2e-13)


def test_curvature_branch_crossover_is_continuous():
    # the function's own slope accounts for ~2.1e-10 over this gap; any
    # branch mismatch beyond that would show up on top of it
    below, above = gap_curvature(0.1 - 1e-9), gap_curvature(0.1 + 1e-9)
    assert abs(below - above) <= 1e-9


def test_curvature_negative_on_log_grid():
    etas = np.geomspace(1e-3, 1e3, 60)
    assert np.all(gap_curvature(etas) < 0.0)


def test_curvature_rejects_negative_argument():
    with pytest.raises(ValueError):
        gap_curvature(-0.1)


@pytest.mark.parametrize("edges", [[], [0.5]])
def test_energy_grid_refuses_fewer_than_two_edges(edges):
    with pytest.raises(ValueError, match=r"^panels must be >= 1$"):
        EnergyGrid(np.array(edges), 4)


def test_gauss_legendre_rule_matches_leggauss():
    # leggauss's own steps, taken without numpy.polynomial: within 2 ulps of
    # it (bit-equal on numpy 2.4), so a numpy that reorders legval still passes
    for order in range(2, 101):
        x, w = quadrature._legendre_rule(order)
        xg, wg = np.polynomial.legendre.leggauss(order)
        assert np.all(np.abs(x - xg) <= 2 * np.spacing(np.abs(xg))), order
        assert np.all(np.abs(w - wg) <= 2 * np.spacing(wg)), order


def test_gauss_legendre_order_validation():
    with pytest.raises(ValueError):
        gauss_legendre_panels(np.array([0.0, 1.0]), 1)


@pytest.mark.parametrize("order", [2, 10, 12])
def test_gauss_legendre_rule_cached_bit_identical(order):
    # the [-1, 1] rule is computed once per order; the panels built from it
    # equal the ones built from a fresh, uncached rule bit for bit
    edges = np.geomspace(0.005, 1.0, 17)
    xg, wg = quadrature._legendre_rule.__wrapped__(order)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    for _ in range(2):
        nodes, weights = gauss_legendre_panels(edges, order)
        assert np.array_equal(nodes, (mid[:, None] + half[:, None] * xg[None, :]).ravel())
        assert np.array_equal(weights, (half[:, None] * wg[None, :]).ravel())
        assert nodes.flags.writeable and weights.flags.writeable
    rule = quadrature._legendre_rule(order)
    assert rule is quadrature._legendre_rule(order)
    for part in rule:
        with pytest.raises(ValueError):
            part[0] = 0.0
