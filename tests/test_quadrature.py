import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcsgap import quadrature
from bcsgap.quadrature import (
    adaptive_integrate,
    gap_curvature,
    gap_kernel,
    gap_kernel_rows,
    gauss_legendre_panels,
    integrate,
    sech,
    tanh_half_identity,
)

LN_200 = 5.2983173665480367  # ln(1/0.005), frozen from 40-digit evaluation


def test_integrate_constant(grid, params):
    width = params.hbar_omega_d - params.epsilon_cutoff
    assert integrate(np.ones(grid.size), grid) == pytest.approx(width, rel=1e-14)


def test_integrate_linear_exact(grid, params):
    a, b = params.epsilon_cutoff, params.hbar_omega_d
    exact = (b * b - a * a) / 2.0
    assert integrate(grid.nodes, grid) == pytest.approx(exact, rel=1e-14)


def test_integrate_reciprocal(grid):
    assert integrate(1.0 / grid.nodes, grid) == pytest.approx(LN_200, rel=1e-10)


def test_integrate_rejects_misaligned(grid):
    with pytest.raises(ValueError, match="does not match"):
        integrate(np.ones(grid.size - 1), grid)
    bad = np.ones(grid.size)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        integrate(bad, grid)


def test_gap_kernel_zero_s_branch():
    xi = np.array([0.01, 0.1, 1.0])
    t = 0.05
    expected = np.tanh(xi / (2 * t)) / xi
    assert gap_kernel(xi, 0.0, t) == pytest.approx(expected, rel=1e-15)


def test_gap_kernel_saturates_at_low_temperature():
    # tanh argument is 500: saturated branch returns exactly 1/xi
    assert abs(gap_kernel(1.0, 0.0, 0.001) - 1.0) <= 1e-12


def test_gap_kernel_zero_temperature_limit():
    assert gap_kernel(0.3, 0.16, 0.0) == pytest.approx(1.0 / math.sqrt(0.09 + 0.16), rel=1e-15)


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
    # dk/ds = gap_curvature(r/2T) / (16 T^3); r/2T >= 0.06 here, where the
    # one-pass formula loses at most ~1e-13 to cancellation
    xi = np.geomspace(0.005, 1.0, 50)
    cases = [(s, T) for T in (0.01, 0.04) for s in (0.0, 1e-4, 4e-3)]
    k, dk = gap_kernel_rows(xi * xi, *zip(*cases), slopes=True)
    for (s, T), k_row, dk_row in zip(cases, k, dk):
        assert np.array_equal(k_row, gap_kernel(xi, s, T))
        eta = np.sqrt(xi * xi + s) / (2.0 * T)
        expected = gap_curvature(eta) / (16.0 * T**3)
        assert np.all(dk_row < 0.0)
        np.testing.assert_allclose(dk_row, expected, rtol=1e-9, atol=0.0)


def test_gap_kernel_rows_zero_temperature_branch():
    xi = np.geomspace(0.005, 1.0, 20)
    cases = [(0.0, 0.0), (1e-3, 0.0), (1e-3, 0.02)]  # a warm row beside the cold ones
    k, dk = gap_kernel_rows(xi * xi, *zip(*cases), slopes=True)
    for (s, T), k_row, dk_row in zip(cases[:2], k, dk):
        r = np.sqrt(xi * xi + s)
        assert np.array_equal(k_row, gap_kernel(xi, s, T))
        np.testing.assert_allclose(dk_row, -0.5 / r**3, rtol=1e-14, atol=0.0)
    assert np.array_equal(k[2], gap_kernel(xi, 1e-3, 0.02))


def test_gap_kernel_rows_equal_gap_kernel_element_for_element():
    # the block solve's replay relies on each row being gap_kernel's array,
    # whatever the other rows of the block hold and with or without slopes
    rng = np.random.default_rng(7)
    xi = np.geomspace(0.005, 1.0, 97)
    for _ in range(40):
        m = int(rng.integers(1, 18))
        s = rng.uniform(0.0, 0.1, m) ** rng.uniform(1.0, 4.0, m)
        T = rng.uniform(0.0, 0.05, m) ** rng.uniform(1.0, 3.0, m)
        T[rng.random(m) < 0.2] = 0.0  # cold rows
        T[rng.random(m) < 0.2] *= 1e-3  # saturated rows
        for slopes in (False, True):
            k, _ = gap_kernel_rows(xi * xi, s, T, slopes=slopes)
            for i in range(m):
                assert np.array_equal(k[i], gap_kernel(xi, s[i], T[i])), (s[i], T[i])


@pytest.mark.parametrize("z", [0.0, 1.0, 50.0])
def test_tanh_half_identity_values(z):
    assert tanh_half_identity(z) <= 1e-15


@settings(derandomize=True, max_examples=300)
@given(z=st.floats(0.0, 700.0))
def test_tanh_half_identity_everywhere(z):
    assert tanh_half_identity(z) <= 1e-15


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
    mp.mp.dps = 30

    def ref(x):
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


def test_gauss_legendre_order_validation():
    with pytest.raises(ValueError):
        gauss_legendre_panels(np.array([0.0, 1.0]), 1)


@pytest.mark.parametrize("order", [2, 10, 12])
def test_gauss_legendre_rule_cached_bit_identical(order):
    # the [-1, 1] rule is computed once per order; the panels built from it
    # equal the ones built from a fresh leggauss call bit for bit
    edges = np.geomspace(0.005, 1.0, 17)
    xg, wg = np.polynomial.legendre.leggauss(order)
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
