"""Independent oracles used by the tests: slow but transparent computations
whose results the package must reproduce."""

from __future__ import annotations

import mpmath as mp
import numpy as np

from bcsgap.gap_operator import _zero_field_kernel, weighted_potential_matrix
from bcsgap.model import PotentialSpec
from bcsgap.quadrature import EnergyGrid, gap_kernel
from bcsgap.simple_gap import (
    _coupling_integral,
    delta0_closed_form,
    implicit_slope_v,
    solve_delta,
    tau_root,
)


def zeta3_series(n_terms: int = 2_000_000) -> float:
    """zeta(3) by direct summation with the integral tail correction.

    sum_{n>N} n^-3 = 1/(2N^2) - 1/(2N^3) + O(N^-4); with N = 2e6 the
    result is accurate to well below 1e-12.
    """
    n = np.arange(1, n_terms + 1, dtype=float)
    head = float(np.sum(1.0 / n**3))
    tail = 0.5 / n_terms**2 - 0.5 / n_terms**3
    return head + tail


def fd_slope_oracle(U: float, params, h_rel: float = 1e-3) -> float:
    """Finite-difference limit slope of the squared gap at the vanishing
    temperature, Richardson-extrapolated on steps h, h/2, h/4.

    s(tau - h)/h = v - (w/2) h + O(h^2); two Richardson levels remove the
    h and h^2 terms.  Works on s = delta^2, which stays smooth at tau even
    though delta itself has a square-root kink.
    """
    tau = tau_root(U, params)
    h = h_rel * tau
    est = [solve_delta(U, tau - hh, params) ** 2 / hh for hh in (h, h / 2, h / 4)]
    r1 = 2.0 * est[1] - est[0]
    r2 = 2.0 * est[2] - est[1]
    return (4.0 * r2 - r1) / 3.0


def curvature_w_oracle(U: float, params) -> float:
    """Limit curvature w = d^2(delta^2)/dT^2 at the vanishing temperature,
    from the scalar gap alone.

    s(h) = solve_delta(U, tau - h)^2 equals v h + (w/2) h^2 + O(h^3), so a
    degree-5 polynomial fit of s(h)/h on h in [3e-4, 3e-2] tau has v as its
    value and w/2 as its slope at h = 0.  The fit's value must match
    ``implicit_slope_v`` to 1e-9, which validates the fit.
    """
    tau = tau_root(U, params)
    h = tau * np.geomspace(3e-4, 3e-2, 16)
    q = np.array([solve_delta(U, tau - x, params) ** 2 for x in h]) / h
    coeff = np.polynomial.polynomial.polyfit(h / tau, q, 5)
    v = implicit_slope_v(U, params)
    assert abs(coeff[0] - v) <= 1e-9 * v, (coeff[0], v)
    return float(2.0 * coeff[1] / tau)


def nystrom_constant_gap(U: float, T: float, grid) -> float:
    """Fixed point of the Nyström-discretised gap operator for a constant
    coupling U, which is the constant c solving 1 = U * sum_j w_j k(xi_j, c^2, T).

    The right side decreases strictly in c, so bisection converges; it is
    run until the bracket holds two adjacent doubles.  Returns 0 when the
    zero field is the only fixed point.
    """

    def excess(c: float) -> float:
        return U * float(np.dot(grid.weights, gap_kernel(grid.nodes, c * c, T))) - 1.0

    if excess(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(excess(lo)) <= abs(excess(hi)) else hi
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def bisect_delta(U: float, T: float, params) -> float:
    """Constant-coupling gap by plain bisection on the computed
    f(delta) = U * integral(gap_kernel(xi, delta^2, T)) - 1, evaluating f at
    every midpoint, to a bracket of max(1e-15 delta0, 1e-18).  The window
    that ``solve_delta`` proves around its value must hold this float, up
    to that bracket."""
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    tau = tau_root(U, params)
    if T >= tau:
        return 0.0
    d0 = delta0_closed_form(U, params)

    def f(delta: float) -> float:
        return U * _coupling_integral(delta * delta, T, params) - 1.0

    lo, hi = 0.0, d0 * (1.0 + 1e-12)  # the root falls from about delta0 at T = 0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(1e-15 * d0, 1e-18):
            break
    return 0.5 * (lo + hi)


def bisect_tau(U: float, params) -> float:
    """Vanishing temperature by 200 plain bisection steps on the computed
    f(T) = U * integral(tanh(xi/2T)/xi) - 1, from a doubling bracket above
    epsilon/1000, evaluating f at every midpoint.  This float and
    ``tau_root``'s must lie in the same proven window."""

    def f(T: float) -> float:
        return U * _coupling_integral(0.0, T, params) - 1.0

    lo = params.epsilon_cutoff * 1e-3
    while f(lo) <= 0.0:
        lo *= 0.5
    hi = lo
    while f(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kernel_matrix(T: float, potential: PotentialSpec, grid: EnergyGrid) -> np.ndarray:
    """Linearisation of the operator at zero field, the n x n matrix
    M_ij = U(x_i, xi_j) gap_kernel(xi_j, 0, T) w_j; strictly positive."""
    k0 = _zero_field_kernel(grid.xi2, T)
    return weighted_potential_matrix(potential, grid) * k0[None, :]


def bisect_tc(potential, grid, lo: float, hi: float) -> float:
    """Unit crossing of the zero-field Perron root by plain bisection on the
    computed sign of radius - 1, each radius by power iteration on the
    explicit kernel matrix from the constant-one field, until the midpoint
    rounds onto an end: lo and hi are then adjacent doubles, and the float
    returned is one of them.  It and ``spectral_tc``'s float must lie in
    the window ``radius_crossing_temperature`` proves."""

    def radius(T: float) -> float:
        m = kernel_matrix(T, potential, grid)
        x = np.ones(grid.size)
        lam = 0.0
        for _ in range(50_000):
            y = m @ x
            lam_new = float(x @ y) / float(x @ x)
            x = y / np.max(np.abs(y))
            if abs(lam_new - lam) <= 1e-13:
                return lam_new
            lam = lam_new
        raise RuntimeError("power iteration did not converge")

    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if radius(mid) > 1.0:
            lo = mid
        else:
            hi = mid


def constant_psi_derivatives(U: float, T: float, h: float, params, grid) -> tuple[float, float]:
    """First and second temperature derivatives of the potential difference
    of the Nyström problem with constant coupling U, by central differences
    of step h in 40-digit arithmetic.

    At each temperature the field is the constant c solving
    1 = U * sum_j w_j tanh(r_j/2T)/r_j with r_j = sqrt(xi_j^2 + c^2), found
    by mpmath's root finder from the double-precision fixed point, and the
    potential difference is ``thermo.psi``'s three terms in the same
    arithmetic.  At 40 digits the rounding of the differences stays far
    below their O(h^2) truncation for steps down to about 1e-12 T.
    """
    with mp.workdps(40):
        xi = [mp.mpf(float(x)) for x in grid.nodes]
        wt = [mp.mpf(float(x)) for x in grid.weights]
        n0 = mp.mpf(params.n0_dos)

        def excess(c, temp):
            return U * mp.fsum(
                w * mp.tanh(mp.sqrt(x * x + c * c) / (2 * temp)) / mp.sqrt(x * x + c * c)
                for x, w in zip(xi, wt)
            ) - 1

        def potential(temp):
            c = mp.findroot(
                lambda y: excess(y, temp), mp.mpf(nystrom_constant_gap(U, float(temp), grid))
            )
            s = c * c
            total = mp.mpf(0)
            for x, w in zip(xi, wt):
                e = mp.sqrt(x * x + s)
                total += w * (
                    -2 * (e - x)
                    + s / e * mp.tanh(e / (2 * temp))
                    - 4 * temp * mp.log((1 + mp.exp(-e / temp)) / (1 + mp.exp(-x / temp)))
                )
            return n0 * total

        t0, step = mp.mpf(T), mp.mpf(h)
        lo, mid, hi = potential(t0 - step), potential(t0), potential(t0 + step)
        first = (hi - lo) / (2 * step)
        second = (hi - 2 * mid + lo) / (step * step)
        return float(first), float(second)
