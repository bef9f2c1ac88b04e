"""Independent oracles used by the tests: slow but transparent computations
whose results the package must reproduce."""

from __future__ import annotations

import numpy as np

from bcsgap.gap_operator import kernel_matrix
from bcsgap.quadrature import gap_kernel
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
    f(T) = U * integral(tanh(xi/2T)/xi) - 1, from ``tau_root``'s bracket,
    evaluating f at every midpoint.  ``tau_root`` must return this float
    bit for bit."""

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


def bisect_tc(potential, grid, lo: float, hi: float, rtol: float = 1e-13) -> float:
    """Unit crossing of the zero-field Perron root by plain bisection, each
    radius by power iteration on the explicit kernel matrix from the
    constant-one field.  ``spectral_tc`` must land within a few rtol of it."""

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

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if radius(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * (lo + hi)


def derivative_nonuniform(ts, ys) -> np.ndarray:
    """First derivative at every node by 3-point Lagrange stencils."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = ts.size
    out = np.empty_like(ys)
    for i in range(n):
        j = min(max(i - 1, 0), n - 3)
        t0, t1, t2 = ts[j], ts[j + 1], ts[j + 2]
        y0, y1, y2 = ys[j], ys[j + 1], ys[j + 2]
        t = ts[i]
        out[i] = (
            y0 * (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
            + y1 * (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
            + y2 * (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
        )
    return out


def second_derivative_nonuniform(ts, ys) -> np.ndarray:
    """Second derivative at every node by 3-point Lagrange stencils."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = ts.size
    out = np.empty_like(ys)
    for i in range(n):
        j = min(max(i - 1, 0), n - 3)
        t0, t1, t2 = ts[j], ts[j + 1], ts[j + 2]
        y0, y1, y2 = ys[j], ys[j + 1], ys[j + 2]
        out[i] = 2.0 * (
            y0 / ((t0 - t1) * (t0 - t2))
            + y1 / ((t1 - t0) * (t1 - t2))
            + y2 / ((t2 - t0) * (t2 - t1))
        )
    return out
