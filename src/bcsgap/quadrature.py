"""Composite Gauss-Legendre integration and numerically safe integrand kernels.

Every quadrature rule and every gap-equation kernel in the package comes
from this module, so accuracy is controlled in one place; callers sum
``weights @ values`` on the rules themselves.  ``EnergyGrid`` is the one
rule type: the Nystrom grid (``model.build_grid``) and the scalar
reference rule (``simple_gap._reference_rule``) are both geometric panels
of it, and each carries its panels and their Bernstein-ellipse bound.
The package evaluates the gap kernel only through ``kernel_jet``.  The
kernels below are written to stay exact in double precision over the
full argument range met in practice (saturated tanh at low temperature,
near-cancellation of the curvature kernel at small argument).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from ._record import Record

__all__ = [
    "EnergyGrid",
    "gauss_legendre_panels",
    "adaptive_integrate",
    "gap_kernel",
    "kernel_jet",
    "sech",
    "gap_curvature",
]

# tanh(z) rounds to 1.0 in double precision well before 40, so a tanh
# argument clamped here gives exactly 1 beyond it, and no 1-ulp noise.
TANH_SATURATION = 40.0
# floor of the kernel's divisor 2T: every r/_COLD_DIVISOR with r above
# 1e-298 exceeds TANH_SATURATION, so T = 0 saturates to t = 1
_COLD_DIVISOR = 1e-300
# adaptive_integrate: Gauss-Legendre order, starting panel count, stop
# |I_2n - I_n| <= max(abs, rel * |I_2n|), and panel doublings before failure
_ADAPTIVE_ORDER = 10
_ADAPTIVE_PANELS = 8
_ADAPTIVE_ABS_TOL = 1e-12
_ADAPTIVE_REL_TOL = 1e-10
_ADAPTIVE_DOUBLINGS = 12


def gauss_legendre_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights for the given panel edges."""
    if order < 2:
        raise ValueError("Gauss-Legendre order must be >= 2")
    edges = np.asarray(edges, dtype=float)
    xg, wg = _legendre_rule(order)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


class EnergyGrid(Record, eq=False):
    """The composite Gauss-Legendre rule of ``order`` points on each panel
    [edges[i], edges[i + 1]]; ``__post_init__`` computes its nodes, weights
    and xi2 = nodes^2 once.  As the Nystrom grid, its nodes are the
    collocation points of every gap field.  Compared by identity."""

    edges: np.ndarray
    order: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("panels must be >= 1")
        nodes, weights = gauss_legendre_panels(edges, self.order)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "xi2", nodes * nodes)

    @property
    def size(self) -> int:
        return self.nodes.size

    def bound(self, T):
        """a + b T, the sums over the panels of ``_panel_bounds`` (taken on
        first use): the exact Gauss rule's error bound for the gap kernel at T."""
        a, b = self._bound_sums
        return a + b * T

    @cached_property
    def _bound_sums(self) -> tuple[float, float]:
        a, b = _panel_bounds(self.edges, self.order)
        return float(a.sum()), float(b.sum())


def _panel_bounds(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): |integral - Gauss sum| of the gap kernel on panel i is at
    most a[i] + b[i] * T, for every s >= 0 and T >= 0.

    The kernel tanh(r/2T)/r, r^2 = xi^2 + s, is a function of r^2 whose
    poles, xi^2 = -s - (pi T (2j+1))^2, all lie on the imaginary xi-axis.
    The Bernstein ellipse of parameter rho < (sqrt(q)+1)/(sqrt(q)-1) about
    a panel [lo, q lo] (foci at its ends) stays in Re xi >= m > 0.  There
    Re r >= Re xi and |tanh w| <= coth(Re w) <= 1 + 1/Re w, so
    |k| <= M = (1 + 2T/m)/m, uniformly in s, and at T = 0 too.  The n-point
    Gauss-Legendre rule then errs by at most
    h (64/15) M rho^(2-2n) / (rho^2 - 1) on a panel of half-length h
    (Trefethen, SIAM Rev. 50, 2008, Thm 4.5, whose rule has n + 1 points).
    rho is taken 0.9 of the way from 1 to its limit; on the reference
    panels that bound is within 1.7x of the best rho's at every T (measured).
    """
    lo, hi = edges[:-1], edges[1:]
    root_q = np.sqrt(hi / lo)
    rho = 1.0 + 0.9 * ((root_q + 1.0) / (root_q - 1.0) - 1.0)
    half = 0.5 * (hi - lo)
    m = 0.5 * (hi + lo) - 0.5 * half * (rho + 1.0 / rho)
    c = half * (64.0 / 15.0) * rho ** (2.0 - 2.0 * order) / (rho * rho - 1.0)
    return c / m, 2.0 * c / (m * m)


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(order)`` on [-1, 1], computed once per order, read-only."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def adaptive_integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    log_spacing: bool = True,
) -> float:
    """Integrate fn over [a, b], doubling panel count until stable.

    Order-10 Gauss-Legendre panels, 8 to start.  Convergence criterion:
    |I_2n - I_n| <= max(1e-12, 1e-10 * |I_2n|), within 12 doublings.
    Log-spaced panels suit the 1/xi-type integrands that concentrate near
    the left endpoint.
    """
    if not (b > a):
        raise ValueError("integration interval must satisfy b > a")
    panels = _ADAPTIVE_PANELS
    previous = None
    for _ in range(_ADAPTIVE_DOUBLINGS + 1):
        if log_spacing and a > 0:
            edges = np.geomspace(a, b, panels + 1)
        else:
            edges = np.linspace(a, b, panels + 1)
        nodes, weights = gauss_legendre_panels(edges, _ADAPTIVE_ORDER)
        current = float(np.dot(weights, fn(nodes)))
        if previous is not None and abs(current - previous) <= max(
            _ADAPTIVE_ABS_TOL, _ADAPTIVE_REL_TOL * abs(current)
        ):
            return current
        previous = current
        panels *= 2
    raise RuntimeError(
        f"quadrature did not stabilise after {_ADAPTIVE_DOUBLINGS} doublings "
        f"(last delta {abs(current - previous):.3e})"
    )


def gap_kernel(xi, s, T: float):
    """tanh(sqrt(xi^2 + s)/(2T)) / sqrt(xi^2 + s), the gap-equation kernel,
    as ``kernel_jet(xi * xi, s, T)[0]``: kept for perfbench and the tests.

    ``s`` is the squared gap value.  Strictly decreasing in both s and T;
    bounded above by tanh(xi/(2T))/xi; ``T = 0`` gives 1/sqrt(xi^2 + s).
    """
    xi = np.asarray(xi, dtype=float)
    return kernel_jet(xi * xi, s, T)[0]


def kernel_jet(xi2, s, T, partials: str = ""):
    """The gap kernel k = tanh(eta)/r, r^2 = xi^2 + s, eta = r/(2T), and the
    first partials named in ``partials``, in its order: the one code that
    evaluates them.  With sigma = sech^2(eta),

    - "s": k_s = (sigma/(2T) - k)/(2 r^2) = (eta sigma - tanh eta)/(2 r^3), that
      is gap_curvature(eta)/(16 T^3), by its series below eta = 0.1, where
      the terms cancel; only sigma's absolute error counts, so 1 - tanh^2 does;
    - "T": k_T = -sigma/(2 T^2), and "u": d(u k(u^2))/du = k + 2 s k_s as the
      sum (xi^2 k + s sigma/(2T))/r^2, both with ``sech`` for sigma.

    ``xi2`` is an array of xi * xi, a rule's ``xi2``, and ``s`` and ``T``
    broadcast against it.  2T is floored at _COLD_DIVISOR, so T = 0
    saturates: k = 1/r, k_s = -1/(2 r^3), k_T = 0.
    """
    twice_t = np.maximum(2.0 * T, _COLD_DIVISOR)
    r2 = xi2 + s
    r = np.sqrt(r2)
    eta = r / twice_t
    t = np.tanh(np.minimum(eta, TANH_SATURATION))
    k = t / r
    jet = [k]
    for partial in partials:
        if partial == "s":
            c = np.multiply(t, t, out=t)  # t is read by no other partial
            np.subtract(1.0, c, out=c)
            c /= twice_t
            c -= k
            c /= 2.0 * r2
            small = eta < _CURVATURE_CROSSOVER
            if small.any():
                e, rs = eta[small], r[small]
                c[small] = e * e * e * _curvature_series(e * e) / (2.0 * rs * rs * rs)
            jet.append(c)
        elif partial == "T":
            sz = sech(eta)
            jet.append(np.divide(-(sz * sz), twice_t * T, out=np.zeros_like(k), where=T > 0.0))
        elif partial == "u":
            sz = sech(eta)
            jet.append((xi2 * k + s * sz * sz / twice_t) / r2)
        else:
            raise ValueError(f"unknown partial {partial!r}: expected 's', 'T' or 'u'")
    return tuple(jet)


def sech(z):
    """Overflow-free hyperbolic secant: 2 e^{-z} / (1 + e^{-2z}) for z >= 0."""
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(z))
    return 2.0 * ez / (1.0 + ez * ez)


# Even Taylor coefficients of the curvature kernel about eta = 0, exact
# rationals: -2/3, 8/15, -34/105, 496/2835, -2764/31185, 87376/2027025,
# -1859138/91216125.  Keeping terms through eta^12 makes the series branch
# accurate to ~3e-16 at the 0.1 crossover.
_CURVATURE_SERIES = (
    -2.0 / 3.0,
    8.0 / 15.0,
    -34.0 / 105.0,
    496.0 / 2835.0,
    -2764.0 / 31185.0,
    87376.0 / 2027025.0,
    -1859138.0 / 91216125.0,
)
_CURVATURE_CROSSOVER = 0.1


def _curvature_series(e2):
    """gap_curvature's Taylor series at eta^2 = e2, by Horner's rule."""
    acc = np.full_like(e2, _CURVATURE_SERIES[-1])
    for c in _CURVATURE_SERIES[-2::-1]:
        acc = acc * e2 + c
    return acc


def gap_curvature(eta):
    """1/(eta^2 cosh^2 eta) - tanh(eta)/eta^3, negative on [0, inf).

    Controls the curvature of the squared gap near the transition and the
    specific-heat jump.  Below eta = 0.1 the two terms cancel
    catastrophically, so a Taylor branch (value -2/3 at eta = 0) is used.
    """
    eta = np.asarray(eta, dtype=float)
    scalar = eta.ndim == 0
    eta = np.atleast_1d(eta)
    if np.any(eta < 0):
        raise ValueError("eta must be nonnegative")
    out = np.empty_like(eta)

    small = eta < _CURVATURE_CROSSOVER
    if np.any(small):
        out[small] = _curvature_series(eta[small] ** 2)
    if np.any(~small):
        e = eta[~small]
        s = sech(e)
        out[~small] = (s * s) / (e * e) - np.tanh(e) / e**3

    return float(out[0]) if scalar else out
