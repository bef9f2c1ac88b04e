"""Contraction bound for the gap operator on the monotone envelope family,
and the search for a certified interval below the transition temperature.

The bound at temperatures T in [tau, T_c] and energies x is

    alpha(T, x) = integral U(x, xi) gap_kernel(xi, Delta2(T)^2, T) dxi
                + (Delta2(tau)^2 / (2 eps^2)) *
                  integral U(x, xi) tanh(xi/(2T))/xi dxi

whose maximum over the rectangle is a Lipschitz constant for the operator
between any two fields inside the envelope.  ``compute_alpha`` encloses
that maximum in [alpha, upper].  The gap kernel falls in the squared gap
and in T, and Delta2 falls in T, so on a cell [T_a, T_b] x [x_a, x_b] the
bound is at most its value with both kernels at T_a, the first at the
lower edge of Delta2(T_b)'s proven window and the prefactor at the upper
edge of Delta2(tau)'s: the interval idea of Moore ("Interval Analysis",
1966) for a monotone integrand.  ``_x_bound`` bounds the largest value of
that over the x-cell.  A best-first branch and bound (Skelboe, BIT 14,
1974) bisects the cell of largest bound, one at a time, and solves an
envelope root only at a new cell edge.  alpha is the largest point value
found, at its (T, x); upper is a bound, rounding included.  A certificate
exists when upper is below one; else the search reports failure with
diagnostics.

The entry points take the ``GapOperator`` and read the potential and the
grid from it, so the bound is the one of the operator that the solve
iterates.  They evaluate U with ``model.potential_matrix`` at their own x
points, not through the operator's factors, so the factors' ``error``
never enters upper.  They take T_c from the caller (``bcsgap certify``
locates it with ``gap_operator.spectral_tc`` on the same operator,
``bcsgap thermo`` passes the solved surface's).  The surface solve does
not use the outcome; ``thermo.build_thermo_report`` decides the alpha it
reports from it.  The kernel rows come from ``kernel_jet`` on ``xi2``.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ._record import Record
from .gap_operator import GapOperator
from .model import (
    ConstantPotential,
    GaussianBumpPotential,
    PhysicalParams,
    PotentialSpec,
    TablePotential,
    extreme_points,
    potential_matrix,
)
from .quadrature import EnergyGrid, kernel_jet
from .simple_gap import _TERM_ROUNDINGS, _solve_windows, tau_root

__all__ = [
    "ContractionCertificate",
    "CertificateFailure",
    "AlphaResult",
    "compute_alpha",
    "search_certificate",
    "format_certificate_report",
]

# points of the x lattice on [eps, hbar_omega_d] at which compute_alpha
# evaluates the bound at every cell-edge temperature
_N_X = 256
# compute_alpha stops once upper - alpha <= _GAP * upper ...
_GAP = 1e-9
# ... or once it has solved this many envelope roots
_ROOT_BUDGET = 64
# tau scan points of search_certificate, halving the distance to T_c
_N_TAU = 24


class ContractionCertificate(Record):
    """Certified contraction data for the interval [tau, T_c]."""

    tau: float
    epsilon: float
    alpha: float
    max_location: tuple[float, float]  # (T, x) attaining the largest point value
    delta2_at_tau: float
    coupling_margin: float | None = None

    def __post_init__(self):
        if not self.alpha < 1.0:
            raise ValueError(f"certificate requires alpha < 1, got {self.alpha!r}")
        if not self.delta2_at_tau < self.epsilon:
            raise ValueError(
                f"certificate requires Delta2(tau) < epsilon, got "
                f"{self.delta2_at_tau!r} >= {self.epsilon!r}"
            )


class CertificateFailure(Record):
    """Best bound found when no contraction certificate exists."""

    best_alpha: float
    alpha_upper: float
    best_tau: float
    epsilon: float
    delta2_at_tc: float
    max_location: tuple[float, float]

    @property
    def obstruction_ratio(self) -> float:
        """Delta2(T_c)/epsilon, the floor of the second-term prefactor."""
        return self.delta2_at_tc / self.epsilon


class AlphaResult(Record):
    """[alpha, upper] encloses the bound's maximum over [tau, T_c] x [eps,
    hbar_omega_d]; alpha is its value at (t_at_max, x_at_max).  The roots
    Delta2(tau) and Delta2(T_c) are the cell edges' own, and
    delta2_at_tau_upper is the upper edge of Delta2(tau)'s proven window."""

    alpha: float
    upper: float
    t_at_max: float
    x_at_max: float
    delta2_at_tau: float
    delta2_at_tc: float
    delta2_at_tau_upper: float


def _kernel_rows(
    grid: EnergyGrid, T: float, d2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted kernel rows at T: the envelope term's at gap d2 and the
    cutoff term's at gap 0."""
    return (
        grid.weights * kernel_jet(grid.xi2, d2 * d2, T)[0],
        grid.weights * kernel_jet(grid.xi2, 0.0, T)[0],
    )


def _point_values(
    urows: np.ndarray, kd: np.ndarray, k0: np.ndarray, prefactor: float
) -> np.ndarray:
    """The bound at one temperature for each x row of ``urows``.  ``einsum``
    sums each row in an order the other rows do not change (a BLAS
    product's can), so a row's value does not depend on the rows beside it,
    and equal rows tie exactly."""
    return np.einsum("ij,j->i", urows, kd) + prefactor * np.einsum("ij,j->i", urows, k0)


def _x_bound(
    potential: PotentialSpec, xa: float, xb: float, xi: np.ndarray, row: np.ndarray
) -> tuple[float, float]:
    """Bound on the largest g(x) = sum_j U(x, xi_j) row_j over the x-cell
    [xa, xb], for row >= 0, before the final rounding factor; and how much
    of it bisecting in x can remove, over g at the midpoint.

    A constant's g is flat.  A table's is linear in x between the table's x
    nodes, so its largest value is at one of the cell's ``extreme_points``:
    an end or a node inside, and nothing is left to remove.  A Gaussian's
    is at most the sum with each U(., xi_j) at its largest on the cell (at
    the x nearest xi_j for a bump, at an end for a dip), and at most the
    centered form g(x_m) + |g'(x_m)| h/2 + sup|g''| h^2/8 (Moore, 1966),
    with |d^2U/dx^2| <= |amplitude| / width^2 and the rounding of g'(x_m), a
    sum of both signs, added; the smaller is taken.
    """
    if isinstance(potential, ConstantPotential):
        return potential.u0 * float(row.sum()), 0.0
    if isinstance(potential, TablePotential):
        xs = extreme_points(potential, 0, xa, xb)
        return float(np.max(potential_matrix(potential, xs, xi) @ row)), 0.0
    if not isinstance(potential, GaussianBumpPotential):
        raise TypeError(f"unknown potential spec {type(potential).__name__}")
    bump, width2 = potential.bump, potential.width**2
    if potential.amplitude >= 0.0:
        cap = potential.base + bump(np.clip(xi, xa, xb) - xi)
    else:
        cap = potential.base + np.maximum(bump(xa - xi), bump(xb - xi))
    xm = 0.5 * (xa + xb)
    half = max(xm - xa, xb - xm)
    dx = xm - xi
    at_mid = bump(dx)
    g_mid = float((potential.base + at_mid) @ row)
    slope_terms = -dx / width2 * at_mid * row
    g_slope = abs(slope_terms.sum()) + _rounding(xi.size) * np.abs(slope_terms).sum()
    g_curvature = abs(potential.amplitude) / width2 * row.sum()
    centered = g_mid + half * g_slope + 0.5 * g_curvature * half * half
    best = min(float(cap @ row), float(centered))
    return best, best - g_mid


def _rounding(n: int) -> float:
    """(n + _TERM_ROUNDINGS) eps: the relative rounding of an n-term sum of
    products of nonnegative factors, as in ``simple_gap``'s window checks."""
    return (n + _TERM_ROUNDINGS) * np.finfo(float).eps


class _Enclosure:
    """``compute_alpha``'s branch and bound.

    Edges are the solved temperatures, in the order solved, each with its
    weighted kernel rows and the squared lower edge of its root's window.
    ``values`` holds the point value at every edge (rows) and every
    evaluated x (columns).  Cells wait in a heap, the largest bound on top
    (the best-first search of Moore and Skelboe).
    """

    def __init__(self, tau, t_c, op, params):
        self.potential, self.grid, self.params = op.potential, op.grid, params
        roots, lo, hi = _solve_windows(params.u_upper, [tau, t_c], params)
        self.delta2 = roots.tolist()
        self.delta2_tau_hi = float(hi[0])
        twice_eps2 = 2.0 * params.epsilon_cutoff**2
        self.prefactor = self.delta2[0] ** 2 / twice_eps2
        self.prefactor_hi = self.delta2_tau_hi**2 / twice_eps2
        self.t: list[float] = []
        self.rows: list[tuple[np.ndarray, np.ndarray]] = []
        self.lo2: list[float] = []
        self.mid_edges: dict[tuple[int, int], int] = {}
        lo_x, hi_x = params.epsilon_cutoff, params.hbar_omega_d
        # and a table's nodes inside, where its bound can peak
        inner = extreme_points(self.potential, 0, lo_x, hi_x)[1:-1]
        self.x = np.sort(np.concatenate((np.linspace(lo_x, hi_x, _N_X), inner)))
        self.urows = potential_matrix(self.potential, self.x, self.grid.nodes)
        self.values = np.empty((0, self.x.size))
        for T, d2, lo_w in zip([tau, t_c], roots.tolist(), lo.tolist()):
            self._add_edge(T, d2, lo_w)

    def _add_edge(self, T: float, d2: float, lo_w: float) -> None:
        """A solved temperature becomes an edge, evaluated at every x."""
        self.t.append(T)
        self.rows.append(_kernel_rows(self.grid, T, d2))
        self.lo2.append(lo_w * lo_w)
        new = _point_values(self.urows, *self.rows[-1], self.prefactor)
        self.values = np.vstack([self.values, new])

    def _add_x(self, x: float) -> None:
        """A new x point, evaluated at every edge."""
        urow = potential_matrix(self.potential, x, self.grid.nodes)
        col = [_point_values(urow, kd, k0, self.prefactor)[0] for kd, k0 in self.rows]
        self.x = np.append(self.x, x)
        self.urows = np.vstack([self.urows, urow])
        self.values = np.column_stack([self.values, col])

    def _mid_edge(self, a: int, b: int) -> int:
        """The edge at the midpoint of [t_a, t_b], its root solved on first
        use; -1 once the root budget is spent or when the midpoint is not
        strictly inside."""
        if (a, b) not in self.mid_edges:
            mid = 0.5 * (self.t[a] + self.t[b])
            if len(self.t) >= _ROOT_BUDGET or not self.t[a] < mid < self.t[b]:
                return -1
            roots, lo, _ = _solve_windows(self.params.u_upper, [mid], self.params)
            self._add_edge(mid, float(roots[0]), float(lo[0]))
            self.mid_edges[a, b] = len(self.t) - 1
        return self.mid_edges[a, b]

    def _cell(self, a: int, b: int, xa: float, xb: float) -> tuple:
        """Heap entry of the cell [t_a, t_b] x [xa, xb]: its bound, negated,
        then its edges, and how much of the bound the T-interval and the
        x-interval add to the point value at t_a and at the x midpoint."""
        kd, k0 = self.rows[a]
        nodes, weights = self.grid.nodes, self.grid.weights
        kb = weights * kernel_jet(self.grid.xi2, self.lo2[b], self.t[a])[0]
        bound = kb + self.prefactor_hi * k0
        point = kd + self.prefactor * k0
        mid = potential_matrix(self.potential, 0.5 * (xa + xb), nodes)[0]
        upper, x_slack = _x_bound(self.potential, xa, xb, nodes, bound)
        upper = float((1.0 + _rounding(self.grid.size)) * upper)
        t_slack = float(mid @ (bound - point))
        return (-upper, a, b, xa, xb, t_slack, x_slack)

    def _refine(self) -> float:
        """Split the cell of largest bound until upper - alpha <= 1e-9 upper
        or that cell cannot be split; returns its bound."""
        heap = [self._cell(0, 1, float(self.x[0]), float(self.x[-1]))]
        while True:
            neg_upper, a, b, xa, xb, t_slack, x_slack = heap[0]
            upper = -neg_upper
            if upper - self.values.max() <= _GAP * upper:
                return upper
            if t_slack >= x_slack:
                m = self._mid_edge(a, b)
                if m < 0:
                    return upper
                halves = self._cell(a, m, xa, xb), self._cell(m, b, xa, xb)
            else:
                xm = 0.5 * (xa + xb)
                if not xa < xm < xb:
                    return upper
                self._add_x(xm)
                halves = self._cell(a, b, xa, xm), self._cell(a, b, xm, xb)
            heapq.heapreplace(heap, halves[0])
            heapq.heappush(heap, halves[1])

    def run(self) -> AlphaResult:
        if np.isfinite(self.prefactor_hi):
            upper = self._refine()
        else:  # Delta2(tau) has no proven upper edge, and so the bound none
            upper = math.inf
        alpha = float(self.values.max())
        ti, xi = np.nonzero(self.values == alpha)
        t, x = np.asarray(self.t)[ti], self.x[xi]
        first = np.lexsort((x, t))[0]  # first maximiser in (T, x) order
        return AlphaResult(
            alpha=alpha,
            upper=upper,
            t_at_max=float(t[first]),
            x_at_max=float(x[first]),
            delta2_at_tau=self.delta2[0],
            delta2_at_tc=self.delta2[1],
            delta2_at_tau_upper=self.delta2_tau_hi,
        )


def compute_alpha(
    tau: float, op: GapOperator, params: PhysicalParams, *, t_c: float
) -> AlphaResult:
    """Enclosure [alpha, upper] of the contraction bound's maximum over
    [tau, T_c] x [eps, hbar_omega_d].

    Branch and bound from the one cell [tau, T_c] x [eps, hbar_omega_d].
    On a cell [T_a, T_b] x [x_a, x_b] the bound is at most
    (1 + (n + 16) eps_mach) times the largest over the x-cell of
    sum_j w_j U(x, xi_j) [k(xi_j, lo(T_b)^2, T_a) + Pbar k(xi_j, 0, T_a)],
    with lo(T_b) the lower edge of the window proven around Delta2(T_b)
    and Pbar = hi(tau)^2 / (2 eps^2); ``_x_bound`` bounds the largest
    value over x.  The cells wait in a heap; the one of largest bound is
    taken while upper - alpha > 1e-9 upper, with upper its bound, and
    bisected: in T, solving the one new edge root, where the T-interval
    adds more to the bound than the x-interval, else in x, which solves no
    root.  It stops there, or when that cell cannot be split (64 roots
    solved, or no double strictly inside).

    alpha is the largest point value at the edge temperatures, over a
    256-point x lattice, every x-cell edge and a table's x nodes, and
    (t_at_max, x_at_max) is its first maximiser in (T, x) order.  upper is
    the bound of the heap's top cell, the largest of all; it is +inf when no upper edge of
    Delta2(tau) is proven.  Values >= 1 are valid, reported outcomes.
    """
    if not tau < t_c:
        raise ValueError(f"need tau < T_c, got tau={tau!r} >= T_c={t_c!r}")
    return _Enclosure(tau, t_c, op, params).run()


def search_certificate(
    op: GapOperator,
    params: PhysicalParams,
    *,
    t_c: float,
    coupling_margin: float | None = None,
) -> ContractionCertificate | CertificateFailure:
    """Scan tau over a geometric grid in (tau1, T_c) for a certified bound.

    The 24 scan points approach T_c by halving, and each runs
    ``compute_alpha``.  Returns the smallest tau whose upper bound is below
    one and whose whole window around Delta2(tau) lies below epsilon
    (widest certified interval), with that bound as its alpha.  On
    failure returns the enclosure found together with the
    Delta2(T_c)/epsilon ratio, which
    is the structural obstruction: the bound evaluated at T_c already
    exceeds one whenever the envelope top has not dropped below the cutoff
    scale, and the scan cannot push tau past T_c to help it.
    """
    tau1 = tau_root(params.u_lower, params)

    # geometric approach of tau toward T_c: the bound is non-increasing in tau
    # (smaller rectangle, smaller envelope prefactor), so the largest scan
    # point is the most favourable.  Evaluate it first: if even that fails,
    # no tau can succeed and the scan is skipped.
    fractions = (t_c - tau1) * 0.5 ** np.arange(_N_TAU)
    taus = t_c - fractions

    def certifies(result: AlphaResult) -> bool:
        # Delta2(tau) < eps must hold for the root, not only for its point
        return result.upper < 1.0 and result.delta2_at_tau_upper < params.epsilon_cutoff

    best = compute_alpha(float(taus[-1]), op, params, t_c=t_c)
    best_tau = float(taus[-1])
    certified: tuple[float, AlphaResult] | None = None
    if certifies(best):
        certified = (best_tau, best)
        for tau in taus[:-1]:  # smallest upward: widest certified interval wins
            result = compute_alpha(float(tau), op, params, t_c=t_c)
            if certifies(result):
                certified = (float(tau), result)
                break

    if certified is not None:
        tau, result = certified
        return ContractionCertificate(
            tau=tau,
            epsilon=params.epsilon_cutoff,
            alpha=result.upper,
            max_location=(result.t_at_max, result.x_at_max),
            delta2_at_tau=result.delta2_at_tau,
            coupling_margin=coupling_margin,
        )
    return CertificateFailure(
        best_alpha=best.alpha,
        alpha_upper=best.upper,
        best_tau=best_tau,
        epsilon=params.epsilon_cutoff,
        delta2_at_tc=best.delta2_at_tc,
        max_location=(best.t_at_max, best.x_at_max),
    )


def format_certificate_report(
    outcome: ContractionCertificate | CertificateFailure,
) -> list[str]:
    """Plain-text key = value report for either search outcome, as its
    lines, each ending in a newline."""
    lines: list[str] = []
    if isinstance(outcome, ContractionCertificate):
        lines.append("status = certified")
        lines.append(f"tau = {outcome.tau!r}")
        lines.append(f"epsilon = {outcome.epsilon!r}")
        lines.append(f"alpha = {outcome.alpha!r}")
        lines.append(f"max_T = {outcome.max_location[0]!r}")
        lines.append(f"max_x = {outcome.max_location[1]!r}")
        lines.append(f"delta2_at_tau = {outcome.delta2_at_tau!r}")
        if outcome.coupling_margin is not None:
            lines.append(f"coupling_margin = {outcome.coupling_margin!r}")
    else:
        lines.append("status = failed")
        lines.append(f"best_alpha = {outcome.best_alpha!r}")
        lines.append(f"alpha_upper = {outcome.alpha_upper!r}")
        lines.append(f"best_tau = {outcome.best_tau!r}")
        lines.append(f"epsilon = {outcome.epsilon!r}")
        lines.append(f"max_T = {outcome.max_location[0]!r}")
        lines.append(f"max_x = {outcome.max_location[1]!r}")
        lines.append(f"delta2_at_tc = {outcome.delta2_at_tc!r}")
        lines.append(f"obstruction_delta2_over_epsilon = {outcome.obstruction_ratio!r}")
    return [line + "\n" for line in lines]
