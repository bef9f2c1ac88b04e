"""Constant-coupling gap curves: closed form at T = 0, vanishing temperature,
enclosed roots, and the implicit-function slope of the squared gap.

These scalar solutions serve two roles: they are physically meaningful in
their own right (constant-potential superconductor), and they bracket the
full solution pointwise, making them the independent oracle against which
the field solver is checked.  All integrals here use their own
quadrature rather than the shared collocation grid, which keeps this
module an independent computation route: an adaptive one, or
``_reference_rule``, an ``EnergyGrid`` of order-12 panels sized by its
own bound.

A gap value is a point of a proven window, the window its error bar (the
enclosure idea of Moore, Interval Analysis, 1966).  Newton's method in
s = delta^2 locates the root of the computed residual
f(delta) = U * integral(gap_kernel(xi, delta^2, T)) - 1 on the reference
rule.  A bound E on the distance of that computed f from the continuum
one then proves the sign of the continuum f at the two edges of a small
window around it, so the root of the continuum equation lies in the
window.  E is a rounding bound, for a floating point sum of n positive
terms (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
sections 3.1 and 4.2) and for the rule's float nodes and weights, plus a
quadrature bound Q(T) for the rule itself (``EnergyGrid.bound``, by
Bernstein ellipses; Trefethen, SIAM Rev. 50, 2008, Thm 4.5).  The roots
of one coupling are solved a block of temperatures at a time: every root
of the block runs both stages, and each round evaluates f for all of them
in one kernel call.
The vanishing temperature tau is located and enclosed by the same routine
(``_enclose``), in T, on f(T) = U * integral(tanh(xi/2T)/xi) - 1
(``tau_root``), and so is ``gap_operator``'s T_c.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._record import Record
from .model import ParamsError, PhysicalParams
from .quadrature import EnergyGrid, adaptive_integrate, gap_curvature, kernel_jet

__all__ = [
    "NoRootError",
    "delta0_closed_form",
    "tau_root",
    "solve_delta",
    "solve_delta_many",
    "implicit_slope_v",
    "EnvelopeCurve",
    "envelope_curve",
    "gap_equation_residual",
]


class NoRootError(ParamsError):
    """The linearised gap equation has no vanishing temperature."""


def delta0_closed_form(U: float, params: PhysicalParams) -> float:
    """Zero-temperature gap for a constant coupling U.

    sqrt((hw - eps*e^{1/U}) (hw - eps*e^{-1/U})) / sinh(1/U); requires the
    first factor to be positive.
    """
    factor = params.closed_form_factor(U)
    if not factor > 0.0:
        raise ParamsError(
            f"closed_form_validity: hbar_omega_d - epsilon*e^(1/U) = {factor!r} <= 0"
        )
    other = params.hbar_omega_d - params.epsilon_cutoff * math.exp(-1.0 / U)
    return math.sqrt(factor * other) / math.sinh(1.0 / U)


# Gauss-Legendre order of the reference rule's panels
_RULE_ORDER = 12


@lru_cache(maxsize=32)
def _reference_rule(params: PhysicalParams) -> EnergyGrid:
    """Quadrature rule for the scalar gap equations, built once per parameter set.

    Order-12 Gauss-Legendre panels on [epsilon, hbar_omega_d], geometric
    against the 1/xi character of the integrands (10 panels, 120 nodes, at
    epsilon = 0.005 and U2 = 0.309).  Its error is not estimated but
    bounded: ``EnergyGrid.bound`` sums each panel's Bernstein-ellipse
    bound, and ``_solve_block`` adds it to every root's E.

    The panel count is the fewest even one whose quadrature bound at
    T_max = u_upper * hbar_omega_d / 2, the cap above every tau of the band
    (``_tau_window``), is at most 1/64 of its rounding bound there, and at
    most 2 ceil(1.5 ln(hbar_omega_d/epsilon)), about three per e-fold, the
    count taken when none smaller passes.  The quadrature bound rises and
    the rounding bound falls in T, so at every T <= T_max the rule meets
    ``_solve_block``'s Q <= E/16 with a 4x margin.  Their ratio falls as
    panels are added, so a bisection on the count finds it; each candidate
    is built and bounded on its own float rule, and the one that passed is
    returned.
    """
    low, top = params.epsilon_cutoff, params.hbar_omega_d
    t_max = 0.5 * params.u_upper * top
    fail, fits = 0, math.ceil(1.5 * math.log(top / low))  # pairs of panels
    rule = None
    while fits - fail > 1:
        pairs = (fail + fits) // 2
        candidate = EnergyGrid(np.geomspace(low, top, 2 * pairs + 1), _RULE_ORDER)
        if candidate.bound(t_max) <= _rounding_bound(1.0, t_max, candidate) / 64.0:
            fits, rule = pairs, candidate
        else:
            fail = pairs
    return rule or EnergyGrid(np.geomspace(low, top, 2 * fits + 1), _RULE_ORDER)


def _coupling_integral(s: float, T: float, params: PhysicalParams) -> float:
    """integral of the gap kernel over the energy band at squared gap s."""
    rule = _reference_rule(params)
    return float(np.dot(rule.weights, kernel_jet(rule.xi2, s, T)[0]))


def gap_equation_residual(U: float, delta: float, T: float, params: PhysicalParams) -> float:
    """1 - U * integral; zero at a root of the constant-coupling gap equation."""
    return 1.0 - U * _coupling_integral(delta * delta, T, params)


@lru_cache(maxsize=4096)
def tau_root(U: float, params: PhysicalParams) -> float:
    """Temperature at which the constant-coupling gap closes.

    The defining right side U * integral(tanh(xi/2T)/xi) is strictly
    decreasing in T, from U * ln(hbar_omega_d/epsilon) at T = 0, so a root
    exists only where that exceeds one.  The computed
    f(0) = U * sum_j w_j/xi_j - 1 must exceed E, the rounding bound at
    T = 0 plus the quadrature bound at U * hbar_omega_d / 2, which bounds
    the distance of the computed f from the continuum one at every T
    between; that proves the continuum f(0) positive, and otherwise
    ``NoRootError`` names the span and the bound.  Then (``_tau_window``)
    the root is located and enclosed as every gap value is, by
    ``_enclose`` in T: tau is Newton's point, from about 7 evaluations of f.
    Cached: a pure function of hashable inputs called from many hot paths.
    """
    return _tau_window(U, params)[0]


@lru_cache(maxsize=4096)
def _tau_window(U: float, params: PhysicalParams) -> tuple[float, float, float]:
    """(tau, lo, hi): ``tau_root``'s root and the window ``_enclose`` proves
    to hold it and the continuum root; a side proving nothing gives 0 or inf."""
    rule = _reference_rule(params)
    # U * integral < U hbar_omega_d / 2T, as tanh(z) < z, so f < 0 from U hbar_omega_d / 2 on
    top = 0.5 * U * params.hbar_omega_d
    # the rounding bound falls and Q rises in T, so E holds on all of [0, top]
    bound = float(_rounding_bound(U, 0.0, rule) + _quadrature_bound(U, top, params))
    f0 = U * _coupling_integral(0.0, 0.0, params) - 1.0
    if not f0 > bound:
        span = U * math.log(params.hbar_omega_d / params.epsilon_cutoff)
        raise NoRootError(
            f"tau_existence: U*ln(hbar_omega_d/epsilon) = {span!r}; the reference "
            f"rule's U*sum(w/xi) - 1 = {f0!r} does not exceed its error bound {bound!r}"
        )
    search = _enclose(_BCS_TAU * params.hbar_omega_d * math.exp(-1.0 / U), 0.0, top, bound)
    try:
        T, wants_slope = next(search)
        while True:
            jet = kernel_jet(rule.xi2, 0.0, T, "T" if wants_slope else "")
            sums = (U * np.dot(jet, rule.weights)).tolist()
            T, wants_slope = search.send((sums[0] - 1.0, sums[1] if wants_slope else None))
    except StopIteration as done:
        tau, lo_w, hi_w = done.value
    return tau, max(lo_w, 0.0), hi_w


# |fl(f) - f| <= (n + _TERM_ROUNDINGS) eps S on an n-node rule, with S an
# upper bound on U * sum_j w_j k_j: n rounding units cover the sum in any
# order (gamma_n), the rest each term's own roundings (square, sqrt, tanh,
# divide, weight) with room to spare.
_TERM_ROUNDINGS = 16
# the float rule is not the exact Gauss rule that Q(T) is for: its
# weights, from numpy's leggauss, err by up to 41 eps, relatively, and its
# nodes by up to 1 eps, which moves a term by as much, since
# |d ln k / d ln xi| <= 1; _RULE_ROUNDINGS eps S covers both
_RULE_ROUNDINGS = 48
# x4 widenings of one side of the window before that side proves nothing
_WINDOW_WIDENINGS = 8
# 2 e^gamma / pi: tau is about _BCS_TAU hbar_omega_d e^(-1/U) for a small cutoff
_BCS_TAU = 2.0 * math.exp(0.5772156649015329) / math.pi
# cap on Newton passes; a root typically takes 3 to 5
_NEWTON_PASSES = 64
# nodes of an envelope_curve on [0, tau]
_ENVELOPE_NODES = 129
# kernel elements (rows x rule nodes) of a root block, which size its buffers:
# max(1, _BLOCK_ELEMENTS // n) rows on an n-node rule.  kernel_jet with the "s"
# partial and the row sums took 21.7, 16.4, 14.2, 13.6, 13.1 and 26.7 ns an
# element at 16, 32, 48, 64, 96 and 128 rows of 120 nodes, and 14.2 and 33.6
# at 16 and 32 rows of 408: the cache sets the knee
_BLOCK_ELEMENTS = 7680


def _quadrature_bound(U: float, T, params: PhysicalParams):
    """Q(T) = U (A + B T): a bound on U times the exact Gauss rule's error,
    on the reference panels, for the gap kernel at T and every s >= 0."""
    return U * _reference_rule(params).bound(T)


def _rounding_bound(U: float, T, rule: EnergyGrid):
    """(n + _TERM_ROUNDINGS + _RULE_ROUNDINGS) eps S at each temperature T:
    a bound on the distance of the computed f from the f of the exact Gauss
    rule on the n-node rule's panels.  S = U * sum_j w_j min(1/xi_j, 1/(2T))
    bounds U * sum_j w_j k_j for every s >= 0, because k decreases in s and
    tanh(z) <= min(1, z).  Each S is one pairwise sum, as each f is."""
    T = np.asarray(T, dtype=float)[..., None]
    half_over_t = np.divide(0.5, T, out=np.full_like(T, np.inf), where=T > 0.0)
    cap = np.minimum(1.0 / rule.nodes, half_over_t)
    scale = (rule.weights.size + _TERM_ROUNDINGS + _RULE_ROUNDINGS) * np.finfo(float).eps * U
    return scale * np.multiply(cap, rule.weights, out=cap).sum(axis=-1)


@lru_cache(maxsize=262144)
def solve_delta(U: float, T: float, params: PhysicalParams) -> float:
    """Gap value for constant coupling U at temperature T.

    Returns the located positive root for 0 <= T < tau_U and exactly 0 for
    T >= tau_U (zero extension beyond the transition).  The right side is
    strictly decreasing in the gap, so the root is unique and lies in
    (0, delta0].  Cached like tau_root.

    A block of one for ``solve_delta_many``, which describes the result;
    the value does not depend on the block it is solved in.
    """
    return float(solve_delta_many(U, [T], params)[0])


def solve_delta_many(U: float, Ts, params: PhysicalParams) -> np.ndarray:
    """Gap values ``solve_delta(U, T, params)`` for every T in ``Ts``, bit for bit.

    Each result is the point of a window that holds the exact root of
    U * integral(gap_kernel(xi, delta^2, T)) = 1 over [epsilon, hbar_omega_d],
    located and enclosed by ``_enclose`` in s = delta^2 on the computed f,
    summed on the reference rule, with E a bound on its distance from the
    exact f: Newton's point, and edges 3E/|df/ds| either side, each proven
    by a computed |f| > 2E.  A root costs about 4.7 evaluations; the
    bisection that places a point whose edge had to widen costs tens, and
    no measured root needs it.

    Temperatures at or above tau_U give 0.0 without an evaluation.  The
    others are solved in blocks of ``_BLOCK_ELEMENTS`` kernel elements:
    every root of a block runs both stages, and each round evaluates f at
    the pending gap of every unfinished root in one ``kernel_jet`` call.  A
    root's evaluations depend only on (U, T), so its value does not depend
    on its block.
    """
    return _solve_windows(U, Ts, params)[0]


def _solve_windows(
    U: float, Ts, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(roots, lo, hi): ``solve_delta_many``'s roots and the windows they prove.

    The exact root of the continuum equation at each T lies in [lo, hi],
    and so do the returned point and the root of the reference rule's
    equation: the window is the point's error bar.  Measured relative
    half-widths at U = 0.309: 7.0e-13 at T <= 0.5 tau, 2.2e-11 at 0.99 tau,
    2.2e-9 at (1 - 1e-4) tau; the point lies at most 9e-4 window widths
    from the rule's exact root.  A side whose checks prove nothing gives
    the trivial enclosure, 0 below or +inf above.  At T >= tau_U the gap is
    0 by the zero extension, and so are both edges.
    """
    Ts = np.asarray(Ts, dtype=float)
    if Ts.ndim != 1:
        raise ValueError("temperatures must be a one-dimensional sequence")
    if not np.all(Ts >= 0.0):
        raise ValueError("temperature must be nonnegative")
    found = np.zeros((3, Ts.size))
    tau = tau_root(U, params)
    live = np.flatnonzero(Ts < tau)
    if live.size:
        d0 = delta0_closed_form(U, params)
        size = max(1, _BLOCK_ELEMENTS // _reference_rule(params).nodes.size)
        for first in range(0, live.size, size):
            rows = live[first:first + size]
            block = _solve_block(U, Ts[rows].tolist(), tau, d0, params)
            found[:, rows] = np.array(block).T
    roots, lo, hi = found
    return roots, lo, hi


def _solve_block(
    U: float, Ts: list[float], tau: float, d0: float, params: PhysicalParams
) -> list[tuple[float, float, float]]:
    """(root, lo, hi) at temperatures 0 <= T < tau, the evaluations made together.

    Each root runs ``_root_search``, which yields the squared gap it needs
    f at; a round evaluates every pending gap in one ``kernel_jet`` call,
    one row per root, with k_s rows only when some search asks for a slope,
    and sends each search its (f, df/ds), with f = U * sum_j w_j k_j - 1
    summed by one pairwise reduction per row, whose result for a row does
    not depend on the rows beside it.  Each root's E is ``_rounding_bound``
    plus ``_quadrature_bound``, which bounds the distance of the computed f
    from the continuum one.  A quadrature bound above 1/16 of the rounding bound
    means the rule is too coarse for that T/epsilon, and is refused.
    """
    rule = _reference_rule(params)
    rounding = _rounding_bound(U, Ts, rule)
    quadrature = _quadrature_bound(U, np.asarray(Ts), params)
    for T, r, q in zip(Ts, rounding, quadrature):
        if not q <= r / 16.0:
            raise ParamsError(
                f"reference_rule: quadrature bound {q:.3e} exceeds 1/16 of the "
                f"rounding bound {r:.3e} at T/epsilon = {T / params.epsilon_cutoff:.3e}"
            )
    searches = [
        _root_search(T, tau, d0, bound)
        for T, bound in zip(Ts, (rounding + quadrature).tolist())
    ]
    results = [(0.0, 0.0, 0.0)] * len(Ts)
    live = list(range(len(Ts)))
    requests = [next(search) for search in searches]
    while live:
        wanted = [requests[i] for i in live]
        slopes = any(want_slope for _, want_slope in wanted)
        gaps = np.array([s for s, _ in wanted])[:, None]
        temps = np.array([Ts[i] for i in live])[:, None]
        jet = kernel_jet(rule.xi2, gaps, temps, "s" if slopes else "")
        sums = [U * np.multiply(rows, rule.weights, out=rows).sum(axis=1) for rows in jet]
        f = (sums[0] - 1.0).tolist()
        df = sums[1].tolist() if slopes else [None] * len(live)
        still = []
        for i, fi, dfi in zip(live, f, df):
            try:
                requests[i] = searches[i].send((fi, dfi))
            except StopIteration as done:
                results[i] = done.value
            else:
                still.append(i)
        live = still
        del jet  # free this round's buffers before the next round fills its own
    return results


def _root_search(T: float, tau: float, d0: float, bound: float):
    """One root's ``_enclose`` in s = delta^2, as a generator for
    ``_solve_block``: from delta0 * tanh(1.74 sqrt(tau/T - 1)) in the
    bracket [0, (1.5 delta0)^2], which no root reaches.  Returns the gap
    and the window [lo, hi] proven around it, as gaps."""
    start = d0 if T == 0.0 else d0 * math.tanh(1.74 * math.sqrt(tau / T - 1.0))
    s, lo_w, hi_w = yield from _enclose(start * start, 0.0, (1.5 * d0) ** 2, bound)
    return math.sqrt(s), math.sqrt(max(lo_w, 0.0)), math.sqrt(hi_w)


def _enclose(x: float, lo: float, hi: float, bound: float):
    """Locate the root of a decreasing computed f in the bracket [lo, hi] by
    ``_newton`` from x, and prove a window around it, in the root's own
    variable: the one locate-and-enclose path of every gap value, tau and
    (``gap_operator.radius_crossing_temperature``) T_c.

    Each ``yield`` hands over (x, wants_slope) and receives the computed
    (f, df/dx) at x, df/dx None unless asked for; ``bound`` is E, a bound on
    the distance of the computed f from the exact f its caller computes.
    Each edge starts 3E/|df/dx| from Newton's point and is proven by
    ``_proven_edge``.  Returns (point, lo_w, hi_w), a side that proves
    nothing read as -inf or +inf.  When either edge had to widen, the point
    is suspect: a bisection on the computed sign inside the window, down to
    twice the first width, places it instead.
    """
    x, slope = yield from _newton(x, lo, hi, bound)
    width = 3.0 * bound / abs(slope)
    first = (_edge(x - width, -1.0, lo), _edge(x + width, 1.0, hi))
    lo_w = yield from _proven_edge(x, width, -1.0, lo, bound)
    hi_w = yield from _proven_edge(x, width, 1.0, hi, bound)
    if (lo_w, hi_w) != first:  # an edge had to widen
        a, b = max(lo_w, lo), min(hi_w, hi)
        while b - a > 2.0 * width:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
            f, _ = yield mid, False
            if f > 0.0:
                a = mid
            else:
                b = mid
        x = 0.5 * (a + b)
    return x, lo_w, hi_w


def _newton(x: float, lo: float, hi: float, bound: float):
    """Newton steps on a decreasing f in the bracket [lo, hi] that its computed
    signs narrow.  The first step that leaves it takes the end it passed:
    where f keeps its sign up to that end, the bracket collapses onto it in
    one evaluation, not by halving down to adjacent doubles.  A later step
    leaving it, or a nan step, takes its midpoint.  Each ``yield`` hands
    over (x, True) and receives (f, df/dx) at x.  Returns one more Newton
    update, clamped to the bracket, and df/dx, which costs no evaluation, at
    the first |f| <= bound/8, or once the update is below 1e-3 of the
    Newton step before it and the quadratic estimate of the next one,
    |d_k| (|d_k|/|d_k-1|)^2, is within 1/30 of the window half-width
    3 bound/|df/dx| that ``_enclose`` proves around the root."""
    last = math.nan  # the Newton step that led to x; nan after a midpoint
    exited = False
    for _ in range(_NEWTON_PASSES):
        fx, dfx = yield x, True
        if fx > 0.0:
            lo = x
        else:
            hi = x
        dx = fx / dfx if dfx else math.nan  # a nan step takes the midpoint
        step = x - dx
        if abs(fx) <= 0.125 * bound or (
            abs(dx) < 1e-3 * abs(last) and abs(dx) * (dx / last) ** 2 <= 0.1 * bound / abs(dfx)
        ):
            return min(max(step, lo), hi), dfx
        x_next, last = (step, dx) if lo < step < hi else (0.5 * (lo + hi), math.nan)
        if not exited and (step <= lo or step >= hi):  # a nan step compares false
            x_next, exited = (lo if step <= lo else hi), True
        if x_next == x:
            break
        x = x_next
    return x, dfx


def _edge(x: float, side: float, limit: float) -> float:
    """x, or side * inf where x is at or past ``limit``."""
    return x if side * x < side * limit else side * math.inf


def _proven_edge(root: float, width: float, side: float, limit: float, bound: float):
    """Point past which f's computed sign is proven, left (-1) or right (+1) of root.

    The check at x = root + side * width must read side * f < -2E; the
    width grows x4 until it does.  A computed f(lo_w) > 2E means the exact
    f, within E of it, exceeds E at lo_w, and so at every x before it, as
    f decreases: the exact root lies above lo_w, and every computed f
    before lo_w is positive.  The right side mirrors it.  At or past
    ``limit``, the bracket's end, there is nothing to prove and the side
    returns side * inf, as it does after the last widening.
    """
    for _ in range(_WINDOW_WIDENINGS):
        x = _edge(root + side * width, side, limit)
        if math.isinf(x):
            break
        f, _ = yield x, False
        if side * f < -2.0 * bound:
            return x
        width *= 4.0
    return side * math.inf


def implicit_slope_v(U: float, params: PhysicalParams) -> float:
    """Limit slope v = -d(Delta^2)/dT at the vanishing temperature.

    Differentiating Phi(T, s) = U * integral(gap_kernel(xi, s, T)) - 1 = 0
    implicitly at (tau_U, s=0) and reducing the integrals analytically:

        Phi_T = -(U/T) * [tanh(hw/(2T)) - tanh(eps/(2T))]
        Phi_s = (U/(8 T^2)) * integral of gap_curvature over
                [eps/(2T), hw/(2T)]

    so v = Phi_T / Phi_s = -8T * (tanh(hw/2T) - tanh(eps/2T)) / integral,
    by the partials k_T and k_s that ``kernel_jet`` documents, at s = 0;
    positive because the curvature kernel is negative.
    """
    tau = tau_root(U, params)
    a = params.epsilon_cutoff / (2.0 * tau)
    b = params.hbar_omega_d / (2.0 * tau)
    curv = adaptive_integrate(gap_curvature, a, b, log_spacing=False)
    d = math.tanh(b) - math.tanh(a)
    return -8.0 * tau * d / curv


class EnvelopeCurve(Record):
    """Constant-coupling gap curve Delta(T) sampled on [0, tau], zero beyond.

    ``[tau_lo, tau_hi]`` is the window ``tau_root`` proves around tau,
    ``reference_nodes`` the size of the rule it was solved on, and
    ``quadrature_bound`` the largest Q(T) over its solved temperatures,
    the part of each window's E that bounds that rule's own error.
    """

    coupling: float
    tau: float
    tau_lo: float
    tau_hi: float
    t_nodes: np.ndarray
    delta_values: np.ndarray
    delta0: float
    reference_nodes: int
    quadrature_bound: float


def envelope_curve(U: float, params: PhysicalParams) -> EnvelopeCurve:
    """Sample the constant-coupling gap curve at 129 nodes on [0, tau].

    Nodes cluster toward tau where the curve has a square-root drop.  All
    nodes are solved together by ``_solve_windows``, a block at a time,
    without ``solve_delta``'s cache.  The located points may rise from one
    node to the next inside their windows; the curve takes
    y = max(cummin(roots), reverse-cummax(lo)) over the ascending nodes,
    which is non-increasing and lies in every node's window.
    """
    tau, tau_lo, tau_hi = _tau_window(U, params)
    # quadratic clustering toward tau resolves Delta ~ sqrt(tau - T)
    frac = 1.0 - (1.0 - np.linspace(0.0, 1.0, _ENVELOPE_NODES)) ** 2
    t_nodes = tau * frac
    roots, lo, _ = _solve_windows(U, t_nodes, params)
    # the exact root falls strictly in T, so a lower edge at a later node is
    # a lower bound at every earlier one; the smallest root so far is at
    # most this node's root, and so at most its upper edge
    falling = np.minimum.accumulate(roots)
    floor = np.maximum.accumulate(lo[::-1])[::-1]
    deltas = np.maximum(falling, floor)
    solved = t_nodes[t_nodes < tau]
    return EnvelopeCurve(
        coupling=U,
        tau=tau,
        tau_lo=tau_lo,
        tau_hi=tau_hi,
        t_nodes=t_nodes,
        delta_values=deltas,
        delta0=delta0_closed_form(U, params),
        reference_nodes=_reference_rule(params).nodes.size,
        quadrature_bound=float(_quadrature_bound(U, solved, params).max()),
    )
