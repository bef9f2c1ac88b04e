"""Fixed-point iteration to the gap-equation solution and assembly of the
gap surface on [tau, T_c] x [epsilon, hbar_omega_d], including T_c itself.

A surface node is solved in two stages.  ``newton_seed`` runs Newton on
F(u) = u - A u, solving each linear system by matrix-free GMRES whose
products go through the factors of W (see ``gap_operator``); it converges
in a handful of steps where the Picard iteration contracts at a rate
approaching one.  It starts from the previous, cooler node's row scaled by
sqrt((T_c - T) / (T_c - T_prev)), since the gap shrinks like sqrt(T_c - T)
(from the upper envelope at the first node).
``picard_solve``, the paper's iteration, then starts from that seed, and
its stop certifies the row; a zero row below T_c is refused by name.
Both take A u and A'(u) at an iterate from one ``GapOperator.linearise``.

Before iterating, ``picard_solve`` must know that T is below the
transition, where the zero-field Perron root rho(M) of M = W k0(T) exceeds
one.  A positive start u proves it with one product: M is a positive
matrix, so the Collatz-Wielandt ratio min_i (M u)_i / u_i is at most
rho(M).  Only when that ratio does not clear one (by a slack) does a power
iteration decide.

``picard_solve`` starts from the upper envelope unless given a start, and
stops through an a-posteriori bound: if the iteration contracts at rate
rho, then ||u_n - u*|| <= rho/(1-rho) * ||u_n - u_{n-1}||.  Near T_c the
true rate approaches one like 1 - O(T_c - T), so neither a fixed constant
nor the observed ratio of successive differences will do as rho: the
observed ratio approaches the local rate from below and lags it, and a
stop taken on it alone misses tol (by 56% at 2.5e-5 below T_c on the
default grid).  The stop therefore uses the Collatz-Wielandt bound
q >= rho(A'(u)) of the linearised operator, with the iterate u itself as
the test vector (see ``_error_bound``): one matrix-vector product per
check.  A screen rate decides when a check is worth making: it starts at
0.5 and rises only to the q of a refused check.

Every function here takes the ``GapOperator`` (see
``gap_operator.as_operator``) and reads the grid from it; ``solve_surface``
hands its operator to T_c location and to every node.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Factory, Record, replace
from .gap_operator import GapField, GapOperator, spectral_radius, spectral_tc
from .model import PhysicalParams
from .simple_gap import solve_delta, solve_delta_many, tau_root

__all__ = [
    "ConvergenceError",
    "SolveTrace",
    "GapSurface",
    "picard_solve",
    "newton_seed",
    "solve_surface",
    "lattice_offsets",
]

# Perron roots this close to or below one admit only the zero field inside
# the envelope, so iteration is unnecessary (and would stall sublinearly).
_ZERO_PHASE_SLACK = 1e-9
# starting value of the stop screen's rate (see picard_solve)
_SCREEN_FLOOR = 0.5
# GMRES stop: relative residual, and Krylov dimension (no restarts)
_GMRES_RTOL = 1e-10
_GMRES_MAX_DIM = 40
# newton_seed stops once ||A u - u|| is at most this many eps * max|u|, its
# rounding floor (measured: up to 4.5 at 160 nodes and 6.7 at 640) ...
_NEWTON_FLOOR_ULPS = 8.0
# ... or after this many operator applications
_NEWTON_MAX_STEPS = 100


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the ratio of the last two
    successive differences (0.0 with fewer than two) for diagnosis."""

    def __init__(self, message: str, observed_ratio: float):
        super().__init__(message)
        self.observed_ratio = observed_ratio


class SolveTrace(Record):
    """Outcome of one fixed-point solve.

    ``iterations`` counts Picard operator applications.  ``rate`` is the
    Collatz-Wielandt bound q >= rho(A'(u)) checked at the accepted stop
    (for the zero field at or above the transition, the zero-field Perron
    root).  ``newton_steps`` counts the operator applications of the Newton
    seed that ``solve_surface`` ran before the Picard iteration.
    """

    final_residual: float
    iterations: int
    rate: float
    newton_steps: int = 0


class GapSurface(Record):
    """Solution values on a temperature x energy lattice, plus T_c, and the
    ``GapOperator`` they were solved with, whose grid is the energy lattice;
    ``thermo`` reads the operator, grid, T_c and tau from here."""

    op: GapOperator
    t_nodes: np.ndarray
    values: np.ndarray  # shape (len(t_nodes), op.grid.size)
    t_c: float
    traces: list[SolveTrace] = Factory(list)

    @property
    def tau(self) -> float:
        return float(self.t_nodes[0])


def picard_solve(
    T: float,
    op: GapOperator,
    params: PhysicalParams,
    tol: float = 1e-9,
    max_iter: int = 2_000_000,
    initial: np.ndarray | None = None,
) -> tuple[GapField, SolveTrace]:
    """Iterate u <- A u from the upper envelope until within tol of the
    fixed point.

    Stops once the Collatz-Wielandt bound of the module docstring gives
    ||u - u*|| <= tol.  It is checked whenever the sup-norm difference drops
    below tol*(1-rho)/rho, with the screen rate rho starting at 0.5; a
    refused check with rate bound q < 1 raises rho to q, so the next check
    comes once the difference has shrunk to match it.  The returned field
    has residual ||u - Au|| <= 2 tol.
    ``max_iter`` counts operator applications; the checks do not count.

    If the zero-field Perron root at T is <= 1 (temperature at or above the
    transition), the zero field is the unique fixed point inside the
    envelope and is returned directly, with the root as its rate.  A
    positive start whose Collatz-Wielandt ratio exceeds 1 + slack proves
    the root larger (see the module docstring) and skips the power
    iteration that otherwise decides.

    ``initial`` overrides the upper-envelope start, e.g. for uniqueness
    probes from the lower envelope.  The zero field is always a fixed point
    and a negative start heads for -u*, so a start must be finite,
    nonnegative and positive somewhere, or ``ValueError`` is raised, as it
    is for T <= 0 and for ``max_iter`` < 1.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    u = _start(T, op, params, initial)
    if not _proves_ordered_phase(op, u, T):
        radius = spectral_radius(T, op).radius
        if radius <= 1.0 + _ZERO_PHASE_SLACK:
            zero = np.zeros(op.grid.size)
            return (
                GapField(temperature=T, values=zero),
                SolveTrace(final_residual=0.0, iterations=0, rate=radius),
            )

    diff = previous = 0.0
    rho = _SCREEN_FLOOR
    for n in range(1, max_iter + 1):
        au = op.apply(u, T)
        step = au - u
        previous, diff = diff, float(np.max(np.abs(step)))
        u = au
        if diff <= tol * (1.0 - rho) / rho:
            q, bound, image = _error_bound(op, u, T, step)
            if bound > tol:
                # q >= 1 means no contraction is proven here yet; keep the
                # screen rate and check again at the next screened step
                if q < 1.0:
                    rho = max(rho, q)
                continue
            residual = float(np.max(np.abs(image - u)))
            return (
                GapField(temperature=T, values=u),
                SolveTrace(final_residual=residual, iterations=n, rate=q),
            )
    ratio = diff / previous if previous > 0.0 else 0.0
    raise ConvergenceError(
        f"no convergence at T={T!r} after {max_iter} iterations "
        f"(observed ratio {ratio:.6f})",
        observed_ratio=ratio,
    )


def _proves_ordered_phase(op: GapOperator, u: np.ndarray, T: float) -> bool:
    """Whether u proves the zero-field Perron root above 1 + slack.

    The zero-field kernel M = W k0(T) is a positive matrix, so for a
    positive u the Collatz-Wielandt ratio min_i (M u)_i / u_i is at most
    rho(M).  One product settles the question wherever the ratio clears the
    slack; a start with a zero component proves nothing.
    """
    if not np.all(u > 0.0):
        return False
    return float(np.min(op.kernel_action(u, T) / u)) > 1.0 + _ZERO_PHASE_SLACK


def _error_bound(
    op: GapOperator, u: np.ndarray, T: float, step: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Rate bound q, the error bound on u it gives after a step, and A u.

    For a positive potential J = A'(u) is a positive matrix, and for any
    positive x the Collatz-Wielandt ratio q = max_i (J x)_i / x_i is the
    norm of J in the weighted sup norm ||v||_x = max_i |v_i| / x_i, so
    q >= rho(J).  In the linearised iteration the error after ``step`` is
    -J (I - J)^{-1} step, hence ||u - u*|| <= max(x) * q/(1-q) * ||step||_x,
    and ||(I - J)^{-1}||_x <= 1/(1-q) bounds the inverse by the same q.
    The iterate is the test vector, x = |u| (u itself for the positive
    fields the iteration produces), at one product of J.  At the fixed
    point q < 1 by structure: the kernel k falls in s = u^2, so
    J u = W (u (k + 2 s dk/ds)) < W (u k) = A u = u.  Near T_c the field
    tends to a multiple of the Perron vector of the zero-field kernel, which
    J tends to as well, so there q approaches rho(J).  The bound is infinite
    when q >= 1 or u has a zero component, and zero after a zero step,
    which leaves u a fixed point in floating point.

    The factors of W are within ``op.error`` * w_j of the dense W, and
    ``error`` is below one rounding unit of U by construction, so the bound
    holds for the dense Nystrom operator up to rounding.
    """
    x = np.abs(u)
    image, jac = op.linearise(u, T)
    q = float(np.max(op.jacobian_action(jac, x) / x)) if np.all(x > 0.0) else np.inf
    if not np.any(step):
        return q, 0.0, image
    if q >= 1.0:
        return q, np.inf, image
    return q, q / (1.0 - q) * float(np.max(x)) * float(np.max(np.abs(step) / x)), image


def _start(
    T: float, op: GapOperator, params: PhysicalParams, initial: np.ndarray | None
) -> np.ndarray:
    """A copy of ``initial``, or the upper envelope at T when it is None;
    a temperature that is not positive is refused."""
    if not T > 0.0:
        raise ValueError(f"temperature must be positive, got T = {T!r}")
    if initial is None:
        return np.full(op.grid.size, solve_delta(params.u_upper, T, params))
    u = np.asarray(initial, dtype=float).copy()
    if u.shape != op.grid.nodes.shape:
        raise ValueError("initial field does not match the grid")
    if not (u.min() >= 0.0 and 0.0 < u.max() < np.inf):  # false for a nan too
        raise ValueError("initial field must be finite, nonnegative and positive somewhere")
    return u


def newton_seed(
    T: float,
    op: GapOperator,
    params: PhysicalParams,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Newton iterate for F(u) = u - A u, to start ``picard_solve`` from.

    Each step takes A u and the diagonal d = d(u k(u^2))/du of A'(u) from
    one ``GapOperator.linearise`` call and solves (I - A'(u)) delta = A u - u
    by GMRES, which needs only the products A'(u) v = W (d * v), through
    the factors of W.  Starts from ``initial``, or from the upper
    envelope when it is None.  Stops once the residual ||A u - u|| is at
    its rounding floor, 8 eps max|u|; once it fails to halve (if Newton
    stops converging fast); or after 100 operator applications.
    Returns the iterate with the smallest residual and the number of
    operator applications made.

    The result comes with no bound: ``picard_solve`` started from it is what
    proves ||u - u*|| <= tol.
    """
    u = _start(T, op, params, initial)
    best, best_residual = u, np.inf
    previous = np.inf
    floor = _NEWTON_FLOOR_ULPS * np.finfo(float).eps
    for n in range(1, _NEWTON_MAX_STEPS + 1):
        au, jac = op.linearise(u, T)
        step = au - u
        residual = float(np.max(np.abs(step)))
        if residual < best_residual:
            best, best_residual = u, residual
        # also true for a non-finite residual
        at_floor = residual <= floor * float(np.max(np.abs(u)))
        if at_floor or not residual < 0.5 * previous:
            return best, n
        previous = residual
        u = u + _gmres(lambda v: v - op.jacobian_action(jac, v), step)
    return best, _NEWTON_MAX_STEPS


def _gmres(matvec, b: np.ndarray) -> np.ndarray:
    """Solve matvec(x) = b by GMRES from x = 0, without restarts.

    Givens rotations keep the Hessenberg least-squares problem upper
    triangular as it grows, so its residual norm |g[j+1]| is known at every
    step and the solution is one back substitution at the end.  Stops when
    that residual is at most 1e-10 * ||b||, at an invariant Krylov space, or
    after 40 steps.
    """
    beta = math.sqrt(float(b @ b))
    if beta == 0.0:
        return np.zeros_like(b)
    m = min(_GMRES_MAX_DIM, b.size)
    basis = np.empty((m + 1, b.size))
    h = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    basis[0] = b / beta
    k = m
    for j in range(m):
        w = matvec(basis[j])
        for i in range(j + 1):  # modified Gram-Schmidt
            h[i, j] = w @ basis[i]
            w -= h[i, j] * basis[i]
        h_next = math.sqrt(float(w @ w))
        for i in range(j):
            h[i, j], h[i + 1, j] = (
                cs[i] * h[i, j] + sn[i] * h[i + 1, j],
                cs[i] * h[i + 1, j] - sn[i] * h[i, j],
            )
        r = math.hypot(h[j, j], h_next)
        cs[j], sn[j] = h[j, j] / r, h_next / r
        h[j, j] = r
        g[j + 1] = -sn[j] * g[j]
        g[j] *= cs[j]
        if abs(g[j + 1]) <= _GMRES_RTOL * beta or h_next == 0.0:
            k = j + 1
            break
        basis[j + 1] = w / h_next
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - h[i, i + 1:k] @ y[i + 1:k]) / h[i, i]
    return y @ basis[:k]


def solve_surface(
    op: GapOperator,
    params: PhysicalParams,
    t_resolution: int = 24,
    tol: float = 1e-11,
    *,
    span_decades: float = 2.2,
    max_iter: int = 2_000_000,
) -> GapSurface:
    """Solve the gap equation on a clustered temperature lattice [tau1, T_c].

    T_c is ``spectral_tc``'s and tau1 = ``tau_root(params.u_lower)``.  Temperature
    nodes approach T_c geometrically (spacing proportional to T_c - T over
    ``span_decades`` decades) so that downstream extrapolation can resolve
    the sqrt(T_c - T) shrinkage of the gap; the exact zero row at T_c is
    appended.  The gap operator, and with it the factors of the weighted
    potential matrix, is shared by every stage.  A span so deep that the
    nodes are no longer strictly increasing below T_c in floating point is
    refused before any node is solved, naming the span.  Each node
    is seeded by ``newton_seed`` from the previous node's row times
    sqrt((T_c - T) / (T_c - T_prev)), a factor in (0, 1) that moves the row
    onto the sqrt(T_c - T) shrinkage of the gap (from the upper envelope at
    the first node), and certified by ``picard_solve`` from that seed; if
    the seed is not finite and positive, ``picard_solve`` starts from the
    upper envelope instead.  A zero row below T_c (a node inside the
    zero-phase slack) raises ``ValueError`` naming T, T_c - T and the span.
    ``max_iter`` bounds the Picard steps per node; Newton stops on its own.
    Each node's ``SolveTrace`` records the Collatz-Wielandt rate
    bound its stop was accepted on; the contraction constant reported with
    the thermodynamics comes from ``thermo.build_thermo_report``.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    unit_offsets = lattice_offsets(t_resolution, span_decades)
    t_c = spectral_tc(op, params)

    # spectral_tc's bracket opens at tau1's proven lower edge, so a potential
    # at its lower band edge can put T_c at or below tau1
    tau = tau_root(params.u_lower, params)
    if not tau < t_c:
        raise ValueError(f"lower temperature {tau!r} must be below T_c = {t_c!r}")

    t_nodes = t_c - (t_c - tau) * unit_offsets  # increasing toward T_c
    collapsed = (np.diff(t_nodes, prepend=-np.inf) <= 0.0) | (t_nodes >= t_c)
    if collapsed.any():
        i = int(np.argmax(collapsed))
        raise ValueError(
            f"solver.span_decades = {span_decades!r} collapses the lattice onto T_c: "
            f"node {i}, at T_c - T = {t_c - float(t_nodes[i]):.3e}, is not strictly "
            "between the node before it and T_c; lower solver.span_decades"
        )

    rows: list[np.ndarray] = []
    traces: list[SolveTrace] = []
    for i, T in enumerate(t_nodes):
        T = float(T)
        # the gap shrinks like sqrt(T_c - T): scale the cooler row onto it
        start = (
            rows[-1] * math.sqrt((t_c - T) / (t_c - float(t_nodes[i - 1])))
            if rows else None
        )
        seed, steps = newton_seed(T, op, params, initial=start)
        if not (np.all(np.isfinite(seed)) and np.all(seed > 0.0)):
            seed = None
        u, trace = picard_solve(T, op, params, tol=tol, max_iter=max_iter, initial=seed)
        if not u.values.any():
            raise ValueError(
                f"the row at T = {T!r}, T_c - T = {t_c - T:.3e}, came back zero below T_c "
                f"(zero-phase slack); lower solver.span_decades (now {span_decades!r})"
            )
        rows.append(u.values)
        traces.append(replace(trace, newton_steps=steps))

    values = np.vstack(rows + [np.zeros(op.grid.size)])
    t_all = np.append(t_nodes, t_c)
    surface = GapSurface(op=op, t_nodes=t_all, values=values, t_c=t_c, traces=traces)
    _validate_surface(surface, params, tol)
    return surface


def lattice_offsets(t_resolution: int, span_decades: float) -> np.ndarray:
    """Offsets T_c - T of ``solve_surface``'s nodes over T_c - tau: from 1
    down by ``span_decades`` decades in ``t_resolution`` geometric steps."""
    if t_resolution < 2:
        raise ValueError("need at least 2 temperature nodes")
    if not span_decades > 0.0:
        raise ValueError(f"span_decades must be positive, got {span_decades!r}")
    ratio = 10.0 ** (-span_decades / (t_resolution - 1))
    return ratio ** np.arange(t_resolution)


def _validate_surface(surface: GapSurface, params: PhysicalParams, tol: float) -> None:
    """Abort with the offending (T, x) pair on any invariant violation.

    The rows below T_c must fall with T and stay below the upper envelope
    Delta2(T); the zero row at T_c is appended, not solved.  The lower
    envelope Delta1 is 0 from tau1, the first node, on, and ``GapField``
    refuses negative values.
    """
    vals = surface.values
    # monotone non-increasing in T for each x, up to twice the solve tolerance
    rising = vals[1:] > vals[:-1] + 2.0 * tol
    if np.any(rising):
        i, j = np.argwhere(rising)[0]
        raise RuntimeError(
            f"monotonicity violated at T={float(surface.t_nodes[i + 1])!r}, "
            f"x={float(surface.op.grid.nodes[j])!r}"
        )
    envelope_tol = 1e-9 + 2.0 * tol
    t_solved = surface.t_nodes[:-1]
    d2 = solve_delta_many(params.u_upper, t_solved, params)
    rows = vals[:-1]
    above = rows > d2[:, None] + envelope_tol
    if np.any(above):
        i, j = np.argwhere(above)[0]
        raise RuntimeError(
            f"envelope violated at T={float(t_solved[i])!r}, "
            f"x={float(surface.op.grid.nodes[j])!r}: u={float(rows[i, j])!r} outside "
            f"the upper envelope Delta2={float(d2[i])!r}"
        )
