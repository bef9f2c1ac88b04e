"""Fixed-point iteration to the gap-equation solution and assembly of the
gap surface on [tau, T_c] x [epsilon, hbar_omega_d], including T_c itself.

A surface node is solved in two stages.  ``newton_seed`` runs Newton on
F(u) = u - A u from the previous, cooler node's row (from the upper
envelope at the first node), solving each linear system by matrix-free
GMRES; it converges in a handful of steps where the Picard iteration
contracts at a rate approaching one.  ``picard_solve``, the paper's
iteration, then starts from that seed, and its stop certifies the row.

``picard_solve`` starts from the upper envelope unless given a start, and
stops through an a-posteriori bound: if the iteration contracts at rate
rho, then ||u_n - u*|| <= rho/(1-rho) * ||u_n - u_{n-1}||.  Near T_c the
true rate approaches one like 1 - O(T_c - T), so neither a fixed constant
nor the observed ratio of successive differences will do as rho: the
observed ratio approaches the local rate from below and lags it, and a
stop taken on it alone misses tol (by 56% at 2.5e-5 below T_c on the
default grid).  The stop therefore uses the Collatz-Wielandt bound
q >= rho(A'(u)) of the linearised operator at the current iterate (see
``_error_bound``), which costs two matrix-vector products per check.  A
screen rate decides when a check is worth making: it starts at 0.5 and
rises only to the q of a refused check, never to an observed ratio, which
at rounding-level steps is noise near one and would suppress every check.

Every function here takes either a potential or a ``GapOperator`` already
built on the grid (see ``gap_operator.as_operator``); ``solve_surface``
builds the operator once and hands it to T_c location and to every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gap_operator import (
    GapField,
    GapOperator,
    as_operator,
    jacobian_diagonal,
    spectral_radius,
    spectral_tc,
)
from .model import EnergyGrid, PhysicalParams, PotentialSpec
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
# successive differences SolveTrace.asymptotic_ratio looks back over
_RATIO_WINDOW = 10
# GMRES stop: relative residual, and Krylov dimension (no restarts)
_GMRES_RTOL = 1e-10
_GMRES_MAX_DIM = 40


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last ratio of successive
    differences (0.0 with fewer than two) for diagnosis."""

    def __init__(self, message: str, observed_ratio: float):
        super().__init__(message)
        self.observed_ratio = observed_ratio


@dataclass(frozen=True)
class SolveTrace:
    """Successive sup-norm differences of one fixed-point solve.

    ``iterations`` counts Picard operator applications.  ``rate`` is the
    Collatz-Wielandt bound q >= rho(A'(u)) checked at the accepted stop
    (for the zero field at or above the transition, the zero-field Perron
    root).  ``newton_steps`` counts the operator applications of the Newton
    seed that ``solve_surface`` ran before the Picard iteration.
    """

    iterates: np.ndarray
    final_residual: float
    iterations: int
    rate: float
    newton_steps: int = 0

    def asymptotic_ratio(self) -> float:
        """Largest ratio of successive differences over the last 10 steps."""
        d = self.iterates
        if d.size < 2:
            return 0.0
        tail = d[-(_RATIO_WINDOW + 1):]
        ratios = tail[1:] / np.maximum(tail[:-1], 1e-300)
        return float(np.max(ratios))


@dataclass(frozen=True)
class GapSurface:
    """Solution values on a temperature x energy lattice, plus T_c."""

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    values: np.ndarray  # shape (len(t_nodes), len(x_nodes))
    t_c: float
    traces: list[SolveTrace] = field(repr=False, default_factory=list)

    @property
    def tau(self) -> float:
        return float(self.t_nodes[0])

    def row(self, i: int) -> GapField:
        return GapField(temperature=float(self.t_nodes[i]), values=self.values[i])


def picard_solve(
    T: float,
    potential: PotentialSpec | GapOperator,
    params: PhysicalParams,
    grid: EnergyGrid,
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
    envelope and is returned directly.

    ``initial`` overrides the upper-envelope start, e.g. for uniqueness
    probes from the lower envelope.  Note the zero field is always a fixed
    point, so a probe start must be positive somewhere.
    """
    op = as_operator(potential, grid)
    radius = spectral_radius(T, op, grid).radius
    if radius <= 1.0 + _ZERO_PHASE_SLACK:
        zero = np.zeros(grid.size)
        return (
            GapField(temperature=T, values=zero),
            SolveTrace(
                iterates=np.array([]), final_residual=0.0, iterations=0, rate=radius
            ),
        )

    u = _start(T, params, grid, initial)
    diffs: list[float] = []
    rho = _SCREEN_FLOOR
    for n in range(1, max_iter + 1):
        au = op.apply(u, T)
        step = au - u
        diff = float(np.max(np.abs(step)))
        diffs.append(diff)
        u = au
        if diff <= tol * (1.0 - rho) / rho:
            q, bound = _error_bound(op, u, T, step)
            if bound > tol:
                # q >= 1 means no contraction is proven here yet; keep the
                # screen rate and check again at the next screened step
                if q < 1.0:
                    rho = max(rho, q)
                continue
            residual = float(np.max(np.abs(op.apply(u, T) - u)))
            return (
                GapField(temperature=T, values=u),
                SolveTrace(
                    iterates=np.array(diffs),
                    final_residual=residual,
                    iterations=n,
                    rate=q,
                ),
            )
    ratio = diffs[-1] / diffs[-2] if len(diffs) >= 2 and diffs[-2] > 0.0 else 0.0
    raise ConvergenceError(
        f"no convergence at T={T!r} after {max_iter} iterations "
        f"(observed ratio {ratio:.6f})",
        observed_ratio=ratio,
    )


def _error_bound(
    op: GapOperator, u: np.ndarray, T: float, step: np.ndarray
) -> tuple[float, float]:
    """Rate bound q and the error bound on u that it gives, after a step.

    For a positive potential J = A'(u) is a positive matrix, and for any
    positive x the Collatz-Wielandt ratio q = max_i (J x)_i / x_i is the
    norm of J in the weighted sup norm ||v||_x = max_i |v_i| / x_i, so
    q >= rho(J).  In the linearised iteration the error after ``step`` is
    -J (I - J)^{-1} step, hence ||u - u*|| <= max(x) * q/(1-q) * ||step||_x.
    Taking x = J|step| instead of |step| keeps x positive where the step
    has zero or mixed-sign components, and J averages out the rounding
    noise in the step, which would otherwise inflate q by about half of
    1 - rho near T_c (Gaussian bump on the default grid: 2e-4 against
    1 - rho = 5e-4).  The bound is infinite when q >= 1, and zero after a
    zero step, which leaves u a fixed point in floating point; q is then
    taken with x = J 1, which is positive too.
    """
    size = np.abs(step)
    jac = jacobian_diagonal(op.grid.nodes, u, T)
    x = op.jacobian_action(jac, size if np.any(size) else 1.0)
    q = float(np.max(op.jacobian_action(jac, x) / x))
    if not np.any(size):
        return q, 0.0
    if q >= 1.0:
        return q, np.inf
    return q, q / (1.0 - q) * float(np.max(x)) * float(np.max(size / x))


def _start(
    T: float, params: PhysicalParams, grid: EnergyGrid, initial: np.ndarray | None
) -> np.ndarray:
    """A copy of ``initial``, or the upper envelope at T when it is None."""
    if initial is None:
        return np.full(grid.size, solve_delta(params.u_upper, T, params))
    u = np.asarray(initial, dtype=float).copy()
    if u.shape != grid.nodes.shape:
        raise ValueError("initial field does not match the grid")
    return u


def newton_seed(
    T: float,
    potential: PotentialSpec | GapOperator,
    params: PhysicalParams,
    grid: EnergyGrid,
    max_iter: int = 100,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Newton iterate for F(u) = u - A u, to start ``picard_solve`` from.

    Each step applies the operator once and solves (I - A'(u)) delta =
    A u - u by GMRES, which needs only the products A'(u) v = W (d * v) with
    d = ``jacobian_diagonal``; no matrix besides W is formed.  Starts from
    ``initial``, or from the upper envelope when it is None.  Stops once the
    residual ||A u - u|| fails to halve, which happens at its rounding floor
    (or if Newton stops converging fast), or after ``max_iter`` operator
    applications.  Returns the iterate with the smallest residual and the
    number of operator applications made.

    The result comes with no bound: ``picard_solve`` started from it is what
    proves ||u - u*|| <= tol.
    """
    op = as_operator(potential, grid)
    u = _start(T, params, grid, initial)
    best, best_residual = u, np.inf
    previous = np.inf
    for n in range(1, max_iter + 1):
        step = op.apply(u, T) - u
        residual = float(np.max(np.abs(step)))
        if residual < best_residual:
            best, best_residual = u, residual
        # also true for a non-finite residual
        if not residual < 0.5 * previous or residual == 0.0:
            return best, n
        previous = residual
        jac = jacobian_diagonal(grid.nodes, u, T)
        u = u + _gmres(lambda v: v - op.jacobian_action(jac, v), step)
    return best, max_iter


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
    potential: PotentialSpec | GapOperator,
    params: PhysicalParams,
    grid: EnergyGrid,
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
    appended.  The gap operator, and with it the weighted potential matrix,
    is built once and shared by every stage.  Each node is seeded by
    ``newton_seed`` from the previous node's row and certified by
    ``picard_solve`` from that seed; if the seed is not finite and positive,
    ``picard_solve`` starts from the upper envelope instead.
    ``max_iter`` bounds the operator applications of both stages together,
    per node.  Each node's ``SolveTrace`` records the Collatz-Wielandt rate
    bound its stop was accepted on; the contraction constant reported with
    the thermodynamics comes from ``thermo.build_thermo_report``.
    """
    unit_offsets = lattice_offsets(t_resolution, span_decades)
    op = as_operator(potential, grid)
    t_c = spectral_tc(op, params, grid)

    # spectral_tc admits a bracket edge within 1e-12 of radius one, so a
    # potential at its lower band edge can put T_c at or below tau1
    tau = tau_root(params.u_lower, params)
    if not tau < t_c:
        raise ValueError(f"lower temperature {tau!r} must be below T_c = {t_c!r}")

    t_nodes = t_c - (t_c - tau) * unit_offsets  # increasing toward T_c

    rows: list[np.ndarray] = []
    traces: list[SolveTrace] = []
    for T in t_nodes:
        T = float(T)
        start = rows[-1] if rows else None
        seed, steps = newton_seed(T, op, params, grid, max_iter=max_iter, initial=start)
        if not (np.all(np.isfinite(seed)) and np.all(seed > 0.0)):
            seed = None
        u, trace = picard_solve(
            T, op, params, grid, tol=tol,
            max_iter=max_iter - steps, initial=seed,
        )
        rows.append(u.values)
        traces.append(replace(trace, newton_steps=steps))

    values = np.vstack(rows + [np.zeros(grid.size)])
    t_all = np.append(t_nodes, t_c)
    surface = GapSurface(
        t_nodes=t_all, x_nodes=grid.nodes, values=values, t_c=t_c, traces=traces
    )
    _validate_surface(surface, params, tol)
    return surface


def lattice_offsets(t_resolution: int, span_decades: float) -> np.ndarray:
    """Offsets T_c - T of ``solve_surface``'s nodes over T_c - tau: from 1
    down by ``span_decades`` decades in ``t_resolution`` geometric steps."""
    if t_resolution < 2:
        raise ValueError("need at least 2 temperature nodes")
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
            f"x={float(surface.x_nodes[j])!r}"
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
            f"x={float(surface.x_nodes[j])!r}: u={float(rows[i, j])!r} outside "
            f"the upper envelope Delta2={float(d2[i])!r}"
        )
