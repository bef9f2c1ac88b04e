"""The nonlinear gap operator on the collocation grid, its linearisations,
and the Perron root used to locate the transition temperature.

The operator acts on per-temperature fields

    (A u)(x_i) = sum_j w_j U(x_i, xi_j) u_j gap_kernel(xi_j, u_j^2, T)

which is the quadrature discretisation of the gap-equation right side with
collocation at the quadrature nodes.

A ``GapOperator`` is built once per (potential, grid).  It holds the
temperature-independent W = U(x_i, xi_j) w_j as factors L R (n x r and
r x n) of a degenerate kernel U(x, xi) = sum_k l_k(x) U(c_k, xi)
(Atkinson, "The Numerical Solution of Integral Equations of the Second
Kind", 1997, ch. 2): r = 1 for a constant; the hat functions of a table's
x-nodes, exact since bilinear interpolation is linear in x; and for a
Gaussian bump the barycentric interpolant on Chebyshev points of the
second kind, of the smallest degree whose bound from Trefethen, "Approx.
Theory and Approx. Practice" (2013), Thm 8.2, times |amplitude| is below
one rounding unit of U.  That bound is the operator's ``error``:
|W_ij - (L R)_ij| <= error * w_j in exact arithmetic.  A product L (R v)
costs 2 n r against the n^2 of W v, so where 2 r would reach n the
operator holds W itself (``left`` is None).

Every product with W goes through ``GapOperator.matvec`` and ``rmatvec``:
the operator, its Jacobian action J v = W (d * v), the zero-field kernel
action W (k0(T) * x) and the power iterations for the Perron pair of
M = W diag(k0(T)).  k, d and k's partials come from ``kernel_jet`` on the
grid's ``xi2``, A u and d from one call (``linearise``).  ``apply_A``,
``apply_values`` and ``weighted_potential_matrix`` form the dense W from
a potential and a grid, the reference for the operator.
Every other function takes the operator alone and reads the grid from it.

T_c is where the zero-field Perron root rho(T) of M = W diag(k0(T)) is
one.  ``radius_crossing_temperature`` locates and encloses it with
``simple_gap._enclose``, in T on f(T) = rho(T) - 1, which falls as k0
does, by Newton's method with the slope

    rho'(T) = <psi, W (dk0/dT * phi)> / <psi, phi>,

dk0/dT the "T" partial of ``kernel_jet`` at s = 0, from the right and
left Perron vectors phi and psi (U need not be symmetric); one such call
per Newton point gives both Perron solves k0 too.  It proves the
window's edges on Collatz-Wielandt bounds: min r <= rho <= max r for
r = (M phi)/phi and any positive phi.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .model import (
    ConstantPotential,
    GaussianBumpPotential,
    PhysicalParams,
    PotentialSpec,
    _cells,
    potential_matrix,
)
from .quadrature import EnergyGrid, kernel_jet
from .simple_gap import _enclose, _tau_window

__all__ = [
    "GapField",
    "GapOperator",
    "PerronRoot",
    "as_operator",
    "weighted_potential_matrix",
    "apply_A",
    "apply_values",
    "spectral_radius",
    "radius_crossing_temperature",
    "spectral_tc",
]

# power iteration stop: successive Rayleigh quotients within _PERRON_TOL,
# or failure after _PERRON_MAX_ITER products
_PERRON_TOL = 1e-13
_PERRON_MAX_ITER = 50_000
# Bernstein-ellipse parameters rho - 1 over which the Chebyshev tail bound
# is minimised: any rho > 1 gives a valid bound, the grid only tightens it
_ELLIPSE_OFFSETS = (1e-3, 1e3, 400)
# roundings of one ratio r_i beyond its sums and L's entries (see _ratio_bound)
_RATIO_ROUNDINGS = 16


class GapField(Record):
    """Finite, nonnegative gap values on the grid nodes at one temperature."""

    temperature: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("gap field values must be finite")
        if np.any(self.values < 0):
            raise ValueError("gap field values must be nonnegative")


class PerronRoot(Record):
    """Dominant eigenvalue of a positive kernel with its positive eigenvector."""

    radius: float
    eigenvector: np.ndarray
    iterations: int


def weighted_potential_matrix(potential: PotentialSpec, grid: EnergyGrid) -> np.ndarray:
    """U(x_i, xi_j) * w_j, the temperature-independent part of the operator:
    the dense W, formed afresh."""
    return potential_matrix(potential, grid.nodes, grid.nodes) * grid.weights[None, :]


def apply_values(
    weighted: np.ndarray, xi: np.ndarray, values: np.ndarray, T: float
) -> np.ndarray:
    """Apply the operator given the dense weighted potential matrix W.

    One kernel evaluation plus one dense matrix-vector product: the
    reference that ``apply_A`` uses.
    """
    return weighted @ (values * kernel_jet(xi * xi, values * values, T)[0])


def _zero_field_kernel(xi2: np.ndarray, T: float) -> np.ndarray:
    if not T > 0:
        raise ValueError("temperature must be positive")
    return kernel_jet(xi2, 0.0, T)[0]


class GapOperator(Record, eq=False):
    """The gap operator of one potential on one grid, with W built once.

    Build it with ``as_operator``.  ``left`` (n x r) and ``right`` (r x n,
    weights folded in) multiply to W within ``error`` * w_j (see the module
    docstring); where ``left`` is None, ``right`` is W itself.  Every method
    works with ``matvec``, ``rmatvec`` and vectors only.
    """

    potential: PotentialSpec
    grid: EnergyGrid
    left: np.ndarray | None
    right: np.ndarray
    error: float

    @property
    def rank(self) -> int:
        """r, the inner dimension of the factors (n where W is held)."""
        return self.right.shape[0]

    def matvec(self, v) -> np.ndarray:
        """W v, as L (R v) through the factors."""
        if self.left is None:
            return self.right @ v
        return self.left @ (self.right @ v)

    def rmatvec(self, v) -> np.ndarray:
        """v^T W, as (v^T L) R through the factors."""
        if self.left is None:
            return v @ self.right
        return (v @ self.left) @ self.right

    def apply(self, values: np.ndarray, T: float) -> np.ndarray:
        """(A u) at temperature T for the field values u."""
        return self.matvec(values * kernel_jet(self.grid.xi2, values * values, T)[0])

    def linearise(self, values: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
        """(A u, d), A'(u) = W diag(d), d = d(u k(u^2))/du: one kernel call."""
        k, d = kernel_jet(self.grid.xi2, values * values, T, "u")
        return self.matvec(values * k), d

    def jacobian_action(self, diagonal: np.ndarray, v) -> np.ndarray:
        """J v = W (d * v), with d the diagonal ``linearise`` gives at a field."""
        return self.matvec(diagonal * v)

    def kernel_action(self, x: np.ndarray, T: float) -> np.ndarray:
        """W (k0(T) * x): the zero-field linearisation applied to x."""
        return self.matvec(_zero_field_kernel(self.grid.xi2, T) * x)

    def radius_and_slope(
        self, jet: tuple[np.ndarray, np.ndarray], right: np.ndarray, left: np.ndarray
    ) -> tuple[float, float]:
        """rho(T) and rho'(T) from the right and left Perron vectors at T,
        given jet = (k0, dk0/dT) = ``kernel_jet(grid.xi2, 0.0, T, "T")``.

        rho is the two-sided Rayleigh quotient <psi, M phi>/<psi, phi>,
        whose error is second order in the vectors' errors.
        """
        k0, dk0 = jet
        norm = float(left @ right)
        rho = float(left @ self.matvec(k0 * right)) / norm
        slope = float(left @ self.jacobian_action(dk0, right)) / norm
        return rho, slope


def _factors(
    spec: PotentialSpec, grid: EnergyGrid
) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(L, R, error): R holds U at r points c_k times the weights, and row i
    of L interpolates U(x_i, .) from them within ``error`` (see the module
    docstring); L is None and R = W where 2 r would reach n."""
    x = grid.nodes
    left, centres, error = None, x, 0.0
    if isinstance(spec, ConstantPotential):
        left, centres = np.ones((x.size, 1)), x[:1]
    elif isinstance(spec, GaussianBumpPotential):
        half = 0.5 * (x[-1] - x[0])
        degree, error = _chebyshev_degree(spec, half)
        # the Collatz-Wielandt bounds need L R >= 0, which error < min U gives
        if 2 * (degree + 1) < x.size and error < spec.base + min(spec.amplitude, 0.0):
            angles = np.pi * np.arange(degree + 1) / degree
            centres = x[0] + half * (1.0 - np.cos(angles))
            left = _barycentric(centres, x)
    else:  # a table is linear in x between its x-nodes: their hat functions
        nodes, rows = spec.x_nodes, np.arange(x.size)
        i, t = _cells(nodes, x)
        hats = np.zeros((x.size, nodes.size))
        hats[rows, i], hats[rows, i + 1] = 1.0 - t, t
        used = np.any(hats != 0.0, axis=0)
        if 2 * np.count_nonzero(used) < x.size:
            left, centres = hats[:, used], nodes[used]
    if left is None:
        centres, error = x, 0.0
    return left, potential_matrix(spec, centres, x) * grid.weights[None, :], error


def _chebyshev_degree(spec: GaussianBumpPotential, half: float) -> tuple[int, float]:
    """Smallest degree whose ``_log_tail`` bound times |amplitude| is below
    one rounding unit of U, and that product."""
    log_rho, log_tail = _log_tail(half, spec.width)
    amplitude = abs(spec.amplitude)
    degree = 1
    if amplitude > 0.0:
        target = np.finfo(float).eps * (abs(spec.base) + amplitude)
        # the smallest m with log_tail - m log_rho < log(target / amplitude)
        need = np.floor((log_tail - np.log(target / amplitude)) / log_rho)
        degree = int(max(np.min(need) + 1.0, 1.0))
    return degree, amplitude * float(np.exp(np.min(log_tail - degree * log_rho)))


def _log_tail(half: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """(log rho, log(4 M(rho) / (rho - 1))) on a grid of rho > 1: the
    degree-m Chebyshev interpolant in x of exp(-(x - xi)^2 / (2 width^2)),
    on an interval of half-length ``half``, is within
    exp(min(log_tail - m log rho)) for every xi (ATAP Thm 8.2), since the
    function is entire and |Im x| <= half (rho - 1/rho) / 2 bounds it by
    M(rho) = exp(half^2 (rho - 1/rho)^2 / (8 width^2)) on the ellipse E_rho.
    """
    rho = 1.0 + np.geomspace(*_ELLIPSE_OFFSETS)
    log_tail = np.log(4.0 / (rho - 1.0)) + (half * (rho - 1.0 / rho) / width) ** 2 / 8.0
    return np.log(rho), log_tail


def _barycentric(centres: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L_ik = l_k(x_i) for the Lagrange basis on Chebyshev points of the
    second kind: barycentric weights (-1)^k, halved at the ends, and a unit
    row where x_i is one of the points."""
    beta = np.where(np.arange(centres.size) % 2 == 0, 1.0, -1.0)
    beta[[0, -1]] *= 0.5
    offsets = x[:, None] - centres[None, :]
    hits = offsets == 0.0
    offsets[hits] = 1.0
    terms = beta / offsets
    on_point = np.any(hits, axis=1)
    terms[on_point] = hits[on_point]
    return terms / terms.sum(axis=1, keepdims=True)


def as_operator(potential: PotentialSpec, grid: EnergyGrid) -> GapOperator:
    """The gap operator of ``potential`` on ``grid``, with the factors of W
    built once."""
    return GapOperator(potential, grid, *_factors(potential, grid))


def apply_A(u: GapField, potential: PotentialSpec, grid: EnergyGrid) -> GapField:
    """Apply the gap operator to a nonnegative field at its temperature,
    through the dense W: the reference for ``GapOperator.apply``."""
    if u.values.shape != grid.nodes.shape:
        raise ValueError(
            f"field length {u.values.shape} does not match grid {grid.nodes.shape}"
        )
    weighted = weighted_potential_matrix(potential, grid)
    out = apply_values(weighted, grid.nodes, u.values, u.temperature)
    return GapField(temperature=u.temperature, values=out)


def spectral_radius(
    T: float,
    op: GapOperator,
    *,
    start: np.ndarray | None = None,
    left: bool = False,
    k0: np.ndarray | None = None,
) -> PerronRoot:
    """Perron root of the zero-field kernel M = W diag(k0(T)) with its right
    vector (M phi = rho phi) or, with ``left``, its left vector
    (psi^T M = rho psi^T), by power iteration from ``start`` or the
    constant-one field: the dominant eigenvector of a positive kernel is
    positive, so no deflation is needed.  Converged when successive
    Rayleigh quotients differ by at most 1e-13.  ``k0``: k0(T), if known.
    """
    k0 = _zero_field_kernel(op.grid.xi2, T) if k0 is None else k0
    x = np.ones(op.grid.size) if start is None else start
    lam = 0.0
    for n in range(1, _PERRON_MAX_ITER + 1):
        y = k0 * op.rmatvec(x) if left else op.matvec(k0 * x)
        lam_new = float(x @ y) / float(x @ x)
        x = y / np.max(np.abs(y))
        if abs(lam_new - lam) <= _PERRON_TOL:
            return PerronRoot(radius=lam_new, eigenvector=x, iterations=n)
        lam = lam_new
    raise RuntimeError(
        f"power iteration did not converge in {_PERRON_MAX_ITER} iterations "
        f"(last Rayleigh delta {abs(lam_new - lam):.3e})"
    )


def radius_crossing_temperature(
    op: GapOperator, lo: float, hi: float
) -> tuple[float, float, float]:
    """(T_c, lo_w, hi_w): rho's unit crossing in [lo, hi], from hi (see the
    module docstring).  Newton's point costs a right and a left Perron solve,
    each warm-started; any other is answered by the side of rho - 1 the last
    right vector's ratios prove, or 0, within ``_ratio_bound``'s E.  An end
    not finite and positive, or a side proving nothing, is refused."""
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"bracket invalid: [{lo!r}, {hi!r}] is not a finite positive bracket")
    phi = psi = None

    def evaluate(rows, temperatures, slopes):
        nonlocal phi, psi
        f, df = [], []
        for j, T in enumerate(temperatures):
            if j < slopes:
                jet = kernel_jet(op.grid.xi2, 0.0, T, "T")
                phi = spectral_radius(T, op, start=phi, k0=jet[0]).eigenvector
                psi = spectral_radius(T, op, start=psi, left=True, k0=jet[0]).eigenvector
                rho, slope = op.radius_and_slope(jet, phi, psi)
                f.append(rho - 1.0)
                df.append(slope)
            else:
                ratios = op.kernel_action(phi, T) / phi
                low, high = float(ratios.min()) - 1.0, float(ratios.max()) - 1.0
                f.append(low if low > 0.0 else high if high < 0.0 else 0.0)
        return f, df

    ((t_c, lo_w, hi_w),) = _enclose([hi], [(lo, hi)], [_ratio_bound(op)], evaluate)
    if math.isinf(hi_w - lo_w):
        raise ValueError(
            f"bracket invalid: no window about {t_c!r} is proven inside [{lo!r}, {hi!r}]; "
            "the potential must lie strictly inside its coupling band"
        )
    return t_c, lo_w, hi_w


def _ratio_bound(op: GapOperator) -> float:
    """E >= |computed - exact| / exact for every r = (M phi)/phi, at any T
    and positive phi, M = W diag(k0(T)) with W the dense Nystrom matrix: a
    computed min r - 1 > 2E proves rho > 1, and max r - 1 < -2E rho < 1.

    M phi is computed as L (R v), v = k0 phi.  Its sums, of n and r terms,
    and L's entries, each a term over a sum of condition number
    Lambda_i = sum_k |L_ik|, err by (n + r + (r + 3) Lambda) eps
    (|L| |R| v)_i (Higham, 2nd ed., 3.1; n alone where W is held); k0, v,
    R and the divide by phi_i by _RATIO_ROUNDINGS eps more; the factors by
    error (w . v).  R/w holds U at the centres, whose extremes bound every
    W_ij/w_j (a hat row interpolates; a bump's lie at offsets 0 and
    x_n - x_1, which the end centres reach), so
    (|L| |R| v)_i <= Lambda max(R/w) (W v)_i / min(R/w).
    """
    u = op.right / op.grid.weights
    if not u.min() > 0.0:
        return math.inf
    terms, lebesgue = op.grid.size + _RATIO_ROUNDINGS, 1.0
    if op.left is not None:
        lebesgue = float(np.abs(op.left).sum(axis=1).max())
        terms += op.rank + (op.rank + 3) * lebesgue
    return float((terms * np.finfo(float).eps * lebesgue * u.max() + op.error) / u.min())


def spectral_tc(op: GapOperator, params: PhysicalParams) -> float:
    """T_c, the point of ``radius_crossing_temperature``'s window in the
    bracket [tau_lo(U1), tau_hi(U2)] that ``simple_gap`` proves."""
    lo, hi = _tau_window(params.u_lower, params)[1], _tau_window(params.u_upper, params)[2]
    return radius_crossing_temperature(op, lo, hi)[0]
