"""The nonlinear gap operator on the collocation grid, its linearisations,
and the Perron root used to locate the transition temperature.

The operator acts on per-temperature fields

    (A u)(x_i) = sum_j w_j U(x_i, xi_j) u_j gap_kernel(xi_j, u_j^2, T)

which is the quadrature discretisation of the gap-equation right side with
collocation at the quadrature nodes.

A ``GapOperator`` is built once per (potential, grid): it holds the
temperature-independent matrix W = U(x_i, xi_j) w_j and applies, at any
temperature, the operator, its Jacobian action J v = W (d * v) and the
zero-field kernel action W (k0(T) * x), and finds the right and left Perron
vectors of that kernel.  Every other temperature-dependent factor is a
vector, so no n x n array besides W is formed.  The public functions take
either a potential, and build the operator through ``as_operator``, or an
operator already built on the same grid.

The transition temperature is where the zero-field Perron root rho(T) is
one.  ``radius_crossing_temperature`` finds it by Newton's method on
rho(T) = 1, with the slope

    rho'(T) = <psi, W (dk0/dT * phi)> / <psi, phi>,
    dk0/dT = -sech^2(xi/2T) / (2 T^2),

from the right and left Perron vectors phi and psi (the potential need
not be symmetric, so psi is its own power iteration).  Each step keeps the
iterate inside the bracket that the computed signs of rho - 1 prove, and
one that would leave it takes the midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EnergyGrid, PhysicalParams, PotentialSpec, potential_matrix
from .quadrature import gap_kernel, sech
from .simple_gap import solve_delta, tau_root

__all__ = [
    "GapField",
    "GapOperator",
    "KernelMatrix",
    "PerronRoot",
    "as_operator",
    "weighted_potential_matrix",
    "apply_A",
    "apply_values",
    "jacobian_diagonal",
    "kernel_matrix",
    "spectral_radius",
    "radius_crossing_temperature",
    "spectral_tc",
    "sample_envelope_field",
]

# power iteration stop: successive Rayleigh quotients within _PERRON_TOL,
# or failure after _PERRON_MAX_ITER products
_PERRON_TOL = 1e-13
_PERRON_MAX_ITER = 50_000
# radius_crossing_temperature stops on a step or bracket this small, relative
_CROSSING_RTOL = 1e-13
# sine modes in a sample_envelope_field profile
_ENVELOPE_MODES = 4


@dataclass(frozen=True)
class GapField:
    """Nonnegative gap values on the grid nodes at one temperature."""

    temperature: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if np.any(self.values < 0):
            raise ValueError("gap field values must be nonnegative")

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class KernelMatrix:
    """Zero-field linearisation M_ij = U(x_i, xi_j) tanh(xi_j/2T)/xi_j * w_j."""

    temperature: float
    entries: np.ndarray


@dataclass(frozen=True)
class PerronRoot:
    """Dominant eigenvalue of a positive kernel with its positive eigenvector."""

    radius: float
    eigenvector: np.ndarray
    iterations: int


def weighted_potential_matrix(spec: PotentialSpec, grid: EnergyGrid) -> np.ndarray:
    """U(x_i, xi_j) * w_j, the temperature-independent part of the operator."""
    return potential_matrix(spec, grid.nodes, grid.nodes) * grid.weights[None, :]


def apply_values(
    weighted: np.ndarray, xi: np.ndarray, values: np.ndarray, T: float
) -> np.ndarray:
    """Apply the operator given the precomputed weighted potential matrix.

    Hot path of the fixed-point iteration: one kernel evaluation plus one
    dense matrix-vector product.
    """
    return weighted @ (values * gap_kernel(xi, values * values, T))


def jacobian_diagonal(xi: np.ndarray, values: np.ndarray, T: float) -> np.ndarray:
    """Derivative of u_j k(xi_j, u_j^2, T) in u_j, for T > 0.

    The linearised operator at u is A'(u) = weighted * jacobian_diagonal(u),
    column by column.  The derivative k + 2 s dk/ds (s = u^2) is evaluated
    as (xi^2 k + s sech^2(r/2T)/(2T)) / r^2 with r^2 = xi^2 + s, a sum of
    nonnegative terms: no cancellation, and positive wherever xi > 0.
    """
    s = values * values
    r2 = xi * xi + s
    sech_z = sech(np.sqrt(r2) / (2.0 * T))
    return (xi * xi * gap_kernel(xi, s, T) + s * sech_z * sech_z / (2.0 * T)) / r2


def _power_iteration(matvec, x: np.ndarray) -> PerronRoot:
    """Dominant eigenpair of a positive linear map from a positive start.

    The dominant eigenvector of a positive kernel is positive, so no
    deflation is needed.  Converged when successive Rayleigh quotients
    differ by at most 1e-13.
    """
    lam = 0.0
    for n in range(1, _PERRON_MAX_ITER + 1):
        y = matvec(x)
        lam_new = float(x @ y) / float(x @ x)
        x = y / np.max(np.abs(y))
        if abs(lam_new - lam) <= _PERRON_TOL:
            return PerronRoot(radius=lam_new, eigenvector=x, iterations=n)
        lam = lam_new
    raise RuntimeError(
        f"power iteration did not converge in {_PERRON_MAX_ITER} iterations "
        f"(last Rayleigh delta {abs(lam_new - lam):.3e})"
    )


def _zero_field_kernel(xi: np.ndarray, T: float) -> np.ndarray:
    if not T > 0:
        raise ValueError("temperature must be positive")
    return gap_kernel(xi, 0.0, T)


@dataclass(frozen=True, eq=False)
class GapOperator:
    """The gap operator of one potential on one grid, with W built once.

    Build it with ``as_operator``.  ``weighted`` is W = U(x_i, xi_j) w_j;
    every method works with W and vectors only.
    """

    potential: PotentialSpec
    grid: EnergyGrid
    weighted: np.ndarray

    def apply(self, values: np.ndarray, T: float) -> np.ndarray:
        """(A u) at temperature T for the field values u."""
        return apply_values(self.weighted, self.grid.nodes, values, T)

    def jacobian_action(self, diagonal: np.ndarray, v) -> np.ndarray:
        """J v = W (d * v), with d = ``jacobian_diagonal`` at some field."""
        return self.weighted @ (diagonal * v)

    def kernel_action(self, x: np.ndarray, T: float) -> np.ndarray:
        """W (k0(T) * x): the zero-field linearisation applied to x."""
        return self.weighted @ (_zero_field_kernel(self.grid.nodes, T) * x)

    def perron(
        self,
        T: float,
        start: np.ndarray | None = None,
        *,
        left: bool = False,
    ) -> PerronRoot:
        """Perron root of the zero-field kernel M = W diag(k0(T)) with its
        right vector (M phi = rho phi) or, with ``left``, its left vector
        (psi^T M = rho psi^T), by power iteration from ``start`` (the
        constant-one field if None)."""
        k0 = _zero_field_kernel(self.grid.nodes, T)
        w = self.weighted
        x = np.ones(self.grid.size) if start is None else start
        if left:
            return _power_iteration(lambda v: k0 * (v @ w), x)
        return _power_iteration(lambda v: w @ (k0 * v), x)

    def radius_and_slope(
        self, T: float, right: np.ndarray, left: np.ndarray
    ) -> tuple[float, float]:
        """rho(T) and rho'(T) from the right and left Perron vectors at T.

        rho is the two-sided Rayleigh quotient <psi, M phi>/<psi, phi>,
        whose error is second order in the vectors' errors.
        """
        xi = self.grid.nodes
        z = xi / (2.0 * T)
        dk0 = -sech(z) ** 2 / (2.0 * T * T)
        norm = float(left @ right)
        rho = float(left @ self.kernel_action(right, T)) / norm
        slope = float(left @ (self.weighted @ (dk0 * right))) / norm
        return rho, slope


def as_operator(potential: PotentialSpec | GapOperator, grid: EnergyGrid) -> GapOperator:
    """The gap operator of ``potential`` on ``grid``.

    A potential is turned into an operator here, which builds W once; an
    operator is passed through after checking that it was built on this
    grid.
    """
    if isinstance(potential, GapOperator):
        built_on = potential.grid
        if built_on is not grid and not (
            np.array_equal(built_on.nodes, grid.nodes)
            and np.array_equal(built_on.weights, grid.weights)
        ):
            raise ValueError("operator was built on a different grid")
        return potential
    return GapOperator(potential, grid, weighted_potential_matrix(potential, grid))


def apply_A(
    u: GapField, potential: PotentialSpec | GapOperator, grid: EnergyGrid
) -> GapField:
    """Apply the gap operator to a nonnegative field at its temperature."""
    if u.values.shape != grid.nodes.shape:
        raise ValueError(
            f"field length {u.values.shape} does not match grid {grid.nodes.shape}"
        )
    out = as_operator(potential, grid).apply(u.values, u.temperature)
    return GapField(temperature=u.temperature, values=out)


def kernel_matrix(
    T: float, potential: PotentialSpec | GapOperator, grid: EnergyGrid
) -> KernelMatrix:
    """Linearisation of the operator at zero field; strictly positive entries."""
    k0 = _zero_field_kernel(grid.nodes, T)
    entries = as_operator(potential, grid).weighted * k0[None, :]
    return KernelMatrix(temperature=T, entries=entries)


def spectral_radius(
    T: float,
    potential: PotentialSpec | GapOperator,
    grid: EnergyGrid,
    *,
    start: np.ndarray | None = None,
    left: bool = False,
) -> PerronRoot:
    """Perron root of the zero-field kernel by power iteration.

    Returns the right Perron vector, or the left one with ``left`` (see
    ``GapOperator.perron``).  Seeded with ``start``, or with the
    constant-one field: the dominant eigenvector of a positive kernel is
    positive, so no deflation is needed.  Converged when successive
    Rayleigh quotients differ by at most 1e-13.
    """
    return as_operator(potential, grid).perron(T, start, left=left)


def radius_crossing_temperature(
    potential: PotentialSpec | GapOperator,
    grid: EnergyGrid,
    lo: float,
    hi: float,
) -> float:
    """Unit crossing of the zero-field Perron root, by safeguarded Newton.

    The root decreases strictly in T (the kernel does, entrywise), so a
    bracket with radius(lo) >= 1 >= radius(hi) pins the crossing uniquely.
    Newton starts from ``hi`` with the slope of the module docstring; each
    computed sign of rho - 1 narrows the bracket, a step that would leave
    it takes the midpoint, and the Perron vectors of one step start the
    power iterations of the next.  Stops once a step is at most 1e-13 T,
    or the bracket at most 1e-13 hi.
    """
    op = as_operator(potential, grid)
    f_lo = spectral_radius(lo, op, grid).radius
    right = spectral_radius(hi, op, grid)
    f_hi = right.radius
    if not (f_lo >= 1.0 - 1e-12 and f_hi <= 1.0 + 1e-12):
        raise ValueError(
            f"bracket invalid: radius({lo!r}) = {f_lo!r}, radius({hi!r}) = {f_hi!r}; "
            "the potential must lie strictly inside its coupling band"
        )
    T, left = hi, None
    for _ in range(200):
        start = None if left is None else left.eigenvector
        left = spectral_radius(T, op, grid, start=start, left=True)
        rho, slope = op.radius_and_slope(T, right.eigenvector, left.eigenvector)
        if rho > 1.0:
            lo = T
        else:
            hi = T
        new = T - (rho - 1.0) / slope
        if abs(new - T) <= _CROSSING_RTOL * T:
            return new
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if hi - lo <= _CROSSING_RTOL * hi:
                return new
        T = new
        right = spectral_radius(T, op, grid, start=right.eigenvector)
    return 0.5 * (lo + hi)


def spectral_tc(
    potential: PotentialSpec | GapOperator, params: PhysicalParams, grid: EnergyGrid
) -> float:
    """Unit crossing of the zero-field Perron root, bracketed by the envelope
    vanishing temperatures [tau(U1), tau(U2)] and located by the Newton
    iteration of ``radius_crossing_temperature``."""
    return radius_crossing_temperature(
        potential,
        grid,
        tau_root(params.u_lower, params),
        tau_root(params.u_upper, params),
    )


def sample_envelope_field(
    T: float,
    params: PhysicalParams,
    grid: EnergyGrid,
    rng: np.random.Generator,
) -> GapField:
    """Random smooth field between the envelope curves at temperature T.

    u(x) = Delta1(T) + theta(x) * (Delta2(T) - Delta1(T)) with theta a
    smooth random profile in [0, 1], a sum of 4 sine modes.  A
    temperature-independent theta keeps families of such fields monotone in
    T because both envelopes decrease.
    """
    d1 = solve_delta(params.u_lower, T, params)
    d2 = solve_delta(params.u_upper, T, params)
    xhat = (grid.nodes - params.epsilon_cutoff) / (
        params.hbar_omega_d - params.epsilon_cutoff
    )
    amps = rng.uniform(-1.0, 1.0, _ENVELOPE_MODES)
    phases = rng.uniform(0.0, 2.0 * np.pi, _ENVELOPE_MODES)
    raw = np.zeros_like(xhat)
    for k in range(_ENVELOPE_MODES):
        raw += amps[k] * np.sin((k + 1) * np.pi * xhat + phases[k])
    lo, hi = raw.min(), raw.max()
    theta = 0.5 if hi == lo else (raw - lo) / (hi - lo)
    return GapField(temperature=T, values=d1 + theta * (d2 - d1))
