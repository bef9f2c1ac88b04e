"""The nonlinear gap operator on the collocation grid, its linearisations,
and the Perron root used to locate the transition temperature.

The operator acts on per-temperature fields

    (A u)(x_i) = sum_j w_j U(x_i, xi_j) u_j gap_kernel(xi_j, u_j^2, T)

which is the quadrature discretisation of the gap-equation right side with
collocation at the quadrature nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EnergyGrid, PhysicalParams, PotentialSpec, potential_matrix
from .quadrature import gap_kernel, sech
from .simple_gap import solve_delta, tau_root

__all__ = [
    "GapField",
    "KernelMatrix",
    "PerronRoot",
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


def apply_A(u: GapField, potential: PotentialSpec, grid: EnergyGrid) -> GapField:
    """Apply the gap operator to a nonnegative field at its temperature."""
    if u.values.shape != grid.nodes.shape:
        raise ValueError(
            f"field length {u.values.shape} does not match grid {grid.nodes.shape}"
        )
    weighted = weighted_potential_matrix(potential, grid)
    out = apply_values(weighted, grid.nodes, u.values, u.temperature)
    return GapField(temperature=u.temperature, values=out)


def kernel_matrix(T: float, potential: PotentialSpec, grid: EnergyGrid) -> KernelMatrix:
    """Linearisation of the operator at zero field; strictly positive entries."""
    if not T > 0:
        raise ValueError("temperature must be positive")
    weighted = weighted_potential_matrix(potential, grid)
    entries = weighted * gap_kernel(grid.nodes, 0.0, T)[None, :]
    return KernelMatrix(temperature=T, entries=entries)


def spectral_radius(
    T: float,
    potential: PotentialSpec,
    grid: EnergyGrid,
    *,
    tol: float = 1e-13,
    max_iter: int = 50_000,
) -> PerronRoot:
    """Perron root of the zero-field kernel by power iteration.

    Seeded with the constant-one field: the dominant eigenvector of a
    positive kernel is positive, so no deflation is needed.  Converged when
    successive Rayleigh quotients differ by at most ``tol``.
    """
    m = kernel_matrix(T, potential, grid).entries
    x = np.ones(grid.size)
    lam = 0.0
    for n in range(1, max_iter + 1):
        y = m @ x
        lam_new = float(x @ y) / float(x @ x)
        x = y / np.max(np.abs(y))
        if abs(lam_new - lam) <= tol:
            return PerronRoot(radius=lam_new, eigenvector=x, iterations=n)
        lam = lam_new
    raise RuntimeError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last Rayleigh delta {abs(lam_new - lam):.3e})"
    )


def radius_crossing_temperature(
    potential: PotentialSpec,
    grid: EnergyGrid,
    lo: float,
    hi: float,
    *,
    rtol: float = 1e-13,
) -> float:
    """Bisect the Perron root of the zero-field kernel to its unit crossing.

    The root decreases strictly in T (the kernel does, entrywise), so a
    bracket with radius(lo) >= 1 >= radius(hi) pins the crossing uniquely.
    """
    f_lo = spectral_radius(lo, potential, grid).radius
    f_hi = spectral_radius(hi, potential, grid).radius
    if not (f_lo >= 1.0 - 1e-12 and f_hi <= 1.0 + 1e-12):
        raise ValueError(
            f"bracket invalid: radius({lo!r}) = {f_lo!r}, radius({hi!r}) = {f_hi!r}; "
            "the potential must lie strictly inside its coupling band"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spectral_radius(mid, potential, grid).radius > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * (lo + hi)


def spectral_tc(
    potential: PotentialSpec, params: PhysicalParams, grid: EnergyGrid
) -> float:
    """Unit crossing of the zero-field Perron root, bracketed by the envelope
    vanishing temperatures [tau(U1), tau(U2)]."""
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
    n_modes: int = 4,
) -> GapField:
    """Random smooth field between the envelope curves at temperature T.

    u(x) = Delta1(T) + theta(x) * (Delta2(T) - Delta1(T)) with theta a
    smooth random profile in [0, 1].  A temperature-independent theta keeps
    families of such fields monotone in T because both envelopes decrease.
    """
    d1 = solve_delta(params.u_lower, T, params)
    d2 = solve_delta(params.u_upper, T, params)
    xhat = (grid.nodes - params.epsilon_cutoff) / (
        params.hbar_omega_d - params.epsilon_cutoff
    )
    amps = rng.uniform(-1.0, 1.0, n_modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    raw = np.zeros_like(xhat)
    for k in range(n_modes):
        raw += amps[k] * np.sin((k + 1) * np.pi * xhat + phases[k])
    lo, hi = raw.min(), raw.max()
    theta = 0.5 if hi == lo else (raw - lo) / (hi - lo)
    return GapField(temperature=T, values=d1 + theta * (d2 - d1))
