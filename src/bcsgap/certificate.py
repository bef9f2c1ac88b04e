"""Contraction bound for the gap operator on the monotone envelope family,
and the search for a certified interval below the transition temperature.

The bound at temperatures T in [tau, T_c] and energies x is

    alpha(T, x) = integral U(x, xi) gap_kernel(xi, Delta2(T)^2, T) dxi
                + (Delta2(tau)^2 / (2 eps^2)) *
                  integral U(x, xi) tanh(xi/(2T))/xi dxi

whose maximum over the rectangle is a Lipschitz constant for the operator
between any two fields inside the envelope.  ``compute_alpha`` takes its
largest value on a 256 x 256 lattice (~6e-7 relative below the maximum on
a bump that peaks inside in x), and ``alpha_integrand`` is that scan at
one point.  A certificate exists when the maximum is below one; else the
search reports failure with diagnostics.  Both entry points take T_c from
the caller (``bcsgap certify`` locates it with ``gap_operator.spectral_tc``,
``bcsgap thermo`` passes the solved surface's).  The surface solve does
not use the outcome; ``thermo.build_thermo_report`` decides the alpha it
reports from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EnergyGrid, PhysicalParams, PotentialSpec, potential_matrix
from .quadrature import gap_kernel
from .simple_gap import solve_delta, solve_delta_many, tau_root

__all__ = [
    "ContractionCertificate",
    "CertificateFailure",
    "AlphaResult",
    "alpha_integrand",
    "compute_alpha",
    "search_certificate",
    "format_certificate_report",
]

# points per axis of compute_alpha's lattice on [tau, T_c] x [eps, hbar_omega_d]
_N_LATTICE = 256
# tau scan points of search_certificate, halving the distance to T_c
_N_TAU = 24


@dataclass(frozen=True)
class ContractionCertificate:
    """Certified contraction data for the interval [tau, T_c]."""

    tau: float
    epsilon: float
    alpha: float
    max_location: tuple[float, float]  # (T, x) attaining the maximum
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


@dataclass(frozen=True)
class CertificateFailure:
    """Best bound found when no contraction certificate exists."""

    best_alpha: float
    best_tau: float
    epsilon: float
    delta2_at_tc: float
    max_location: tuple[float, float]

    @property
    def obstruction_ratio(self) -> float:
        """Delta2(T_c)/epsilon, the floor of the second-term prefactor."""
        return self.delta2_at_tc / self.epsilon


@dataclass(frozen=True)
class AlphaResult:
    alpha: float
    t_at_max: float
    x_at_max: float


def alpha_integrand(
    T: float,
    x: float,
    tau: float,
    potential: PotentialSpec,
    params: PhysicalParams,
    grid: EnergyGrid,
) -> float:
    """Value of the contraction bound at one (T, x) pair: ``compute_alpha``'s
    lattice scan on a lattice of that one point, so both sum alike."""
    point = np.array([T], dtype=float), np.array([x], dtype=float)
    return _lattice_max(tau, potential, params, grid, *point).alpha


def _lattice_max(
    tau: float,
    potential: PotentialSpec,
    params: PhysicalParams,
    grid: EnergyGrid,
    t_values: np.ndarray,
    x_values: np.ndarray,
) -> AlphaResult:
    """Largest bound on the lattice ``t_values`` x ``x_values`` and its first
    maximiser.  ``einsum`` sums each row in an order the other rows do not
    change (a BLAS product's can), so a one-point lattice gives the value
    its row has in any lattice, and equal rows tie exactly."""
    urows = potential_matrix(potential, x_values, grid.nodes)  # (nx, nxi)
    d2tau = solve_delta(params.u_upper, tau, params)
    prefactor = d2tau**2 / (2.0 * params.epsilon_cutoff**2)
    best = AlphaResult(-np.inf, t_values[0], x_values[0])
    d2_values = solve_delta_many(params.u_upper, t_values, params)
    for T, d2 in zip(t_values, d2_values.tolist()):
        kd = grid.weights * gap_kernel(grid.nodes, d2 * d2, float(T))
        k0 = grid.weights * gap_kernel(grid.nodes, 0.0, float(T))
        total = np.einsum("ij,j->i", urows, kd) + prefactor * np.einsum(
            "ij,j->i", urows, k0
        )
        i = int(np.argmax(total))
        if total[i] > best.alpha:
            best = AlphaResult(float(total[i]), float(T), float(x_values[i]))
    return best


def compute_alpha(
    tau: float,
    potential: PotentialSpec,
    params: PhysicalParams,
    grid: EnergyGrid,
    *,
    t_c: float,
) -> AlphaResult:
    """Maximum of the contraction bound over [tau, T_c] x [eps, hbar_omega_d].

    The largest value on an evenly spaced 256 x 256 lattice of the
    rectangle, corners included, and the first (T, x) that attains it.
    A value >= 1 is a valid, reported outcome.
    """
    if not tau < t_c:
        raise ValueError(f"need tau < T_c, got tau={tau!r} >= T_c={t_c!r}")
    t_values = np.linspace(tau, t_c, _N_LATTICE)
    x_values = np.linspace(params.epsilon_cutoff, params.hbar_omega_d, _N_LATTICE)
    return _lattice_max(tau, potential, params, grid, t_values, x_values)


def search_certificate(
    potential: PotentialSpec,
    params: PhysicalParams,
    grid: EnergyGrid,
    *,
    t_c: float,
    coupling_margin: float | None = None,
) -> ContractionCertificate | CertificateFailure:
    """Scan tau over a geometric grid in (tau1, T_c) for a certified bound.

    The 24 scan points approach T_c by halving, and each runs
    ``compute_alpha`` on its 256 x 256 lattice.  Returns the smallest tau
    achieving alpha < 1 (widest certified interval).  On failure returns
    the best bound found together with the Delta2(T_c)/epsilon ratio, which
    is the structural obstruction: the bound evaluated at T_c already
    exceeds one whenever the envelope top has not dropped below the cutoff
    scale, and the scan cannot push tau past T_c to help it.
    """
    tau1 = tau_root(params.u_lower, params)

    # geometric approach of tau toward T_c: alpha is non-increasing in tau
    # (smaller rectangle, smaller envelope prefactor), so the largest scan
    # point is the most favourable.  Evaluate it first: if even that fails,
    # no tau can succeed and the scan is skipped.
    fractions = (t_c - tau1) * 0.5 ** np.arange(_N_TAU)
    taus = t_c - fractions

    best = compute_alpha(float(taus[-1]), potential, params, grid, t_c=t_c)
    best_tau = float(taus[-1])
    certified: tuple[float, AlphaResult] | None = None
    if best.alpha < 1.0:
        certified = (best_tau, best)
        for tau in taus[:-1]:  # smallest upward: widest certified interval wins
            result = compute_alpha(float(tau), potential, params, grid, t_c=t_c)
            if result.alpha < 1.0:
                certified = (float(tau), result)
                break

    if certified is not None:
        tau, result = certified
        return ContractionCertificate(
            tau=tau,
            epsilon=params.epsilon_cutoff,
            alpha=result.alpha,
            max_location=(result.t_at_max, result.x_at_max),
            delta2_at_tau=solve_delta(params.u_upper, tau, params),
            coupling_margin=coupling_margin,
        )
    return CertificateFailure(
        best_alpha=best.alpha,
        best_tau=best_tau,
        epsilon=params.epsilon_cutoff,
        delta2_at_tc=solve_delta(params.u_upper, t_c, params),
        max_location=(best.t_at_max, best.x_at_max),
    )


def format_certificate_report(
    outcome: ContractionCertificate | CertificateFailure,
) -> str:
    """Plain-text key = value report for either search outcome."""
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
        lines.append(f"best_tau = {outcome.best_tau!r}")
        lines.append(f"epsilon = {outcome.epsilon!r}")
        lines.append(f"max_T = {outcome.max_location[0]!r}")
        lines.append(f"max_x = {outcome.max_location[1]!r}")
        lines.append(f"delta2_at_tc = {outcome.delta2_at_tc!r}")
        lines.append(f"obstruction_delta2_over_epsilon = {outcome.obstruction_ratio!r}")
    return "\n".join(lines) + "\n"
