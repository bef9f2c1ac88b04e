"""Contraction bound for the gap operator on the monotone envelope family,
and the search for a certified interval below the transition temperature.

The bound at temperatures T in [tau, T_c] and energies x is

    alpha(T, x) = integral U(x, xi) gap_kernel(xi, Delta2(T)^2, T) dxi
                + (Delta2(tau)^2 / (2 eps^2)) *
                  integral U(x, xi) tanh(xi/(2T))/xi dxi

whose maximum over the rectangle is a Lipschitz constant for the operator
between any two fields inside the envelope.  A certificate exists when that
maximum is below one; the search reports failure (with diagnostics) when it
is not.  Both entry points take T_c from the caller (``bcsgap certify``
locates it with ``gap_operator.spectral_tc``, ``bcsgap thermo`` passes the
solved surface's), so nothing here locates it again.  The surface solve
does not use the outcome: each node is certified by its own stop.
``thermo.build_thermo_report`` takes the outcome and reports its alpha, or
on failure marks the report uncertified with min(max rate + 0.1, 0.95),
rate the largest Collatz-Wielandt bound q >= rho(A'(u)) checked at the stop
of a node's solve.
"""

from __future__ import annotations

import math
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

# a Python float, so the golden-section points and AlphaResult hold floats
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
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
    """Value of the contraction bound integrand at one (T, x) pair."""
    d2t = solve_delta(params.u_upper, T, params)
    d2tau = solve_delta(params.u_upper, tau, params)
    urow = potential_matrix(potential, x, grid.nodes)[0]
    first = float(np.dot(grid.weights, urow * gap_kernel(grid.nodes, d2t * d2t, T)))
    second = float(np.dot(grid.weights, urow * gap_kernel(grid.nodes, 0.0, T)))
    return first + d2tau**2 / (2.0 * params.epsilon_cutoff**2) * second


def _lattice_max(
    tau: float,
    potential: PotentialSpec,
    params: PhysicalParams,
    grid: EnergyGrid,
    t_values: np.ndarray,
    x_values: np.ndarray,
) -> AlphaResult:
    urows = potential_matrix(potential, x_values, grid.nodes)  # (nx, nxi)
    d2tau = solve_delta(params.u_upper, tau, params)
    prefactor = d2tau**2 / (2.0 * params.epsilon_cutoff**2)
    best = AlphaResult(-np.inf, t_values[0], x_values[0])
    d2_values = solve_delta_many(params.u_upper, t_values, params)
    for T, d2 in zip(t_values, d2_values.tolist()):
        kd = grid.weights * gap_kernel(grid.nodes, d2 * d2, float(T))
        k0 = grid.weights * gap_kernel(grid.nodes, 0.0, float(T))
        total = urows @ kd + prefactor * (urows @ k0)
        i = int(np.argmax(total))
        if total[i] > best.alpha:
            best = AlphaResult(float(total[i]), float(T), float(x_values[i]))
    return best


def _golden_max(fn, lo: float, hi: float, iters: int = 40) -> tuple[float, float]:
    """Golden-section maximisation on [lo, hi] (assumes local unimodality)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc > fd else (d, fd)


def compute_alpha(
    tau: float,
    potential: PotentialSpec,
    params: PhysicalParams,
    grid: EnergyGrid,
    t_samples: int = 64,
    x_samples: int = 64,
    *,
    t_c: float,
) -> AlphaResult:
    """Maximum of the contraction bound over [tau, T_c] x [eps, hbar_omega_d].

    Coarse ``t_samples`` x ``x_samples`` lattice scan, golden-section
    refinement around the maximiser (one pass per coordinate), then a 4x
    finer confirmation lattice; the reported value is the maximum over
    everything evaluated.  A value >= 1 is a valid, reported outcome.
    """
    if not tau < t_c:
        raise ValueError(f"need tau < T_c, got tau={tau!r} >= T_c={t_c!r}")

    t_lat = np.linspace(tau, t_c, t_samples)
    x_lat = np.linspace(params.epsilon_cutoff, params.hbar_omega_d, x_samples)
    best = _lattice_max(tau, potential, params, grid, t_lat, x_lat)

    # local refinement around the lattice maximiser
    dt = (t_c - tau) / (t_samples - 1)
    dx = (params.hbar_omega_d - params.epsilon_cutoff) / (x_samples - 1)
    t_lo = max(tau, best.t_at_max - dt)
    t_hi = min(t_c, best.t_at_max + dt)
    t_star, f_t = _golden_max(
        lambda t: alpha_integrand(t, best.x_at_max, tau, potential, params, grid),
        t_lo,
        t_hi,
    )
    if f_t > best.alpha:
        best = AlphaResult(f_t, t_star, best.x_at_max)
    x_lo = max(params.epsilon_cutoff, best.x_at_max - dx)
    x_hi = min(params.hbar_omega_d, best.x_at_max + dx)
    x_star, f_x = _golden_max(
        lambda x: alpha_integrand(best.t_at_max, x, tau, potential, params, grid),
        x_lo,
        x_hi,
    )
    if f_x > best.alpha:
        best = AlphaResult(f_x, best.t_at_max, x_star)

    # conservative confirmation pass on a 4x finer lattice
    t_fine = np.linspace(tau, t_c, 4 * t_samples)
    x_fine = np.linspace(params.epsilon_cutoff, params.hbar_omega_d, 4 * x_samples)
    confirm = _lattice_max(tau, potential, params, grid, t_fine, x_fine)
    if confirm.alpha > best.alpha:
        best = confirm
    return best


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
    ``compute_alpha`` on its 64 x 64 lattices.  Returns the smallest tau
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
