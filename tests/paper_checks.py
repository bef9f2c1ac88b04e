"""Checks of the paper's statements that no command runs: sampled fields
inside the envelope (criteria 2 and 3), the residual of the
constant-coupling gap equation, the contraction bound at one point, the
consistency functionals of the limit slope and curvature at T_c, the
potential difference's stability under field perturbations (criterion 8)
and the divergence as the cutoff shrinks (criterion 9).  They take the
package's objects and reuse its private helpers."""

from __future__ import annotations

import math

import numpy as np

from bcsgap._record import Record
from bcsgap.certificate import _kernel_rows, _point_values
from bcsgap.gap_operator import GapField, GapOperator
from bcsgap.model import PhysicalParams, potential_matrix
from bcsgap.quadrature import EnergyGrid, adaptive_integrate, kernel_jet
from bcsgap.simple_gap import _coupling_integral, solve_delta, solve_delta_many
from bcsgap.solver import GapSurface
from bcsgap.thermo import LimitTable, _slope, psi

# sine modes in a sample_envelope_field profile
_ENVELOPE_MODES = 4


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


def gap_equation_residual(U: float, delta: float, T: float, params: PhysicalParams) -> float:
    """1 - U * integral; zero at a root of the constant-coupling gap equation."""
    return 1.0 - U * _coupling_integral(delta * delta, T, params)


def alpha_integrand(
    T: float, x: float, tau: float, op: GapOperator, params: PhysicalParams
) -> float:
    """Value of the contraction bound at one (T, x) pair, summed as
    ``compute_alpha`` sums every point value."""
    d2tau, d2 = solve_delta_many(params.u_upper, [tau, T], params).tolist()
    prefactor = d2tau**2 / (2.0 * params.epsilon_cutoff**2)
    urows = potential_matrix(op.potential, x, op.grid.nodes)
    return float(_point_values(urows, *_kernel_rows(op.grid, T, d2), prefactor)[0])


def estimator_mismatch(table: LimitTable) -> float:
    """Largest gap between the 6-node and 5-node interpolants' values,
    relative to max |values|."""
    scale = float(np.max(np.abs(table.values)))
    return float(np.max(table.extrapolation_error)) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# consistency functionals at the transition


def f_consistency(v: np.ndarray, surface: GapSurface) -> float:
    """Eigen-residual of sqrt(v) under the zero-field kernel at T_c.

    At the transition the limit slope satisfies
    (integral U(x, xi) sqrt(v(xi))/xi tanh(xi/2T_c) dxi)^2 = v(x),
    i.e. sqrt(v) is a unit-eigenvalue eigenfunction of the linearised
    kernel.  Returns sup|sqrt(v) - K sqrt(v)| / sup sqrt(v); scale-free.
    """
    if np.any(v <= 0):
        raise ValueError("limit slope must be positive")
    root = np.sqrt(v)
    image = surface.op.kernel_action(root, surface.t_c)
    residual = np.max(np.abs(root - image))
    return float(residual / np.max(root))


def g_consistency(v: np.ndarray, w: np.ndarray, surface: GapSurface) -> float:
    """Residual of the curvature fixed-point functional at the transition.

    The curvature limit of the squared gap satisfies w = G(v, w) with

        G(x) = [K sqrt(v)](x) * integral U(x, eta) {
                   (w/(eta sqrt(v)) - 2 v^{3/2}/eta^3) tanh(eta/(2T_c))
                 + (sqrt(v)/cosh^2(eta/(2T_c))) (v/(eta^2 T_c) + 2/T_c^2)
               } d eta

    where K is the zero-field kernel.  The braces are evaluated as
    (w k + 4 v^2 k_s - 4 v k_T) / sqrt(v), by ``kernel_jet`` at s = 0,
    free of their terms' cancellation.  Returns sup|w - G| / sup|w|.
    """
    op, t_c = surface.op, surface.t_c
    root = np.sqrt(v)
    first = op.kernel_action(root, t_c)

    k, k_s, k_t = kernel_jet(op.grid.xi2, 0.0, t_c, "sT")
    second = op.matvec((w * k + 4.0 * v * (v * k_s - k_t)) / root)
    g_of_x = first * second
    return float(np.max(np.abs(w - g_of_x)) / np.max(np.abs(w)))


# ---------------------------------------------------------------------------
# perturbation bound, cutoff scan


def psi_perturbation_bound(
    u: np.ndarray,
    u_ref: np.ndarray,
    T: float,
    surface: GapSurface,
    params: PhysicalParams,
    *,
    alpha: float,
) -> tuple[float, float]:
    """Stability of the potential difference under field perturbations.

    Returns (lhs, rhs) with lhs = |Psi(u) - Psi(u_ref)| and

        rhs = 2 N0 Delta2(0) {(1 + 2 T_c/tau) ln(hbar_omega_d/eps) + alpha}
              * sup|u - u_ref|;

    lhs <= rhs for any two fields inside the envelope at the same T, with
    tau and T_c those of the surface.
    """
    grid = surface.op.grid
    lhs = abs(psi(T, u, params, grid) - psi(T, u_ref, params, grid))
    d20 = solve_delta(params.u_upper, 0.0, params)
    bracket = (1.0 + 2.0 * surface.t_c / surface.tau) * math.log(
        params.hbar_omega_d / params.epsilon_cutoff
    ) + alpha
    rhs = 2.0 * params.n0_dos * d20 * bracket * float(np.max(np.abs(u - u_ref)))
    return lhs, rhs


class CutoffScan(Record):
    epsilons: np.ndarray
    values: np.ndarray
    slope: float
    slope_target: float


def cutoff_divergence_scan(
    v: float, epsilons, hbar_omega_d: float, n0: float
) -> CutoffScan:
    """Tabulate N0 * v * integral_eps (1/xi) dxi against shrinking cutoffs.

    The integral equals N0 v ln(hbar_omega_d/eps), so the values grow
    without bound as eps -> 0: the log-linear fit against ln(1/eps) has
    slope N0 v.  This is the divergence that forces a positive cutoff.
    """
    eps_arr = np.asarray(epsilons, dtype=float)
    if np.any(eps_arr <= 0) or np.any(np.diff(eps_arr) >= 0):
        raise ValueError("cutoffs must be positive and strictly decreasing")
    values = np.array(
        [
            0.0
            if e >= hbar_omega_d
            else n0 * v * adaptive_integrate(lambda x: 1.0 / x, e, hbar_omega_d)
            for e in eps_arr
        ]
    )
    slope = _slope(np.log(1.0 / eps_arr), values)
    return CutoffScan(
        epsilons=eps_arr, values=values, slope=slope, slope_target=n0 * v
    )
