"""Thermodynamics of the transition: potential difference between the
superconducting and normal states, its first two temperature derivatives,
the limit slope and curvature of the squared gap at T_c (the value and
slope at T_c of one interpolant, ``limit_tables``), the second-order
transition verdict, and the specific-heat jump.

The potential difference for a solved gap field u at temperature T is

    Psi(T) = -2 N0 I[ sqrt(xi^2+u^2) - xi ]
             + N0 I[ (u^2/sqrt(xi^2+u^2)) tanh(sqrt(xi^2+u^2)/(2T)) ]
             - 4 N0 T I[ ln((1+e^{-sqrt(xi^2+u^2)/T}) / (1+e^{-xi/T})) ]

with I the band integral.  The three leading O(u^2) parts cancel exactly
through 1 - tanh(z/2) = 2/(e^z + 1), which is why Psi and its first
derivative vanish at T_c; each term below is evaluated in a form that
keeps that cancellation at rounding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import CertificateFailure, ContractionCertificate
from .gap_operator import GapField, GapOperator, as_operator
from .model import EnergyGrid, PhysicalParams, PotentialSpec
from .quadrature import (
    TANH_SATURATION,
    adaptive_integrate,
    gap_curvature,
    sech,
)
from .simple_gap import solve_delta
from .solver import GapSurface, lattice_offsets

__all__ = [
    "VTable",
    "WTable",
    "TransitionVerdict",
    "ThermoReport",
    "extrapolate_to_zero",
    "psi",
    "psi_table",
    "limit_tables",
    "f_consistency",
    "g_consistency",
    "g_eval",
    "g_integral_to_infinity",
    "delta_cv",
    "psi_second_at_tc",
    "first_derivative_three_terms",
    "second_order_verdict",
    "entropy_and_heat",
    "psi_perturbation_bound",
    "cutoff_divergence_scan",
    "build_thermo_report",
    "require_resolution",
]


# ---------------------------------------------------------------------------
# extrapolation and finite differences on non-uniform nodes


def extrapolate_to_zero(
    offsets: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial (Neville) extrapolation of values(offset) to offset = 0.

    Works elementwise on trailing axes.  The error estimate is the change
    when the coarsest point is dropped, i.e. the difference between the two
    deepest extrapolants.
    """
    d = np.asarray(offsets, dtype=float)
    if d.size < 2:
        raise ValueError("need at least two offsets to extrapolate")
    if np.any(d <= 0):
        raise ValueError("offsets must be positive")

    def neville(ds: np.ndarray, vals: np.ndarray) -> np.ndarray:
        cur = [np.asarray(v, dtype=float) for v in vals]
        n = len(cur)
        for lev in range(1, n):
            cur = [
                (ds[i] * cur[i + 1] - ds[i + lev] * cur[i]) / (ds[i] - ds[i + lev])
                for i in range(n - lev)
            ]
        return cur[0]

    full = neville(d, values)
    trimmed = neville(d[1:], values[1:])
    return full, np.abs(full - trimmed)


def _three_point_derivatives(
    ts: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives at every node by 3-point Lagrange
    stencils: central at interior nodes, one-sided at the ends."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = ts.size
    if n < 3:
        raise ValueError("need at least 3 nodes")
    first = np.empty_like(ys)
    second = np.empty_like(ys)
    for i in range(n):
        j = min(max(i - 1, 0), n - 3)
        t0, t1, t2 = ts[j], ts[j + 1], ts[j + 2]
        y0, y1, y2 = ys[j], ys[j + 1], ys[j + 2]
        d0 = (t0 - t1) * (t0 - t2)
        d1 = (t1 - t0) * (t1 - t2)
        d2 = (t2 - t0) * (t2 - t1)
        t = ts[i]
        first[i] = (
            y0 * (2 * t - t1 - t2) / d0
            + y1 * (2 * t - t0 - t2) / d1
            + y2 * (2 * t - t0 - t1) / d2
        )
        second[i] = 2.0 * (y0 / d0 + y1 / d1 + y2 / d2)
    return first, second


# ---------------------------------------------------------------------------
# potential difference


def _field_values(u) -> np.ndarray:
    return np.asarray(u.values if isinstance(u, GapField) else u, dtype=float)


def psi(T: float, u, params: PhysicalParams, grid: EnergyGrid) -> float:
    """Thermodynamic potential difference at temperature T for gap field u.

    Negative below the transition (the gapped state is favoured) and
    exactly zero for the zero field.  The first integrand is rewritten as
    u^2/(sqrt(xi^2+u^2)+xi) and the logarithm as a difference of log1p
    terms so small fields do not lose precision to cancellation or
    overflow at small T.
    """
    vals = _field_values(u)
    xi = grid.nodes
    w = grid.weights
    n0 = params.n0_dos
    s = vals * vals
    e = np.sqrt(xi * xi + s)

    term1 = -2.0 * n0 * float(np.dot(w, s / (e + xi)))

    z = e / (2.0 * T)
    tanh_e = np.where(z > TANH_SATURATION, 1.0, np.tanh(z))
    term2 = n0 * float(np.dot(w, np.where(s > 0.0, s / e, 0.0) * tanh_e))

    log_diff = np.log1p(np.exp(-e / T)) - np.log1p(np.exp(-xi / T))
    term3 = -4.0 * n0 * T * float(np.dot(w, log_diff))

    return term1 + term2 + term3


def psi_table(surface: GapSurface, params: PhysicalParams, grid: EnergyGrid) -> np.ndarray:
    """Potential difference at every surface temperature node."""
    return np.array(
        [
            psi(float(T), surface.values[i], params, grid)
            for i, T in enumerate(surface.t_nodes)
        ]
    )


# ---------------------------------------------------------------------------
# limit tables at the transition


@dataclass(frozen=True)
class VTable:
    """Limit slope v(x) = -d/dT u(T, x)^2 at T_c, from the solved surface."""

    values: np.ndarray
    extrapolation_error: np.ndarray

    def __post_init__(self):
        if np.any(self.values <= 0.0):
            raise ValueError("limit slope must be strictly positive at every node")


@dataclass(frozen=True)
class WTable:
    """Limit curvature w(x) = d^2/dT^2 u(T, x)^2 at T_c."""

    values: np.ndarray
    extrapolation_error: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("limit curvature must be finite")

    @property
    def estimator_mismatch(self) -> float:
        """Largest gap between the 6-node and 5-node interpolants' w,
        relative to max |w|."""
        scale = float(np.max(np.abs(self.values)))
        return float(np.max(self.extrapolation_error)) / scale if scale > 0 else 0.0


# near-T_c nodes of the one interpolant behind v, w and the verdict's limits
_DEPTH = 6


def require_resolution(t_resolution: int, span_decades: float) -> None:
    """Refuse, before any solve, a lattice that ``build_thermo_report`` would
    refuse after it: the check ``_require_resolved`` makes on a solved
    surface, applied to ``solve_surface``'s offsets T_c - T at unit scale."""
    _require_offsets(lattice_offsets(t_resolution, span_decades))


def _require_resolved(surface: GapSurface) -> np.ndarray:
    return _require_offsets(surface.t_c - surface.t_nodes[:-1])


def _require_offsets(offsets: np.ndarray) -> np.ndarray:
    if offsets.size < _DEPTH:
        raise ValueError(
            f"insufficient near-T_c resolution: need at least {_DEPTH} nodes "
            f"below T_c, got {offsets.size}"
        )
    if offsets.max() / offsets.min() < 99.0:
        raise ValueError(
            "insufficient near-T_c resolution: offsets must span two decades, "
            f"got ratio {offsets.max() / offsets.min()!r}"
        )
    return offsets


def _limits(d: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # P interpolates q at the offsets d: v = P(0), and (q - v)/d interpolates
    # (P(d) - P(0))/d, whose value at 0 is P'(0) = w/2
    v, _ = extrapolate_to_zero(d, q)
    half_w, _ = extrapolate_to_zero(d, (q - v) / d[:, None])
    return v, 2.0 * half_w


def limit_tables(surface: GapSurface) -> tuple[VTable, WTable]:
    """Limit slope and curvature of the squared gap at T_c from one
    interpolant.

    P is the Neville polynomial through q = u(T, x)^2 / (T_c - T) at the 6
    nodes nearest T_c.  Since u^2 = v d + (w/2) d^2 + O(d^3) in
    d = T_c - T, v = P(0) and w = 2 P'(0).  Each error is the change when
    the same interpolant is built on the deepest 5 nodes.
    """
    offsets = _require_resolved(surface)
    d = offsets[-_DEPTH:]
    q = surface.values[:-1][-_DEPTH:] ** 2 / d[:, None]
    v, w = _limits(d, q)
    v5, w5 = _limits(d[1:], q[1:])
    return (
        VTable(values=v, extrapolation_error=np.abs(v - v5)),
        WTable(values=w, extrapolation_error=np.abs(w - w5)),
    )


# ---------------------------------------------------------------------------
# consistency functionals at the transition


def f_consistency(
    v: VTable | np.ndarray,
    t_c: float,
    potential: PotentialSpec | GapOperator,
    grid: EnergyGrid,
) -> float:
    """Eigen-residual of sqrt(v) under the zero-field kernel at T_c.

    At the transition the limit slope satisfies
    (integral U(x, xi) sqrt(v(xi))/xi tanh(xi/2T_c) dxi)^2 = v(x),
    i.e. sqrt(v) is a unit-eigenvalue eigenfunction of the linearised
    kernel.  Returns sup|sqrt(v) - K sqrt(v)| / sup sqrt(v); scale-free.
    """
    vals = np.asarray(v.values if isinstance(v, VTable) else v, dtype=float)
    if np.any(vals <= 0):
        raise ValueError("limit slope must be positive")
    root = np.sqrt(vals)
    image = as_operator(potential, grid).kernel_action(root, t_c)
    residual = np.max(np.abs(root - image))
    return float(residual / np.max(root))


def g_consistency(
    v: VTable | np.ndarray,
    w: WTable | np.ndarray,
    t_c: float,
    potential: PotentialSpec | GapOperator,
    grid: EnergyGrid,
) -> float:
    """Residual of the curvature fixed-point functional at the transition.

    The curvature limit of the squared gap satisfies w = G(v, w) with

        G(x) = [K sqrt(v)](x) * integral U(x, eta) {
                   (w/(eta sqrt(v)) - 2 v^{3/2}/eta^3) tanh(eta/(2T_c))
                 + (sqrt(v)/cosh^2(eta/(2T_c))) (v/(eta^2 T_c) + 2/T_c^2)
               } d eta

    where K is the zero-field kernel.  Returns sup|w - G| / sup|w|.
    """
    vv = np.asarray(v.values if isinstance(v, VTable) else v, dtype=float)
    ww = np.asarray(w.values if isinstance(w, WTable) else w, dtype=float)
    root = np.sqrt(vv)
    xi = grid.nodes
    op = as_operator(potential, grid)
    first = op.kernel_action(root, t_c)

    z = xi / (2.0 * t_c)
    tanh_z = np.tanh(z)
    sech2 = sech(z) ** 2
    inner = (ww / (xi * root) - 2.0 * root**3 / xi**3) * tanh_z + root * sech2 * (
        vv / (xi**2 * t_c) + 2.0 / t_c**2
    )
    second = op.weighted @ inner
    g_of_x = first * second
    return float(np.max(np.abs(ww - g_of_x)) / np.max(np.abs(ww)))


# ---------------------------------------------------------------------------
# the curvature kernel and the specific-heat jump


def g_eval(eta):
    """Dimensionless curvature kernel 1/(eta^2 cosh^2 eta) - tanh(eta)/eta^3.

    Negative on [0, inf) with value -2/3 at 0; evaluated through a Taylor
    branch below eta = 0.1 where the direct form cancels catastrophically.
    """
    return gap_curvature(eta)


# upper end of g_integral_to_infinity's quadrature
_G_CUT = 2000.0


def g_integral_to_infinity() -> tuple[float, float]:
    """Integral of the curvature kernel over [0, inf).

    Integrates [0, cut] (cut = 2000) by adaptive quadrature and bounds the
    discarded tail by |integral_cut^inf| <= 1/(2 cut^2) (from
    |g| <= tanh(eta)/eta^3).  Returns (estimate, tail_bound).
    """
    inner = adaptive_integrate(gap_curvature, 0.0, 10.0, log_spacing=False)
    outer = adaptive_integrate(gap_curvature, 10.0, _G_CUT, log_spacing=True)
    return inner + outer, 1.0 / (2.0 * _G_CUT * _G_CUT)


def _eta_quadrature(t_c: float, grid: EnergyGrid) -> tuple[np.ndarray, np.ndarray]:
    # substitution eta = xi/(2 T_c) aligned with the energy grid
    return grid.nodes / (2.0 * t_c), grid.weights / (2.0 * t_c)


def delta_cv(
    v: VTable | np.ndarray, t_c: float, params: PhysicalParams, grid: EnergyGrid
) -> float:
    """Specific-heat jump at the transition:

        -(N0/(8 T_c)) * integral v(2 T_c eta)^2 g(eta) d eta

    over eta in [eps/(2T_c), hbar_omega_d/(2T_c)]; strictly positive since
    the curvature kernel is negative.
    """
    vals = np.asarray(v.values if isinstance(v, VTable) else v, dtype=float)
    eta, w_eta = _eta_quadrature(t_c, grid)
    return float(
        -params.n0_dos / (8.0 * t_c) * np.dot(w_eta, vals**2 * gap_curvature(eta))
    )


def psi_second_at_tc(
    v: VTable | np.ndarray, t_c: float, params: PhysicalParams, grid: EnergyGrid
) -> tuple[float, float]:
    """Second temperature derivative of the potential difference at T_c.

    Two analytically equal forms, evaluated on the same quadrature nodes
    (related by eta = xi/(2 T_c)):

        formA = (N0/(8 T_c^2)) integral v(2 T_c eta)^2 g(eta) d eta
        formB = (N0/2) integral (v(xi)^2/xi^2)
                  {1/(2 T_c cosh^2(xi/2T_c)) - tanh(xi/2T_c)/xi} d xi

    Both negative; their agreement is a cross-check of the curvature-kernel
    evaluation since formB carries the raw cancellation.
    """
    vals = np.asarray(v.values if isinstance(v, VTable) else v, dtype=float)
    n0 = params.n0_dos
    eta, w_eta = _eta_quadrature(t_c, grid)
    form_a = n0 / (8.0 * t_c**2) * float(np.dot(w_eta, vals**2 * gap_curvature(eta)))

    xi = grid.nodes
    z = xi / (2.0 * t_c)
    bracket = sech(z) ** 2 / (2.0 * t_c) - np.tanh(z) / xi
    form_b = 0.5 * n0 * float(np.dot(grid.weights, vals**2 / xi**2 * bracket))
    return form_a, form_b


def first_derivative_three_terms(
    v: VTable | np.ndarray, t_c: float, params: PhysicalParams, grid: EnergyGrid
) -> tuple[float, float, float]:
    """The three limit integrals whose sum is the first derivative at T_c:

        N0 I[v/xi],  -N0 I[(v/xi) tanh(xi/2T_c)],  -2 N0 I[(v/xi) / (e^{xi/T_c}+1)]

    They cancel exactly through 1 - tanh(z/2) = 2/(e^z + 1).
    """
    vals = np.asarray(v.values if isinstance(v, VTable) else v, dtype=float)
    xi = grid.nodes
    w = grid.weights
    n0 = params.n0_dos
    base = vals / xi
    term1 = n0 * float(np.dot(w, base))
    term2 = -n0 * float(np.dot(w, base * np.tanh(xi / (2.0 * t_c))))
    ez = np.exp(-xi / t_c)
    term3 = -2.0 * n0 * float(np.dot(w, base * ez / (1.0 + ez)))
    return term1, term2, term3


# ---------------------------------------------------------------------------
# verdict, entropy/heat, perturbation bound, cutoff scan


@dataclass(frozen=True)
class TransitionVerdict:
    """Second-order transition checks: (a) Psi in C^2 with Psi(T_c) = 0,
    (b) Psi'(T_c) = 0, (c) Psi''(T_c) != 0."""

    a: bool
    b: bool
    c: bool
    psi_at_tc: float
    second_derivative_fd: float
    second_derivative_fd_error: float
    first_derivative_order: float
    three_term_relative: float
    psi_second_form_a: float
    psi_second_error: float


def second_order_verdict(
    surface: GapSurface,
    v: VTable | np.ndarray,
    params: PhysicalParams,
    grid: EnergyGrid,
    psi_values: np.ndarray,
) -> TransitionVerdict:
    """Evaluate the three transition conditions on a solved surface, from
    its potential differences ``psi_values`` (see ``psi_table``).

    (a) holds when the potential difference vanishes at T_c and its
    one-sided finite-difference second derivative converges as the node
    offsets shrink; (b) when the one-sided first derivative vanishes with
    observed order >= 1 and the three-limit decomposition cancels to
    rounding; (c) when the curvature form is negative and larger than its
    propagated error.  A degenerate (zero) slope table yields verdict (c)
    false: no transition.
    """
    if isinstance(v, VTable):
        v_vals, v_err = v.values, v.extrapolation_error
    else:
        v_vals = np.asarray(v, dtype=float)
        v_err = np.zeros_like(v_vals)
    offsets = surface.t_c - surface.t_nodes[:-1]
    psi_tc = float(psi_values[-1])

    # (a): Psi(T_c) = 0 and FD second derivative 2 Psi/d^2 converges
    est = 2.0 * psi_values[:-1] / offsets**2
    deep = slice(-_DEPTH, None)
    fd2, fd2_err = extrapolate_to_zero(offsets[deep], est[deep])
    fd2, fd2_err = float(fd2), float(fd2_err)
    a_ok = abs(psi_tc) <= 1e-15 * params.n0_dos * params.hbar_omega_d and (
        fd2_err <= 5e-2 * abs(fd2) + 1e-300
    )

    # (b): -Psi(T)/d -> 0 at rate O(d), plus exact three-term cancellation
    d1 = -psi_values[:-1] / offsets
    tail = d1[deep]
    if np.all(tail == 0.0):  # identically flat difference: derivative is zero
        order = np.inf
    else:
        mask = np.abs(tail) > 0
        order = float(
            np.polyfit(np.log(offsets[deep][mask]), np.log(np.abs(tail[mask])), 1)[0]
        )
    t1, t2, t3 = first_derivative_three_terms(v_vals, surface.t_c, params, grid)
    three_rel = abs(t1 + t2 + t3) / abs(t1) if t1 != 0.0 else 0.0
    b_ok = order >= 1.0 - 0.1 and three_rel <= 1e-10

    # (c): curvature form negative, bounded away from zero by its error
    form_a, _ = psi_second_at_tc(v_vals, surface.t_c, params, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_v_err = float(np.max(np.where(v_vals > 0, v_err / v_vals, 0.0)))
    err_a = 2.0 * abs(form_a) * rel_v_err + 1e-12 * abs(form_a)
    c_ok = form_a < 0.0 and abs(form_a) > 3.0 * err_a

    return TransitionVerdict(
        a=bool(a_ok),
        b=bool(b_ok),
        c=bool(c_ok),
        psi_at_tc=psi_tc,
        second_derivative_fd=fd2,
        second_derivative_fd_error=fd2_err,
        first_derivative_order=order,
        three_term_relative=float(three_rel),
        psi_second_form_a=form_a,
        psi_second_error=err_a,
    )


def entropy_and_heat(
    t_nodes: np.ndarray, psi_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy difference -dPsi/dT and specific-heat difference -T d2Psi/dT2
    from a tabulated potential difference.

    Central 3-point stencils at interior nodes, one-sided at the ends; the
    normal-state contribution is zero by construction, so the value at the
    last node below T_c is the jump.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    psi_values = np.asarray(psi_values, dtype=float)
    if t_nodes.size < 5:
        raise ValueError("need at least 5 temperature nodes")
    first, second = _three_point_derivatives(t_nodes, psi_values)
    entropy = -first
    heat = -t_nodes * second
    return entropy, heat


def psi_perturbation_bound(
    u,
    u_ref,
    T: float,
    params: PhysicalParams,
    grid: EnergyGrid,
    *,
    tau: float,
    t_c: float,
    alpha: float,
) -> tuple[float, float]:
    """Stability of the potential difference under field perturbations.

    Returns (lhs, rhs) with lhs = |Psi(u) - Psi(u_ref)| and

        rhs = 2 N0 Delta2(0) {(1 + 2 T_c/tau) ln(hbar_omega_d/eps) + alpha}
              * sup|u - u_ref|;

    lhs <= rhs for any two fields inside the envelope at the same T.
    """
    uv, rv = _field_values(u), _field_values(u_ref)
    lhs = abs(psi(T, uv, params, grid) - psi(T, rv, params, grid))
    d20 = solve_delta(params.u_upper, 0.0, params)
    bracket = (1.0 + 2.0 * t_c / tau) * math.log(
        params.hbar_omega_d / params.epsilon_cutoff
    ) + alpha
    rhs = 2.0 * params.n0_dos * d20 * bracket * float(np.max(np.abs(uv - rv)))
    return lhs, rhs


@dataclass(frozen=True)
class CutoffScan:
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
    slope = float(np.polyfit(np.log(1.0 / eps_arr), values, 1)[0])
    return CutoffScan(
        epsilons=eps_arr, values=values, slope=slope, slope_target=n0 * v
    )


# ---------------------------------------------------------------------------
# report assembly


@dataclass(frozen=True)
class ThermoReport:
    t_nodes: np.ndarray
    psi_values: np.ndarray
    entropy_values: np.ndarray
    specific_heat_values: np.ndarray
    v_table: VTable
    w_table: WTable
    delta_cv: float
    psi_second_tc_form_a: float
    psi_second_tc_form_b: float
    verdict: TransitionVerdict
    t_c: float
    alpha: float
    certified: bool


def build_thermo_report(
    surface: GapSurface,
    params: PhysicalParams,
    grid: EnergyGrid,
    certificate: ContractionCertificate | CertificateFailure,
) -> ThermoReport:
    """Full thermodynamic analysis of a solved surface.

    Cross-checks the two forms of Psi''(T_c) (see ``psi_second_at_tc``),
    which must agree to 1e-8 relative.  The jump delta_cv equals -T_c times
    form A by construction, since both are the same integral.

    ``certificate`` is the outcome of ``certificate.search_certificate``,
    and this is where the reported contraction constant is decided: the
    certificate's alpha when the search succeeded, otherwise
    min(max rate + 0.1, 0.95) with ``certified`` False, where rate is the
    Collatz-Wielandt bound of each node's ``SolveTrace``.
    """
    psis = psi_table(surface, params, grid)
    v, w = limit_tables(surface)
    jump = delta_cv(v, surface.t_c, params, grid)
    form_a, form_b = psi_second_at_tc(v, surface.t_c, params, grid)
    if abs(form_a - form_b) > 1e-8 * abs(form_a):
        raise RuntimeError(
            f"curvature forms disagree: {form_a!r} vs {form_b!r}"
        )
    entropy, heat = entropy_and_heat(surface.t_nodes, psis)
    verdict = second_order_verdict(surface, v, params, grid, psis)
    certified = isinstance(certificate, ContractionCertificate)
    alpha = (
        certificate.alpha
        if certified
        else min(max(tr.rate for tr in surface.traces) + 0.1, 0.95)
    )
    return ThermoReport(
        t_nodes=surface.t_nodes,
        psi_values=psis,
        entropy_values=entropy,
        specific_heat_values=heat,
        v_table=v,
        w_table=w,
        delta_cv=jump,
        psi_second_tc_form_a=form_a,
        psi_second_tc_form_b=form_b,
        verdict=verdict,
        t_c=surface.t_c,
        alpha=alpha,
        certified=certified,
    )
