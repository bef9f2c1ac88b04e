"""Thermodynamics of the transition: potential difference between the
superconducting and normal states, its first two temperature derivatives,
the limit slope and curvature of the squared gap at T_c (the value and
slope at T_c of one interpolant, ``limit_tables``), the second-order
transition verdict, and the specific-heat jump.  Every temperature
derivative is a derivative of a polynomial through 6 nodes, weighted by
one stencil rule (``_stencil``); each limit at T_c is one interpolant's
value or slope at offset 0 (``_limit_at_zero``).

A function on a solved surface takes the ``GapSurface`` and reads from it
the operator it was solved with, the grid, T_c and tau; the formula
functions (``psi``, ``delta_cv``, ...) take arrays and their grid.

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

import numpy as np

from ._record import Record
from .certificate import CertificateFailure, ContractionCertificate
from .model import PhysicalParams
from .quadrature import (
    EnergyGrid,
    TANH_SATURATION,
    adaptive_integrate,
    gap_curvature,
    kernel_jet,
    sech,
)
from .simple_gap import solve_delta
from .solver import GapSurface, lattice_offsets

__all__ = [
    "LimitTable",
    "TransitionVerdict",
    "ThermoReport",
    "psi",
    "psi_table",
    "limit_tables",
    "f_consistency",
    "g_consistency",
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
# polynomial stencils on non-uniform nodes


def _stencil(nodes, at, orders) -> np.ndarray:
    """Weights w[..., i, :] whose dot product with values at ``nodes`` is the
    orders[i]-th derivative, at ``at``, of the polynomial through them.

    ``nodes`` is (..., m) and ``at`` is a scalar or has the leading shape of
    ``nodes``; the result is (..., len(orders), m).  Fornberg's recurrence
    (Math. Comp. 51, 1988) on the offsets t_j - a, one node at a time,
    vectorised over the windows, the earlier nodes and the orders: the
    weights of nodes 0..i for derivatives 0..max(orders) follow from those
    of nodes 0..i-1 with no linear solve, each within a few ulps of its
    stencil's largest weight.
    """
    # the windows' axes reversed, behind the node and the order axes
    x = np.asarray(nodes, dtype=float).T[:, None]
    t = x - np.asarray(at, dtype=float).T
    k = np.atleast_1d(orders)
    p = np.arange(k.max() + 1.0).reshape(-1, *[1] * (x.ndim - 2))
    # c[j, q + 1]: node j's weight in the q-th derivative over nodes 0..i;
    # a zero row 0 lets one update serve every order
    c = np.zeros((len(x), len(p) + 1, *x.shape[2:]))
    c[0, 1] = 1.0
    scale = 1.0
    for i in range(1, len(x)):
        gaps = x[i] - x[:i]
        prod = np.multiply.reduce(gaps)
        c[i, 1:] = scale / prod * (p * c[i - 1, :-1] - t[i - 1] * c[i - 1, 1:])
        c[:i, 1:] = (t[i] * c[:i, 1:] - p * c[:i, :-1]) / gaps
        scale = prod
    return c[:, k + 1].T


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of the straight line through the points (x, y),
    from centred sums."""
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


def _limit_at_zero(
    offsets: np.ndarray, values: np.ndarray, orders
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the given orders at offset 0 of the polynomial through
    ``values`` at ``offsets`` (its first axis runs over the offsets), and the
    change of each when the coarsest, first, node is dropped."""
    full = _stencil(offsets, 0.0, orders) @ values
    trimmed = _stencil(offsets[1:], 0.0, orders) @ values[1:]
    return full, np.abs(full - trimmed)


# ---------------------------------------------------------------------------
# potential difference


def psi(T: float, u: np.ndarray, params: PhysicalParams, grid: EnergyGrid) -> float:
    """Thermodynamic potential difference at temperature T for gap field u.

    Negative below the transition (the gapped state is favoured) and
    exactly zero for the zero field.  The first integrand is rewritten as
    u^2/(sqrt(xi^2+u^2)+xi) and the logarithm as a difference of log1p
    terms so small fields do not lose precision to cancellation or
    overflow at small T.
    """
    xi = grid.nodes
    w = grid.weights
    n0 = params.n0_dos
    s = u * u
    e = np.sqrt(xi * xi + s)

    term1 = -2.0 * n0 * float(np.dot(w, s / (e + xi)))

    z = e / (2.0 * T)
    tanh_e = np.where(z > TANH_SATURATION, 1.0, np.tanh(z))
    term2 = n0 * float(np.dot(w, np.where(s > 0.0, s / e, 0.0) * tanh_e))

    log_diff = np.log1p(np.exp(-e / T)) - np.log1p(np.exp(-xi / T))
    term3 = -4.0 * n0 * T * float(np.dot(w, log_diff))

    return term1 + term2 + term3


def psi_table(surface: GapSurface, params: PhysicalParams) -> np.ndarray:
    """Potential difference at every surface temperature node."""
    grid = surface.op.grid
    return np.array(
        [psi(float(T), row, params, grid) for T, row in zip(surface.t_nodes, surface.values)]
    )


# ---------------------------------------------------------------------------
# limit tables at the transition


class LimitTable(Record):
    """A limit at T_c of the squared gap on the energy nodes: the slope
    v(x) = -d/dT u(T, x)^2 or the curvature w(x) = d^2/dT^2 u(T, x)^2, with
    the change when the interpolant behind it drops its coarsest node."""

    values: np.ndarray
    extrapolation_error: np.ndarray

    @property
    def estimator_mismatch(self) -> float:
        """Largest gap between the 6-node and 5-node interpolants' values,
        relative to max |values|."""
        scale = float(np.max(np.abs(self.values)))
        return float(np.max(self.extrapolation_error)) / scale if scale > 0 else 0.0


# near-T_c nodes of the one interpolant behind v, w and the verdict's limits
_DEPTH = 6


def require_resolution(t_resolution: int, span_decades: float) -> None:
    """Refuse, before any solve, a lattice that ``build_thermo_report`` would
    refuse after it: the check ``limit_tables`` makes on a solved surface's
    offsets, applied to ``solve_surface``'s offsets T_c - T at unit scale."""
    _require_offsets(lattice_offsets(t_resolution, span_decades))


def _require_offsets(offsets: np.ndarray) -> np.ndarray:
    if offsets.size < _DEPTH:
        raise ValueError(
            f"insufficient near-T_c resolution: need at least {_DEPTH} nodes "
            f"below T_c, got {offsets.size}"
        )
    if offsets.max() < 99.0 * offsets.min():  # no division: an offset may be 0
        raise ValueError(
            "insufficient near-T_c resolution: offsets must span two decades, "
            f"got ratio {offsets.max() / offsets.min()!r}"
        )
    return offsets


def limit_tables(surface: GapSurface) -> tuple[LimitTable, LimitTable]:
    """Limit slope v and curvature w of the squared gap at T_c from one
    interpolant.

    P is the polynomial through q = u(T, x)^2 / (T_c - T) at the 6 nodes
    nearest T_c.  Since u^2 = v d + (w/2) d^2 + O(d^3) in d = T_c - T,
    v = P(0) and w = 2 P'(0).  Each error is the change when the same
    interpolant is built on the deepest 5 nodes.  A surface whose nodes do
    not resolve T_c, a v that is not strictly positive at every node and a
    w that is not finite are refused.
    """
    offsets = _require_offsets(surface.t_c - surface.t_nodes[:-1])
    d = offsets[-_DEPTH:]
    q = surface.values[:-1][-_DEPTH:] ** 2 / d[:, None]
    (v, half_w), (v_err, half_w_err) = _limit_at_zero(d, q, (0, 1))
    w = 2.0 * half_w
    if np.any(v <= 0.0):
        raise ValueError("limit slope must be strictly positive at every node")
    if not np.all(np.isfinite(w)):
        raise ValueError("limit curvature must be finite")
    return (
        LimitTable(values=v, extrapolation_error=v_err),
        LimitTable(values=w, extrapolation_error=2.0 * half_w_err),
    )


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
# the curvature kernel and the specific-heat jump


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


def _curvature_integral(vals: np.ndarray, t_c: float, grid: EnergyGrid) -> float:
    """integral v(2 T_c eta)^2 g(eta) d eta, on the energy grid's nodes
    through the substitution eta = xi/(2 T_c)."""
    eta, w_eta = grid.nodes / (2.0 * t_c), grid.weights / (2.0 * t_c)
    return float(np.dot(w_eta, vals**2 * gap_curvature(eta)))


def delta_cv(
    v: np.ndarray, t_c: float, params: PhysicalParams, grid: EnergyGrid
) -> float:
    """Specific-heat jump at the transition:

        -(N0/(8 T_c)) * integral v(2 T_c eta)^2 g(eta) d eta

    over eta in [eps/(2T_c), hbar_omega_d/(2T_c)]; strictly positive since
    the curvature kernel is negative.
    """
    integral = _curvature_integral(v, t_c, grid)
    return float(-params.n0_dos / (8.0 * t_c) * integral)


def psi_second_at_tc(
    v: np.ndarray, t_c: float, params: PhysicalParams, grid: EnergyGrid
) -> tuple[float, float]:
    """Second temperature derivative of the potential difference at T_c.

    Two analytically equal forms, evaluated on the same quadrature nodes
    (related by eta = xi/(2 T_c)):

        formA = (N0/(8 T_c^2)) integral v(2 T_c eta)^2 g(eta) d eta
        formB = (N0/2) integral (v(xi)^2/xi^2)
                  {1/(2 T_c cosh^2(xi/2T_c)) - tanh(xi/2T_c)/xi} d xi

    Both negative; their agreement is a cross-check of the curvature-kernel
    evaluation since formB carries the raw cancellation: they must agree to
    1e-8 relative plus form B's rounding bound, or RuntimeError is raised.
    Form A is ``delta_cv``'s integral.
    """
    n0 = params.n0_dos
    form_a = n0 / (8.0 * t_c**2) * _curvature_integral(v, t_c, grid)

    xi = grid.nodes
    z = xi / (2.0 * t_c)
    sech2, tanh_xi = sech(z) ** 2 / (2.0 * t_c), np.tanh(z) / xi
    form_b, size = (
        0.5 * n0 * float(np.dot(grid.weights, v**2 / xi**2 * bracket))
        for bracket in (sech2 - tanh_xi, sech2 + tanh_xi)
    )
    # form B's rounding bound: its bracket's terms carry about 11 and 4
    # half-ulps, and the pairwise sum about log2(n) more, of their sizes,
    # which cancel as xi -> 0
    if abs(form_a - form_b) > 1e-8 * abs(form_a) + 16.0 * np.finfo(float).eps * size:
        raise RuntimeError(f"curvature forms disagree: {form_a!r} vs {form_b!r}")
    return form_a, form_b


def first_derivative_three_terms(
    v: np.ndarray, t_c: float, params: PhysicalParams, grid: EnergyGrid
) -> tuple[float, float, float]:
    """The three limit integrals whose sum is the first derivative at T_c:

        N0 I[v/xi],  -N0 I[(v/xi) tanh(xi/2T_c)],  -2 N0 I[(v/xi) / (e^{xi/T_c}+1)]

    They cancel exactly through 1 - tanh(z/2) = 2/(e^z + 1).
    """
    xi = grid.nodes
    w = grid.weights
    n0 = params.n0_dos
    base = v / xi
    term1 = n0 * float(np.dot(w, base))
    term2 = -n0 * float(np.dot(w, base * np.tanh(xi / (2.0 * t_c))))
    ez = np.exp(-xi / t_c)
    term3 = -2.0 * n0 * float(np.dot(w, base * ez / (1.0 + ez)))
    return term1, term2, term3


# ---------------------------------------------------------------------------
# verdict, entropy/heat, perturbation bound, cutoff scan


class TransitionVerdict(Record):
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
    v: LimitTable,
    params: PhysicalParams,
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
    v_vals, v_err = v.values, v.extrapolation_error
    grid = surface.op.grid
    offsets = surface.t_c - surface.t_nodes[:-1]
    psi_tc = float(psi_values[-1])

    # (a): Psi(T_c) = 0 and FD second derivative 2 Psi/d^2 converges
    est = 2.0 * psi_values[:-1] / offsets**2
    deep = slice(-_DEPTH, None)
    fd2, fd2_err = _limit_at_zero(offsets[deep], est[deep], (0,))
    fd2, fd2_err = float(fd2[0]), float(fd2_err[0])
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
        order = _slope(np.log(offsets[deep][mask]), np.log(np.abs(tail[mask])))
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

    Each node takes both derivatives of the polynomial through the 6 nodes
    around it, a window clipped one-sided at the ends; the normal-state
    contribution is zero by construction, so the value at T_c (the one-sided
    limit from below) is the jump.
    """
    t = np.asarray(t_nodes, dtype=float)
    psis = np.asarray(psi_values, dtype=float)
    if t.shape != psis.shape or t.ndim != 1:
        raise ValueError(
            f"need one potential value per temperature: got shapes {psis.shape} "
            f"and {t.shape}"
        )
    if t.size < _DEPTH:
        raise ValueError(f"need at least {_DEPTH} temperature nodes, got {t.size}")
    start = np.clip(np.arange(t.size) - _DEPTH // 2, 0, t.size - _DEPTH)
    window = start[:, None] + np.arange(_DEPTH)
    first, second = np.einsum("nkj,nj->kn", _stencil(t[window], t, (1, 2)), psis[window])
    return -first, -t * second


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


# ---------------------------------------------------------------------------
# report assembly


class ThermoReport(Record):
    t_nodes: np.ndarray
    psi_values: np.ndarray
    entropy_values: np.ndarray
    specific_heat_values: np.ndarray
    v_table: LimitTable
    w_table: LimitTable
    delta_cv: float
    psi_second_tc_form_a: float
    psi_second_tc_form_b: float
    verdict: TransitionVerdict
    t_c: float
    alpha: float
    certified: bool
    rate_bound: float


def build_thermo_report(
    surface: GapSurface,
    params: PhysicalParams,
    certificate: ContractionCertificate | CertificateFailure,
) -> ThermoReport:
    """Full thermodynamic analysis of a solved surface.

    Cross-checks the two forms of Psi''(T_c) (see ``psi_second_at_tc``).
    The jump delta_cv equals -T_c times form A by construction, since both
    are the same integral.

    ``certificate`` is the outcome of ``certificate.search_certificate``,
    and this is where the reported contraction constant is decided: the
    certificate's alpha when the search succeeded, otherwise
    min(rate_bound + 0.1, 0.95) with ``certified`` False.  ``rate_bound`` is
    the largest Collatz-Wielandt bound of the nodes' ``SolveTrace``, the
    measured local contraction rate, reported either way (nan for a
    surface that carries no traces).
    """
    grid = surface.op.grid
    psis = psi_table(surface, params)
    v, w = limit_tables(surface)
    jump = delta_cv(v.values, surface.t_c, params, grid)
    form_a, form_b = psi_second_at_tc(v.values, surface.t_c, params, grid)
    entropy, heat = entropy_and_heat(surface.t_nodes, psis)
    verdict = second_order_verdict(surface, v, params, psis)
    certified = isinstance(certificate, ContractionCertificate)
    rate_bound = max((tr.rate for tr in surface.traces), default=math.nan)
    alpha = certificate.alpha if certified else min(rate_bound + 0.1, 0.95)
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
        rate_bound=rate_bound,
    )
