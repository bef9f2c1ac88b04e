"""Thermodynamics of the transition: potential difference between the
superconducting and normal states, its first two temperature derivatives,
the limit slope and curvature of the squared gap at T_c and the potential
difference's second derivative there (columns of one interpolant,
``limit_tables``), and the specific-heat jump.  ``build_thermo_report``
evaluates them in one pass and decides the second-order transition verdict
on the numbers it holds.  Every temperature derivative is a derivative of
a polynomial through 6 nodes, weighted by one stencil rule (``_stencil``);
each limit at T_c is one interpolant's value or slope at offset 0
(``_limit_at_zero``).

A function on a solved surface takes the ``GapSurface`` and reads from it
the operator it was solved with, the grid, T_c and tau; the formula
functions (``psi``, ``delta_cv``, ...) take arrays and their grid, and
read the gap kernel tanh(E/2T)/E and its T partial from ``kernel_jet``.

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
from .quadrature import EnergyGrid, adaptive_integrate, gap_curvature, kernel_jet
from .solver import GapSurface, lattice_offsets

__all__ = [
    "LimitTable",
    "TransitionVerdict",
    "ThermoReport",
    "psi",
    "psi_table",
    "limit_tables",
    "g_integral_to_infinity",
    "delta_cv",
    "psi_second_at_tc",
    "first_derivative_three_terms",
    "entropy_and_heat",
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
    overflow at small T; the second is u^2 times ``kernel_jet``'s k.
    """
    xi = grid.nodes
    w = grid.weights
    n0 = params.n0_dos
    s = u * u
    e = np.sqrt(grid.xi2 + s)

    term1 = -2.0 * n0 * float(np.dot(w, s / (e + xi)))

    term2 = n0 * float(np.dot(w, s * kernel_jet(grid.xi2, s, T)[0]))

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


# near-T_c nodes of the one interpolant behind v, w and Psi''(T_c): the
# surface's rows just before its T_c row
_DEPTH = 6
_NEAR_TC = slice(-_DEPTH - 1, -1)


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


def limit_tables(
    surface: GapSurface, psi_values: np.ndarray
) -> tuple[LimitTable, LimitTable, float, float]:
    """Limit slope v and curvature w of the squared gap at T_c, and the
    potential difference's second derivative there, from one interpolant.

    P is the polynomial through the columns q = u(T, x)^2 / d and
    2 Psi(T) / d^2 (``psi_values``, see ``psi_table``) at the 6 nodes
    nearest T_c, d = T_c - T.  Since u^2 = v d + (w/2) d^2 + O(d^3),
    v = P(0) and w = 2 P'(0) on q; since Psi(T_c) = Psi'(T_c) = 0, the last
    column's P(0) is Psi''(T_c).  Each error is the change when the same
    interpolant is built on the deepest 5 nodes.  Returns (v, w, Psi''(T_c),
    its error).  A surface whose nodes do not resolve T_c, a v that is not
    strictly positive at every node and a w that is not finite are refused.
    """
    offsets = _require_offsets(surface.t_c - surface.t_nodes[:-1])
    d = offsets[-_DEPTH:]
    columns = np.column_stack(
        (surface.values[_NEAR_TC] ** 2 / d[:, None], 2.0 * psi_values[_NEAR_TC] / d**2)
    )
    (limit, slope), (limit_err, slope_err) = _limit_at_zero(d, columns, (0, 1))
    v, w = limit[:-1], 2.0 * slope[:-1]
    if np.any(v <= 0.0):
        raise ValueError("limit slope must be strictly positive at every node")
    if not np.all(np.isfinite(w)):
        raise ValueError("limit curvature must be finite")
    return (
        LimitTable(values=v, extrapolation_error=limit_err[:-1]),
        LimitTable(values=w, extrapolation_error=2.0 * slope_err[:-1]),
        float(limit[-1]),
        float(limit_err[-1]),
    )


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
    Form A is ``delta_cv``'s integral; form B's bracket is -T_c k_T - k0,
    from one ``kernel_jet`` call at T_c and s = 0.
    """
    n0 = params.n0_dos
    form_a = n0 / (8.0 * t_c**2) * _curvature_integral(v, t_c, grid)

    k0, k_t = kernel_jet(grid.xi2, 0.0, t_c, "T")
    form_b, size = (
        0.5 * n0 * float(np.dot(grid.weights, v**2 / grid.xi2 * bracket))
        for bracket in (-t_c * k_t - k0, -t_c * k_t + k0)
    )
    # form B's rounding bound: its bracket's terms carry about 13 and 4
    # half-ulps (cosh^-2 10, then 2T_c * T_c, the divide and the product
    # by T_c), and the pairwise sum about log2(n) more, of their sizes,
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
    term2 = -n0 * float(np.dot(w, v * kernel_jet(grid.xi2, 0.0, t_c)[0]))
    ez = np.exp(-xi / t_c)
    term3 = -2.0 * n0 * float(np.dot(w, base * ez / (1.0 + ez)))
    return term1, term2, term3


# ---------------------------------------------------------------------------
# verdict, entropy/heat


class TransitionVerdict(Record):
    """Second-order transition checks, decided by ``build_thermo_report``.

    (a) Psi in C^2: the finite-difference Psi''(T_c) of ``limit_tables``
    moves by at most 5% when its coarsest node is dropped; (b) Psi'(T_c) = 0:
    the one-sided first derivative -Psi/d vanishes with observed order >= 1
    on the same nodes and the three-limit decomposition cancels to rounding;
    (c) Psi''(T_c) != 0: form A is negative and larger than its error
    propagated from v's.  Psi(T_c) = 0 holds by construction: the T_c row of
    a solved surface is the zero field.
    """

    a: bool
    b: bool
    c: bool
    second_derivative_fd: float
    second_derivative_fd_error: float
    first_derivative_order: float
    three_term_relative: float
    psi_second_error: float


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


# ---------------------------------------------------------------------------
# report assembly


class ThermoReport(Record):
    psi_values: np.ndarray
    entropy_values: np.ndarray
    specific_heat_values: np.ndarray
    v_table: LimitTable
    w_table: LimitTable
    delta_cv: float
    psi_second_tc_form_a: float
    psi_second_tc_form_b: float
    verdict: TransitionVerdict
    alpha: float
    certified: bool
    rate_bound: float


def build_thermo_report(
    surface: GapSurface,
    params: PhysicalParams,
    certificate: ContractionCertificate | CertificateFailure,
) -> ThermoReport:
    """Full thermodynamic analysis of a solved surface, in one pass: one
    extrapolation (``limit_tables``) gives v, w and the finite-difference
    Psi''(T_c), and the transition verdict is decided on the numbers the
    report holds.  The tables follow the surface's ``t_nodes``.

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
    v, w, fd2, fd2_err = limit_tables(surface, psis)
    jump = delta_cv(v.values, surface.t_c, params, grid)
    form_a, form_b = psi_second_at_tc(v.values, surface.t_c, params, grid)
    entropy, heat = entropy_and_heat(surface.t_nodes, psis)
    # the verdict (see TransitionVerdict), on the interpolant's nodes
    d = surface.t_c - surface.t_nodes[_NEAR_TC]
    order = _slope(np.log(d), np.log(np.abs(psis[_NEAR_TC] / d)))
    t1, t2, t3 = first_derivative_three_terms(v.values, surface.t_c, params, grid)
    three_rel = abs(t1 + t2 + t3) / abs(t1)
    rel_v_err = float(np.max(v.extrapolation_error / v.values))
    err_a = 2.0 * abs(form_a) * rel_v_err + 1e-12 * abs(form_a)
    verdict = TransitionVerdict(
        a=fd2_err <= 5e-2 * abs(fd2),
        b=order >= 1.0 - 0.1 and three_rel <= 1e-10,
        c=form_a < 0.0 and abs(form_a) > 3.0 * err_a,
        second_derivative_fd=fd2,
        second_derivative_fd_error=fd2_err,
        first_derivative_order=order,
        three_term_relative=three_rel,
        psi_second_error=err_a,
    )
    certified = isinstance(certificate, ContractionCertificate)
    rate_bound = max((tr.rate for tr in surface.traces), default=math.nan)
    alpha = certificate.alpha if certified else min(rate_bound + 0.1, 0.95)
    return ThermoReport(
        psi_values=psis,
        entropy_values=entropy,
        specific_heat_values=heat,
        v_table=v,
        w_table=w,
        delta_cv=jump,
        psi_second_tc_form_a=form_a,
        psi_second_tc_form_b=form_b,
        verdict=verdict,
        alpha=alpha,
        certified=certified,
        rate_bound=rate_bound,
    )
