import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from bcsgap.fileio import write_csv
from bcsgap.model import ParamsError, build_grid, make_params
from bcsgap.quadrature import EnergyGrid
from bcsgap.simple_gap import (
    NoRootError,
    delta0_closed_form,
    envelope_curve,
    gap_equation_residual,
    implicit_slope_v,
    solve_delta,
    solve_delta_many,
    tau_root,
)

import bcsgap.certificate as certificate
import bcsgap.quadrature as quadrature
import bcsgap.simple_gap as simple_gap
from bcsgap.gap_operator import spectral_tc
from oracles import bisect_delta, bisect_tau, fd_slope_oracle, zeta3_series

# frozen from 40-digit evaluation of the defining equations at
# hbar_omega_d = 1, epsilon = 0.005
DELTA0_03 = 0.066237713522630990
TAU_029 = 0.033463322377744693
TAU_0291 = 0.033894339379104728
TAU_03 = 0.037866443789097250
TAU_0309 = 0.041998761705036562
TAU_031 = 0.042467356146823334
V_IMPLICIT_03 = 0.351187164777819951


def test_delta0_closed_form_frozen_value(params):
    assert delta0_closed_form(0.3, params) == pytest.approx(DELTA0_03, rel=1e-12)


def test_delta0_closed_form_reports_failing_factor():
    bad = make_params(1.0, 0.005, 1.0, 0.29, 0.31)
    with pytest.raises(ParamsError, match="closed_form_validity"):
        delta0_closed_form(0.15, bad)  # 0.005*e^{1/0.15} ~ 3.9 > 1


def test_delta0_small_cutoff_limit():
    # ratio to hbar_omega_d/sinh(1/U) tends to one as the cutoff vanishes
    p = make_params(1.0, 1e-8, 1.0, 0.291, 0.309)
    ratio = delta0_closed_form(0.3, p) * math.sinh(1.0 / 0.3)
    assert ratio == pytest.approx(1.0, abs=1e-6)


def test_solve_delta_at_zero_matches_closed_form(params):
    assert solve_delta(0.3, 0.0, params) == pytest.approx(
        delta0_closed_form(0.3, params), abs=1e-10
    )


def test_tau_root_frozen_values(params):
    assert tau_root(0.3, params) == pytest.approx(TAU_03, abs=1e-10)
    assert tau_root(0.29, params) == pytest.approx(TAU_029, abs=1e-10)
    assert tau_root(0.31, params) == pytest.approx(TAU_031, abs=1e-10)


def test_tau_root_monotone_in_coupling(params):
    assert tau_root(0.31, params) > tau_root(0.29, params)


def test_tau_root_residual(params):
    for u in (0.291, 0.3, 0.309):
        tau = tau_root(u, params)
        assert abs(gap_equation_residual(u, 0.0, tau, params)) <= 1e-12


def test_tau_and_bisect_tau_lie_in_its_window_from_at_most_8_evaluations(params, monkeypatch):
    # tau is the Newton point of the window _enclose proves, as every gap
    # value is: it lies in [tau_lo, tau_hi], and so does plain bisection's
    # float on the same computed f.  f is evaluated 7 times at each of these
    # couplings: f(0), four Newton steps and the two edges
    calls = 0

    def counting(real):
        def wrapped(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        return wrapped

    couplings = np.linspace(params.u_lower, params.u_upper, 7).tolist()
    expected = [bisect_tau(u, params) for u in couplings]
    monkeypatch.setattr(simple_gap, "_coupling_integral", counting(simple_gap._coupling_integral))
    monkeypatch.setattr(simple_gap, "kernel_jet", counting(simple_gap.kernel_jet))
    for u, bisected in zip(couplings, expected):
        calls = 0
        tau, lo, hi = simple_gap._tau_window.__wrapped__(u, params)
        assert lo <= tau <= hi and lo <= bisected <= hi, u
        assert calls <= 8, (u, calls)


@pytest.mark.parametrize("epsilon", [0.005, 1e-6])
def test_tau_window_holds_the_continuum_root(epsilon):
    # the 40-digit root of U * integral(tanh(xi/2T)/xi) = 1 over
    # [epsilon, hbar_omega_d] lies in the window proven around tau, and so
    # does tau; the window is tau's error bar, a few 1e-12 of it wide
    p = make_params(1.0, epsilon, 1.0, 0.291, 0.309)
    for u in (0.291, 0.3, 0.309):
        tau, lo, hi = simple_gap._tau_window(u, p)
        assert tau == tau_root(u, p)
        assert 0.0 < lo <= tau <= hi and hi - lo <= 2e-11 * tau, u
        with mp.workdps(40):
            exact = mp.findroot(lambda t: _continuum_f(u, 0.0, t, p), (mp.mpf(lo), mp.mpf(hi)),
                                solver="anderson")
            assert mp.mpf(lo) <= exact <= mp.mpf(hi), u


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_tau_window_edge_needs_a_margin_of_twice_its_bound(params, monkeypatch, side):
    # tau's edges are _proven_edge checks in T against E', the rounding
    # bound at T = 0 plus Q at U hbar_omega_d / 2, where the right side is
    # capped: a computed f of the proven sign proves nothing until
    # |f| > 2E'.  Below the margin the edge widens x4; above it, it is
    # returned
    u = 0.3
    calls = []
    proven_edge = simple_gap._proven_edge

    def recording(*args):
        calls.append(args)
        return (yield from proven_edge(*args))

    monkeypatch.setattr(simple_gap, "_proven_edge", recording)
    simple_gap._tau_window.__wrapped__(u, params)
    top = 0.5 * u * params.hbar_omega_d
    rule = simple_gap._reference_rule(params)
    expected = float(simple_gap._rounding_bound(u, 0.0, rule) + simple_gap._quadrature_bound(u, top, params))
    ((t_star, width, _, limit, bound),) = [c for c in calls if c[2] == side]
    assert limit == (0.0 if side < 0.0 else top)
    assert bound == expected

    search = proven_edge(t_star, width, side, limit, bound)
    seen = [next(search)[0]]
    with pytest.raises(StopIteration) as done:
        for size in (0.5, 1.9, 2.1):
            seen.append(search.send((-side * size * bound, None))[0])
    assert seen == [t_star + side * w for w in (width, 4.0 * width, 16.0 * width)]
    assert done.value.value == seen[-1]


def test_tau_root_requires_logarithmic_span():
    p = make_params(1.0, 0.005, 1.0, 0.291, 0.309)
    with pytest.raises(NoRootError, match="tau_existence"):
        tau_root(0.12, p)  # 0.12 * ln(200) ~ 0.64 < 1


def test_tau_root_at_a_span_of_one_ulp_above_one_fails_to_bracket(monkeypatch):
    # U * ln(200) = 1 + 2e-16: the rule's computed U * sum(w/xi) - 1 is
    # within rounding of zero, which proves no root; it is refused before
    # any bracket is sought
    u = math.nextafter(1.0 / math.log(200.0), math.inf)
    p = make_params(1.0, 0.005, 1.0, u, 0.309)
    assert u * math.log(200.0) > 1.0
    temperatures = []
    real = simple_gap._coupling_integral

    def recording(s, T, params):
        temperatures.append(T)
        return real(s, T, params)

    monkeypatch.setattr(simple_gap, "_coupling_integral", recording)
    with pytest.raises(NoRootError, match=r"tau_existence: .* does not exceed its error bound"):
        tau_root.__wrapped__(u, p)
    assert temperatures == [0.0]  # refused at T = 0, without halving T


def test_tau_root_refuses_a_span_the_rule_rounds_above_one(monkeypatch):
    # weights a few ulps high, as correctly rounded Gauss weights can be,
    # lift U * sum(w/xi) above one at the same span; the rule's sum then
    # crosses one at some T, but that proves no root of the continuum
    # equation, and tau must be refused rather than returned
    u = math.nextafter(1.0 / math.log(200.0), math.inf)
    p = make_params(1.0, 0.005, 1.0, u, 0.309)
    real = quadrature.gauss_legendre_panels

    def nudged(edges, order):
        nodes, weights = real(edges, order)
        return nodes, weights * (1.0 + 8.0 * np.finfo(float).eps)

    monkeypatch.setattr(quadrature, "gauss_legendre_panels", nudged)
    simple_gap._reference_rule.cache_clear()
    try:
        rule = simple_gap._reference_rule(p)
        assert u * float(np.dot(rule.weights, 1.0 / rule.nodes)) > 1.0
        with pytest.raises(NoRootError, match="tau_existence"):
            tau_root.__wrapped__(u, p)
    finally:
        simple_gap._reference_rule.cache_clear()


def test_solve_delta_zero_extension_and_boundary(params):
    tau = tau_root(0.3, params)
    assert solve_delta(0.3, tau, params) == 0.0
    assert solve_delta(0.3, tau * 1.5, params) == 0.0
    assert solve_delta(0.3, tau * 0.999, params) > 0.0


def _block_rows(p) -> int:
    """Rows of a root block on p's reference rule, by the element budget."""
    return max(1, simple_gap._BLOCK_ELEMENTS // simple_gap._reference_rule(p).nodes.size)


def _assert_in_window(delta, lo, hi, u, p):
    """delta lies in [lo, hi] up to plain bisection's stop."""
    stop = max(1e-15 * delta0_closed_form(u, p), 1e-18)
    assert lo - stop <= delta <= hi + stop, (delta, lo, hi)


def _edge_temperatures(tau):
    near = [tau * (1.0 - 10.0**-k) for k in (3, 6, 9, 12, 14, 15, 16)]
    return [0.0, 1e-300, 1e-12, 1e-6 * tau, 0.5 * tau, *near, math.nextafter(tau, 0.0)]


@pytest.mark.parametrize(
    "epsilon, band, couplings",
    [
        (0.005, (0.291, 0.309), (0.291, 0.3, 0.309, 0.5)),
        (1e-6, (0.291, 0.309), (0.291, 0.3, 0.309, 0.5)),
        (0.05, (0.485, 0.515), (0.5,)),
    ],
)
def test_solve_delta_equals_plain_bisection_bit_for_bit(epsilon, band, couplings):
    # each value is a point of its proven window, the window holds plain
    # bisection's float up to the bisection's stop, and the scalar solve is
    # the block solve bit for bit.  The near-tau temperatures are where the
    # root sinks into the rounding noise of f and the window has nothing to
    # prove on one side
    p = make_params(1.0, epsilon, 1.0, *band)
    for u in couplings:
        ts = _edge_temperatures(tau_root(u, p))
        roots, lo, hi = simple_gap._solve_windows(u, ts, p)
        for t, root, a, b in zip(ts, roots, lo, hi):
            value = solve_delta(u, t, p)
            assert value == root and a <= value <= b, (u, t)
            _assert_in_window(bisect_delta(u, t, p), a, b, u, p)


@pytest.mark.parametrize(
    "epsilon, band, couplings",
    [
        (0.005, (0.291, 0.309), (0.291, 0.3, 0.309, 0.5)),
        (1e-6, (0.291, 0.309), (0.291, 0.3, 0.309, 0.5)),
        (0.05, (0.485, 0.515), (0.5,)),
    ],
)
def test_solve_delta_many_equals_plain_bisection_bit_for_bit(epsilon, band, couplings):
    # lengths around the block size: a lone row, a short, full and one-over
    # block, and several blocks with a short tail; each vector mixes the
    # edge temperatures, temperatures at or above tau and random ones.  A
    # value does not depend on the block it is solved in: it equals the
    # scalar solve bit for bit, lies in its window, and the window holds
    # plain bisection's float up to the bisection's stop
    p = make_params(1.0, epsilon, 1.0, *band)
    block = _block_rows(p)
    rng = np.random.default_rng(8)
    for u in couplings:
        tau = tau_root(u, p)
        pool = [*_edge_temperatures(tau), tau, 1.5 * tau]
        pool += rng.uniform(0.0, tau, 3 * block + 5).tolist()
        expected = {t: solve_delta(u, t, p) for t in pool}
        bisected = {t: bisect_delta(u, t, p) for t in pool}
        for n in (1, block - 1, block, block + 1, 3 * block + 5):
            ts = [pool[i] for i in rng.permutation(len(pool))[:n]]
            got = solve_delta_many(u, ts, p)
            assert got.tolist() == [expected[t] for t in ts], (u, n)
            _, lo, hi = simple_gap._solve_windows(u, ts, p)
            assert np.all(lo <= got) and np.all(got <= hi), (u, n)
            for t, a, b in zip(ts, lo, hi):
                _assert_in_window(bisected[t], a, b, u, p)


def test_solve_delta_many_memory_is_one_block(params):
    # the kernel buffers are sized by the block, not by the temperatures
    block = _block_rows(params)
    ts = np.random.default_rng(5).uniform(0.0, tau_root(0.3, params), 1024)
    solve_delta_many(0.3, ts[:block], params)  # rule caches built outside the count
    tracemalloc.start()
    try:
        solve_delta_many(0.3, ts[:block], params)
        one_block = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solve_delta_many(0.3, ts, params)
        all_blocks = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all_blocks <= 1.5 * one_block


def _count_blocks(monkeypatch) -> list[int]:
    """Sizes of the root blocks solved from here on, one entry per block."""
    blocks: list[int] = []
    real_block = simple_gap._solve_block

    def counting_block(U, Ts, *args):
        blocks.append(len(Ts))
        return real_block(U, Ts, *args)

    monkeypatch.setattr(simple_gap, "_solve_block", counting_block)
    return blocks


def test_envelopes_solve_in_blocks(params, monkeypatch):
    # each envelope curve makes ceil(n/B) block solves for its n temperatures
    # below tau and no per-T scalar solve; a revert to a per-T loop would show
    # up as scalar calls or blocks of one
    block = _block_rows(params)
    blocks = _count_blocks(monkeypatch)
    scalar: list[float] = []
    real_scalar = simple_gap.solve_delta

    def counting_scalar(U, T, p):
        scalar.append(T)
        return real_scalar(U, T, p)

    monkeypatch.setattr(simple_gap, "solve_delta", counting_scalar)
    for u in (params.u_lower, params.u_upper):
        blocks.clear()
        curve = envelope_curve(u, params)
        below = int(np.count_nonzero(curve.t_nodes < curve.tau))
        assert len(blocks) == math.ceil(below / block) and sum(blocks) == below
        assert scalar == []


def test_a_larger_rule_solves_fewer_rows_a_block(monkeypatch):
    # the block budget counts kernel elements, not rows: the larger rule of
    # epsilon = 1e-6 takes fewer temperatures a block than the rule of
    # epsilon = 0.005, neither block passes the budget, and across the
    # blocks every value is the scalar solve's bit for bit
    blocks = _count_blocks(monkeypatch)
    rows = {}
    for epsilon in (0.005, 1e-6):
        p = make_params(1.0, epsilon, 1.0, 0.291, 0.309)
        nodes = simple_gap._reference_rule(p).nodes.size
        count = 2 * _block_rows(p) + 5
        ts = np.random.default_rng(13).uniform(0.0, tau_root(0.3, p), count).tolist()
        blocks.clear()
        values = solve_delta_many(0.3, ts, p).tolist()
        rows[epsilon] = (nodes, max(blocks))
        assert len(blocks) >= 3 and rows[epsilon][1] * nodes <= simple_gap._BLOCK_ELEMENTS
        assert values == [solve_delta(0.3, t, p) for t in ts], epsilon
    assert rows[1e-6][0] > rows[0.005][0] and rows[1e-6][1] < rows[0.005][1]


def test_certificate_search_solves_few_envelope_roots(params, const_op, monkeypatch):
    # the search on the default config encloses its bound from the roots at
    # a few cell edges, and reports Delta2(T_c) from them rather than solving
    # it again
    t_c = spectral_tc(const_op, params)
    blocks = _count_blocks(monkeypatch)
    certificate.search_certificate(const_op, params, t_c=t_c)
    assert sum(blocks) <= 16 and len(blocks) <= 4


def _mp_root(U, T, params, guess):
    # the reference-rule gap equation, U * sum_j w_j k(xi_j, delta^2, T) = 1,
    # solved in 40 digits from the float rule's own nodes and weights
    rule = simple_gap._reference_rule(params)
    nodes = [mp.mpf(float(x)) for x in rule.nodes]
    weights = [mp.mpf(float(w)) for w in rule.weights]

    def f(delta):
        total = mp.mpf(0)
        for x, w in zip(nodes, weights):
            r = mp.sqrt(x * x + delta * delta)
            total += w * (mp.tanh(r / (2 * T)) / r if T > 0 else 1 / r)
        return U * total - 1

    return mp.findroot(f, mp.mpf(guess))


@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.99, 1.0 - 1e-4])
def test_root_windows_enclose_the_exact_root(params, fraction):
    # the contraction bound rests on the proven windows: each must hold the
    # 40-digit root of the same discretised equation, and hold the float
    # that solve_delta returns, which must sit far inside its error bar
    for u in (params.u_lower, params.u_upper):
        T = fraction * tau_root(u, params)
        (root,), (lo,), (hi,) = simple_gap._solve_windows(u, [T], params)
        assert root == solve_delta(u, T, params)
        assert 0.0 < lo <= root <= hi < math.inf
        with mp.workdps(40):
            exact = _mp_root(u, T, params, root)
            assert mp.mpf(lo) <= exact <= mp.mpf(hi)
            assert abs(mp.mpf(root) - exact) <= 1e-3 * (mp.mpf(hi) - mp.mpf(lo))


def _mp_kernel(s, T):
    # the gap kernel at squared gap s and temperature T, in the working precision
    s, T = mp.mpf(s), mp.mpf(T)

    def k(xi):
        r = mp.sqrt(xi * xi + s)
        return mp.tanh(r / (2 * T)) / r if T > 0 else 1 / r

    return k


def _continuum_f(U, delta, T, params):
    # U * integral of the gap kernel over [epsilon, hbar_omega_d], less one,
    # in the working precision: mpmath's quad over one piece per e-fold
    eps, top = mp.mpf(params.epsilon_cutoff), mp.mpf(params.hbar_omega_d)
    pieces = math.ceil(math.log(params.hbar_omega_d / params.epsilon_cutoff))
    edges = [eps * (top / eps) ** (mp.mpf(j) / pieces) for j in range(pieces + 1)]
    return U * mp.quad(_mp_kernel(mp.mpf(delta) ** 2, T), edges) - 1


@pytest.mark.parametrize(
    "epsilon, band",
    [(0.005, (0.291, 0.309)), (1e-6, (0.291, 0.309)), (0.05, (0.485, 0.515))],
)
def test_root_windows_enclose_the_continuum_root(epsilon, band):
    # E covers the reference rule's quadrature error as well as rounding,
    # so each window holds the root of the continuum equation: the 40-digit
    # continuum f, which falls in the gap, is positive at the lower edge
    # and negative at the upper one
    p = make_params(1.0, epsilon, 1.0, *band)
    for u in band:
        ts = [f * tau_root(u, p) for f in (0.0, 0.5, 0.99, 1.0 - 1e-4)]
        _, lo, hi = simple_gap._solve_windows(u, ts, p)
        for t, a, b in zip(ts, lo, hi):
            assert 0.0 < a <= b < math.inf, (u, t)
            with mp.workdps(40):
                assert _continuum_f(u, a, t, p) > 0 > _continuum_f(u, b, t, p), (u, t)


def _exact_panels_within_bounds(rule, p):
    """Each panel's exact Gauss rule, in the working precision, as
    (nodes, weights), after asserting that its error, against mpmath's quad,
    lies within the panel's bound a + b T, and the rule's summed error
    within ``rule.bound(T)``: at the zero gap at tau, at delta0 at T = 0,
    and at the zero gap far below the cutoff."""
    order = rule.order
    a, b = quadrature._panel_bounds(rule.edges, order)
    cases = [
        (0.0, tau_root(0.309, p)),
        (delta0_closed_form(0.309, p) ** 2, 0.0),
        (0.0, 1e-3 * p.epsilon_cutoff),
    ]
    xg = [
        mp.findroot(lambda x: mp.legendre(order, x), mp.mpf(float(x0)))
        for x0 in np.polynomial.legendre.leggauss(order)[0]
    ]
    wg = [2 * (1 - x * x) / (order * mp.legendre(order - 1, x)) ** 2 for x in xg]
    panels, totals = [], [mp.mpf(0)] * len(cases)
    for i, (lo, hi) in enumerate(zip(rule.edges[:-1].tolist(), rule.edges[1:].tolist())):
        mid, half = (mp.mpf(lo) + mp.mpf(hi)) / 2, (mp.mpf(hi) - mp.mpf(lo)) / 2
        xs, ws = [mid + half * x for x in xg], [half * w for w in wg]
        panels.append((xs, ws))
        for c, (s, T) in enumerate(cases):
            k = _mp_kernel(s, T)
            error = abs(mp.quad(k, [lo, hi]) - mp.fsum(w * k(x) for x, w in zip(xs, ws)))
            assert error <= a[i] + b[i] * T, (i, s, T)
            totals[c] += error
    for total, (s, T) in zip(totals, cases):
        assert total <= rule.bound(T), (s, T)
    return panels


@pytest.mark.parametrize("epsilon", [0.005, 1e-6])
def test_reference_rule_panel_errors_lie_within_their_bounds(epsilon):
    # each panel's bound a + b T holds the error of the exact 12-point Gauss
    # rule on that panel, against mpmath's quad: at the zero gap at tau, at
    # delta0 at T = 0, and at the zero gap far below the cutoff.  And each
    # term of the float rule, its node and weight, lies within
    # _RULE_ROUNDINGS eps of the exact rule's, relatively
    p = make_params(1.0, epsilon, 1.0, 0.291, 0.309)
    order = simple_gap._RULE_ORDER
    rule = simple_gap._reference_rule(p)
    nodes, weights = rule.nodes, rule.weights
    allowance = simple_gap._RULE_ROUNDINGS * np.finfo(float).eps
    with mp.workdps(40):
        for i, (xs, ws) in enumerate(_exact_panels_within_bounds(rule, p)):
            for j in range(order):
                node, weight = nodes[i * order + j], weights[i * order + j]
                moved = abs(node - xs[j]) / xs[j] + abs(weight - ws[j]) / ws[j]
                assert moved <= allowance, (i, j)


@pytest.mark.parametrize("epsilon", [0.005, 1e-6])
def test_nystrom_grid_panel_errors_lie_within_their_bounds(epsilon):
    # the same bounds, on the default 16 x 10 Nystrom grid
    p = make_params(1.0, epsilon, 1.0, 0.291, 0.309)
    with mp.workdps(40):
        _exact_panels_within_bounds(build_grid(p, 16, 10), p)


def test_a_rule_too_coarse_for_the_temperature_is_refused():
    # near tau of a strong coupling over a tiny cutoff, T/epsilon is so
    # large that the quadrature bound passes 1/16 of the rounding bound;
    # the window would still be proven, but the rule is refused by name
    p = make_params(1.0, 1e-10, 1.0, 0.291, 0.309)
    u = 0.5
    with pytest.raises(ParamsError, match="reference_rule: quadrature bound"):
        solve_delta(u, 0.99 * tau_root(u, p), p)
    assert solve_delta(p.u_upper, 0.99 * tau_root(p.u_upper, p), p) > 0.0
    # no smaller rule passes the sizing check here, so the rule keeps its cap
    assert simple_gap._reference_rule(p).edges.size - 1 == 2 * math.ceil(1.5 * math.log(1e10))


def _bound_ratio(p, rule):
    """Q(T_max) / E(T_max) of ``rule``, from its own nodes, weights and
    bound, U cancelling, with T_max = u_upper * hbar_omega_d / 2."""
    t_max = 0.5 * p.u_upper * p.hbar_omega_d
    roundings = rule.size + simple_gap._TERM_ROUNDINGS + simple_gap._RULE_ROUNDINGS
    cap = np.sum(rule.weights * np.minimum(1.0 / rule.nodes, 0.5 / t_max))
    return rule.bound(t_max) / (roundings * np.finfo(float).eps * cap)


@pytest.mark.parametrize(
    "epsilon, band",
    [
        (1e-6, (0.291, 0.309)),
        (1e-3, (0.291, 0.309)),
        (0.004, (0.291, 0.309)),
        (0.005, (0.291, 0.309)),
        (0.008, (0.291, 0.309)),
        (0.05, (0.485, 0.515)),
    ],
)
def test_reference_rule_is_the_fewest_panels_its_bound_allows(epsilon, band):
    # the panel count is the fewest even one whose quadrature bound at
    # T_max = u_upper * hbar_omega_d / 2, above every tau of the band, is at
    # most 1/64 of its rounding bound there, and never above the cap of
    # about three panels per e-fold; every T up to T_max then passes the
    # Q <= E/16 check of each root with a 4x margin
    p = make_params(1.0, epsilon, 1.0, *band)
    rule = simple_gap._reference_rule(p)
    panels = rule.edges.size - 1
    assert panels % 2 == 0
    assert panels <= 2 * math.ceil(1.5 * math.log(p.hbar_omega_d / epsilon))
    assert _bound_ratio(p, rule) <= 1.0 / 64.0
    fewer = np.geomspace(p.epsilon_cutoff, p.hbar_omega_d, panels - 1)
    assert panels == 2 or _bound_ratio(p, EnergyGrid(fewer, simple_gap._RULE_ORDER)) > 1.0 / 64.0
    ts = np.linspace(0.0, 0.5 * p.u_upper * p.hbar_omega_d, 33)
    for u in band:
        quadrature = simple_gap._quadrature_bound(u, ts, p)
        assert np.all(quadrature <= simple_gap._rounding_bound(u, ts, rule) / 64.0), u


@pytest.mark.parametrize("shift", [0.5, 1.0 + 1e-9, 2.0])
def test_solve_delta_window_checks_catch_a_misplaced_root(params, monkeypatch, shift):
    # the window checks, not Newton, carry the proof: with Newton's point
    # moved off the true root, the checks fail and the window widens or
    # gives up.  The window still holds the 40-digit root and plain
    # bisection's float, and a bisection inside it places the value within
    # a few widths of the window that a well-placed point proves.  tau is
    # enclosed the same way, in T
    tau, tau_lo, tau_hi = simple_gap._tau_window(0.3, params)
    ts = (0.0, 0.5 * tau, tau * (1.0 - 1e-6))
    _, lo0, hi0 = simple_gap._solve_windows(0.3, ts, params)
    newton = simple_gap._newton

    def misplaced(*args):
        x, slope = yield from newton(*args)
        return x * shift, slope

    monkeypatch.setattr(simple_gap, "_newton", misplaced)
    for t, width in zip(ts, hi0 - lo0):
        (value,), (lo,), (hi,) = simple_gap._solve_windows(0.3, [t], params)
        bisected = bisect_delta(0.3, t, params)
        assert lo <= value <= hi and lo <= bisected <= hi, t
        assert abs(value - bisected) <= 4.0 * width, t
        with mp.workdps(40):
            exact = _mp_root(0.3, t, params, bisected)
            assert mp.mpf(lo) <= exact <= mp.mpf(hi)
    value, lo, hi = simple_gap._tau_window.__wrapped__(0.3, params)
    bisected = bisect_tau(0.3, params)
    assert lo <= value <= hi and lo <= bisected <= hi
    assert abs(value - bisected) <= 4.0 * (tau_hi - tau_lo)
    with mp.workdps(40):
        exact = mp.findroot(lambda t: _continuum_f(0.3, 0.0, t, params),
                            (mp.mpf(tau_lo), mp.mpf(tau_hi)), solver="anderson")
        assert mp.mpf(lo) <= exact <= mp.mpf(hi)


@pytest.mark.parametrize(
    "side, root, limit",
    [(-1.0, 1e-4, 0.0), (1.0, 1e-4, 1.0), (1.0, TAU_03, 0.15)],
    ids=["-1.0", "1.0", "tau-cap"],
)
def test_window_edge_needs_a_margin_of_twice_the_rounding_bound(side, root, limit):
    # a computed f of the proven sign proves nothing until |f| > 2E: only
    # then does the exact f, within E of it, exceed E in size, the margin
    # every computed f past the edge needs to keep that sign.  Below it the
    # edge must widen x4, at or above it return the edge.  tau's edges are
    # the same checks in T, the right one capped at U hbar_omega_d / 2
    # (0.15 at U = 0.3), past which f < 0 needs no check
    width, bound = 1e-8, 1e-13
    search = simple_gap._proven_edge(root, width, side, limit, bound)
    x, wants_slope = next(search)
    assert x == root + side * width and not wants_slope
    for size, widened in ((0.5, 4.0), (2.0, 16.0)):
        x, _ = search.send((-side * size * bound, None))
        assert x == root + side * widened * width
    with pytest.raises(StopIteration) as done:
        search.send((-side * 2.5 * bound, None))
    assert done.value.value == x
    # an edge at or past the limit proves nothing, without an evaluation
    with pytest.raises(StopIteration) as done:
        next(simple_gap._proven_edge(limit - 0.5 * side * width, width, side, limit, bound))
    assert done.value.value == side * math.inf


def test_default_envelopes_lie_in_their_windows(params):
    # every node's root is the scalar solve bit for bit, and the curve's
    # value and plain bisection's float lie in that root's window
    for u in (params.u_lower, params.u_upper):
        curve = envelope_curve(u, params)
        roots, lo, hi = simple_gap._solve_windows(u, curve.t_nodes, params)
        assert roots.tolist() == [solve_delta(u, float(t), params) for t in curve.t_nodes]
        assert np.all(lo <= curve.delta_values) and np.all(curve.delta_values <= hi)
        for t, a, b in zip(curve.t_nodes, lo, hi):
            _assert_in_window(bisect_delta(u, float(t), params), a, b, u, params)


@pytest.mark.parametrize("seed", range(3))
def test_scan_like_envelopes_fall_inside_their_windows(seed):
    # couplings and cutoffs drawn as the benchmark's certify scan draws
    # them: the located roots rise somewhere along many such curves, and
    # the curve must still be non-increasing with each value in its window
    rng = np.random.default_rng(seed)
    u0 = float(rng.uniform(0.28, 0.32))
    p = make_params(1.0, float(0.004 * 2.0 ** rng.uniform()), 1.0, 0.97 * u0, 1.03 * u0)
    for u in (p.u_lower, p.u_upper):
        curve = envelope_curve(u, p)
        _, lo, hi = simple_gap._solve_windows(u, curve.t_nodes, p)
        assert np.all(lo <= curve.delta_values) and np.all(curve.delta_values <= hi)
        assert np.all(np.diff(curve.delta_values) <= 0.0)


def _default_envelope_work(params, monkeypatch) -> tuple[int, int, int]:
    """Roots, kernel rows and kernel elements (rows x nodes) of the two
    default envelopes, every evaluated row counted, the locate stage's too."""
    taus = [tau_root(u, params) for u in (params.u_lower, params.u_upper)]
    rows = elements = 0
    kernel_jet = simple_gap.kernel_jet

    def counting(xi2, s, T, *partials):
        nonlocal rows, elements
        rows += len(s)
        elements += len(s) * len(xi2)
        return kernel_jet(xi2, s, T, *partials)

    monkeypatch.setattr(simple_gap, "kernel_jet", counting)
    roots = 0
    for u, tau in zip((params.u_lower, params.u_upper), taus):
        curve = envelope_curve(u, params)
        roots += int(np.count_nonzero(curve.t_nodes < tau))
    return roots, rows, elements


def test_default_envelopes_evaluate_f_at_most_7_times_per_root(params, monkeypatch):
    # plain bisection evaluates f about 51 times per root, and the bisection
    # behind a misplaced locate about 40; a silent fall-back to either would
    # exceed the budget
    roots, rows, _ = _default_envelope_work(params, monkeypatch)
    assert roots == 256
    assert rows / roots <= 7.0


def test_default_envelopes_evaluate_at_most_1200_kernel_elements_per_root(
    params, monkeypatch
):
    # the kernel work is rows x nodes: the 768-node rule took 4,314
    # elements per root, so a revert of the rule's size fails here and not
    # only in a timing
    roots, _, elements = _default_envelope_work(params, monkeypatch)
    assert roots == 256
    assert elements / roots <= 1200


def test_default_envelopes_evaluate_at_most_650_kernel_elements_and_5_rows_per_root(
    params, monkeypatch
):
    # about 4.7 rows per root on the 120-node rule, 563 elements (the
    # 192-node rule, on 5.7 rows, took 1,086), so a revert of the rule's
    # sizing or of Newton's early stop fails here as well
    roots, rows, elements = _default_envelope_work(params, monkeypatch)
    assert roots == 256
    assert elements / roots <= 650
    assert rows / roots <= 5.0


def _count_widenings(monkeypatch) -> list[int]:
    """Failed checks of each window edge solved from here on, one entry per edge."""
    failed: list[int] = []
    real_edge = simple_gap._proven_edge

    def counting(*args):
        search, checks = real_edge(*args), 0
        try:
            request = next(search)
            while True:
                checks += 1
                request = search.send((yield request))
        except StopIteration as done:
            failed.append(checks - (not math.isinf(done.value)))
            return done.value

    monkeypatch.setattr(simple_gap, "_proven_edge", counting)
    return failed


@pytest.mark.parametrize("seed", range(3))
def test_newton_stops_where_no_window_widens(params, monkeypatch, seed):
    # Newton may hand over its point once the quadratic estimate of its
    # next step is within 1/30 of the window's half-width, without
    # evaluating f there; the window checks still prove each edge, and none
    # of them fails: not on the default envelopes, not on envelopes drawn as
    # the benchmark's certify scan draws them, and not near tau over a tiny
    # cutoff, where f's slope vanishes.  tau's edges, proven by the same
    # checks, fail none either: its caches are cleared so that each of the
    # five taus is enclosed here
    simple_gap.tau_root.cache_clear()
    simple_gap._tau_window.cache_clear()
    failed = _count_widenings(monkeypatch)
    rng = np.random.default_rng(seed)
    u0 = float(rng.uniform(0.28, 0.32))
    scan = make_params(1.0, float(0.004 * 2.0 ** rng.uniform()), 1.0, 0.97 * u0, 1.03 * u0)
    roots = 0
    for p in (params, scan):
        for u in (p.u_lower, p.u_upper):
            curve = envelope_curve(u, p)
            roots += int(np.count_nonzero(curve.t_nodes < curve.tau))
    tiny = make_params(1.0, 1e-6, 1.0, 0.291, 0.309)
    u = (0.291, 0.3, 0.309)[seed]
    tau = tau_root(u, tiny)
    simple_gap._solve_windows(u, [tau * (1.0 - 10.0**-k) for k in range(1, 9)], tiny)
    assert len(failed) == 2 * (roots + 8 + 5)
    assert sum(failed) == 0


def test_solve_delta_strictly_decreasing(params):
    tau = tau_root(0.3, params)
    ts = np.linspace(0.0, tau * 0.999, 12)
    deltas = [solve_delta(0.3, float(t), params) for t in ts]
    assert np.all(np.diff(deltas) < 0.0)


def test_solve_delta_residual_along_curve(params):
    tau = tau_root(0.3, params)
    for t in (0.0, 0.3 * tau, 0.7 * tau, 0.95 * tau):
        d = solve_delta(0.3, t, params)
        assert abs(gap_equation_residual(0.3, d, t, params)) <= 1e-12


def test_envelope_ordering_below_and_above_tau2(params):
    # tau1 < tau2, and the lower curve stays below the upper one
    tau1, tau2 = tau_root(params.u_lower, params), tau_root(params.u_upper, params)
    assert tau1 < tau2
    for t in np.linspace(0.0, tau2 * 0.999, 9):
        d1 = solve_delta(params.u_lower, float(t), params)
        d2 = solve_delta(params.u_upper, float(t), params)
        assert d1 < d2
    assert solve_delta(params.u_lower, tau2, params) == 0.0
    assert solve_delta(params.u_upper, tau2, params) == 0.0


def test_flat_start_of_the_gap_curve(params):
    # slope and curvature vanish at T = 0: finite differences shrink fast
    d0 = delta0_closed_form(0.3, params)
    tau = tau_root(0.3, params)
    slopes = [
        (solve_delta(0.3, h, params) - d0) / h for h in (tau / 8, tau / 16, tau / 32)
    ]
    assert abs(slopes[1]) < abs(slopes[0])
    assert abs(slopes[2]) < abs(slopes[1])
    assert abs(slopes[2]) < 1e-6


def test_steep_finish_of_the_gap_curve(params):
    # the slope diverges like -sqrt(v/h) approaching tau; check the rate by
    # requiring slope*sqrt(h) to stay below -sqrt(v)/2 as h shrinks
    tau = tau_root(0.3, params)
    v = implicit_slope_v(0.3, params)
    for h in (tau * 1e-3, tau * 1e-4, tau * 1e-5):
        slope = -solve_delta(0.3, tau - h, params) / h
        assert slope * math.sqrt(h) < -0.5 * math.sqrt(v)


def test_implicit_slope_value_and_sign(params):
    v = implicit_slope_v(0.3, params)
    assert v > 0.0
    assert v == pytest.approx(V_IMPLICIT_03, rel=1e-12)
    for u in (0.291, 0.309):
        assert implicit_slope_v(u, params) > 0.0


def test_implicit_slope_matches_finite_difference_oracle(params):
    v = implicit_slope_v(0.3, params)
    v_fd = fd_slope_oracle(0.3, params)
    assert abs(v - v_fd) / v <= 1e-3


def test_weak_coupling_slope_constant():
    # as the cutoff vanishes, v/tau approaches 8 pi^2 / (7 zeta(3)); the
    # constant is reproduced by the finite-difference oracle, not assumed
    p = make_params(1.0, 1e-6, 1.0, 0.291, 0.309)
    tau = tau_root(0.3, p)
    v_fd = fd_slope_oracle(0.3, p)
    target = 8.0 * math.pi**2 / (7.0 * zeta3_series())
    assert v_fd / tau == pytest.approx(target, rel=1e-2)
    v_impl = implicit_slope_v(0.3, p)
    assert abs(v_impl - v_fd) / v_impl <= 1e-3


def test_envelope_curve_shape(params):
    curve = envelope_curve(0.3, params)
    # the curve is exponentially flat at the cold end (drop ~ e^{-delta0/T},
    # below resolution for T < ~0.06 tau), so strictness is only observable
    # away from T = 0
    assert np.all(np.diff(curve.delta_values) <= 0.0)
    visible = curve.t_nodes[:-1] >= 0.1 * curve.tau
    assert np.all(np.diff(curve.delta_values)[visible] < 0.0)
    assert curve.delta_values[0] == pytest.approx(curve.delta0, abs=1e-10)
    assert curve.delta_values[-1] <= 1e-10


def test_envelope_curve_csv_export(tmp_path, params):
    curve = envelope_curve(0.3, params)
    path = tmp_path / "envelope.csv"
    write_csv(path, ["T", "delta"], zip(curve.t_nodes, curve.delta_values))
    lines = path.read_text().splitlines()
    assert lines[0] == "T,delta"
    assert len(lines) == 130
    first = [float(c) for c in lines[1].split(",")]
    assert first == [0.0, pytest.approx(curve.delta0, rel=1e-15)]
