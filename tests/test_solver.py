import re

import numpy as np
import pytest

from bcsgap import gap_operator, solver
from bcsgap._record import replace
from bcsgap.certificate import CertificateFailure
from bcsgap.gap_operator import (
    apply_values,
    as_operator,
    spectral_radius,
    spectral_tc,
    weighted_potential_matrix,
)
from bcsgap.model import (
    ConstantPotential,
    GaussianBumpPotential,
    ParamsError,
    build_grid,
    make_params,
    potential_matrix,
)
from bcsgap.quadrature import kernel_jet
from bcsgap.simple_gap import solve_delta, solve_delta_many, tau_root
from bcsgap.solver import ConvergenceError, picard_solve, solve_surface
from oracles import nystrom_constant_gap
from test_gap_operator import _skew_table

# picard_solve promises ||u - u*|| <= tol against the fixed point u* of the
# discretised operator.  Checked against nystrom_constant_gap, that bound gets
# a rounding allowance for the oracle itself (within 9e-16 of the 40-digit
# root on the default grid) and for the iteration's rounding floor, about
# eps * |u| / (1 - rho), a few 1e-15 at the node nearest T_c.
ROUNDING_ALLOWANCE = 1e-14


def test_picard_matches_scalar_bisection(const_op, params):
    t_c = tau_root(0.3, params)
    for frac in (0.8, 0.95, 0.995):
        t = frac * t_c
        field, trace = picard_solve(t, const_op, params, tol=1e-9)
        oracle = solve_delta(0.3, t, params)
        assert np.max(np.abs(field.values - oracle)) <= 1e-8
        assert trace.iterations > 0
        assert trace.final_residual <= 2e-9


def test_picard_trace_contracts(const_op, params):
    # a cold solve stops on a rate bound that proves contraction, after
    # enough steps that the difference has shrunk to match it
    t = 0.9 * tau_root(0.3, params)
    _, trace = picard_solve(t, const_op, params, tol=1e-10)
    assert trace.iterations > 10
    assert 0.0 < trace.rate < 1.0
    assert trace.final_residual <= 2e-10


def test_picard_at_transition_returns_zero_field(const_op, params, const_surface):
    surface, _ = const_surface
    field, trace = picard_solve(surface.t_c, const_op, params)
    assert np.all(field.values == 0.0)
    assert trace.final_residual == 0.0
    above, _ = picard_solve(surface.t_c * 1.05, const_op, params)
    assert np.all(above.values == 0.0)


def test_picard_uniqueness_probe(const_op, params, grid):
    # below tau1 the lower envelope is positive, so both envelope starts are
    # admissible and must reach the same fixed point
    tau1 = tau_root(params.u_lower, params)
    t = 0.9 * tau1
    lo0 = np.full(grid.size, solve_delta(params.u_lower, t, params))
    from_top, _ = picard_solve(t, const_op, params, tol=1e-9)
    from_bottom, _ = picard_solve(t, const_op, params, tol=1e-9, initial=lo0)
    assert np.max(np.abs(from_top.values - from_bottom.values)) <= 2e-9


def test_picard_a_posteriori_bound(const_potential, const_op, params, grid):
    # ||u_n - u*|| <= rho/(1-rho) * ||u_n - u_{n-1}|| along the trace, with
    # rho the contraction rate; the running max of observed ratios converges
    # to it from below (transient ratios understate it)
    t = 0.9 * tau_root(0.3, params)
    reference, _ = picard_solve(t, const_op, params, tol=1e-13)
    weighted = weighted_potential_matrix(const_potential, grid)
    u = np.full(grid.size, solve_delta(params.u_upper, t, params))
    history: list[tuple[float, np.ndarray]] = []
    prev_diff = None
    rho = 0.0
    for _ in range(200):
        au = apply_values(weighted, grid.nodes, u, t)
        diff = float(np.max(np.abs(au - u)))
        u = au
        if prev_diff is not None and diff > 1e-12:
            rho = max(rho, diff / prev_diff)
            history.append((diff, u.copy()))
        prev_diff = diff
    assert 0.0 < rho < 1.0
    for diff, iterate in history:
        error = float(np.max(np.abs(iterate - reference.values)))
        assert error <= rho / (1.0 - rho) * diff + 1e-12


@pytest.mark.parametrize("offset, ripple", [(0.0, 0.0), (5e-9, 0.0), (5e-9, 2e-12)])
def test_picard_start_near_fixed_point_close_to_tc(
    offset, ripple, const_op, params, grid, const_surface
):
    # 2.5e-5 below T_c the contraction rate is ~0.9996, so a start 5e-9 off
    # the fixed point makes a first step of ~2e-12, under tol*(1-alpha)/alpha;
    # the stop must still hold the error to tol.  The ripple gives that first
    # step components of both signs.  Starting on the fixed point itself
    # gives steps that are exactly zero or at rounding level.
    surface, _ = const_surface
    t = float(surface.t_nodes[-2])
    c = nystrom_constant_gap(0.3, t, grid)
    sign = np.where(np.arange(grid.size) % 2 == 0, 1.0, -1.0)
    start = c + offset + ripple * sign
    field, trace = picard_solve(t, const_op, params, tol=1e-11, initial=start)
    assert trace.iterations >= 1
    assert np.max(np.abs(field.values - c)) <= 1e-11 + ROUNDING_ALLOWANCE


def test_picard_validates_arguments(const_op, params):
    with pytest.raises(ValueError, match="initial"):
        picard_solve(0.03, const_op, params, initial=np.ones(3))


@pytest.mark.parametrize(
    "start",
    [np.zeros, lambda n: np.full(n, -0.01), lambda n: np.full(n, np.nan)],
    ids=["zero", "negative", "nan"],
)
@pytest.mark.parametrize("solve", [picard_solve, solver.newton_seed])
def test_a_start_that_proves_nothing_is_refused(solve, start, const_op, params, grid):
    # below T_c the zero field is a fixed point that picard_solve would
    # return as a solved row, and a negative start heads for -u*
    with pytest.raises(ValueError, match="nonnegative and positive somewhere"):
        solve(0.03, const_op, params, initial=start(grid.size))


@pytest.mark.parametrize("span", [8.0, 14.0])
def test_surface_refuses_a_zero_row_below_t_c(span, const_op, params):
    # these spans put nodes inside the zero-phase slack below T_c, whose
    # rows come back zero although the gap there is ~sqrt(T_c - T) > 0
    with pytest.raises(ValueError) as err:
        solve_surface(const_op, params, span_decades=span)
    message = str(err.value)
    assert re.search(r"row at T = \S+, T_c - T = \S+, came back zero below T_c", message)
    assert f"solver.span_decades (now {span!r})" in message


@pytest.mark.parametrize("span", [16.0, 400.0])
def test_surface_refuses_a_lattice_collapsed_onto_t_c(span, const_op, params, monkeypatch):
    # from about 15.5 decades on the deepest offsets round away against T_c:
    # span 16 leaves 23 distinct nodes, span 400 two; no node may be solved
    seeds = []
    monkeypatch.setattr(solver, "newton_seed", lambda *args, **kwargs: seeds.append(args))
    with pytest.raises(ValueError) as err:
        solve_surface(const_op, params, span_decades=span)
    message = str(err.value)
    assert f"solver.span_decades = {span!r} collapses the lattice onto T_c" in message
    assert re.search(r"node \d+, at T_c - T = \S+, is not strictly between", message)
    assert seeds == []


@pytest.mark.parametrize("T", [-0.01, 0.0])
@pytest.mark.parametrize("solve", [picard_solve, solver.newton_seed])
def test_a_temperature_that_is_not_positive_is_refused(solve, T, const_op, params, grid):
    # from a positive start newton_seed returned the zero-temperature gap
    # here, and picard_solve refused only inside its zero-field kernel
    message = re.escape(f"temperature must be positive, got T = {T!r}")
    with pytest.raises(ValueError, match=message):
        solve(T, const_op, params, initial=np.full(grid.size, 0.07))


def test_picard_iteration_budget(const_op, params):
    with pytest.raises(ConvergenceError) as err:
        picard_solve(0.03, const_op, params, tol=1e-12, max_iter=5)
    assert 0.0 < err.value.observed_ratio <= 1.0


def test_critical_temperature_constant_oracle(const_op, params):
    t_c = spectral_tc(const_op, params)
    assert abs(t_c - tau_root(0.3, params)) <= 1e-9


@pytest.mark.parametrize("fixture", ["const_potential", "gauss_potential"])
def test_spectral_tc_matches_square_root_shrinkage(fixture, request, params, grid):
    # just below T_c the solved field shrinks like sqrt(T_c - T), so a
    # quarter of the offset halves its sup norm; just above T_c the
    # linearised radius is below one
    op = as_operator(request.getfixturevalue(fixture), grid)
    t_c = spectral_tc(op, params)
    delta = 1e-2 * t_c
    far, _ = picard_solve(t_c - delta, op, params, tol=1e-9)
    near, _ = picard_solve(t_c - delta / 4.0, op, params, tol=1e-9)
    ratio = float(np.max(far.values)) / float(np.max(near.values))
    assert 1.5 <= ratio <= 2.5
    assert spectral_radius(t_c + delta, op).radius < 1.0


def test_critical_temperature_brackets_gaussian(gauss_op, params):
    t_c = spectral_tc(gauss_op, params)
    assert tau_root(params.u_lower, params) <= t_c <= tau_root(params.u_upper, params)


def test_critical_temperature_monotone_in_potential(params, grid):
    from bcsgap.model import GaussianBumpPotential

    small = GaussianBumpPotential(base=0.30, amplitude=0.003, width=0.2)
    large = GaussianBumpPotential(base=0.30, amplitude=0.008, width=0.2)
    tc_small = spectral_tc(as_operator(small, grid), params)
    tc_large = spectral_tc(as_operator(large, grid), params)
    assert tc_large > tc_small


def test_surface_rows_match_scalar_oracle(const_surface, params):
    surface, _ = const_surface
    worst = 0.0
    for i, t in enumerate(surface.t_nodes[:-1]):
        oracle = solve_delta(0.3, float(t), params)
        worst = max(worst, float(np.max(np.abs(surface.values[i] - oracle))))
    assert worst <= 1e-8


def test_surface_rows_within_tol_of_discrete_fixed_point(const_surface, grid):
    # near T_c the observed difference ratio lags the true contraction rate,
    # so a stop taken on it alone overshoots tol at the nodes nearest T_c
    surface, _ = const_surface
    tol = 1e-11  # the solve_surface default the fixture uses
    for i, t in enumerate(surface.t_nodes[:-1]):
        c = nystrom_constant_gap(0.3, float(t), grid)
        error = float(np.max(np.abs(surface.values[i] - c)))
        assert error <= tol + ROUNDING_ALLOWANCE, f"node {i}: error {error:.4e}"


def test_surface_terminal_row_is_zero(const_surface):
    surface, _ = const_surface
    assert np.all(surface.values[-1] == 0.0)
    assert surface.t_nodes[-1] == surface.t_c


def test_surface_rows_monotone_in_temperature(gauss_surface):
    diffs = np.diff(gauss_surface.values, axis=0)
    assert np.all(diffs <= 2e-11)


def test_surface_envelope_invariant(const_surface, params):
    surface, _ = const_surface
    for i, t in enumerate(surface.t_nodes[:-1]):
        d1 = solve_delta(params.u_lower, float(t), params)
        d2 = solve_delta(params.u_upper, float(t), params)
        assert np.all(surface.values[i] >= d1 - 1e-9)
        assert np.all(surface.values[i] <= d2 + 1e-9)


def test_surface_no_partial_zero_rows(const_surface):
    # a solved field vanishes everywhere or nowhere
    surface, _ = const_surface
    for i in range(len(surface.t_nodes)):
        row = surface.values[i]
        assert np.max(row) <= 1e-9 or np.min(row) > 1e-9


def test_surface_clustering_spans_two_decades(const_surface):
    surface, _ = const_surface
    offsets = surface.t_c - surface.t_nodes[:-1]
    assert offsets.max() / offsets.min() >= 99.0
    assert len(surface.t_nodes) >= 25  # 24 solved nodes plus the T_c row


def test_surface_uncertified_metadata(const_surface, const_report, default_search_outcome):
    # the search fails on the default config, so the report carries the
    # fallback from the nodes' Collatz-Wielandt rate bounds
    surface, _ = const_surface
    assert isinstance(default_search_outcome, CertificateFailure)
    assert const_report.certified is False
    assert const_report.alpha == min(max(tr.rate for tr in surface.traces) + 0.1, 0.95)
    assert 0.0 < const_report.alpha <= 0.95


def test_surface_trace_ratios_below_one(const_op, gauss_op, params):
    # surface nodes stop within two Picard steps, so the rates come from
    # cold solves from the upper envelope 1e-2 T_c below T_c (thousands of
    # steps each)
    for op in (const_op, gauss_op):
        t_c = spectral_tc(op, params)
        _, trace = picard_solve(t_c - 1e-2 * t_c, op, params)
        assert trace.iterations > 1000
        assert 0.0 < trace.rate < 1.0


def _jacobian_radius(potential, grid, u, T) -> float:
    """max |eig(W diag(d))| of the dense Jacobian at u, d its diagonal.

    For a symmetric U, W diag(d) = U diag(w d) is similar to the symmetric
    c U c with c = sqrt(w d), whose eigenvalues are cheaper to find.
    """
    _, d = kernel_jet(grid.nodes**2, u * u, T, "u")
    sym = potential_matrix(potential, grid.nodes, grid.nodes)
    if np.array_equal(sym, sym.T):
        c = np.sqrt(grid.weights * d)
        return float(np.max(np.abs(np.linalg.eigvalsh(c[:, None] * sym * c))))
    weighted = weighted_potential_matrix(potential, grid)
    return float(np.max(np.abs(np.linalg.eigvals(weighted * d))))


def _rate_cases(params, grid):
    # (potential, grid, lattice): a 640-node bump like the benchmark's, a
    # non-symmetric table, and a bump of width 0.02, which needs every
    # Chebyshev degree, so that its operator holds the dense W
    return {
        "bump-640": (
            GaussianBumpPotential(base=0.3, amplitude=-0.004409, width=0.1134),
            build_grid(params, panels=64, order=10),
            {"t_resolution": 8, "span_decades": 1.0},
        ),
        "skew-table": (_skew_table(params), grid, {}),
        "bump-0.02": (GaussianBumpPotential(base=0.3, amplitude=0.005, width=0.02), grid, {}),
    }


@pytest.mark.parametrize("case", ["constant", "bump-640", "skew-table", "bump-0.02"])
def test_node_rate_bounds_the_jacobian_spectral_radius(
    case, params, grid, const_potential, const_surface
):
    # q = max (J u)_i / u_i is a Collatz-Wielandt bound, so q >= rho(J) at
    # every node; q < 1 because the kernel falls in s = u^2
    if case == "constant":
        potential, surface = const_potential, const_surface[0]
    else:
        potential, grid, lattice = _rate_cases(params, grid)[case]
        op = as_operator(potential, grid)
        assert (op.left is None) == (case == "bump-0.02")
        surface = solve_surface(op, params, **lattice)
    for i, trace in enumerate(surface.traces):
        T = float(surface.t_nodes[i])
        rho = _jacobian_radius(potential, grid, surface.values[i], T)
        assert rho - 1e-15 <= trace.rate < 1.0, f"node {i}: {trace.rate!r} vs {rho!r}"


def test_each_stop_check_makes_one_jacobian_product(gauss_op, params, monkeypatch):
    # picard_solve takes Jacobian products only in its stop checks, and each
    # check takes one, with the iterate as its test vector
    checks, products = [], []
    real_bound = solver._error_bound
    real_action = gap_operator.GapOperator.jacobian_action

    def counting_bound(*args):
        checks.append(1)
        return real_bound(*args)

    def counting_action(self, diagonal, v):
        products.append(1)
        return real_action(self, diagonal, v)

    t_c = spectral_tc(gauss_op, params)
    monkeypatch.setattr(solver, "_error_bound", counting_bound)
    monkeypatch.setattr(gap_operator.GapOperator, "jacobian_action", counting_action)
    picard_solve(t_c - 1e-2 * t_c, gauss_op, params, tol=1e-11)
    assert checks and len(products) == len(checks)


def test_surface_node_rates_in_unit_interval(const_surface, gauss_surface):
    # every node's stop was accepted on a rate bound that proves contraction
    surface, _ = const_surface
    for s in (surface, gauss_surface):
        assert all(0.0 < tr.rate < 1.0 for tr in s.traces)


def test_surface_nodes_stop_within_two_picard_steps(const_surface, gauss_surface):
    # a step at the rounding floor must not push the stop screen's rate
    # toward one: that suppressed every check, and one bump node took 27
    # steps before its step happened to be exactly zero
    surface, _ = const_surface
    for s in (surface, gauss_surface):
        slow = [tr.iterations for tr in s.traces if tr.iterations > 2]
        assert slow == []


@pytest.mark.parametrize("components", [[0], [3, 70, 140], [0, 50, 100, 150]])
def test_error_bound_at_the_rounding_floor_is_finite(
    components, gauss_op, gauss_surface
):
    # a step of one ulp on a few components is all that is left at the
    # rounding floor; a test vector built from such a step is a few columns
    # of J, whose Collatz-Wielandt ratio exceeds one on the bump's
    # Jacobian, so the check must take its rate from the iterate instead
    node = len(gauss_surface.t_nodes) - 2  # the solved node nearest T_c
    u = gauss_surface.values[node]
    step = np.zeros_like(u)
    step[components] = np.spacing(u[components])
    q, bound, _ = solver._error_bound(gauss_op, u, float(gauss_surface.t_nodes[node]), step)
    assert q < 1.0
    assert bound <= 1e-11


def test_zero_step_on_the_bump_operator_ends_picard_at_once(
    gauss_op, params, gauss_surface, monkeypatch
):
    # a row that is a fixed point in floating point gives a zero step, which
    # leaves nothing to bound, also at the bump's node nearest T_c
    op = gauss_op
    node = len(gauss_surface.t_nodes) - 2
    u, t = gauss_surface.values[node], float(gauss_surface.t_nodes[node])
    q, bound, _ = solver._error_bound(op, u, t, np.zeros_like(u))
    assert q < 1.0 and bound == 0.0
    monkeypatch.setattr(gap_operator.GapOperator, "apply", lambda self, v, T: v.copy())
    field, trace = picard_solve(t, op, params, tol=1e-11, initial=u)
    assert trace.iterations == 1 and np.array_equal(field.values, u)


@pytest.mark.parametrize("case", ["constant", "bump"])
def test_one_kernel_evaluation_gives_a_u_and_its_jacobian(
    case, const_op, gauss_op, params, monkeypatch
):
    # A u and A'(u) at one iterate come from one kernel evaluation: Newton
    # makes one per operator application it reports, and a Picard solve
    # accepted after one step makes three (the ordered-phase check, the
    # step, and the stop check, whose image gives the final residual)
    op = const_op if case == "constant" else gauss_op
    t = 0.99 * spectral_tc(op, params)
    calls = []

    def counted(real):
        def counting(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return counting

    for module in (gap_operator, solver):
        for name in ("kernel_jet", "gap_kernel"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    seed, steps = solver.newton_seed(t, op, params)
    assert steps >= 2 and len(calls) == steps
    calls.clear()
    field, trace = picard_solve(t, op, params, tol=1e-11, initial=seed)
    assert trace.iterations == 1 and len(calls) == 3
    assert trace.final_residual == np.max(np.abs(op.apply(field.values, t) - field.values))


def test_cold_solve_near_tc_checks_the_stop_at_most_three_times(
    const_op, params, monkeypatch
):
    # the screen rate starts at 0.5 and rises only to a refused check's rate
    # bound, so the next check waits for a difference matched to that bound
    # (2 checks here, the second accepted)
    checks = []
    real = solver._error_bound

    def counting(*args):
        out = real(*args)
        checks.append(out)
        return out

    monkeypatch.setattr(solver, "_error_bound", counting)
    t_c = spectral_tc(const_op, params)
    _, trace = picard_solve(t_c - 1e-3 * t_c, const_op, params, tol=1e-11)
    assert trace.iterations > 1000
    assert 1 <= len(checks) <= 3


def test_default_nodes_seeded_to_rounding(const_surface):
    # the Newton seed reaches the fixed point to rounding, so picard_solve
    # certifies each default node at once instead of iterating at a rate
    # approaching one
    surface, _ = const_surface
    assert all(tr.newton_steps >= 1 for tr in surface.traces)
    assert all(tr.iterations <= 2 for tr in surface.traces)


def test_gauss_surface_rows_within_tol_of_picard_reference(
    gauss_potential, gauss_op, params, grid, gauss_surface
):
    # the bump's Jacobian is not rank one, so the Newton seed's GMRES solves
    # take several iterations; the certified rows must still be within tol
    # (the solve_surface default) of a plain Picard solve to 1e-13, and be
    # fixed points of the dense operator to within its residual promise, 2 tol
    n = len(gauss_surface.traces)
    for i in (0, n // 2, n - 1):
        t = float(gauss_surface.t_nodes[i])
        row = gauss_surface.values[i]
        reference, _ = picard_solve(t, gauss_op, params, tol=1e-13)
        error = float(np.max(np.abs(row - reference.values)))
        assert error <= 1e-11 + ROUNDING_ALLOWANCE, f"node {i}: error {error:.4e}"
        weighted = weighted_potential_matrix(gauss_potential, grid)
        dense = apply_values(weighted, grid.nodes, row, t)
        assert np.max(np.abs(dense - row)) <= 2e-11


def test_surface_nodes_seeded_on_the_square_root_branch(const_surface, gauss_surface):
    # each node's Newton seed starts from the cooler row scaled by
    # sqrt((T_c - T_i) / (T_c - T_{i-1})); the unscaled row took 6-7 steps
    surface, _ = const_surface
    for s in (surface, gauss_surface):
        assert all(tr.newton_steps <= 5 for tr in s.traces[1:])


def _count_power_products(monkeypatch) -> list[int]:
    # one entry per Perron solve of picard_solve: its power iterations
    products: list[int] = []
    real = solver.spectral_radius

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        products.append(out.iterations)
        return out

    monkeypatch.setattr(solver, "spectral_radius", counting)
    return products


@pytest.mark.parametrize("fixture", ["const_potential", "gauss_potential"])
def test_picard_positive_start_proves_the_ordered_phase(
    fixture, request, params, grid, monkeypatch
):
    # below T_c the Collatz-Wielandt ratio min (M u)_i / u_i of a positive
    # start near the fixed point exceeds one, which proves rho(M) > 1 with
    # one product: no power iteration runs, and the field is the one the
    # cold Perron check's path gives
    op = as_operator(request.getfixturevalue(fixture), grid)
    t = spectral_tc(op, params) * (1.0 - 5e-3)
    start, _ = solver.newton_seed(t, op, params)
    products = _count_power_products(monkeypatch)
    field, trace = picard_solve(t, op, params, tol=1e-11, initial=start)
    assert products == []
    monkeypatch.setattr(solver, "_proves_ordered_phase", lambda *args: False)
    cold, cold_trace = picard_solve(t, op, params, tol=1e-11, initial=start)
    assert products != []
    assert np.array_equal(field.values, cold.values)
    assert trace.rate == cold_trace.rate
    assert np.all(field.values > 0.0)


def test_picard_positive_start_above_tc_runs_the_perron_check(
    const_op, params, grid, monkeypatch
):
    # above T_c no positive start can prove rho(M) > 1, so the power
    # iteration runs and the zero field comes back with the Perron root
    t = spectral_tc(const_op, params) * 1.001
    start = np.full(grid.size, 0.01)
    products = _count_power_products(monkeypatch)
    field, trace = picard_solve(t, const_op, params, initial=start)
    assert products != []
    assert np.all(field.values == 0.0)
    assert trace.iterations == 0
    assert trace.rate == spectral_radius(t, const_op).radius
    assert trace.rate < 1.0


def test_picard_start_with_a_zero_component_runs_the_perron_check(
    const_op, params, grid, monkeypatch
):
    # a zero component leaves the Collatz-Wielandt ratio undefined there,
    # so the cold Perron check decides the phase
    t = 0.95 * spectral_tc(const_op, params)
    start = np.full(grid.size, solve_delta(params.u_upper, t, params))
    start[7] = 0.0
    products = _count_power_products(monkeypatch)
    field, _ = picard_solve(t, const_op, params, tol=1e-9, initial=start)
    assert products != []
    c = nystrom_constant_gap(0.3, t, grid)
    assert np.max(np.abs(field.values - c)) <= 1e-9 + ROUNDING_ALLOWANCE


def test_surface_budget_counts_picard_steps_only(const_op, params, const_surface):
    # max_iter bounds picard_solve's steps alone: Newton's steps do not spend
    # it, and every default node certifies its seed in one Picard step
    surface, _ = const_surface
    assert all(trace.newton_steps >= 1 for trace in surface.traces)
    budget = solve_surface(const_op, params, max_iter=1)
    assert np.array_equal(budget.t_nodes, surface.t_nodes)
    assert np.array_equal(budget.values, surface.values)
    assert budget.traces == surface.traces


@pytest.mark.parametrize("max_iter", [0, -5])
def test_picard_refuses_a_budget_below_one(max_iter, const_op, params):
    with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
        picard_solve(0.03, const_op, params, max_iter=max_iter)


@pytest.mark.parametrize("bad", [np.nan, 0.0])
def test_surface_ignores_unusable_seed(bad, monkeypatch, const_op, params, grid):
    # a seed that is not finite and positive is dropped, and picard_solve
    # starts from the upper envelope; the seed's steps are still recorded
    monkeypatch.setattr(
        solver, "newton_seed", lambda *args, **kwargs: (np.full(grid.size, bad), 3)
    )
    surface = solve_surface(const_op, params, t_resolution=2, span_decades=0.3, tol=1e-11)
    for i, t in enumerate(surface.t_nodes[:-1]):
        c = nystrom_constant_gap(0.3, float(t), grid)
        assert np.max(np.abs(surface.values[i] - c)) <= 1e-11 + ROUNDING_ALLOWANCE
        assert surface.traces[i].newton_steps == 3
        assert surface.traces[i].iterations > 1


def test_surface_solves_the_upper_envelope_once_before_any_node(const_op, params, monkeypatch):
    # Delta2 at every node is one solve_delta_many call, made before the
    # first node: it seeds the first node's Newton start and validates the
    # rows, and no scalar solve_delta is made.  So a reference rule too
    # coarse for the lattice is refused, by name, before any node is solved
    many, scalar, seeded = [], [], []

    def record(name, entry):
        real = getattr(solver, name)

        def logged(*args, **kwargs):
            entry(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, name, logged)

    record("solve_delta_many", lambda U, Ts, p: many.append((U, list(Ts))))
    record("solve_delta", lambda U, T, p: scalar.append(T))
    record("newton_seed", lambda T, *args: seeded.append(len(many)))
    surface = solve_surface(const_op, params, t_resolution=4, span_decades=0.5)
    assert many == [(params.u_upper, surface.t_nodes[:-1].tolist())] and scalar == []
    assert seeded == [1, 1, 1, 1]

    seeded.clear()
    coarse = make_params(1.0, 1e-10, 1.0, 0.45, 0.5)
    op = as_operator(ConstantPotential(0.475), build_grid(coarse, 16, 10))
    with pytest.raises(ParamsError, match="^reference_rule: quadrature bound .* at T/epsilon = "):
        solve_surface(op, coarse)
    assert seeded == []


def test_solve_surface_refuses_tc_not_above_tau(const_op, params, monkeypatch):
    # spectral_tc's bracket opens at tau1's proven lower edge, so for a
    # potential at its lower band edge it can return a T_c at or below tau1
    tau1 = tau_root(params.u_lower, params)
    monkeypatch.setattr(solver, "spectral_tc", lambda *args: tau1)
    with pytest.raises(ValueError, match="below T_c"):
        solve_surface(const_op, params)


def test_surface_validation_names_a_value_above_the_upper_envelope(
    const_surface, params
):
    # column j of rows 0..i raised to just above Delta2(T_i): rows 0..i stay
    # non-increasing in T and rows below i inside their own, larger Delta2,
    # so only (T_i, x_j) breaks an invariant, and the error must name it
    surface, _ = const_surface
    i, j = 12, 37
    t_i, x_j = float(surface.t_nodes[i]), float(surface.op.grid.nodes[j])
    d2 = solve_delta_many(params.u_upper, surface.t_nodes[:-1], params)
    u = float(d2[i]) + 1e-8
    values = surface.values.copy()
    values[: i + 1, j] = np.maximum(values[: i + 1, j], u)
    pushed = replace(surface, values=values)
    message = f"envelope violated at T={t_i!r}, x={x_j!r}: u={u!r} outside"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        solver._validate_surface(pushed, d2, 1e-11)
    solver._validate_surface(surface, d2, 1e-11)


def _count_matrix_builds(monkeypatch) -> list[tuple[int, ...]]:
    # shapes of the potential matrices the gap operator module builds
    shapes: list[tuple[int, ...]] = []
    real = gap_operator.potential_matrix

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(gap_operator, "potential_matrix", counting)
    return shapes


def test_surface_builds_weighted_matrix_once(gauss_potential, params, grid, monkeypatch):
    # W is built once, as its factors: R holds U at the r Chebyshev points
    shapes = _count_matrix_builds(monkeypatch)
    op = as_operator(gauss_potential, grid)
    solve_surface(op, params, t_resolution=4)
    assert op.rank < grid.size
    assert shapes == [(op.rank, grid.size)]
