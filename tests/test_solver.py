import re
from dataclasses import replace

import numpy as np
import pytest

from bcsgap import gap_operator, solver
from bcsgap.certificate import CertificateFailure
from bcsgap.gap_operator import (
    apply_values,
    as_operator,
    spectral_radius,
    spectral_tc,
    weighted_potential_matrix,
)
from bcsgap.simple_gap import solve_delta, solve_delta_many, tau_root
from bcsgap.solver import ConvergenceError, picard_solve, solve_surface
from oracles import nystrom_constant_gap

# picard_solve promises ||u - u*|| <= tol against the fixed point u* of the
# discretised operator.  Checked against nystrom_constant_gap, that bound gets
# a rounding allowance for the oracle itself (within 9e-16 of the 40-digit
# root on the default grid) and for the iteration's rounding floor, about
# eps * |u| / (1 - rho), a few 1e-15 at the node nearest T_c.
ROUNDING_ALLOWANCE = 1e-14


def test_picard_matches_scalar_bisection(const_potential, params, grid):
    t_c = tau_root(0.3, params)
    for frac in (0.8, 0.95, 0.995):
        t = frac * t_c
        field, trace = picard_solve(t, const_potential, params, grid, tol=1e-9)
        oracle = solve_delta(0.3, t, params)
        assert np.max(np.abs(field.values - oracle)) <= 1e-8
        assert trace.iterations > 0
        assert trace.final_residual <= 2e-9


def test_picard_trace_contracts(const_potential, params, grid):
    t = 0.9 * tau_root(0.3, params)
    _, trace = picard_solve(t, const_potential, params, grid, tol=1e-10)
    diffs = trace.iterates
    # differences eventually decrease monotonically
    tail = diffs[-10:]
    assert np.all(np.diff(tail) < 0.0)
    assert trace.asymptotic_ratio() < 1.0


def test_picard_at_transition_returns_zero_field(const_potential, params, grid, const_surface):
    surface, _ = const_surface
    field, trace = picard_solve(surface.t_c, const_potential, params, grid)
    assert np.all(field.values == 0.0)
    assert trace.final_residual == 0.0
    above, _ = picard_solve(surface.t_c * 1.05, const_potential, params, grid)
    assert np.all(above.values == 0.0)


def test_picard_uniqueness_probe(const_potential, params, grid):
    # below tau1 the lower envelope is positive, so both envelope starts are
    # admissible and must reach the same fixed point
    tau1 = tau_root(params.u_lower, params)
    t = 0.9 * tau1
    lo0 = np.full(grid.size, solve_delta(params.u_lower, t, params))
    from_top, _ = picard_solve(t, const_potential, params, grid, tol=1e-9)
    from_bottom, _ = picard_solve(
        t, const_potential, params, grid, tol=1e-9, initial=lo0
    )
    assert np.max(np.abs(from_top.values - from_bottom.values)) <= 2e-9


def test_picard_a_posteriori_bound(const_potential, params, grid):
    # ||u_n - u*|| <= rho/(1-rho) * ||u_n - u_{n-1}|| along the trace, with
    # rho the contraction rate; the running max of observed ratios converges
    # to it from below (transient ratios understate it)
    t = 0.9 * tau_root(0.3, params)
    reference, _ = picard_solve(t, const_potential, params, grid, tol=1e-13)
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
    offset, ripple, const_potential, params, grid, const_surface
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
    field, trace = picard_solve(
        t, const_potential, params, grid, tol=1e-11, initial=start
    )
    assert trace.iterations >= 1
    assert np.max(np.abs(field.values - c)) <= 1e-11 + ROUNDING_ALLOWANCE


def test_picard_validates_arguments(const_potential, params, grid):
    with pytest.raises(ValueError, match="initial"):
        picard_solve(0.03, const_potential, params, grid, initial=np.ones(3))


def test_picard_iteration_budget(const_potential, params, grid):
    with pytest.raises(ConvergenceError) as err:
        picard_solve(0.03, const_potential, params, grid, tol=1e-12, max_iter=5)
    assert 0.0 < err.value.observed_ratio <= 1.0


def test_critical_temperature_constant_oracle(const_potential, params, grid):
    t_c = spectral_tc(const_potential, params, grid)
    assert abs(t_c - tau_root(0.3, params)) <= 1e-9


@pytest.mark.parametrize("fixture", ["const_potential", "gauss_potential"])
def test_spectral_tc_matches_square_root_shrinkage(fixture, request, params, grid):
    # just below T_c the solved field shrinks like sqrt(T_c - T), so a
    # quarter of the offset halves its sup norm; just above T_c the
    # linearised radius is below one
    op = as_operator(request.getfixturevalue(fixture), grid)
    t_c = spectral_tc(op, params, grid)
    delta = 1e-2 * t_c
    far, _ = picard_solve(t_c - delta, op, params, grid, tol=1e-9)
    near, _ = picard_solve(t_c - delta / 4.0, op, params, grid, tol=1e-9)
    ratio = float(np.max(far.values)) / float(np.max(near.values))
    assert 1.5 <= ratio <= 2.5
    assert spectral_radius(t_c + delta, op, grid).radius < 1.0


def test_critical_temperature_brackets_gaussian(gauss_potential, params, grid):
    t_c = spectral_tc(gauss_potential, params, grid)
    assert tau_root(params.u_lower, params) <= t_c <= tau_root(params.u_upper, params)


def test_critical_temperature_monotone_in_potential(params, grid):
    from bcsgap.model import GaussianBumpPotential

    small = GaussianBumpPotential(base=0.30, amplitude=0.003, width=0.2)
    large = GaussianBumpPotential(base=0.30, amplitude=0.008, width=0.2)
    tc_small = spectral_tc(small, params, grid)
    tc_large = spectral_tc(large, params, grid)
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


def test_surface_trace_ratios_below_one(
    const_potential, gauss_potential, params, grid
):
    # surface nodes stop within two Picard steps, so the ratios come from
    # cold solves from the upper envelope 1e-2 T_c below T_c (thousands of
    # steps each)
    checked = 0
    for potential in (const_potential, gauss_potential):
        t_c = spectral_tc(potential, params, grid)
        _, trace = picard_solve(t_c - 1e-2 * t_c, potential, params, grid)
        if trace.iterates.size >= 11:
            assert trace.asymptotic_ratio() < 1.0
            checked += 1
    assert checked >= 1


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


def test_cold_solve_near_tc_checks_the_stop_at_most_three_times(
    const_potential, params, grid, monkeypatch
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
    t_c = spectral_tc(const_potential, params, grid)
    _, trace = picard_solve(
        t_c - 1e-3 * t_c, const_potential, params, grid, tol=1e-11
    )
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
    gauss_potential, params, grid, gauss_surface
):
    # the bump's Jacobian is not rank one, so the Newton seed's GMRES solves
    # take several iterations; the certified rows must still be within tol
    # (the solve_surface default) of a plain Picard solve to 1e-13
    n = len(gauss_surface.traces)
    for i in (0, n // 2, n - 1):
        t = float(gauss_surface.t_nodes[i])
        reference, _ = picard_solve(t, gauss_potential, params, grid, tol=1e-13)
        error = float(np.max(np.abs(gauss_surface.values[i] - reference.values)))
        assert error <= 1e-11 + ROUNDING_ALLOWANCE, f"node {i}: error {error:.4e}"


def test_surface_budget_counts_newton_steps(const_potential, params, grid, const_surface):
    surface, _ = const_surface
    steps = surface.traces[0].newton_steps
    assert steps >= 1
    with pytest.raises(ConvergenceError):
        solve_surface(const_potential, params, grid, max_iter=steps - 1)


@pytest.mark.parametrize("bad", [np.nan, 0.0])
def test_surface_ignores_unusable_seed(bad, monkeypatch, const_potential, params, grid):
    # a seed that is not finite and positive is dropped, and picard_solve
    # starts from the upper envelope; the seed's steps are still recorded
    monkeypatch.setattr(
        solver, "newton_seed", lambda *args, **kwargs: (np.full(grid.size, bad), 3)
    )
    surface = solve_surface(
        const_potential, params, grid, t_resolution=2, span_decades=0.3,
        tol=1e-11,
    )
    for i, t in enumerate(surface.t_nodes[:-1]):
        c = nystrom_constant_gap(0.3, float(t), grid)
        assert np.max(np.abs(surface.values[i] - c)) <= 1e-11 + ROUNDING_ALLOWANCE
        assert surface.traces[i].newton_steps == 3
        assert surface.traces[i].iterations > 1


def test_solve_surface_refuses_tc_not_above_tau(
    const_potential, params, grid, monkeypatch
):
    # spectral_tc accepts radius(tau1) >= 1 - 1e-12, so for a potential at
    # its lower band edge it can return a T_c at or below tau1
    tau1 = tau_root(params.u_lower, params)
    monkeypatch.setattr(solver, "spectral_tc", lambda *args: tau1)
    with pytest.raises(ValueError, match="below T_c"):
        solve_surface(const_potential, params, grid)


def test_surface_validation_names_a_value_above_the_upper_envelope(
    const_surface, params
):
    # column j of rows 0..i raised to just above Delta2(T_i): rows 0..i stay
    # non-increasing in T and rows below i inside their own, larger Delta2,
    # so only (T_i, x_j) breaks an invariant, and the error must name it
    surface, _ = const_surface
    i, j = 12, 37
    t_i, x_j = float(surface.t_nodes[i]), float(surface.x_nodes[j])
    d2 = solve_delta_many(params.u_upper, surface.t_nodes[:-1], params)
    u = float(d2[i]) + 1e-8
    values = surface.values.copy()
    values[: i + 1, j] = np.maximum(values[: i + 1, j], u)
    pushed = replace(surface, values=values)
    message = f"envelope violated at T={t_i!r}, x={x_j!r}: u={u!r} outside"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        solver._validate_surface(pushed, params, 1e-11)
    solver._validate_surface(surface, params, 1e-11)


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
    shapes = _count_matrix_builds(monkeypatch)
    solve_surface(gauss_potential, params, grid, t_resolution=4)
    assert shapes == [(grid.size, grid.size)]
