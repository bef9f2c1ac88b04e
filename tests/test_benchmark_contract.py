"""The public names and return shapes that the benchmark's tracer
(``perfbench/tracing.py``) and output checks (``perfbench/workloads.py``)
rely on.  The tracer wraps the functions named in each module's ``__all__``
and reads counts from their results; a refactor that drops a name or
changes a result would otherwise zero a per-layer metric without an error.
"""

from __future__ import annotations

import importlib

from bcsgap.gap_operator import GapField, PerronRoot, spectral_radius
from bcsgap.simple_gap import solve_delta, tau_root
from bcsgap.solver import SolveTrace, picard_solve

# module -> public names the benchmark traces by name or imports
TRACED = {
    "gap_operator": ["apply_A", "apply_values", "radius_crossing_temperature",
                     "spectral_radius", "spectral_tc", "GapField"],
    "solver": ["picard_solve", "solve_surface", "newton_seed"],
    "model": ["potential_matrix", "make_params", "coupling_margin_bounds"],
    "quadrature": ["gap_kernel", "adaptive_integrate", "gap_curvature"],
    "simple_gap": ["solve_delta", "tau_root", "implicit_slope_v", "envelope_curve"],
    "certificate": ["compute_alpha", "search_certificate"],
    "thermo": ["build_thermo_report"],
    "fileio": ["write_csv"],
    "cli": ["main", "build_inputs", "parse_config"],
}


def test_traced_names_stay_public():
    for owner, names in TRACED.items():
        module = importlib.import_module(f"bcsgap.{owner}")
        missing = [name for name in names if name not in module.__all__]
        assert not missing, f"bcsgap.{owner}.__all__ lacks {missing}"


def test_spectral_radius_returns_perron_root_with_iterations(const_op):
    root = spectral_radius(0.035, const_op)
    assert isinstance(root, PerronRoot)
    assert isinstance(root.iterations, int) and root.iterations >= 1


def test_picard_solve_returns_field_and_trace(const_op, params):
    t = 0.9 * tau_root(0.3, params)
    out = picard_solve(t, const_op, params, tol=1e-9)
    assert isinstance(out, tuple) and len(out) == 2
    field, trace = out
    assert isinstance(field, GapField) and isinstance(trace, SolveTrace)
    assert isinstance(trace.iterations, int) and trace.iterations >= 1


def test_solve_delta_keeps_its_cache_counters(params):
    # the tracer reads solve_delta's cache misses
    before = solve_delta.cache_info().misses
    solve_delta(0.3, 0.0123456789, params)
    assert solve_delta.cache_info().misses == before + 1


def test_tau_root_keeps_its_cache_counters(params):
    # the tracer reads tau_root's cache misses: a new coupling misses once,
    # and asking again hits
    before = tau_root.cache_info()
    tau_root(0.3012345678, params)
    tau_root(0.3012345678, params)
    after = tau_root.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
