"""Shared fixtures: the default configuration solved once per session."""

from __future__ import annotations

import time

import pytest

from bcsgap.certificate import search_certificate
from bcsgap.gap_operator import as_operator
from bcsgap.model import ConstantPotential, GaussianBumpPotential, build_grid, make_params
from bcsgap.solver import solve_surface
from bcsgap.thermo import build_thermo_report


@pytest.fixture(scope="session")
def params():
    # hbar_omega_d = 1, cutoff 0.005, N0 = 1, margin envelope around U = 0.30
    return make_params(1.0, 0.005, 1.0, 0.291, 0.309)


@pytest.fixture(scope="session")
def grid(params):
    return build_grid(params, panels=16, order=10)


@pytest.fixture(scope="session")
def const_potential():
    return ConstantPotential(u0=0.3)


@pytest.fixture(scope="session")
def gauss_potential():
    return GaussianBumpPotential(base=0.30, amplitude=0.005, width=0.2)


@pytest.fixture(scope="session")
def const_op(const_potential, grid):
    return as_operator(const_potential, grid)


@pytest.fixture(scope="session")
def gauss_op(gauss_potential, grid):
    return as_operator(gauss_potential, grid)


@pytest.fixture(scope="session")
def _const_solve(const_op, params):
    """Default-config surface and certificate search, as ``bcsgap thermo``
    runs them; their joint wall time is kept for the runtime gate."""
    t0 = time.perf_counter()
    surface = solve_surface(const_op, params)
    outcome = search_certificate(surface.op, params, t_c=surface.t_c)
    elapsed = time.perf_counter() - t0
    return surface, outcome, elapsed


@pytest.fixture(scope="session")
def const_surface(_const_solve):
    surface, _, elapsed = _const_solve
    return surface, elapsed


@pytest.fixture(scope="session")
def const_report(const_surface, params, default_search_outcome):
    surface, _ = const_surface
    return build_thermo_report(surface, params, default_search_outcome)


@pytest.fixture(scope="session")
def gauss_surface(gauss_op, params):
    return solve_surface(gauss_op, params, t_resolution=20)


@pytest.fixture(scope="session")
def default_search_outcome(_const_solve):
    return _const_solve[1]
