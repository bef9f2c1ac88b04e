"""The package's record types: construction, defaults, immutability,
equality and ``replace``, all from one helper that generates no code."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcsgap
from bcsgap import cli, simple_gap
from bcsgap._record import replace
from bcsgap.certificate import ContractionCertificate
from bcsgap.gap_operator import GapField, as_operator
from bcsgap.model import ConstantPotential, PhysicalParams, build_grid, make_params
from bcsgap.solver import GapSurface, SolveTrace

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def test_importing_the_cli_compiles_no_generated_source():
    # numpy is imported before the hook, so only bcsgap's own import is
    # audited; module files compiled by the import system are allowed
    src = Path(bcsgap.__file__).resolve().parents[1]
    code = (
        "import sys, numpy\n"
        "generated = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and args[1] == '<string>':\n"
        "        generated.append(event)\n"
        "    if event == 'exec' and getattr(args[0], 'co_filename', '') == '<string>':\n"
        "        generated.append(event)\n"
        "sys.addaudithook(hook)\n"
        "import bcsgap.cli\n"
        "print(len(generated))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=src, timeout=120,
    )
    assert done.stdout.strip() == "0"


def test_fields_are_positional_or_keyword_and_refuse_assignment(params, grid):
    assert PhysicalParams(1.0, 0.005, 1.0, u_lower=0.291, u_upper=0.309) == params
    for record, name in ((params, "u_lower"), (grid, "nodes"), (grid, "order")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.2)
    with pytest.raises(AttributeError):
        del params.u_upper
    with pytest.raises(TypeError, match="missing field 'u_upper'"):
        PhysicalParams(1.0, 0.005, 1.0, 0.291)
    with pytest.raises(TypeError, match="unknown or repeated"):
        PhysicalParams(1.0, 0.005, 1.0, 0.291, 0.309, hbar_omega_d=2.0)
    assert repr(ConstantPotential(0.3)) == "ConstantPotential(u0=0.3)"


def test_too_many_positional_fields_are_refused():
    with pytest.raises(TypeError, match=r"^ConstantPotential takes 1 fields, got 2$"):
        ConstantPotential(0.3, 0.4)


def test_defaults_hold_and_each_surface_owns_its_traces(const_op):
    assert SolveTrace(final_residual=0.0, iterations=3, rate=0.5).newton_steps == 0
    certificate = ContractionCertificate(0.02, 0.005, 0.5, (0.02, 0.1), 0.001)
    assert certificate.coupling_margin is None
    a, b = (GapSurface(const_op, np.zeros(1), np.zeros((1, 1)), 0.04) for _ in range(2))
    assert a.traces == [] and b.traces == []
    assert a.traces is not b.traces


def test_equal_params_hash_alike_and_share_the_reference_rule():
    values = (1.0, 0.005, 1.0, 0.291, 0.309)
    assert make_params(*values) == make_params(*values)
    assert hash(make_params(*values)) == hash(make_params(*values))
    assert make_params(*values) != make_params(1.0, 0.005, 1.0, 0.29, 0.309)
    cfg = cli.parse_config(DEFAULT_CONFIG)
    first, second = cli.build_inputs(cfg)[0], cli.build_inputs(cfg)[0]
    assert first is not second
    rule = simple_gap._reference_rule(first)
    before = simple_gap._reference_rule.cache_info()
    assert simple_gap._reference_rule(second) is rule
    after = simple_gap._reference_rule.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_grids_and_operators_compare_by_identity(params, const_potential):
    grid, twin = build_grid(params, 4, 4), build_grid(params, 4, 4)
    assert np.array_equal(grid.nodes, twin.nodes)
    assert grid == grid and grid != twin
    assert hash(grid) == object.__hash__(grid)
    op, twin_op = as_operator(const_potential, grid), as_operator(const_potential, grid)
    assert op == op and op != twin_op
    assert hash(op) == object.__hash__(op)


def test_replace_keeps_the_other_fields_and_reruns_post_init():
    field = GapField(0.03, [0.1, 0.2])
    warmer = replace(field, temperature=0.04)
    assert warmer.temperature == 0.04 and warmer.values is field.values
    assert replace(field, values=[0.3, 0.4]).values.dtype == float
    with pytest.raises(ValueError, match="nonnegative"):
        replace(field, values=[0.1, -0.1])
    with pytest.raises(TypeError, match="unknown or repeated"):
        replace(field, tau=0.01)
