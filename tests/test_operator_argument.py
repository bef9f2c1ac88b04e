"""The gap operator is the argument: a public function of ``gap_operator``,
``solver`` or ``thermo`` that works through the operator takes the
``GapOperator`` alone and reads the grid from it."""

import importlib
import inspect

from bcsgap.gap_operator import GapOperator


def _public_functions():
    for owner in ("gap_operator", "solver", "thermo"):
        module = importlib.import_module(f"bcsgap.{owner}")
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                yield f"{owner}.{name}", inspect.signature(fn).parameters.values()


def test_no_function_takes_both_an_operator_and_a_grid():
    offenders = []
    for name, params in _public_functions():
        annotations = [str(p.annotation) for p in params]
        takes_op = any("GapOperator" in a for a in annotations)
        takes_grid = any(p.name == "grid" for p in params) or any(
            "EnergyGrid" in a for a in annotations
        )
        if takes_op and takes_grid:
            offenders.append(f"{name} takes an operator and a grid")
        if any("GapOperator" in a and "PotentialSpec" in a for a in annotations):
            offenders.append(f"{name} takes a potential or an operator")
    assert offenders == []


def test_the_perron_solve_has_one_entry_point():
    # spectral_radius, where the benchmark's tracer counts Perron solves
    assert not hasattr(GapOperator, "perron")
