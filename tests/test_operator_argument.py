"""The gap operator is the argument: a public function of ``gap_operator``,
``solver``, ``thermo`` or ``certificate`` that works through the operator
takes the ``GapOperator`` alone and reads the potential and the grid from
it; only ``as_operator``, which builds it, and the dense references take a
potential beside a grid.  Likewise the solved
surface: a public ``thermo`` function that works on a ``GapSurface`` reads
the operator, grid, T_c and tau from it, and takes arrays or tables, not
unions of them."""

import importlib
import inspect

from bcsgap import certificate, thermo
from bcsgap.gap_operator import GapOperator
from bcsgap.solver import GapSurface
from paper_checks import alpha_integrand


OWNERS = ("gap_operator", "solver", "thermo", "certificate")
# the operator's builder, and the dense references README names as such
TAKE_A_POTENTIAL_AND_A_GRID = {
    "gap_operator.as_operator",
    "gap_operator.weighted_potential_matrix",
    "gap_operator.apply_A",
}


def _public_functions(owners=OWNERS):
    for owner in owners:
        module = importlib.import_module(f"bcsgap.{owner}")
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                yield f"{owner}.{name}", inspect.signature(fn)


def test_no_function_takes_both_an_operator_and_a_grid():
    offenders = []
    for name, signature in _public_functions():
        params = signature.parameters.values()
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


def test_no_function_takes_a_potential_beside_a_grid():
    offenders = []
    for name, signature in _public_functions():
        annotations = [str(p.annotation) for p in signature.parameters.values()]
        takes_potential = any("PotentialSpec" in a for a in annotations)
        takes_grid = any("EnergyGrid" in a for a in annotations)
        if takes_potential and takes_grid and name not in TAKE_A_POTENTIAL_AND_A_GRID:
            offenders.append(name)
    assert offenders == []


def test_the_certificate_entry_points_take_the_operator():
    for fn in (certificate.search_certificate, certificate.compute_alpha, alpha_integrand):
        params = inspect.signature(fn).parameters
        assert params["op"].annotation == "GapOperator", fn.__name__
        assert not {"potential", "grid"} & params.keys(), fn.__name__


def test_the_perron_solve_has_one_entry_point():
    # spectral_radius, where the benchmark's tracer counts Perron solves
    assert not hasattr(GapOperator, "perron")


def test_the_operator_owns_its_kernel_and_its_jacobian():
    # the solver takes A u and A'(u) from GapOperator.linearise, and every
    # kernel evaluation in the package reads a rule's xi2 through kernel_jet
    assert not hasattr(importlib.import_module("bcsgap.solver"), "kernel_jet")
    for owner in ("model", "simple_gap", "gap_operator", "certificate", "solver",
                  "thermo", "cli", "fileio"):
        assert not hasattr(importlib.import_module(f"bcsgap.{owner}"), "gap_kernel"), owner
    assert "gap_kernel" in importlib.import_module("bcsgap.quadrature").__all__


def test_thermo_reads_what_the_surface_carries():
    offenders = []
    for name, signature in _public_functions(("thermo",)):
        params = signature.parameters.values()
        annotations = [str(p.annotation) for p in params]
        if any("GapSurface" in a for a in annotations):
            beside = [
                p.name
                for p, a in zip(params, annotations)
                if p.name in ("grid", "op", "t_c", "tau")
                or "EnergyGrid" in a
                or "GapOperator" in a
            ]
            if beside:
                offenders.append(f"{name} takes a surface beside {beside}")
        for a in annotations + [str(signature.return_annotation)]:
            union = "|" in a or "Union[" in a or "Optional[" in a
            if union and any(t in a for t in ("LimitTable", "GapField", "np.ndarray")):
                offenders.append(f"{name} takes or returns the union {a}")
    assert offenders == []


def test_one_limit_table_one_limit_rule_and_no_alias():
    for gone in ("VTable", "WTable", "extrapolate_to_zero", "g_eval"):
        assert not hasattr(thermo, gone), gone
    assert not hasattr(GapSurface, "row")
