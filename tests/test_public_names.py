"""One list of public names: ``bcsgap``'s namespace is the concatenation
of its library modules' ``__all__``, and the helpers nothing in the
package called are gone from it and from their modules."""

import importlib

import pytest

import bcsgap
from bcsgap.simple_gap import envelope_curve
from bcsgap.thermo import LimitTable

LIBRARY = ("model", "quadrature", "simple_gap", "gap_operator", "certificate", "solver", "thermo")


def test_the_namespace_is_the_library_modules_all():
    modules = [importlib.import_module(f"bcsgap.{owner}") for owner in LIBRARY]
    expected = [name for module in modules for name in module.__all__]
    assert bcsgap.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(bcsgap, name) is getattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize(
    "owner, name",
    [
        ("quadrature", "integrate"),
        ("quadrature", "tanh_half_identity"),
        ("model", "eval_potential"),
        # checks of the paper's statements that only the tests run
        ("gap_operator", "kernel_matrix"),
        ("gap_operator", "sample_envelope_field"),
        ("simple_gap", "gap_equation_residual"),
        ("certificate", "alpha_integrand"),
        ("thermo", "f_consistency"),
        ("thermo", "g_consistency"),
        ("thermo", "psi_perturbation_bound"),
        ("thermo", "cutoff_divergence_scan"),
        ("thermo", "CutoffScan"),
    ],
)
def test_uncalled_helpers_are_gone(owner, name):
    assert not hasattr(importlib.import_module(f"bcsgap.{owner}"), name)
    assert not hasattr(bcsgap, name)


def test_a_limit_table_holds_only_its_fields():
    assert not hasattr(LimitTable, "estimator_mismatch")


def test_an_envelope_curve_is_not_callable(params):
    assert not callable(envelope_curve(0.3, params))
