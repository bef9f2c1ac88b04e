"""Solver for the BCS-Bogoliubov gap equation with contraction-certified
fixed-point iteration, transition-temperature location, and second-order
phase-transition thermodynamics.

The package namespace is the library modules' ``__all__``, in the order
below; ``cli`` and ``fileio`` stay behind their module names."""

from . import model, quadrature, simple_gap, gap_operator, certificate, solver, thermo
from .model import *
from .quadrature import *
from .simple_gap import *
from .gap_operator import *
from .certificate import *
from .solver import *
from .thermo import *

__all__ = [
    name
    for module in (model, quadrature, simple_gap, gap_operator, certificate, solver, thermo)
    for name in module.__all__
]

__version__ = "0.1.0"
