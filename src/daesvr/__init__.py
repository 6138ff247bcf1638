"""Collocation least-squares SVR for differential-algebraic systems.

Approximates each unknown of an interval or rectangle problem in a shifted
Legendre basis, collocates the equations at mapped Legendre roots, and
trains the coefficients through a regularized least-squares support vector
formulation.  Handles integer derivatives, Caputo fractional derivatives,
Volterra integral terms, algebraic couplings, and scalar nonlinear
closures.

The package re-exports the `__all__` of each module below; `expressions`
and `cli` are reached as modules.
"""

from . import benchmarks, errors, fractional, highprec, legendre, model, schema, solver
from .benchmarks import *
from .errors import *
from .fractional import *
from .highprec import *
from .legendre import *
from .model import *
from .schema import *
from .solver import *

__version__ = "0.1.0"

__all__ = [name for module in (benchmarks, errors, fractional, highprec, legendre, model, schema, solver)
           for name in module.__all__]
