"""Finite-volume solver for the parabolic minimal surface equation

    u_t = div( grad u / sqrt(1 + |grad u|^2) )

with zero-flux boundary conditions, discretized by implicit minimizing
steps of the area functional and solved per step, with certified
termination, by Newton on the step's dual (interval and radial grids) or a
primal-dual iteration (rectangles).  Handles bounded data of bounded variation,
keeps genuine jumps sharp while they persist, and measures when they close.

The package namespace is the union of the ``__all__`` lists of ``grid``,
``energy``, ``solver``, ``diagnostics``, ``initial_data``, ``reference`` and
``runner``; each module's list is the one declaration of its public names.
The acceptance suite behind ``pmsflow verify`` is ``pmsflow.acceptance``,
which importing the package does not load.
"""

from . import diagnostics, energy, grid, initial_data, reference, runner, solver
from .grid import *
from .energy import *
from .solver import *
from .diagnostics import *
from .initial_data import *
from .reference import *
from .runner import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *grid.__all__,
    *energy.__all__,
    *solver.__all__,
    *diagnostics.__all__,
    *initial_data.__all__,
    *reference.__all__,
    *runner.__all__,
]
