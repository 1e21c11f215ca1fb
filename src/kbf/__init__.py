"""Periodic pseudo-spectral solver suite for a fifth-order
dispersion-dissipation-reaction equation.

Strang splitting in time (exact Fourier-space exponential for the linear
part, classical RK4 for the nonlinear part) on a Fourier collocation grid,
together with an ETDRK4 reference solver (and an integrating-factor RK4
solver that shares its right-hand side), closed-form oracles and a
convergence-study harness.
"""

# the public names are each module's __all__ (errors has none: its classes)
from .conditions import *
from .errors import *
from .harness import *
from .model import *
from .reference import *
from .spectral import *
from .splitting import *

__version__ = "0.1.0"
