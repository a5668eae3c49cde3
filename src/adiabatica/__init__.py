"""Time-dependent quantum dynamics in the instantaneous eigenbasis.

Builds eigenframe trajectories and geometric connections for small driven
systems, assembles the effective Hamiltonian whose diagonal dominance defines
adiabaticity, propagates exact dynamics, and extracts geometric phases and
holonomies. Ships exactly solvable driven two-level models and a CLI.

Each module declares its public names in its own __all__; this package
republishes them all.
"""

from . import effective, errors, models, numerics, phases, propagation, spectral
from .effective import *
from .errors import *
from .models import *
from .numerics import *
from .phases import *
from .propagation import *
from .spectral import *

__all__ = sorted(
    name
    for module in (effective, errors, models, numerics, phases, propagation, spectral)
    for name in module.__all__
)

__version__ = "0.1.0"
