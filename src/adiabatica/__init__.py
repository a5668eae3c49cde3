"""Time-dependent quantum dynamics in the instantaneous eigenbasis.

Builds eigenframe trajectories and geometric connections for small driven
systems, assembles the effective Hamiltonian whose diagonal dominance defines
adiabaticity, propagates exact dynamics, and extracts geometric phases and
holonomies. Ships exactly solvable driven two-level models and a CLI.
"""

from .effective import (
    CriteriaReport,
    EffectiveHamiltonian,
    build_effective,
    criteria,
)
from .errors import (
    AdiabaticaError,
    EigenGapTooSmallError,
    GridMismatchError,
    NonCyclicWarning,
    NotHermitianError,
)
from .models import (
    MSSecondModelParams,
    RotatingModelParams,
    barred_model,
    mixing_angle,
    ms_candidate_evolution,
    ms_second_model,
    rotating_dynamical_phase,
    rotating_exact_solution,
    rotating_geometric_phase,
    rotating_model,
)
from .numerics import max_abs
from .phases import (
    ChainProbeReport,
    GaugeCheckReport,
    Holonomy,
    PhaseSplit,
    gauge_transform_check,
    holonomy,
    ms_inconsistency_probe,
    parallel_transport,
    phase_split,
)
from .propagation import (
    PropagationResult,
    coefficient_evolution,
    coefficient_propagate,
    composition_check,
    propagate,
    stepping_evolution,
    stepping_propagators,
)
from .spectral import (
    ConnectionMatrix,
    FrameTrajectory,
    Gauge,
    HamiltonianSpec,
    TimeGrid,
    build_frames,
    connection,
)

__all__ = [
    "AdiabaticaError",
    "ChainProbeReport",
    "ConnectionMatrix",
    "CriteriaReport",
    "EffectiveHamiltonian",
    "EigenGapTooSmallError",
    "FrameTrajectory",
    "Gauge",
    "GaugeCheckReport",
    "GridMismatchError",
    "HamiltonianSpec",
    "Holonomy",
    "MSSecondModelParams",
    "NonCyclicWarning",
    "NotHermitianError",
    "PhaseSplit",
    "PropagationResult",
    "RotatingModelParams",
    "TimeGrid",
    "barred_model",
    "build_effective",
    "build_frames",
    "coefficient_evolution",
    "coefficient_propagate",
    "composition_check",
    "connection",
    "criteria",
    "gauge_transform_check",
    "holonomy",
    "max_abs",
    "mixing_angle",
    "ms_candidate_evolution",
    "ms_inconsistency_probe",
    "ms_second_model",
    "parallel_transport",
    "phase_split",
    "propagate",
    "rotating_dynamical_phase",
    "rotating_exact_solution",
    "rotating_geometric_phase",
    "rotating_model",
    "stepping_evolution",
    "stepping_propagators",
]

__version__ = "0.1.0"
