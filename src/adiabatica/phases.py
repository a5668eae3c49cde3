"""Phase splits, holonomies, parallel transport, and gauge-symmetry checks.

The geometric phase integral int A_nn dt is gauge-dependent; only the cyclic
holonomy v_n(0)^dag v_n(T) exp{i int A_nn dt} is reported as gauge-invariant.
Phases accumulate by integrating the connection diagonal, never by taking
arguments of products across steps, so no 2*pi ambiguities arise in sweeps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .closed_form import _require_level
from .effective import accumulate_trapezoid, build_effective, geometric_phase
from .errors import NonCyclicWarning
from .numerics import matmul, max_abs
from .propagation import _coefficient_propagators, propagate
from .spectral import (
    ConnectionMatrix,
    FrameTrajectory,
    HamiltonianSpec,
    TimeGrid,
    _require_grid,
    build_frames,
    connection,
)

__all__ = [
    "ChainProbeReport",
    "GaugeCheckReport",
    "Holonomy",
    "PhaseSplit",
    "gauge_transform_check",
    "holonomy",
    "ms_inconsistency_probe",
    "parallel_transport",
    "phase_split",
]

CYCLIC_RTOL = 1e-10


@dataclass(frozen=True)
class PhaseSplit:
    """Dynamical and geometric phase accumulated over the grid, in radians."""

    dynamical: float
    geometric: float

    @property
    def total(self) -> float:
        return self.dynamical - self.geometric


@dataclass(frozen=True)
class Holonomy:
    """Gauge-invariant cyclic phase factor of one level's basis vector."""

    value: complex


def phase_split(frames: FrameTrajectory, conn: ConnectionMatrix, level: int) -> PhaseSplit:
    """int_0^T E_n dt and int_0^T A_nn dt of one level, both by the trapezoid rule.

    The geometric part depends on the gauge: v_n -> e^{i alpha_n(t)} v_n shifts it
    by alpha_n(0) - alpha_n(T). Only the holonomy is gauge-invariant. Raises
    GridMismatchError when frames and conn were built on different grids, and
    ValueError unless level is an integer in [0, N).
    """
    _require_grid(frames, conn.grid)
    _require_level(level, frames.dim)
    dyn = accumulate_trapezoid(frames.energies[:, level], frames.grid.dt)[-1]
    geo = geometric_phase(conn, level)[-1]
    return PhaseSplit(dynamical=float(dyn), geometric=float(geo))


def holonomy(frames: FrameTrajectory, conn: ConnectionMatrix, level: int) -> Holonomy:
    """v_n(0)^dag v_n(T) exp{i int_0^T A_nn dt}, gauge-invariant for cyclic frames.

    Warns (NonCyclicWarning) when the reconstructed endpoint Hamiltonians
    disagree, i.e. the trajectory does not close a cycle.
    """
    _require_grid(frames, conn.grid)
    _require_level(level, frames.dim)
    ends = []
    for k in (0, -1):
        V = frames.vectors[k]
        ends.append((V * frames.energies[k]) @ V.conj().T)
    scale = max(max_abs(ends[0]), max_abs(ends[1]))
    if max_abs(ends[0] - ends[1]) > CYCLIC_RTOL * scale:
        warnings.warn(
            "endpoint Hamiltonians differ; holonomy is not a cyclic invariant here",
            NonCyclicWarning,
        )
    geo = geometric_phase(conn, level)[-1]
    overlap = np.vdot(frames.vectors[0, :, level], frames.vectors[-1, :, level])
    return Holonomy(value=complex(overlap * np.exp(1j * geo)))


def _transform_frames(
    frames: FrameTrajectory, alphas: np.ndarray, alpha_dots: np.ndarray
) -> FrameTrajectory:
    """Rephase level n by exp{i alpha_n(t)}; derivatives gain i d(alpha_n)/dt v_n."""
    factors = np.exp(1j * alphas)[:, None, :]
    vectors = frames.vectors * factors
    derivs = None
    if frames.vector_derivatives is not None:
        derivs = (
            frames.vector_derivatives + 1j * alpha_dots[:, None, :] * frames.vectors
        ) * factors
    return FrameTrajectory(frames.grid, frames.energies, vectors, derivs)


def parallel_transport(frames: FrameTrajectory, conn: ConnectionMatrix) -> FrameTrajectory:
    """Rephase each level by exp{i int_0^t A_nn dt'} so <v~_n | d/dt v~_n> vanishes."""
    _require_grid(frames, conn.grid)
    diagonal = np.einsum("knn->kn", conn.values).real
    return _transform_frames(frames, accumulate_trapezoid(diagonal, conn.grid.dt), diagonal)


# Per-level gauge phase: (alpha(t), d alpha/dt (t)).
PhaseFunction = tuple[Callable[[float], float], Callable[[float], float]]


@dataclass(frozen=True)
class GaugeCheckReport:
    """Largest deviations, over the levels, under a time-dependent rephasing of the basis."""

    max_state_deviation: float
    max_holonomy_deviation: float


def gauge_transform_check(
    spec: HamiltonianSpec,
    grid: TimeGrid,
    phase_functions: Sequence[PhaseFunction],
) -> GaugeCheckReport:
    """Verify the hidden local symmetry under v_n -> e^{i alpha_n(t)} v_n.

    The model's frames and the rephased ones take the same steps: connection,
    M, coefficient propagators, states. Each amplitude must come back times
    e^{i alpha_n(0)} only, and every holonomy unchanged. Returns the largest of
    each deviation over the levels; ValueError unless one pair per level.
    """
    if len(phase_functions) != spec.dim:
        raise ValueError("one (alpha, alpha_dot) pair per level is required")

    def states(frames: FrameTrajectory) -> tuple[ConnectionMatrix, np.ndarray]:
        """(A, psi) in one gauge: column n of psi[k] is the state started in level n."""
        conn = connection(frames)
        return conn, matmul(frames.vectors, _coefficient_propagators(build_effective(frames, conn)))

    frames = build_frames(spec, grid)
    times = grid.times
    alphas = np.array([[a(t) for a, _ in phase_functions] for t in times])
    alpha_dots = np.array([[da(t) for _, da in phase_functions] for t in times])
    tframes = _transform_frames(frames, alphas, alpha_dots)
    (conn, psi), (tconn, psi_t) = states(frames), states(tframes)
    rays = np.exp(1j * alphas[0])
    state_dev = np.max(np.linalg.norm(psi_t - rays * psi, axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonCyclicWarning)
        holo_dev = np.max(
            [abs(holonomy(tframes, tconn, n).value - holonomy(frames, conn, n).value)
             for n in range(frames.dim)]
        )
    return GaugeCheckReport(float(state_dev), float(holo_dev))


@dataclass(frozen=True)
class ChainProbeReport:
    """Trajectories exposing where the borrowed-phase comparison chain breaks.

    chain[k] approximates 1 only while the parallel-transport residual stays
    small; residual[k] is the distance between the initial basis vector and
    the geometrically rephased one.
    """

    chain: np.ndarray
    residual: np.ndarray
    phase_convention: ClassVar[str] = "comparison state carries exp(+i int E_n dt) on v_n(0)"


def ms_inconsistency_probe(
    spec: HamiltonianSpec, grid: TimeGrid, level: int = 0
) -> ChainProbeReport:
    """Evaluate the chain L(t) = v_n(0)^dag U(t) [e^{+i int E_n} v_n(0)] exactly.

    |L(t)| drifts from 1 precisely when the residual R(t) = ||v_n(0) - v~_n(t)|| grows,
    v~_n = v_n e^{i int A_nn} being level n of parallel_transport. That defeats
    the borrowed identification of the reversed dynamics with a pure phase.
    """
    _require_level(level, spec.dim)
    frames = build_frames(spec, grid)
    conn = connection(frames)
    result = propagate(spec, grid, [level], frames=frames)

    phase_e = accumulate_trapezoid(frames.energies[:, level], grid.dt)
    v0 = frames.vectors[0, :, level]
    chain = np.exp(1j * phase_e) * np.einsum("i,ki->k", v0.conj(), result.states[0])

    rephased = parallel_transport(frames, conn).vectors[:, :, level]
    residual = np.linalg.norm(rephased - v0[None, :], axis=1)
    return ChainProbeReport(chain=chain, residual=residual)
