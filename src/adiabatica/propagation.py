"""Exact time evolution by midpoint-exponential stepping.

Each step applies exp(-i * H(t_k + dt/2) * dt), a second-order Magnus
truncation that is unconditionally unitary; propagators accumulate
left-multiplicatively so U[k] evolves from t_start to t_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .effective import EffectiveHamiltonian
from .errors import AdiabaticaError
from .numerics import max_abs, require_hermitian_batch
from .spectral import FrameTrajectory, HamiltonianSpec, TimeGrid, build_frames

UNITARITY_RTOL = 1e-10


def _batch_expstep(hams: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i * dt * H) for a stack of Hermitian matrices; NotHermitianError otherwise."""
    require_hermitian_batch(hams)
    w, V = np.linalg.eigh(hams)
    return np.einsum("kij,kj,klj->kil", V, np.exp(-1j * dt * w), V.conj())


def _accumulate(steps: np.ndarray) -> np.ndarray:
    n = steps.shape[1]
    out = np.empty((len(steps) + 1, n, n), dtype=complex)
    out[0] = np.eye(n)
    for k in range(len(steps)):
        out[k + 1] = steps[k] @ out[k]
    return out


def _effective_steps(eff: EffectiveHamiltonian) -> np.ndarray:
    # Midpoint generator from adjacent grid samples, symmetrized because the
    # discrete connection carries O(dt^2) Hermiticity noise.
    mids = 0.5 * (eff.values[:-1] + eff.values[1:])
    mids = 0.5 * (mids + mids.conj().transpose(0, 2, 1))
    return _batch_expstep(mids, eff.grid.dt)


@dataclass(frozen=True)
class PropagationResult:
    """Stepping propagators with states and instantaneous-basis coefficients.

    states[s] and coefficients[s] follow the s-th requested initial state;
    both have shape (steps+1, N) with coefficients c_m(t_k) = <v_m(t_k)|psi(t_k)>.
    """

    grid: TimeGrid
    propagators: np.ndarray
    states: list[np.ndarray]
    coefficients: list[np.ndarray]
    frames: FrameTrajectory


def stepping_propagators(spec: HamiltonianSpec, grid: TimeGrid) -> np.ndarray:
    """Accumulated midpoint-exponential propagators U(t_k, t_start), shape (steps+1, N, N).

    Raises NotHermitianError when a midpoint sample is non-finite or not Hermitian.
    """
    n = spec.dim
    mids = spec.sample(grid.times[:-1] + grid.dt / 2)
    propagators = _accumulate(_batch_expstep(mids, grid.dt))

    drift = max_abs(
        np.einsum("kij,kil->kjl", propagators.conj(), propagators) - np.eye(n)
    )
    if drift > UNITARITY_RTOL * grid.steps:
        raise AdiabaticaError(f"propagator lost unitarity: drift {drift:.3e}")
    return propagators


def propagate(
    spec: HamiltonianSpec,
    grid: TimeGrid,
    initial_states: Sequence[int | np.ndarray] = (0,),
    frames: FrameTrajectory | None = None,
) -> PropagationResult:
    """Propagate the time-ordered exponential of spec over the grid.

    initial_states entries are either level indices (the state starts in that
    instantaneous eigenvector at t_start) or explicit state vectors. Global
    error is O(dt^2); every propagator is unitary by construction.
    """
    if frames is None:
        frames = build_frames(spec, grid)
    propagators = stepping_propagators(spec, grid)

    states, coefficients = [], []
    for init in initial_states:
        if isinstance(init, (int, np.integer)):
            psi0 = frames.vectors[0, :, int(init)]
        else:
            psi0 = np.asarray(init, dtype=complex)
            norm = np.linalg.norm(psi0)
            if not np.isclose(norm, 1.0, atol=1e-12):
                raise ValueError(f"initial state norm {norm} is not 1")
        traj = np.einsum("kij,j->ki", propagators, psi0)
        states.append(traj)
        coefficients.append(np.einsum("kim,ki->km", frames.vectors.conj(), traj))

    return PropagationResult(grid, propagators, states, coefficients, frames)


def coefficient_propagate(eff: EffectiveHamiltonian, level: int) -> np.ndarray:
    """Propagate the instantaneous-basis coefficient vector under M(t).

    Same midpoint-exponential scheme as propagate(); returns c(t_k) with
    shape (steps+1, N) starting from the unit vector of the given level.
    """
    steps = _effective_steps(eff)
    n = eff.values.shape[1]
    out = np.empty((eff.grid.steps + 1, n), dtype=complex)
    out[0] = np.eye(n)[level]
    for k in range(eff.grid.steps):
        out[k + 1] = steps[k] @ out[k]
    return out


def coefficient_evolution(eff: EffectiveHamiltonian) -> Callable[[float, float], np.ndarray]:
    """Two-time coefficient-space evolution generated by M(t), for grid sample times."""
    S = _accumulate(_effective_steps(eff))
    locate = eff.grid.index_of

    def evolution(t2: float, t1: float) -> np.ndarray:
        return S[locate(t2)] @ S[locate(t1)].conj().T

    return evolution


def composition_check(
    evolution: Callable[[float, float], np.ndarray],
    triples: Sequence[tuple[float, float, float]],
) -> float:
    """Max over (t1, t2, t3) of ||U(t3,t1) - U(t3,t2) U(t2,t1)||_max."""
    worst = 0.0
    for t1, t2, t3 in triples:
        dev = max_abs(evolution(t3, t1) - evolution(t3, t2) @ evolution(t2, t1))
        worst = max(worst, dev)
    return worst


def stepping_evolution(result: PropagationResult) -> Callable[[float, float], np.ndarray]:
    """Two-time evolution U(t2, t1) = U[k2] U[k1]^dagger from a stepping run.

    Both times must coincide with grid samples.
    """
    locate = result.grid.index_of

    def evolution(t2: float, t1: float) -> np.ndarray:
        return result.propagators[locate(t2)] @ result.propagators[locate(t1)].conj().T

    return evolution
