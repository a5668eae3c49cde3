"""Exact time evolution by midpoint-exponential stepping, as one batched kernel.

Each step applies exp(-i * H(t_k + dt/2) * dt), a second-order Magnus
truncation; propagators accumulate left-multiplicatively so U[k] evolves from
t_start to t_k. All K steps are exponentiated in one batched call
(numerics.exp_antihermitian_batch), and the prefix products are a blocked scan
of batched products (see _accumulate), so no Python loop runs per step. The
kernel exponentiates the Hermitian part of its generators: H is checked finite
and Hermitian where it is sampled (HamiltonianSpec.sample), and the coefficient
route's midpoints of M, Hermitian only to O(dt^2) on a grid, need no
symmetrising; they are finite because build_frames checked the frames, and the
kernel's overflow guard still rejects a non-finite stack. Steps are unitary
to rounding, so every accumulated stack, direct or in coefficient space, is
checked for drift (_midpoint_propagators). Coarse steps are scaled and squared;
far too coarse ones (dt ||H||_max from about 1e6 at N = 3) fail it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .effective import EffectiveHamiltonian
from .numerics import dagger, exp_antihermitian_batch, matmul, max_abs, require_unitary
from .spectral import (
    FrameTrajectory,
    HamiltonianSpec,
    TimeGrid,
    _require_grid,
    _require_level,
    build_frames,
)

__all__ = [
    "PropagationResult",
    "coefficient_evolution",
    "coefficient_propagate",
    "composition_check",
    "propagate",
    "stepping_evolution",
    "stepping_propagators",
]


def _accumulate(steps: np.ndarray) -> np.ndarray:
    """Prefix products out[k] = steps[k-1] @ ... @ steps[0], out[0] = I; shape (K+1, N, N).

    Blocked scan: the K steps form consecutive blocks of b = ceil(sqrt(K)) steps
    (the last block may be shorter). First the products within every block run
    side by side, one batched product per position in the block, so out[k] holds
    the product of its block's steps up to k. Then one pass over the blocks in
    order multiplies each block on the right by the finished product that ends
    the block before it, in one batched product per block. That is about 2*sqrt(K)
    product calls in place of K, and no (K, N, N) buffer beside out. The factors
    are grouped per block rather than strictly left to right, so the result
    matches a sequential loop to rounding, not bit for bit.
    """
    k, n = steps.shape[:2]
    b = math.isqrt(k - 1) + 1
    out = np.empty((k + 1, n, n), dtype=complex)
    out[0] = np.eye(n)
    out[1::b] = steps[::b]
    for j in range(1, b):
        matmul(steps[j::b], out[j:k:b], out=out[j + 1 :: b])
    for end in range(b, k, b):
        block = out[end + 1 : end + b + 1]
        block[...] = matmul(block, out[end])
    return out


def _midpoint_propagators(mids: np.ndarray, dt: float) -> np.ndarray:
    """Prefix products of the steps exp(-i dt mids[k]), shape (K+1, N, N).

    Each step exponentiates the Hermitian part of mids[k]. AdiabaticaError when
    max|U^dagger U - I| exceeds UNITARITY_RTOL * K or is NaN (require_unitary).
    """
    propagators = _accumulate(exp_antihermitian_batch(mids, dt))
    require_unitary(propagators, "propagator lost unitarity")
    return propagators


def _coefficient_propagators(eff: EffectiveHamiltonian) -> np.ndarray:
    """Accumulated coefficient-space propagators under M(t), shape (steps+1, N, N).

    Step k is exp(-i (dt/2) (M_k + M_{k+1})), bit for bit the step of the midpoint
    (M_k + M_{k+1})/2, as halving is exact, except where dt < 2 * 2**-1022 makes dt/2
    subnormal; with ||M|| near 1e307 the kernel's overflow guard may read up to 2x higher.
    """
    return _midpoint_propagators(eff.values[:-1] + eff.values[1:], eff.frames.grid.dt / 2)


@dataclass(frozen=True)
class PropagationResult:
    """Stepping propagators with states and instantaneous-basis coefficients.

    states[s] and coefficients[s] follow the s-th requested initial state;
    both have shape (steps+1, N) with coefficients c_m(t_k) = <v_m(t_k)|psi(t_k)>.
    """

    propagators: np.ndarray
    states: list[np.ndarray]
    coefficients: list[np.ndarray]
    frames: FrameTrajectory


def stepping_propagators(spec: HamiltonianSpec, grid: TimeGrid) -> np.ndarray:
    """Accumulated midpoint-exponential propagators U(t_k, t_start), shape (steps+1, N, N).

    Raises NotHermitianError from spec.sample when a midpoint sample is non-finite or
    not Hermitian, and AdiabaticaError on unitarity drift beyond UNITARITY_RTOL * steps.
    """
    return _midpoint_propagators(spec.sample(grid.times[:-1] + grid.dt / 2), grid.dt)


def propagate(
    spec: HamiltonianSpec,
    grid: TimeGrid,
    initial_states: Sequence[int | np.ndarray] = (0,),
    frames: FrameTrajectory | None = None,
) -> PropagationResult:
    """Propagate the time-ordered exponential of spec over the grid.

    initial_states entries are either level indices in [0, N) (the state starts in
    that instantaneous eigenvector at t_start) or explicit state vectors of shape
    (N,) whose norm is 1 within 1e-12; anything else, a bool too, raises ValueError.
    Global error is O(dt^2); every propagator is unitary to rounding, checked as in
    stepping_propagators. Raises GridMismatchError when the given frames are on
    another grid.
    """
    if frames is None:
        frames = build_frames(spec, grid)
    _require_grid(frames, grid)

    columns = []
    for init in initial_states:
        if isinstance(init, (int, np.integer)):
            _require_level(init, spec.dim)
            psi0 = frames.vectors[0, :, int(init)]
        else:
            psi0 = np.asarray(init, dtype=complex)
            if psi0.shape != (spec.dim,):
                raise ValueError(f"initial state shape {psi0.shape} is not ({spec.dim},)")
            norm = np.linalg.norm(psi0)
            if not abs(norm - 1.0) <= 1e-12:
                raise ValueError(f"initial state norm {norm} is not 1")
        columns.append(psi0)
    propagators = stepping_propagators(spec, grid)
    # Column s of traj[k] is U[k] psi0_s; of coeffs[k], its overlaps <v_m(t_k)|.>.
    psi0s = np.array(columns, dtype=complex).reshape(len(columns), spec.dim).T
    traj = matmul(propagators, psi0s)
    coeffs = matmul(dagger(frames.vectors), traj)
    states = [traj[:, :, s] for s in range(len(columns))]
    coefficients = [coeffs[:, :, s] for s in range(len(columns))]
    return PropagationResult(propagators, states, coefficients, frames)


def coefficient_propagate(eff: EffectiveHamiltonian, level: int) -> np.ndarray:
    """Propagate the instantaneous-basis coefficient vector under M(t).

    Same midpoint-exponential scheme and unitarity check as propagate();
    returns c(t_k) with shape (steps+1, N) starting from the unit vector of
    the given level (ValueError outside [0, N)).
    """
    _require_level(level, eff.frames.dim)
    # A copy, so the caller does not keep the whole (K+1, N, N) stack alive.
    return _coefficient_propagators(eff)[:, :, level].copy()


def _two_time(stack: np.ndarray, grid: TimeGrid) -> Callable[[float, float], np.ndarray]:
    """U(t2, t1) = stack[k2] stack[k1]^dagger over a prefix-product stack, for grid sample times."""

    def evolution(t2: float, t1: float) -> np.ndarray:
        return stack[grid.index_of(t2)] @ dagger(stack[grid.index_of(t1)])

    return evolution


def coefficient_evolution(eff: EffectiveHamiltonian) -> Callable[[float, float], np.ndarray]:
    """Two-time coefficient-space evolution generated by M(t), for grid sample times."""
    return _two_time(_coefficient_propagators(eff), eff.frames.grid)


def composition_check(
    evolution: Callable[[float, float], np.ndarray],
    triples: Sequence[tuple[float, float, float]],
) -> float:
    """Max over (t1, t2, t3) of ||U(t3,t1) - U(t3,t2) U(t2,t1)||_max.

    Each distinct (later, earlier) pair is evaluated once: the triples of n
    times share n(n-1)/2 pairs.
    """
    evolution = functools.cache(evolution)
    worst = 0.0
    for t1, t2, t3 in triples:
        dev = max_abs(evolution(t3, t1) - evolution(t3, t2) @ evolution(t2, t1))
        worst = max(worst, dev)
    return worst


def stepping_evolution(result: PropagationResult) -> Callable[[float, float], np.ndarray]:
    """Two-time evolution U(t2, t1) = U[k2] U[k1]^dagger of a stepping run, at grid samples."""
    return _two_time(result.propagators, result.frames.grid)
