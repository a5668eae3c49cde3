"""Exact time evolution by midpoint-exponential stepping, as batched kernels.

Each step applies exp(-i dt H(t_k + dt/2)), a second-order Magnus truncation,
and U[k] = step[k-1] ... step[0] evolves from t_start to t_k; no Python loop
runs per step. Only the Hermitian part of a generator is exponentiated, so the
coefficient route's midpoints of M, Hermitian only to O(dt^2) on a grid, need
no symmetrising. Steps are unitary to rounding, not by construction, so every
accumulated stack is checked for drift; far too coarse steps (dt ||H||_max
from about 1e6 at N = 3) fail that check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closed_form import _require_level
from .effective import EffectiveHamiltonian
from . import numerics
from .numerics import (
    StepPlan,
    dagger,
    dagger_matmul,
    matmul,
    max_abs,
    require_drift,
    unitarity_defect,
)
from .spectral import (
    FrameTrajectory,
    HamiltonianSpec,
    TimeGrid,
    _require_grid,
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


def _scan_size(steps: int) -> int:
    """b = ceil(sqrt(K)), the length of _scan's blocks over K steps."""
    return math.isqrt(steps - 1) + 1


def _scan(
    steps: np.ndarray, size: int, carry: np.ndarray | None, scratch: np.ndarray
) -> np.ndarray:
    """Prefix products in place: on return steps[i] = steps[i] @ ... @ steps[0] @ carry
    (I if None); returns the last, a view into steps.

    Blocked scan: the steps form consecutive blocks of `size` (the last may be shorter).
    First the products within every block run side by side, one batched product per
    position in the block, so steps[i] holds the product of its block's steps up to i;
    each position's steps are copied out before they are overwritten. Then one pass over
    the blocks in order multiplies each block on the right by the finished product that
    ends the block before it (carry for the first), in one batched product per block,
    through scratch, at least `size` long. Every step gets the same products in the same
    order however many blocks a call spans, so scanning a stack in runs of whole blocks,
    each run's last product the next run's carry, gives the bits of one call. That is
    about 2*sqrt(K) product calls in place of K for b = _scan_size(K). The factors are
    grouped per block rather than strictly left to right, so the result matches a
    sequential loop to rounding, not bit for bit.
    """
    for j in range(1, size):
        matmul(steps[j::size].copy(), steps[j - 1 : len(steps) - 1 : size], out=steps[j::size])
    for start in range(0, len(steps), size):
        block = steps[start : start + size]
        if carry is not None:
            block[...] = matmul(block, carry, out=scratch[: len(block)])
        carry = block[-1]
    return carry


def _walk(
    generators: Callable[[slice, np.ndarray], np.ndarray],
    diagonal: np.ndarray,
    s: float,
    level: int | None = None,
) -> np.ndarray:
    """Prefix products U[k] = step[k-1] ... step[0], U[0] = I, of the K steps exp(-i s G_k),
    (K+1, N, N), or with an int level their column level, (K+1, N).

    generators(c, buf) gives the G of steps c, a view or written into buf, a chunk
    buffer; diagonal is their gathered Re G_ii, (K, N), dropped once the StepPlan pass
    has read it. The steps are then walked in groups of whole _scan blocks, about
    BLOCK_BYTES each, exponentiated in chunks of about BLOCK_BYTES / 4, scanned onto the
    product that ends the group before and checked for drift per chunk. When the stack
    is kept, a group is its slice of it, where the plan's pass formed its generators;
    for a column, a group is a scratch stack, formed a second time, whose column is kept.
    AdiabaticaError when max|U^dagger U - I| exceeds UNITARITY_RTOL * K or is NaN.
    """
    (k, n), keep = diagonal.shape, level is None
    size, matrix = _scan_size(k), n * n * 16
    per_group = size * max(1, numerics.BLOCK_BYTES // (size * matrix))
    per_chunk = min(max(1, numerics.BLOCK_BYTES // 4 // matrix), per_group, k)
    buf, work, scratch = (np.empty((m, n, n), dtype=complex) for m in (per_chunk, per_chunk, size))
    stack = np.empty((k + 1 if keep else min(per_group, k), n, n), dtype=complex)
    steps = stack[1:] if keep else stack

    def spans(start: int, stop: int, length: int) -> list[slice]:
        return [slice(i, min(i + length, stop)) for i in range(start, stop, length)]

    targets = ((c, steps[c] if keep else work[: c.stop - c.start]) for c in spans(0, k, per_chunk))
    plan = StepPlan(s, diagonal, ((c, generators(c, buf), into) for c, into in targets))
    del diagonal
    out = stack if keep else np.empty((k + 1, n), dtype=complex)
    out[0] = np.eye(n) if keep else np.eye(n)[level]
    carry, defects = None, []
    for g in spans(0, k, per_group):
        group = steps[g] if keep else steps[: g.stop - g.start]
        chunked = spans(g.start, g.stop, per_chunk)
        parts = [(c, group[c.start - g.start : c.stop - g.start]) for c in chunked]
        for c, part in parts:
            plan.exp(part if keep else plan.form(generators(c, buf), c, part), c, (work, buf))
        carry = _scan(group, size, carry, scratch).copy()
        defects += [unitarity_defect(part, (buf, work)) for _, part in parts]
        if not keep:
            out[g.start + 1 : g.stop + 1] = group[:, :, level]
    require_drift(float(np.max(defects)), k, "propagator lost unitarity")
    return out


def _real_diagonal(stack: np.ndarray) -> np.ndarray:
    """Re H_ii of a (K, N, N) stack as a new (K, N) array, whose layout fixes the order in
    which StepPlan sums the trace means: an np.diagonal view changes their bits."""
    return stack.real[(slice(None), *np.diag_indices(stack.shape[-1]))]


def _coefficient_propagators(eff: EffectiveHamiltonian, level: int | None = None) -> np.ndarray:
    """_walk under M(t): the (steps+1, N, N) coefficient-space propagators, or their column
    level. Step k is exp(-i (dt/2) (M_k + M_{k+1})), bit for bit the step of the midpoint
    (M_k + M_{k+1})/2, as halving is exact, except where dt < 2 * 2**-1022 makes dt/2
    subnormal; with ||M|| near 1e307 the kernel's overflow guard may read up to 2x higher.
    The sums are formed chunk by chunk into the walk's buffer.
    """
    values = eff.values

    def summed(c: slice, buf: np.ndarray) -> np.ndarray:
        return np.add(values[c], values[c.start + 1 : c.stop + 1], out=buf[: c.stop - c.start])

    dt = eff.frames.grid.dt  # the diagonal is not bound here: the walk drops it after its plan
    return _walk(summed, _real_diagonal(values[:-1]) + _real_diagonal(values[1:]), dt / 2, level)


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
    hams = spec.sample(grid.times[:-1] + grid.dt / 2)
    return _walk(lambda c, buf: hams[c], _real_diagonal(hams), grid.dt)


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
    coeffs = dagger_matmul(frames.vectors, traj)
    states = [traj[:, :, s] for s in range(len(columns))]
    coefficients = [coeffs[:, :, s] for s in range(len(columns))]
    return PropagationResult(propagators, states, coefficients, frames)


def coefficient_propagate(eff: EffectiveHamiltonian, level: int) -> np.ndarray:
    """Propagate the instantaneous-basis coefficient vector under M(t).

    Same midpoint-exponential scheme and unitarity check as propagate();
    returns c(t_k) with shape (steps+1, N) starting from the unit vector of
    the given level (ValueError outside [0, N)). It is column `level` of the
    coefficient propagators, bit for bit, but no (K+1, N, N) stack is held: a
    group of about BLOCK_BYTES, two chunk buffers, a scan block and the result
    are all the route holds (_walk).
    """
    _require_level(level, eff.frames.dim)
    return _coefficient_propagators(eff, level)


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
