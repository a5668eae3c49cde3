"""Instantaneous eigenframes along a time grid and the geometric connection matrix.

The connection A_nm(t) = <v_n | i d/dt v_m> is computed either from
model-supplied analytic eigenvector derivatives or by second-order finite
differences of continuity-gauged numeric frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closed_form import _is_integer
from .errors import AdiabaticaError, EigenGapTooSmallError, GridMismatchError
from .numerics import dagger_matmul, eigh_batch, max_abs, require_hermitian_batch, require_unitary

__all__ = [
    "ConnectionMatrix",
    "FrameTrajectory",
    "HamiltonianSpec",
    "TimeGrid",
    "build_frames",
    "connection",
]

GAP_FLOOR_RTOL = 1e-10


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of steps+1 sample times on [t_start, t_end] (hbar = 1 units)."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not _is_integer(self.steps) or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if not all(math.isfinite(x) for x in (self.t_start, self.t_end, self.dt)):
            raise ValueError("t_start, t_end and the step dt must be finite")
        # Increasing times need dt above the float spacing at the ends, and normal: K dt
        # magnifies the rounding of a subnormal dt past dt itself.
        floor = max(math.ulp(max(abs(self.t_start), abs(self.t_end))), np.finfo(float).tiny)
        if not self.dt > floor:
            raise ValueError(f"t_end must exceed t_start by more than {floor!r} per step")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps + 1)

    def index_of(self, t):
        """Grid index of each sample time in t (a scalar or an array of times).

        Raises ValueError when a time is more than 1e-9 * S from every grid
        sample, S = max(1, |t_start|, |t_end|): each grid time carries the
        rounding error of the grid's ends, also a time near 0 on a grid of large
        magnitude. The tolerance is capped at dt/4, so it cannot cover the gap
        between samples, but not below 4 eps S, the rounding of a grid time or a
        midpoint computed from the ends.
        """
        t = np.asarray(t, dtype=float)
        k = np.rint((t - self.t_start) / self.dt)
        on_grid = (0 <= k) & (k <= self.steps)
        scale = max(1.0, abs(self.t_start), abs(self.t_end))
        tol = min(1e-9 * scale, max(self.dt / 4, 4 * np.finfo(float).eps * scale))
        on_grid &= np.abs(self.t_start + k * self.dt - t) <= tol
        if not on_grid.all():
            raise ValueError(f"time {t[~on_grid].flat[0]} is not a grid sample")
        return k.astype(int) if k.ndim else int(k)


# An analytic frame callable maps a 1-D array of K times to (energies (K, N),
# eigenvector columns (K, N, N), eigenvector time-derivative columns (K, N, N)).
AnalyticFrame = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Time-dependent N x N Hermitian matrix, optionally with analytic eigenframes.

    evaluate(t) returns H(t) for a scalar time. With batched=True it must also
    accept a 1-D array of K times and return the (K, N, N) stack in one call.
    analytic_frame, when given, is always called once with the array of grid
    times (see AnalyticFrame).
    """

    dim: int
    evaluate: Callable[[float], np.ndarray]
    analytic_frame: Optional[AnalyticFrame] = None
    batched: bool = False

    def __post_init__(self):
        if not _is_integer(self.dim) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, not {self.dim!r}")

    def sample(self, times: np.ndarray) -> np.ndarray:
        """H at each of the K times, shape (K, N, N): one batched call or a scalar loop.

        Raises ValueError when a return has any other shape; nothing is broadcast.
        Raises NotHermitianError unless the stack is finite and Hermitian: this is
        the one check of H, so the frames and step kernels trust what they get.
        """
        if self.batched:
            hams = np.asarray(self.evaluate(times), dtype=complex)
            if hams.shape != (len(times), self.dim, self.dim):
                raise ValueError(f"batched evaluate gave shape {hams.shape} for {len(times)} times")
        else:
            shape = (self.dim, self.dim)
            hams = np.empty((len(times),) + shape, dtype=complex)
            for k, t in enumerate(times):
                h = self.evaluate(t)
                if getattr(h, "shape", None) != shape and np.shape(h) != shape:  # arrays: one getattr
                    raise ValueError(f"evaluate gave shape {np.shape(h)} at time {t}, not {shape}")
                hams[k] = h
        require_hermitian_batch(hams)
        return hams


@dataclass(frozen=True)
class FrameTrajectory:
    """Gauge-fixed instantaneous eigenframes sampled on a time grid.

    vectors[k, :, n] is level n at grid time k; vector_derivatives holds the matching
    d/dt columns when a model's analytic frame supplied them, and is None otherwise.
    """

    grid: TimeGrid
    energies: np.ndarray
    vectors: np.ndarray
    vector_derivatives: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.energies.shape[1]


def _require_grid(frames: FrameTrajectory, grid: TimeGrid) -> None:
    """GridMismatchError unless the frames were built on grid."""
    if frames.grid != grid:
        raise GridMismatchError(f"frames on {frames.grid} used with {grid}")


@dataclass(frozen=True)
class ConnectionMatrix:
    """Geometric connection A(t) sampled on the grid, shape (steps+1, N, N)."""

    grid: TimeGrid
    values: np.ndarray


def _check_gaps(energies: np.ndarray) -> None:
    """EigenGapTooSmallError when an adjacent-level gap is at most GAP_FLOOR_RTOL * max|E|."""
    gaps = np.diff(np.sort(energies, axis=1), axis=1)
    floor = GAP_FLOOR_RTOL * max_abs(energies)
    if gaps.size and np.min(gaps) <= floor:
        k = int(np.argmin(np.min(gaps, axis=1)))
        raise EigenGapTooSmallError(
            f"adjacent-level gap {np.min(gaps):.3e} at or below {floor:.3e} at grid index {k}"
        )


def build_frames(spec: HamiltonianSpec, grid: TimeGrid) -> FrameTrajectory:
    """Instantaneous eigenframes at every grid time.

    With model-supplied analytic frames they are taken verbatim from one call
    on the whole time array. Otherwise H is sampled with spec.sample (one
    call for batched specs) and each grid point is eigendecomposed by LAPACK
    through numerics.eigh_batch, np.linalg.eigh on up to EIGH_MAX_THREADS
    threads, which is deterministic for identical input; level n
    is the n-th eigenvalue in ascending order, and each eigenvector phase is
    rotated so the overlap with its predecessor is real and positive
    (continuity gauge).

    Raises AdiabaticaError on non-finite analytic energies, vectors or derivatives or on
    max|V^dagger V - I| above UNITARITY_RTOL * steps, the drift bound of a propagator
    over the grid (numerics.require_unitary): a barred_model spec takes its frames
    from a stored propagator and inherits its drift. NotHermitianError on
    non-finite or non-Hermitian samples (from spec.sample), and
    EigenGapTooSmallError when an adjacent-level gap is at most
    1e-10 * max|E_n(t)| (crossings are unsupported) or an overlap
    |<v_{k-1,n}|v_{k,n}>| is at most 1/sqrt(2) (under-resolved grid).
    """
    times = grid.times
    if spec.analytic_frame is not None:
        energies, vectors, derivs = spec.analytic_frame(times)
        if not all(np.isfinite(x).all() for x in (energies, vectors, derivs)):
            raise AdiabaticaError("analytic frame has non-finite energies, vectors or derivatives")
        require_unitary(vectors, "analytic frames not orthonormal")
        _check_gaps(energies)
        return FrameTrajectory(grid, energies, vectors, derivs)

    energies, vectors = eigh_batch(spec.sample(times))
    _check_gaps(energies)

    # Continuity gauge: multiply level n at step k by the conjugate phases of the
    # overlaps <v_{j-1,n}|v_{j,n}>, j <= k. An overlap above 1/sqrt(2) is the unique
    # maximum of its unit-norm column, so the ascending eigh order labels the levels.
    overlaps = np.einsum("kin,kin->kn", vectors[:-1].conj(), vectors[1:])
    under = np.abs(overlaps) <= 2**-0.5
    if under.any():
        k, m = np.argwhere(under)[0]
        raise EigenGapTooSmallError(
            f"level {m} overlap {abs(overlaps[k, m]):.3e} <= 1/sqrt(2) at grid index {k + 1}: "
            "under-resolved grid"
        )
    vectors[1:] *= np.exp(-1j * np.cumsum(np.angle(overlaps), axis=0))[:, None, :]

    return FrameTrajectory(grid, energies, vectors)


def connection(frames: FrameTrajectory) -> ConnectionMatrix:
    """Geometric connection A_nm(t) = <v_n(t) | i d/dt v_m(t)> on the frame grid.

    d/dt v is the frames' vector_derivatives when they carry them, and second-order
    finite differences of the vectors otherwise.
    """
    if frames.grid.steps < 2:
        raise ValueError("connection needs at least 2 grid steps")
    if frames.vector_derivatives is not None:
        dv = frames.vector_derivatives
    else:
        # central differences inside, second-order one-sided stencils at the ends
        dv = np.gradient(frames.vectors, frames.grid.dt, axis=0, edge_order=2)
    values = dagger_matmul(frames.vectors, dv)
    values *= 1j
    return ConnectionMatrix(frames.grid, values)
