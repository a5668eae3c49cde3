"""Effective Hamiltonian in the instantaneous basis and adiabaticity criteria.

The coefficient matrix is M_nm(t) = E_n(t) delta_nm - A_nm(t) (hbar = 1): the
instantaneous energies on the diagonal minus the geometric connection. Its
diagonal dominance is quantified by three worst-case-over-time ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdiabaticaError
from .numerics import max_abs
from .spectral import ConnectionMatrix, FrameTrajectory, _require_grid

__all__ = ["CriteriaReport", "EffectiveHamiltonian", "build_effective", "criteria"]

DEGENERATE_RTOL = 1e-14
WITNESS_RTOL = 1e-9


def accumulate_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid quadrature of (K,) or (K, N) values along axis 0; result[0] = 0.

    dt is the uniform step. Raises AdiabaticaError when any column's sum is not finite.
    """
    out = np.zeros(values.shape, dtype=np.result_type(values, float))
    np.cumsum((values[1:] + values[:-1]) * (dt / 2), axis=0, out=out[1:])
    if not np.isfinite(out[-1]).all():  # a non-finite partial sum stays non-finite
        raise AdiabaticaError(f"accumulated phase is not finite: {out[-1]}")
    return out


def geometric_phase(conn: ConnectionMatrix, level: int) -> np.ndarray:
    """int_0^t A_nn dt' of one level at every grid time, by accumulate_trapezoid.

    A_nn is real up to discretization noise, so its real part is integrated.
    """
    return accumulate_trapezoid(conn.values[:, level, level].real, conn.grid.dt)


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """M(t) sampled per grid time, plus the frames it came from; off the diagonal M = -A."""

    values: np.ndarray
    frames: FrameTrajectory


def build_effective(frames: FrameTrajectory, conn: ConnectionMatrix) -> EffectiveHamiltonian:
    """M_nm(t) = E_n delta_nm - A_nm at every grid point; GridMismatchError across grids."""
    _require_grid(frames, conn.grid)
    values = -conn.values  # a new array
    idx = np.arange(frames.dim)
    values[:, idx, idx] += frames.energies
    return EffectiveHamiltonian(values, frames)


@dataclass(frozen=True)
class CriteriaReport:
    """Diagonal-dominance ratios with their worst-case witnesses.

    Each ratio is a global maximum of the off-diagonal connection magnitude
    over the grid divided by a global minimum denominator: bare level
    differences (r_naive), differences of the effective diagonal (r_gap), or
    magnitudes of the effective diagonal shifted by energy_offset (r_level).
    A verdict is True when its ratio is below epsilon. Denominators at or
    below 1e-14 * max|E_n(t)| yield an infinite ratio and a False verdict, so
    the ratios do not depend on the energy unit.
    """

    r_naive: float
    r_gap: float
    r_level: float
    epsilon: float
    verdicts: dict
    witnesses: dict
    energy_offset: float


def _witness(values: np.ndarray, pick, times: np.ndarray) -> tuple[float, dict]:
    """values.flat[pick(values)] and the first (k, levels), in row-major order, within
    WITNESS_RTOL of it, so that a last-bit change does not move a flat extreme's witness."""
    extreme_at = int(pick(values))
    extreme = values.flat[extreme_at]
    near = np.abs(values - extreme) <= WITNESS_RTOL * abs(extreme)
    near.flat[extreme_at] = True
    k, *levels = np.unravel_index(int(np.argmax(near)), values.shape)
    return float(extreme), {"time": float(times[k]), "levels": [int(n) for n in levels]}


def criteria(
    eff: EffectiveHamiltonian, epsilon: float = 0.1, energy_offset: float = 0.0
) -> CriteriaReport:
    """Evaluate the naive and precise adiabaticity criteria for M(t).

    The numerator is max over grid times and level pairs n' != m' of
    |M_n'm'(t)| = |A_n'm'(t)|; each denominator is minimized over grid times and levels.
    energy_offset shifts only the r_level denominator, honoring the free
    choice of energy origin. Each witness is the first (time, levels) within a
    relative WITNESS_RTOL of its extreme. ValueError, before any arithmetic,
    unless 0 < epsilon < inf and energy_offset is finite.
    """
    if not (0 < epsilon < np.inf and np.isfinite(energy_offset)):
        raise ValueError("epsilon must lie in (0, inf) and energy_offset must be finite")
    n = eff.frames.dim
    if n < 2:
        raise ValueError("criteria needs at least two levels")
    times = eff.frames.grid.times
    E = eff.frames.energies
    diag = np.einsum("kii->ki", eff.values)
    idx = np.arange(n)

    # (K, N, N) arrays over level pairs (i, j), the diagonal i = j masked off
    offdiag = np.abs(eff.values)
    offdiag[:, idx, idx] = -np.inf
    naive = np.abs(E[:, :, None] - E[:, None, :])
    gap = np.abs(diag[:, :, None] - diag[:, None, :])
    naive[:, idx, idx] = gap[:, idx, idx] = np.inf
    level = np.abs(diag + energy_offset)

    witnesses = {}
    numerator, witnesses["numerator"] = _witness(offdiag, np.argmax, times)
    naive_den, witnesses["naive_denominator"] = _witness(naive, np.argmin, times)
    gap_den, witnesses["gap_denominator"] = _witness(gap, np.argmin, times)
    level_den, witnesses["level_denominator"] = _witness(level, np.argmin, times)

    floor = DEGENERATE_RTOL * max_abs(E)

    def ratio(den: float) -> float:
        return numerator / den if den > floor else float("inf")

    r_naive, r_gap, r_level = ratio(naive_den), ratio(gap_den), ratio(level_den)
    verdicts = {
        "naive": bool(r_naive < epsilon),
        "gap": bool(r_gap < epsilon),
        "level": bool(r_level < epsilon),
    }
    return CriteriaReport(
        r_naive=r_naive,
        r_gap=r_gap,
        r_level=r_level,
        epsilon=epsilon,
        energy_offset=energy_offset,
        verdicts=verdicts,
        witnesses=witnesses,
    )

