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
    the ratios do not depend on the energy unit. witnesses holds each extreme's time and
    levels: the numerator's pair, a pair denominator's [i, j] with i < j, or a level [n].
    """

    r_naive: float
    r_gap: float
    r_level: float
    epsilon: float
    verdicts: dict
    witnesses: dict
    energy_offset: float


def _witness(values: np.ndarray, pick, times: np.ndarray, levels: list) -> tuple[float, dict]:
    """values.flat[pick(values)] of a (K, P) array, and the time and levels[p] of the first (k, p),
    in row-major order, within WITNESS_RTOL of it, so a last-bit change cannot move the witness."""
    extreme_at = int(pick(values))
    extreme = values.flat[extreme_at]
    near = np.abs(values - extreme) <= WITNESS_RTOL * abs(extreme)
    near.flat[extreme_at] = True
    k, p = divmod(int(np.argmax(near)), values.shape[1])
    return float(extreme), {"time": float(times[k]), "levels": list(levels[p])}


def criteria(
    eff: EffectiveHamiltonian, epsilon: float = 0.1, energy_offset: float = 0.0
) -> CriteriaReport:
    """Evaluate the naive and precise adiabaticity criteria for M(t).

    The numerator is max over grid times and level pairs n' != m' of |M_n'm'(t)| =
    |A_n'm'(t)|; each denominator is minimized over grid times and level pairs i < j
    (|E_i - E_j|, |M_ii - M_jj|) or levels (|M_ii + energy_offset|). energy_offset, the free
    choice of energy origin, shifts only r_level. Each witness is the first (time, levels)
    within a relative WITNESS_RTOL of its extreme; the pair differences are symmetric to the
    bit, so that is also the first near pair over all ordered pairs. ValueError, before any
    arithmetic, unless 0 < epsilon < inf and energy_offset is finite.
    """
    if not (0 < epsilon < np.inf and np.isfinite(energy_offset)):
        raise ValueError("epsilon must lie in (0, inf) and energy_offset must be finite")
    n = eff.frames.dim
    if n < 2:
        raise ValueError("criteria needs at least two levels")
    times, E = eff.frames.grid.times, eff.frames.energies
    diag = np.einsum("kii->ki", eff.values)

    offdiag = np.abs(eff.values).reshape(len(times), n * n)  # |M_ij| is not symmetric
    offdiag[:, :: n + 1] = -np.inf
    witnesses = {}
    numerator, witnesses["numerator"] = _witness(offdiag, np.argmax, times, list(np.ndindex(n, n)))
    del offdiag  # one ratio's temporaries at a time

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    i, j = np.array(pairs).T
    floor = DEGENERATE_RTOL * max_abs(E)
    ratios = {}
    for name, magnitudes, levels in (
        ("naive", lambda: np.abs(E[:, i] - E[:, j]), pairs),
        ("gap", lambda: np.abs(diag[:, i] - diag[:, j]), pairs),
        ("level", lambda: np.abs(diag + energy_offset), list(np.ndindex(n))),
    ):
        den, witnesses[f"{name}_denominator"] = _witness(magnitudes(), np.argmin, times, levels)
        ratios[name] = numerator / den if den > floor else float("inf")
    return CriteriaReport(
        **{f"r_{name}": r for name, r in ratios.items()},
        epsilon=epsilon,
        energy_offset=energy_offset,
        verdicts={name: bool(r < epsilon) for name, r in ratios.items()},
        witnesses=witnesses,
    )
