"""Shared fixtures: random smooth Hermitian specs with well-separated levels, traced peaks,
and the step kernel over a held stack."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from adiabatica import HamiltonianSpec, numerics


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (M + M.conj().T) / 2


def random_smooth_spec(rng: np.random.Generator, n: int) -> HamiltonianSpec:
    """Smooth two-frequency Hamiltonian with a level spacing of order 2.

    The static part dominates (spread diagonal), keeping adjacent gaps well
    above the crossing floor for the drive amplitudes used here.
    """
    base = np.diag(np.arange(n, dtype=float) * 2.0) + random_hermitian(rng, n, 0.2)
    drive_a = random_hermitian(rng, n, 0.3)
    drive_b = random_hermitian(rng, n, 0.3)
    nu_a, nu_b = rng.uniform(0.5, 1.5, size=2)
    delta = rng.uniform(0, 2 * np.pi)

    def evaluate(t: float) -> np.ndarray:
        return base + drive_a * np.cos(nu_a * t + delta) + drive_b * np.sin(nu_b * t)

    return HamiltonianSpec(dim=n, evaluate=evaluate)


def exp_steps(hams: np.ndarray, s: float, diagonal: np.ndarray | None = None) -> np.ndarray:
    """exp(-i s (H + H^dagger)/2) for each H of a held (K, N, N) stack: StepPlan's two passes
    over its blocks of about BLOCK_BYTES. diagonal is the gathered Re H_ii the propagation
    routes pass (StepPlan's bits depend on its layout), taken from hams if None."""
    blocks, n = numerics._blocks(hams), hams.shape[-1]
    if diagonal is None:
        diagonal = hams.real[(slice(None), *np.diag_indices(n))]
    out = np.empty(hams.shape, dtype=complex)
    plan = numerics.StepPlan(s, diagonal, ((b, hams[b], out[b]) for b in blocks))
    work = [np.empty_like(out[blocks[0]]) for _ in range(2)]
    for b in blocks:
        plan.exp(out[b], b, work)
    return out


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while call() runs, above those traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
