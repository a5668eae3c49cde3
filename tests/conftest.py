"""Shared fixtures: random smooth Hermitian specs with well-separated levels, traced peaks."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from adiabatica import HamiltonianSpec


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
