"""Shared fixtures: random smooth Hermitian specs with well-separated levels, the exactly
solvable spin j in a rotating field, traced peaks, and the step kernel over a held stack."""

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


class SpinJ:
    """Spin j = (N - 1)/2 in a field at cone angle theta rotating about z at rate omega.

    H(t) = R H0 R^dagger with H0 = mu (cos theta J_z + sin theta J_x), J_z = diag(j, ..., -j)
    and R(t) = diag(exp(-i omega t m)). In the rotating frame H0 - omega J_z is static, so
    U(t) = R(t) exp(-i (H0 - omega J_z) t) exactly, and the frames V = R V0 have
    dV/dt = -i omega J_z V and a constant M. Level n has energy mu m with m = n - j and,
    over one period, holonomy exp(-i m Omega), Omega = 2 pi (1 - cos theta) (Berry 1984).
    """

    def __init__(self, n: int, omega: float, theta: float = 1.0, mu: float = 1.0):
        j = (n - 1) / 2
        self.m = j - np.arange(n)  # the diagonal of J_z
        up = np.sqrt(j * (j + 1) - self.m[1:] * (self.m[1:] + 1))  # <m + 1|J_+|m>
        jx = (np.diag(up, 1) + np.diag(up, -1)) / 2
        h0 = mu * (np.cos(theta) * np.diag(self.m) + np.sin(theta) * jx)
        self.energies, self.v0 = np.linalg.eigh(h0)
        self.rotating = np.linalg.eigh(h0 - omega * np.diag(self.m))
        self.omega, self.period, self.h0 = omega, 2 * np.pi / abs(omega), h0
        self.solid_angle = 2 * np.pi * (1 - np.cos(theta))

    def phases(self, t) -> np.ndarray:
        """The diagonal of R(t), (..., N) for a scalar time or an array of times."""
        return np.exp(-1j * self.omega * np.multiply.outer(t, self.m))

    def spec(self) -> HamiltonianSpec:
        def evaluate(t):
            r = self.phases(t)
            return r[..., :, None] * self.h0 * r.conj()[..., None, :]

        def frame(times):
            vectors = self.phases(times)[:, :, None] * self.v0
            derivatives = -1j * self.omega * self.m[:, None] * vectors
            return np.tile(self.energies, (len(times), 1)), vectors, derivatives

        return HamiltonianSpec(len(self.m), evaluate, analytic_frame=frame, batched=True)

    def propagator(self, t: float) -> np.ndarray:
        """The exact U(t, 0)."""
        values, vectors = self.rotating
        return self.phases(t)[:, None] * (vectors * np.exp(-1j * values * t)) @ vectors.conj().T


def exp_steps(hams: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s (H + H^dagger)/2) for each H of a held (K, N, N) stack: one kernel call,
    so the whole stack is one chunk with one scaling and degree."""
    out = np.empty(hams.shape, dtype=complex)
    return numerics.exp_steps(hams, s, out, (np.empty_like(out), np.empty_like(out)))


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
