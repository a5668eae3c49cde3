"""Spin j in a rotating field (conftest.SpinJ): an exactly solvable N-level system, so the
stepping propagators, the numeric-frame holonomies and the analytic-frame effective
Hamiltonian are checked against closed forms at N = 3, 8 and 16. Theta = 1, mu = 1 and
one drive period throughout."""

import numpy as np
import pytest

from adiabatica import (
    HamiltonianSpec,
    TimeGrid,
    build_effective,
    build_frames,
    connection,
    holonomy,
    stepping_propagators,
)

from conftest import SpinJ


@pytest.mark.parametrize("omega", [0.05, 0.5])
@pytest.mark.parametrize("n", [3, 8, 16])
def test_stepping_error_falls_sixteenfold_from_256_to_1024_steps(n, omega):
    # Measured: x16.00-16.08; at N = 16, 5.31e-3 -> 3.31e-4 (omega = 0.05) and
    # 5.63e-4 -> 3.52e-5 (omega = 0.5).
    system = SpinJ(n, omega)
    exact = system.propagator(system.period)
    spec, errors = system.spec(), []
    for steps in (256, 1024):
        final = stepping_propagators(spec, TimeGrid(0.0, system.period, steps))[-1]
        errors.append(np.abs(final - exact).max())
    assert errors[0] / errors[1] == pytest.approx(16, rel=0.2)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_numeric_frame_holonomy_is_berrys_and_converges_at_order_two(n):
    # Level n <-> m = n - j has holonomy exp(-i m Omega). The error is proportional to |m|:
    # at N = 16 the worst level reads 8.94e-4 -> 5.64e-5, x15.86, and the m = 0 level of odd
    # N is exact to rounding.
    system = SpinJ(n, 0.5)
    numeric = HamiltonianSpec(n, system.spec().evaluate, batched=True)
    m = system.m[::-1]  # levels in ascending energy: m = n - j
    berry = np.exp(-1j * m * system.solid_angle)
    errors = []
    for steps in (256, 1024):
        frames = build_frames(numeric, TimeGrid(0.0, system.period, steps))
        conn = connection(frames)
        errors.append(np.abs([holonomy(frames, conn, level).value for level in range(n)] - berry))
    coarse, fine = errors
    moving = m != 0
    assert coarse[moving] / fine[moving] == pytest.approx(np.full(moving.sum(), 16), rel=0.2)
    assert np.all(coarse[~moving] <= 1e-12)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_effective_hamiltonian_is_constant_in_the_analytic_frames(n):
    # M = E - omega V0^dagger J_z V0 (claim (c) at N > 2); measured max|M - M(0)| <= 9e-16.
    system = SpinJ(n, 0.5)
    frames = build_frames(system.spec(), TimeGrid(0.0, system.period, 1024))
    values = build_effective(frames, connection(frames)).values
    assert np.abs(values - values[0]).max() <= 1e-13
