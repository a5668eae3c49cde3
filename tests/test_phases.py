import dataclasses

import numpy as np
import pytest

from adiabatica import (
    AdiabaticaError,
    NonCyclicWarning,
    RotatingModelParams,
    TimeGrid,
    build_effective,
    build_frames,
    connection,
    criteria,
    gauge_transform_check,
    holonomy,
    max_abs,
    ms_inconsistency_probe,
    parallel_transport,
    phase_split,
    rotating_model,
)
from adiabatica.models import SIGMA_X, SIGMA_Z
from adiabatica.spectral import HamiltonianSpec

from conftest import random_smooth_spec


def rotating_setup(omega, steps, theta=np.pi / 3, analytic=True):
    params = RotatingModelParams(mu_B=1.0, theta=theta, omega=omega)
    spec = rotating_model(params)
    if not analytic:
        spec = HamiltonianSpec(dim=2, evaluate=spec.evaluate)
    grid = TimeGrid(0.0, params.period, steps)
    frames = build_frames(spec, grid)
    return params, spec, grid, frames, connection(frames)


def test_static_holonomy_is_unity():
    grid = TimeGrid(0.0, 2.0, 64)
    spec = HamiltonianSpec(dim=2, evaluate=lambda t: SIGMA_Z + 0.2 * SIGMA_X)
    frames = build_frames(spec, grid)
    h = holonomy(frames, connection(frames), 0)
    assert abs(h.value - 1.0) < 1e-12


def test_rotating_holonomy_equator():
    _, _, _, frames, conn = rotating_setup(omega=0.1, steps=512, theta=np.pi / 2)
    h = holonomy(frames, conn, 0)
    assert abs(h.value - (-1.0)) < 1e-12
    assert abs(abs(h.value) - 1.0) < 1e-8


def test_rotating_holonomy_phase_general_cone():
    theta = np.pi / 3
    _, _, _, frames, conn = rotating_setup(omega=0.2, steps=512, theta=theta)
    expected = np.exp(1j * np.pi * (1 + np.cos(theta)))
    assert abs(holonomy(frames, conn, 0).value - expected) < 1e-12
    expected_minus = np.exp(1j * np.pi * (1 - np.cos(theta)))
    assert abs(holonomy(frames, conn, 1).value - expected_minus) < 1e-12


def test_non_cyclic_warning_on_partial_period():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    grid = TimeGrid(0.0, params.period / 2, 128)
    frames = build_frames(rotating_model(params), grid)
    conn = connection(frames)
    with pytest.warns(NonCyclicWarning):
        holonomy(frames, conn, 0)


def test_phase_split_components():
    params, _, grid, frames, conn = rotating_setup(omega=0.25, steps=256)
    split = phase_split(frames, conn, 0)
    T = params.period
    assert split.dynamical == pytest.approx(-params.mu_B * T, rel=1e-12)
    assert split.geometric == pytest.approx(
        np.pi * (1 + np.cos(params.theta)), rel=1e-12
    )
    assert split.total == pytest.approx(split.dynamical - split.geometric, rel=1e-15)
    overflowing = dataclasses.replace(frames, energies=frames.energies * 1e308)
    with np.errstate(over="ignore"), pytest.raises(AdiabaticaError, match="not finite"):
        phase_split(overflowing, conn, 0)


def test_phase_split_additivity():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.25)
    spec = rotating_model(params)
    T = params.period
    whole = TimeGrid(0.0, T, 512)
    first = TimeGrid(0.0, T / 2, 256)
    second = TimeGrid(T / 2, T, 256)

    def split_on(grid):
        frames = build_frames(spec, grid)
        return phase_split(frames, connection(frames), 0)

    s_whole, s_first, s_second = split_on(whole), split_on(first), split_on(second)
    assert s_first.dynamical + s_second.dynamical == pytest.approx(
        s_whole.dynamical, rel=1e-12
    )
    assert s_first.geometric + s_second.geometric == pytest.approx(
        s_whole.geometric, rel=1e-12
    )


def test_parallel_transport_static_unchanged():
    grid = TimeGrid(0.0, 2.0, 64)
    spec = HamiltonianSpec(dim=2, evaluate=lambda t: SIGMA_Z)
    frames = build_frames(spec, grid)
    transported = parallel_transport(frames, connection(frames))
    assert max_abs(transported.vectors - frames.vectors) < 1e-12


def test_parallel_transport_endpoint_overlap_equals_holonomy():
    _, _, _, frames, conn = rotating_setup(omega=0.2, steps=512)
    transported = parallel_transport(frames, conn)
    h = holonomy(frames, conn, 0).value
    overlap = np.vdot(transported.vectors[0, :, 0], transported.vectors[-1, :, 0])
    assert abs(overlap - h) < 1e-12


def test_parallel_transport_kills_diagonal_connection():
    _, _, _, frames, conn = rotating_setup(omega=0.2, steps=512)
    transported = parallel_transport(frames, conn)
    A = connection(transported).values
    assert max_abs(A[:, [0, 1], [0, 1]]) < 1e-12


def test_parallel_transport_residual_converges(rng):
    spec = random_smooth_spec(rng, 3)
    residuals = []
    for steps in (128, 256):
        grid = TimeGrid(0.0, 1.0, steps)
        frames = build_frames(spec, grid)
        conn = connection(frames)
        transported = parallel_transport(frames, conn)
        A = connection(transported).values
        residuals.append(max_abs(A[1:-1, [0, 1, 2], [0, 1, 2]]))
    ratio = residuals[0] / residuals[1]
    assert 2.8 < ratio < 6.0


def criteria_of(spec, grid):
    frames = build_frames(spec, grid)
    return criteria(build_effective(frames, connection(frames)))


@pytest.mark.parametrize(
    "run, message",
    [
        (criteria_of, "criteria needs at least two levels"),
        (
            lambda spec, grid: gauge_transform_check(spec, grid, []),
            r"one \(alpha, alpha_dot\) pair per level is required",
        ),
        (
            lambda spec, grid: connection(build_frames(spec, TimeGrid(0.0, 1.0, 1))),
            "connection needs at least 2 grid steps",
        ),
    ],
    ids=["criteria", "gauge_transform_check", "connection"],
)
def test_library_value_error_message(run, message):
    spec = HamiltonianSpec(dim=1, evaluate=lambda t: np.ones((1, 1)))
    with pytest.raises(ValueError, match=message):
        run(spec, TimeGrid(0.0, 1.0, 16))


def test_gauge_check_zero_phases_is_exact():
    params, spec, grid, _, _ = rotating_setup(omega=0.5, steps=512)
    zero = (lambda t: 0.0, lambda t: 0.0)
    report = gauge_transform_check(spec, grid, [zero, zero])
    assert report.max_state_deviation == 0.0
    assert report.max_holonomy_deviation == 0.0


def test_gauge_check_smooth_phase():
    params, spec, grid, _, _ = rotating_setup(omega=0.5, steps=4096)
    w = params.omega
    plus = (lambda t: 0.3 + 0.7 * np.sin(w * t), lambda t: 0.7 * w * np.cos(w * t))
    zero = (lambda t: 0.0, lambda t: 0.0)
    report = gauge_transform_check(spec, grid, [plus, zero])
    assert report.max_state_deviation < 1e-5
    assert report.max_holonomy_deviation < 1e-8


def test_gauge_check_constant_phase_is_global():
    params, spec, grid, frames, conn = rotating_setup(omega=0.5, steps=256)
    flip = (lambda t: np.pi, lambda t: 0.0)
    zero = (lambda t: 0.0, lambda t: 0.0)
    report = gauge_transform_check(spec, grid, [flip, zero])
    # e^{i pi} at t=0 makes psi' = -psi exactly; deviation is pure roundoff
    assert report.max_state_deviation < 1e-12
    assert report.max_holonomy_deviation < 1e-12


def test_holonomy_gauge_invariance_random_smooth(rng):
    params, spec, grid, frames, conn = rotating_setup(omega=0.5, steps=2048)
    w = 2 * np.pi / params.period
    pairs = []
    for n in range(2):
        a0, amp, m = rng.uniform(-1, 1), rng.uniform(0.2, 1.0), rng.integers(1, 4)
        slope = rng.uniform(-0.3, 0.3)
        pairs.append(
            (
                lambda t, a0=a0, amp=amp, m=m, slope=slope: a0
                + slope * t
                + amp * np.sin(m * w * t),
                lambda t, amp=amp, m=m, slope=slope: slope + amp * m * w * np.cos(m * w * t),
            )
        )
    report = gauge_transform_check(spec, grid, pairs)
    assert report.max_holonomy_deviation < 1e-8


def test_probe_static_hamiltonian():
    grid = TimeGrid(0.0, 4.0, 128)
    spec = HamiltonianSpec(dim=2, evaluate=lambda t: SIGMA_Z + 0.1 * SIGMA_X)
    report = ms_inconsistency_probe(spec, grid, level=0)
    assert np.max(np.abs(np.abs(report.chain) - 1.0)) < 1e-10
    assert np.max(report.residual) < 1e-10


def test_probe_adiabatic_rotating_residual():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=1e-3)
    grid = TimeGrid(0.0, params.period, 2048)
    report = ms_inconsistency_probe(rotating_model(params), grid, level=0)
    expected = abs(1 - np.exp(1j * np.pi * (1 + np.cos(params.theta))))
    assert report.residual[-1] == pytest.approx(expected, abs=1e-9)
    assert report.residual[-1] == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_probe_near_axial_cone_chain_stays_unit():
    params = RotatingModelParams(mu_B=1.0, theta=1e-3, omega=0.5)
    grid = TimeGrid(0.0, params.period, 4096)
    report = ms_inconsistency_probe(rotating_model(params), grid, level=0)
    assert report.residual[-1] <= 1e-5
    assert abs(abs(report.chain[-1]) - 1.0) <= 1e-4
    assert "exp(+i int E_n dt)" in report.phase_convention
