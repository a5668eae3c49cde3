import dataclasses
import math
import warnings

import numpy as np
import pytest

from adiabatica import (
    AdiabaticaError,
    NonCyclicWarning,
    RotatingModelParams,
    TimeGrid,
    build_effective,
    build_frames,
    coefficient_propagate,
    connection,
    criteria,
    gauge_transform_check,
    holonomy,
    max_abs,
    ms_inconsistency_probe,
    parallel_transport,
    phase_split,
    propagate,
    rotating_dynamical_phase,
    rotating_exact_solution,
    rotating_geometric_phase,
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


def level_entries() -> dict:
    """The entries that take a level index, bound to the rotating model at K = 64."""
    params, spec, grid, frames, conn = rotating_setup(omega=0.5, steps=64, theta=1.0)
    return {
        "holonomy": lambda n: holonomy(frames, conn, n),
        "phase_split": lambda n: phase_split(frames, conn, n),
        "coefficient_propagate": lambda n: coefficient_propagate(build_effective(frames, conn), n),
        "propagate": lambda n: propagate(spec, grid, [n]),
        "ms_inconsistency_probe": lambda n: ms_inconsistency_probe(spec, grid, level=n),
        "rotating_geometric_phase": lambda n: rotating_geometric_phase(params, n),
        "rotating_dynamical_phase": lambda n: rotating_dynamical_phase(params, n),
        "rotating_exact_solution": lambda n: rotating_exact_solution(params, n, 1.0),
    }


@pytest.mark.parametrize("level", [-1, 2, True], ids=["minus-one", "N", "True"])
@pytest.mark.parametrize("entry", sorted(level_entries()))
def test_every_per_level_entry_rejects_a_level_outside_the_range(entry, level):
    with pytest.raises(ValueError, match=rf"level must be an integer in \[0, 2\), not {level!r}"):
        level_entries()[entry](level)


def test_gauge_check_rejects_a_wrong_pair_count_before_sampling():
    def evaluate(t):
        raise AssertionError("evaluate called")

    spec = HamiltonianSpec(dim=2, evaluate=evaluate)
    zero = (lambda t: 0.0, lambda t: 0.0)
    for pairs in ([zero], [zero] * 3):
        with pytest.raises(ValueError, match=r"one \(alpha, alpha_dot\) pair per level"):
            gauge_transform_check(spec, TimeGrid(0.0, 1.0, 16), pairs)


@pytest.mark.parametrize("part", [0, 1], ids=["alpha", "alpha_dot"])
@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, np.array([0.1, 0.2]), 0.5j], ids=repr
)
def test_gauge_check_rejects_a_rephasing_that_is_not_a_finite_real_scalar(part, value):
    # Before, a NaN or infinite value surfaced as "step phase overflows" after
    # RuntimeWarnings from exp, and an array failed in numpy broadcasting.
    params, spec, grid, _, _ = rotating_setup(omega=0.5, steps=64)
    zero = (lambda t: 0.0, lambda t: 0.0)
    bad = [lambda t: 0.0, lambda t: 0.0]
    bad[part] = lambda t: value if t > 1.0 else 0.0
    first = grid.times[grid.times > 1.0][0]
    message = rf"rephasing of level 1 gave .* at time {first}, not a finite real scalar"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            gauge_transform_check(spec, grid, [zero, tuple(bad)])


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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_gauge_covariance_and_coefficient_route_on_numeric_frames(n, seed):
    # Continuity-gauge frames differentiate their vectors numerically, so the
    # rephased state, the holonomy and the coefficient route all match to O(dt^2)
    # only: doubling the steps divides each deviation by 4.
    spec = random_smooth_spec(np.random.default_rng(seed), n)
    rng = np.random.default_rng(100 + seed)
    pairs = []
    for _ in range(n):
        a, b, c = rng.uniform(-1, 1), rng.uniform(-0.3, 0.3), rng.uniform(0.2, 1)
        m, phi = rng.integers(1, 4), rng.uniform(0, 2 * np.pi)
        pairs.append(
            (
                lambda t, a=a, b=b, c=c, m=m, phi=phi: a + b * t + c * np.sin(m * t + phi),
                lambda t, b=b, c=c, m=m, phi=phi: b + c * m * np.cos(m * t + phi),
            )
        )
    deviations = []
    for steps in (256, 512):
        grid = TimeGrid(0.0, 2.0, steps)
        report = gauge_transform_check(spec, grid, pairs)
        frames = build_frames(spec, grid)
        eff = build_effective(frames, connection(frames))
        direct = propagate(spec, grid, list(range(n)), frames=frames)
        route = np.max([
            np.linalg.norm(
                np.einsum("kim,km->ki", frames.vectors, coefficient_propagate(eff, level))
                - direct.states[level],
                axis=1,
            )
            for level in range(n)
        ])
        deviations.append([report.max_state_deviation, report.max_holonomy_deviation, route])
    coarse, fine = np.array(deviations)
    assert coarse / fine == pytest.approx([4.0] * 3, rel=0.2)


def covariant_figures(spec, grid):
    """Criteria ratios, |c|^2 of level 0, holonomies and phase splits: unit- and origin-free."""
    frames = build_frames(spec, grid)
    conn = connection(frames)
    report = criteria(build_effective(frames, conn))
    populations = np.abs(propagate(spec, grid, [0], frames=frames).coefficients[0]) ** 2
    levels = range(spec.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonCyclicWarning)  # the random specs are not cyclic
        holonomies = [holonomy(frames, conn, m).value for m in levels]
    splits = [(s.dynamical, s.geometric) for s in (phase_split(frames, conn, m) for m in levels)]
    ratios = [report.r_naive, report.r_gap, report.r_level]
    return [np.array(x) for x in (ratios, populations, holonomies, splits)]


def relative_deviations(got, want):
    return np.array([np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in zip(got, want)])


@pytest.mark.parametrize("n", [2, 3, 8])
def test_scale_and_origin_covariance(n):
    # H -> lam H with t -> t / lam, and t -> t + t0, describe the same physics: ratios,
    # populations, holonomies and phase splits agree with the unit-scale run to rounding.
    # A shift rounds every grid time by about ulp(S), S the grid's largest |t|, and the
    # finite-difference connection divides that by dt, so the tolerances grow by ulp(S)/dt.
    # Order: ratios, |c|^2, holonomies, splits; the ratios amplify rounding by up to
    # max(r) / min(r) (r_level reaches 332 at n = 2).
    tol, per_ulp = np.array([1e-11, 1e-13, 1e-13, 1e-13]), np.array([100, 0.1, 0.1, 0.1])
    spec = random_smooth_spec(np.random.default_rng(n), n)
    reference = covariant_figures(spec, TimeGrid(0.0, 2.0, 256))
    for lam in (1e-20, 1e-5, 1e5, 1e20):
        scaled = HamiltonianSpec(dim=n, evaluate=lambda t, lam=lam: lam * spec.evaluate(lam * t))
        got = covariant_figures(scaled, TimeGrid(0.0, 2.0 / lam, 256))
        assert (relative_deviations(got, reference) <= tol).all(), lam
    reference = covariant_figures(spec, TimeGrid(0.0, 2.1, 300))
    for t0 in (0.37, -12.9, 1e3 + 0.1, 1e6 + 0.3):
        shifted = HamiltonianSpec(dim=n, evaluate=lambda t, t0=t0: spec.evaluate(t - t0))
        grid = TimeGrid(t0, t0 + 2.1, 300)
        bound = tol + per_ulp * math.ulp(max(abs(grid.t_start), abs(grid.t_end))) / grid.dt
        assert (relative_deviations(covariant_figures(shifted, grid), reference) <= bound).all(), t0


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


def link_product(vectors: np.ndarray) -> complex:
    """prod_k <v_{k+1}|v_k>/|.|, closed by <v_0|v_K>/|.|: a gauge-invariant discrete holonomy
    that uses no derivative (Fukui, Hatsugai & Suzuki 2005)."""
    links = np.append(np.einsum("ki,ki->k", vectors[1:].conj(), vectors[:-1]),
                      np.vdot(vectors[0], vectors[-1]))
    return complex(np.prod(links / np.abs(links)))


def test_holonomy_converges_to_the_link_product_at_second_order():
    gaps = []
    for steps in (16, 64, 256, 1024):
        _, _, _, frames, conn = rotating_setup(omega=0.5, steps=steps, theta=1.0)
        for n in range(2):
            links = link_product(frames.vectors[:, :, n])
            reversed_links = link_product(frames.vectors[::-1, :, n])
            assert reversed_links == pytest.approx(np.conj(links), abs=1e-14)
            if n == 0:
                gaps.append(abs(links - holonomy(frames, conn, n).value))
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])  # 4x the steps each time: 16 at O(dt^2)
    assert np.all(np.abs(ratios - 16) <= 0.2 * 16), ratios
    assert gaps[-1] < 1e-5
