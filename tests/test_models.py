import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from adiabatica import (
    MSSecondModelParams,
    RotatingModelParams,
    TimeGrid,
    barred_model,
    build_effective,
    build_frames,
    composition_check,
    connection,
    criteria,
    max_abs,
    mixing_angle,
    ms_candidate_evolution,
    ms_second_model,
    rotating_exact_solution,
    rotating_geometric_phase,
    rotating_model,
)
from adiabatica.models import SIGMA_X, SIGMA_Y, SIGMA_Z, _dot_sigma
from adiabatica.spectral import HamiltonianSpec


def test_rotating_params_validation():
    with pytest.raises(ValueError):
        RotatingModelParams(mu_B=0.0, theta=1.0, omega=1.0)
    with pytest.raises(ValueError):
        RotatingModelParams(mu_B=1.0, theta=0.0, omega=1.0)
    with pytest.raises(ValueError):
        RotatingModelParams(mu_B=1.0, theta=np.pi, omega=1.0)
    with pytest.raises(ValueError):
        RotatingModelParams(mu_B=1.0, theta=1.0, omega=0.0)
    for mu_B, omega in [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, -np.inf), (1.0, np.nan)]:
        with pytest.raises(ValueError, match="finite"):
            RotatingModelParams(mu_B=mu_B, theta=1.0, omega=omega)


def test_rotating_eigorelation_at_random_times(rng):
    params = RotatingModelParams(mu_B=1.3, theta=np.pi / 3, omega=0.7)
    spec = rotating_model(params)
    for t in rng.uniform(0, params.period, size=5):
        energies, vectors, _ = spec.analytic_frame(t)
        H = spec.evaluate(t)
        for n in range(2):
            assert max_abs(H @ vectors[:, n] - energies[n] * vectors[:, n]) < 1e-12
        assert np.vdot(vectors[:, 0], H @ vectors[:, 0]).real == pytest.approx(
            -params.mu_B, abs=1e-12
        )
        assert np.vdot(vectors[:, 1], H @ vectors[:, 1]).real == pytest.approx(
            +params.mu_B, abs=1e-12
        )


def test_rotating_connection_small_cone_limit():
    # nearly axial field: diagonal connection of the tracked level tends to
    # omega while the off-diagonal vanishes with theta
    params = RotatingModelParams(mu_B=1.0, theta=1e-8, omega=0.3)
    frames = build_frames(rotating_model(params), TimeGrid(0.0, params.period, 16))
    A = connection(frames).values
    assert np.allclose(A[:, 0, 0], params.omega, atol=1e-12)
    assert np.allclose(np.abs(A[:, 0, 1]), 0.0, atol=1e-8)


def test_rotating_periodicity():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    spec = rotating_model(params)
    for t in (0.0, 0.4, 2.2):
        assert max_abs(spec.evaluate(t + params.period) - spec.evaluate(t)) < 1e-12
        _, v0, _ = spec.analytic_frame(t)
        _, v1, _ = spec.analytic_frame(t + params.period)
        assert max_abs(v1 - v0) < 1e-12


def test_mixing_angle_quarter_pi_case():
    # omega sin(theta) / (2 mu_B + omega cos(theta)) = 1/1 at these values
    params = RotatingModelParams(mu_B=0.5, theta=np.pi / 2, omega=1.0)
    assert mixing_angle(params) == pytest.approx(np.pi / 4, abs=1e-14)


def test_mixing_angle_identity(rng):
    for _ in range(20):
        params = RotatingModelParams(
            mu_B=rng.uniform(0.2, 3.0),
            theta=rng.uniform(0.05, np.pi - 0.05),
            omega=rng.uniform(-3.0, 3.0) or 0.7,
        )
        a = mixing_angle(params)
        lhs = 2 * params.mu_B * np.sin(a)
        rhs = params.omega * np.sin(params.theta - a)
        assert abs(lhs - rhs) < 1e-12


def test_exact_solution_satisfies_schrodinger(rng):
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.8)
    spec = rotating_model(params)
    for level in (0, 1):
        for t in rng.uniform(0, params.period, size=7):
            psi = rotating_exact_solution(params, level, t)

            def at(dt):
                return rotating_exact_solution(params, level, t + dt)

            # fourth-order central difference: error ~ h^4 |psi'''''| / 30 + eps / h
            h = 1e-3
            dpsi = (8 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12 * h)
            residual = 1j * dpsi - spec.evaluate(t) @ psi
            assert np.linalg.norm(residual) < 1e-10


def test_dynamical_phase_closed_form():
    from adiabatica import rotating_dynamical_phase

    params = RotatingModelParams(mu_B=1.3, theta=np.pi / 3, omega=0.4)
    a = mixing_angle(params)
    assert rotating_dynamical_phase(params, 0) == pytest.approx(
        -1.3 * np.cos(a) * params.period, rel=1e-14
    )
    assert rotating_dynamical_phase(params, 1) == pytest.approx(
        +1.3 * np.cos(a) * params.period, rel=1e-14
    )


def test_geometric_phase_limits_and_monotonicity():
    theta = np.pi / 3
    ratios = np.logspace(-3, 3, 61)
    phases = np.array(
        [
            rotating_geometric_phase(RotatingModelParams(mu_B=1.0, theta=theta, omega=r))
            for r in ratios
        ]
    )
    assert abs(phases[0] - np.pi * (1 + np.cos(theta))) < 5e-3
    assert abs(phases[-1] - 2 * np.pi) < 5e-3
    assert np.all(np.diff(phases) > 0)
    assert np.max(np.abs(np.diff(phases))) < 0.2


def test_exact_solution_consistency_uniform():
    # numeric propagation stays on the closed-form ray uniformly in time
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    spec = rotating_model(params)
    grid = TimeGrid(0.0, params.period, 2048)
    from adiabatica import propagate

    initial = [rotating_exact_solution(params, lvl, 0.0) for lvl in (0, 1)]
    result = propagate(spec, grid, initial)
    for lvl in (0, 1):
        exact = np.array(
            [rotating_exact_solution(params, lvl, t) for t in grid.times]
        )
        overlaps = np.abs(np.einsum("ki,ki->k", exact.conj(), result.states[lvl]))
        assert np.min(overlaps) >= 1 - 1e-5


def test_barred_static_base_negates_hamiltonian():
    H = 0.7 * SIGMA_Z + 0.2 * SIGMA_X
    base = HamiltonianSpec(dim=2, evaluate=lambda t: H)
    grid = TimeGrid(0.0, 2.0, 64)
    barred = barred_model(base, grid)
    for t in grid.times[::8]:
        assert max_abs(barred.evaluate(t) + H) < 1e-12


def test_barred_frames_are_eigenvectors():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    grid = TimeGrid(0.0, params.period, 512)
    barred = barred_model(rotating_model(params), grid)
    for t in grid.times[:: 64]:
        energies, vectors, _ = barred.analytic_frame(t)
        H = barred.evaluate(t)
        for n in range(2):
            assert (
                np.linalg.norm(H @ vectors[:, n] - energies[n] * vectors[:, n]) < 1e-8
            )
    assert np.allclose(energies, [params.mu_B, -params.mu_B])


def test_barred_effective_is_minus_base_connection():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=1e-3)
    grid = TimeGrid(0.0, params.period, 256)
    base_spec = rotating_model(params)
    base_frames = build_frames(base_spec, grid)
    base_conn = connection(base_frames)
    barred = barred_model(base_spec, grid)
    frames = build_frames(barred, grid)
    eff = build_effective(frames, connection(frames))
    assert max_abs(eff.values + base_conn.values) < 1e-12


def test_barred_evaluate_rejects_off_table_times():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    grid = TimeGrid(0.0, params.period, 64)
    barred = barred_model(rotating_model(params), grid)
    with pytest.raises(ValueError):
        barred.evaluate(grid.dt * 0.123)


@pytest.mark.parametrize(
    "omega_0, tau", [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan)]
)
def test_ms_params_require_finite_values(omega_0, tau):
    # tau = inf would make omega = 0, an undriven model; omega_0 = inf a NaN field
    name = "omega_0" if omega_0 != 1.0 else "tau"
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        MSSecondModelParams(omega_0=omega_0, tau=tau)


def test_ms_params_reject_a_tau_whose_omega_overflows():
    # tau = 1e-310 is positive and finite, but omega = 2 pi / tau = 6.3e310 is not:
    # evaluate would return inf and NaN entries
    with pytest.raises(ValueError, match=r"^tau = 1e-310 is too small: omega = 2\*pi/tau overflows$"):
        MSSecondModelParams(omega_0=1.0, tau=1e-310)
    assert math.isfinite(MSSecondModelParams(omega_0=1.0, tau=1e-300).omega)


@pytest.mark.parametrize("mu_B, omega", [(1e-300, 1e-310), (1e10, 1e-300)])
def test_dynamical_phase_raises_when_it_overflows(mu_B, omega):
    from adiabatica import AdiabaticaError, rotating_dynamical_phase

    params = RotatingModelParams(mu_B=mu_B, theta=1.0, omega=omega)  # period 6e310 or 6e300
    for level in (0, 1):
        with pytest.raises(AdiabaticaError, match="dynamical phase over one period is not finite"):
            rotating_dynamical_phase(params, level)


def test_ms_params_validation():
    with pytest.raises(ValueError):
        MSSecondModelParams(omega_0=-1.0, tau=1.0)
    with pytest.raises(ValueError):
        MSSecondModelParams(omega_0=1.0, tau=0.0)
    with pytest.raises(ValueError):
        MSSecondModelParams(omega_0=5.0, tau=1.0, regime_n=1)
    params = MSSecondModelParams.from_regime(n=10, tau=2 * np.pi)
    assert params.omega == pytest.approx(1.0)
    assert params.omega_0 == pytest.approx(20.0)


@pytest.mark.parametrize("n", [True, np.bool_(True), 2.0, np.float64(2.0)])
def test_ms_params_reject_a_regime_n_that_is_not_an_integer(n):
    # omega = 1, so omega_0 = 2 n holds for the value n stands for: the type alone decides.
    with pytest.raises(ValueError, match="^regime_n must be an integer if given$"):
        MSSecondModelParams(omega_0=2.0 * n, tau=2 * np.pi, regime_n=n)
    assert MSSecondModelParams(omega_0=2.0 * n, tau=2 * np.pi, regime_n=np.int64(n)).regime_n == n


def test_ms_field_at_start_and_gap():
    params = MSSecondModelParams.from_regime(n=3, tau=2 * np.pi)
    spec = ms_second_model(params)
    H0 = spec.evaluate(0.0)
    assert max_abs(H0 - params.omega_0 * SIGMA_X) < 1e-12
    energies, _, _ = spec.analytic_frame(0.0)
    assert np.allclose(energies, [params.omega_0, -params.omega_0])
    # |R(t)| stays pinned between omega_0 and sqrt(omega_0^2 + omega^2)
    for t in np.linspace(0, params.tau, 50):
        e, _, _ = spec.analytic_frame(t)
        assert params.omega_0 - 1e-12 <= e[0] <= np.hypot(params.omega_0, params.omega) + 1e-12


def test_ms_frames_are_eigenvectors(rng):
    params = MSSecondModelParams.from_regime(n=5, tau=2 * np.pi)
    spec = ms_second_model(params)
    for t in rng.uniform(0, params.tau, size=6):
        energies, vectors, _ = spec.analytic_frame(t)
        H = spec.evaluate(t)
        for n in range(2):
            assert max_abs(H @ vectors[:, n] - energies[n] * vectors[:, n]) < 1e-12
        assert energies[0] == pytest.approx(
            np.sqrt(params.omega_0**2 + params.omega**2 * np.sin(params.omega_0 * t) ** 2),
            rel=1e-12,
        )


def test_ms_connection_closed_form_expressions():
    # The analytic connection must equal the spherical-angle expressions
    # built from independently finite-differenced big-Theta and phi.
    params = MSSecondModelParams.from_regime(n=2, tau=2 * np.pi)
    spec = ms_second_model(params)

    def angles(t):
        H = spec.evaluate(t)
        rx = H[1, 0].real
        ry = H[1, 0].imag
        rz = H[0, 0].real
        r = np.sqrt(rx**2 + ry**2 + rz**2)
        return np.arccos(rz / r), np.arctan2(ry, rx)

    h = 1e-6
    for t in (0.13, 0.71, 1.9):
        th_p, ph_p = angles(t + h)
        th_m, ph_m = angles(t - h)
        th, _ = angles(t)
        th_dot = (th_p - th_m) / (2 * h)
        ph_dot = (np.unwrap([ph_m, ph_p])[1] - np.unwrap([ph_m, ph_p])[0]) / (2 * h)
        _, vectors, derivs = spec.analytic_frame(t)
        A = 1j * vectors.conj().T @ derivs
        assert abs(A[0, 0] - (1 + np.cos(th)) / 2 * ph_dot) < 1e-6
        assert abs(A[1, 1] - (1 - np.cos(th)) / 2 * ph_dot) < 1e-6
        expected_offdiag = np.sin(th) / 2 * ph_dot + 0.5j * th_dot
        assert abs(A[0, 1] - expected_offdiag) < 1e-6
        assert abs(A[1, 0] - np.conj(expected_offdiag)) < 1e-6


def test_ms_regime_criteria_all_true():
    params = MSSecondModelParams.from_regime(n=10, tau=2 * np.pi)
    spec = ms_second_model(params)
    grid = TimeGrid(0.0, params.tau, 4096)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    report = criteria(eff, epsilon=0.1)
    assert report.verdicts == {"naive": True, "gap": True, "level": True}


def test_candidate_identity_at_equal_times():
    params = MSSecondModelParams(omega_0=4 * np.pi, tau=1.0)
    assert max_abs(ms_candidate_evolution(params, 1.3, 1.3) - np.eye(2)) < 1e-14


def test_candidate_matches_expm_oracle():
    params = MSSecondModelParams(omega_0=4 * np.pi, tau=1.0)
    for t2, t1 in ((0.6, 0.0), (0.9, 0.3), (0.42, 0.17)):
        s = t2 - t1
        axis = np.array([np.cos(params.omega * s), np.sin(params.omega * s), 0.0])
        oracle = expm(-1j * params.omega_0 * s * _dot_sigma(axis))
        assert max_abs(ms_candidate_evolution(params, t2, t1) - oracle) < 1e-12


def test_candidate_fixed_direction_composes():
    params = MSSecondModelParams(omega_0=4 * np.pi, tau=1.0)
    axis = np.array([1.0, 0.0, 0.0])

    def evolution(t2, t1):
        return ms_candidate_evolution(params, t2, t1, fixed_direction=axis)

    triples = [(0.0, 0.3, 0.6), (0.1, 0.25, 0.77), (0.0, 0.5, 1.0)]
    assert composition_check(evolution, triples) < 1e-12


@pytest.mark.parametrize(
    "direction",
    [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [1.0, 0.0]],
    ids=["zero", "nan", "inf", "two-vector"],
)
def test_candidate_rejects_a_fixed_direction_that_is_not_a_finite_nonzero_3_vector(direction):
    params = MSSecondModelParams(omega_0=4 * np.pi, tau=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(ValueError, match=re.escape("finite, nonzero vector of shape (3,)")):
            ms_candidate_evolution(params, 0.6, 0.0, fixed_direction=np.array(direction))


def test_candidate_fixed_direction_of_any_finite_length_is_normalized():
    params = MSSecondModelParams(omega_0=4 * np.pi, tau=1.0)
    direction = np.array([3.0, 0.0, 4.0])
    unit = ms_candidate_evolution(params, 0.6, 0.0, fixed_direction=direction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the norm neither overflows nor underflows
        for scale in (2.0**-1073, 2.0**-600, 2.0**600, 2.0**1020):  # subnormal to near the max
            scaled = ms_candidate_evolution(params, 0.6, 0.0, fixed_direction=direction * scale)
            assert np.array_equal(scaled, unit), scale


def test_candidate_violates_composition():
    params = MSSecondModelParams(omega_0=4 * np.pi, tau=1.0)

    def evolution(t2, t1):
        return ms_candidate_evolution(params, t2, t1)

    # doubling form with t = 0.3: U(0.6, 0) vs U(0.6, 0.3) U(0.3, 0)
    assert composition_check(evolution, [(0.0, 0.3, 0.6)]) > 0.1


BUILTIN_MODELS = ["rotating", "barred", "ms_second"]


def builtin_spec(name):
    """(spec, grid, relative tolerance of batched against scalar sampling)."""
    if name == "ms_second":
        spec = ms_second_model(MSSecondModelParams.from_regime(10, 6.3))
        return spec, TimeGrid(0.0, 6.3, 256), 1e-15
    params = RotatingModelParams(mu_B=1.0, theta=1.1, omega=0.37)
    grid = TimeGrid(0.0, params.period, 128)
    spec = rotating_model(params)
    return (barred_model(spec, grid) if name == "barred" else spec), grid, 0.0


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_batched_sampling_matches_scalar_calls(name):
    spec, grid, rtol = builtin_spec(name)
    assert spec.batched
    times = np.concatenate([grid.times, grid.times[:-1] + grid.dt / 2])
    stacked = np.array([spec.evaluate(t) for t in times])
    batched = spec.sample(times)
    assert batched.shape == stacked.shape
    assert max_abs(batched - stacked) <= rtol * max_abs(stacked)

    scalar = [spec.analytic_frame(t) for t in grid.times]
    for part, values in enumerate(spec.analytic_frame(grid.times)):
        reference = np.array([frame[part] for frame in scalar])
        assert values.shape == reference.shape
        assert max_abs(values - reference) <= rtol * max_abs(stacked)


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_scalar_analytic_frame_shapes(name):
    spec, grid, _ = builtin_spec(name)
    energies, vectors, derivs = spec.analytic_frame(grid.times[3])
    assert (energies.shape, vectors.shape, derivs.shape) == ((2,), (2, 2), (2, 2))
    assert spec.evaluate(grid.times[3]).shape == (2, 2)


def test_sample_loops_scalar_calls_and_checks_batched_shape():
    calls = []

    def evaluate(t):
        calls.append(np.ndim(t))
        return np.cos(t) * SIGMA_Z + np.sin(t) * SIGMA_X

    spec = HamiltonianSpec(dim=2, evaluate=evaluate)
    times = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(spec.sample(times), np.array([evaluate(t) for t in times]))
    assert calls[:5] == [0] * 5
    static = HamiltonianSpec(dim=2, evaluate=lambda t: SIGMA_Z, batched=True)
    with pytest.raises(ValueError, match=r"batched evaluate gave shape \(2, 2\) for 5 times"):
        static.sample(times)


@pytest.mark.parametrize("value", [1.0, np.ones(2), np.ones((2, 1))])
def test_unbatched_sample_rejects_returns_it_would_broadcast(value):
    # assigned into the (K, 2, 2) stack, each would broadcast to a wrong H without error
    spec = HamiltonianSpec(dim=2, evaluate=lambda t: value)
    with pytest.raises(ValueError, match=re.escape(f"evaluate gave shape {np.shape(value)} at time 0.0")):
        spec.sample(np.linspace(0.0, 1.0, 5))


def test_scalar_dot_sigma_equals_the_broadcast_products():
    rng = np.random.default_rng(11)
    for x, y, z in rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-5, 5, size=(50, 1)):
        broadcast = x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
        assert np.array_equal(_dot_sigma((x, y, z)), broadcast)
        assert np.array_equal(_dot_sigma(np.array([x, y, z])), broadcast)
        assert np.array_equal(_dot_sigma((float(x), float(y), float(z))), broadcast)
    # components of shape (K,) take the stacked branch
    x, y, z = rng.normal(size=(3, 8)) * 10.0 ** rng.integers(-5, 5, size=(3, 1))
    broadcast = x[:, None, None] * SIGMA_X + y[:, None, None] * SIGMA_Y + z[:, None, None] * SIGMA_Z
    assert np.array_equal(_dot_sigma((x, y, z)), broadcast)
    assert np.array_equal(_dot_sigma(np.array([x, y, z])), broadcast)
