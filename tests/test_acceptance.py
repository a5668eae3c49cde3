"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion alongside the measured values.
"""

import time

import numpy as np

from adiabatica import (
    HamiltonianSpec,
    MSSecondModelParams,
    RotatingModelParams,
    TimeGrid,
    barred_model,
    build_effective,
    build_frames,
    coefficient_evolution,
    coefficient_propagate,
    composition_check,
    connection,
    criteria,
    gauge_transform_check,
    holonomy,
    max_abs,
    mixing_angle,
    ms_candidate_evolution,
    ms_second_model,
    parallel_transport,
    phase_split,
    propagate,
    rotating_exact_solution,
    rotating_geometric_phase,
    rotating_model,
    stepping_evolution,
)
from adiabatica.effective import accumulate_trapezoid

from conftest import random_smooth_spec

THETA = np.pi / 3


def verdict(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_criterion_1_exact_solution_oracle():
    t0 = time.perf_counter()
    params = RotatingModelParams(mu_B=1.0, theta=THETA, omega=0.5)
    spec = rotating_model(params)
    T = params.period
    errors = {}
    for steps in (4096, 8192):
        grid = TimeGrid(0.0, T, steps)
        initial = [rotating_exact_solution(params, lvl, 0.0) for lvl in (0, 1)]
        result = propagate(spec, grid, initial)
        errors[steps] = max(
            np.linalg.norm(result.states[lvl][-1] - rotating_exact_solution(params, lvl, T))
            for lvl in (0, 1)
        )
    elapsed = time.perf_counter() - t0
    ratio = errors[4096] / errors[8192]
    ok = errors[4096] <= 1e-5 and 3.2 <= ratio <= 4.8 and elapsed < 5.0
    assert verdict(
        1,
        "exact-solution oracle",
        ok,
        f"err(K=4096)={errors[4096]:.3e} (tol 1e-5), halving ratio={ratio:.2f} "
        f"(4 +/- 20%), runtime={elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_berry_phase_limit():
    params = RotatingModelParams(mu_B=1.0, theta=THETA, omega=1e-3)
    target = np.pi * (1 + np.cos(THETA))  # 3*pi/2

    # route 1: geometric phase of the exact closed-form solution
    dev_exact = abs(rotating_geometric_phase(params, 0) - target)

    # route 2: numeric propagation, dynamical phase removed, reduced mod 2*pi
    grid = TimeGrid(0.0, params.period, 16384)
    spec = rotating_model(params)
    frames = build_frames(spec, grid)
    result = propagate(spec, grid, [0], frames=frames)
    overlap = np.vdot(frames.vectors[-1, :, 0], result.states[0][-1])
    dynamical = accumulate_trapezoid(frames.energies[:, 0], grid.dt)[-1]
    extracted = (np.angle(overlap) + dynamical) % (2 * np.pi)
    dev_numeric = abs(extracted - target)

    ok = dev_exact <= 5e-3 and dev_numeric <= 5e-3
    assert verdict(
        2,
        "Berry-phase limit",
        ok,
        f"exact-solution dev={dev_exact:.3e}, numeric dev={dev_numeric:.3e} (tol 5e-3 rad)",
    )


def test_criterion_3_nonadiabatic_limit_and_sweep():
    fast = RotatingModelParams(mu_B=1.0, theta=THETA, omega=1000.0)  # mu_B/omega = 1e-3
    dev_fast = abs(rotating_geometric_phase(fast, 0) - 2 * np.pi) % (2 * np.pi)

    ratios = np.logspace(-3, 3, 61)
    phases = np.array(
        [
            rotating_geometric_phase(RotatingModelParams(mu_B=1.0, theta=THETA, omega=r), 0)
            for r in ratios
        ]
    )
    max_jump = float(np.max(np.abs(np.diff(phases))))
    interpolates = (
        abs(phases[0] - np.pi * (1 + np.cos(THETA))) < 5e-3
        and abs(phases[-1] - 2 * np.pi) < 5e-3
    )
    ok = dev_fast <= 5e-3 and max_jump < 0.2 and interpolates
    assert verdict(
        3,
        "non-adiabatic limit + sweep continuity",
        ok,
        f"fast-limit dev={dev_fast:.3e} (tol 5e-3), max sweep jump={max_jump:.3f} (< 0.2)",
    )


def test_criterion_4_effective_hamiltonian_collapse():
    params = RotatingModelParams(mu_B=1.0, theta=THETA, omega=1e-3)
    grid = TimeGrid(0.0, params.period, 256)
    base_spec = rotating_model(params)
    base_frames = build_frames(base_spec, grid)
    base_conn = connection(base_frames)

    barred = barred_model(base_spec, grid)
    frames = build_frames(barred, grid)
    eff = build_effective(frames, connection(frames))
    collapse = max_abs(eff.values + base_conn.values)

    report = criteria(eff, epsilon=0.1)
    ok = collapse <= 1e-6 and report.verdicts["naive"] is True and report.verdicts["gap"] is False
    assert verdict(
        4,
        "pure-geometric collapse of the conjugated model",
        ok,
        f"max|M_bar + A_base|={collapse:.3e} (tol 1e-6), naive={report.verdicts['naive']}, "
        f"gap={report.verdicts['gap']} (r_gap={report.r_gap:.3f})",
    )


def test_criterion_5_exact_identity_and_reversed_phase():
    # identity check on a moderate-speed base where O(dt^2) supports 1e-5
    params_a = RotatingModelParams(mu_B=1.0, theta=THETA, omega=1.0)
    grid_a = TimeGrid(0.0, params_a.period, 4096)
    base_a = rotating_model(params_a)
    table = propagate(base_a, grid_a).propagators
    barred_a = barred_model(base_a, grid_a)
    result_a = propagate(barred_a, grid_a, [0, 1])
    dev_identity = 0.0
    for lvl in (0, 1):
        v0 = result_a.frames.vectors[0, :, lvl]
        expected = np.einsum("kji,j->ki", table.conj(), v0)
        dev_identity = max(
            dev_identity, float(np.max(np.linalg.norm(result_a.states[lvl] - expected, axis=1)))
        )

    # reversed-sign adiabatic expression after one period, on an adiabatic base
    params_b = RotatingModelParams(mu_B=1.0, theta=THETA, omega=0.03)
    grid_b = TimeGrid(0.0, params_b.period, 4096)
    base_b = rotating_model(params_b)
    barred_b = barred_model(base_b, grid_b)
    frames_b = build_frames(base_b, grid_b)
    conn_b = connection(frames_b)
    result_b = propagate(barred_b, grid_b, [0, 1])
    worst_overlap = 1.0
    for lvl in (0, 1):
        split = phase_split(frames_b, conn_b, lvl)
        predicted = frames_b.vectors[-1, :, lvl] * np.exp(1j * split.total)
        worst_overlap = min(worst_overlap, abs(np.vdot(predicted, result_b.states[lvl][-1])))

    ok = dev_identity <= 1e-5 and worst_overlap >= 1 - 1e-3
    assert verdict(
        5,
        "exact reversed-dynamics identity + one-period reversed-sign form",
        ok,
        f"max||psi_bar - U^dag v(0)||={dev_identity:.3e} (tol 1e-5), "
        f"one-period overlap={worst_overlap:.6f} (>= 1 - 1e-3)",
    )


def test_criterion_6_composition_law():
    params = MSSecondModelParams(omega_0=4 * np.pi, tau=1.0)
    triples = [(0.0, 0.3, 0.6), (0.0, 0.2, 0.4), (0.1, 0.45, 0.8)]
    dev_candidate = composition_check(
        lambda t2, t1: ms_candidate_evolution(params, t2, t1), triples
    )
    axis = np.array([np.cos(0.4), np.sin(0.4), 0.0])
    dev_fixed = composition_check(
        lambda t2, t1: ms_candidate_evolution(params, t2, t1, fixed_direction=axis), triples
    )

    spec = ms_second_model(params)
    grid = TimeGrid(0.0, 1.0, 2048)
    frames = build_frames(spec, grid)
    result = propagate(spec, grid, [], frames=frames)
    times = grid.times
    grid_triples = [
        (times[0], times[512], times[1024]),
        (times[256], times[800], times[2048]),
        (times[0], times[1024], times[2048]),
    ]
    dev_stepping = composition_check(stepping_evolution(result), grid_triples)
    eff = build_effective(frames, connection(frames))
    dev_effective = composition_check(coefficient_evolution(eff), grid_triples)

    ok = (
        dev_candidate > 0.1
        and dev_fixed <= 1e-12
        and dev_stepping <= 1e-12
        and dev_effective <= 1e-10
    )
    assert verdict(
        6,
        "composition-law violation vs genuine evolutions",
        ok,
        f"candidate={dev_candidate:.3f} (> 0.1), fixed-axis={dev_fixed:.1e} (<= 1e-12), "
        f"stepping={dev_stepping:.1e} (<= 1e-12), effective={dev_effective:.1e} (<= 1e-10)",
    )


def test_criterion_7_hidden_local_symmetry():
    params = RotatingModelParams(mu_B=1.0, theta=THETA, omega=0.5)
    spec = rotating_model(params)
    grid = TimeGrid(0.0, params.period, 8192)
    w = 2 * np.pi / params.period
    rng = np.random.default_rng(7)

    worst_state, worst_holonomy = 0.0, 0.0
    for _ in range(3):
        pairs = []
        for _ in range(2):
            a0 = rng.uniform(-1, 1)
            slope = rng.uniform(-0.3, 0.3)
            amp = rng.uniform(0.2, 1.0)
            m = int(rng.integers(1, 4))
            phase = rng.uniform(0, 2 * np.pi)
            pairs.append(
                (
                    lambda t, a0=a0, slope=slope, amp=amp, m=m, phase=phase: a0
                    + slope * t
                    + amp * np.sin(m * w * t + phase),
                    lambda t, slope=slope, amp=amp, m=m, phase=phase: slope
                    + amp * m * w * np.cos(m * w * t + phase),
                )
            )
        report = gauge_transform_check(spec, grid, pairs)
        worst_state = max(worst_state, report.max_state_deviation)
        worst_holonomy = max(worst_holonomy, report.max_holonomy_deviation)

    ok = worst_state <= 1e-5 and worst_holonomy <= 1e-8
    assert verdict(
        7,
        "hidden local symmetry (ray representation)",
        ok,
        f"max state dev={worst_state:.3e} (tol 1e-5), "
        f"max holonomy dev={worst_holonomy:.3e} (tol 1e-8)",
    )


def test_criterion_8_coefficient_equality():
    # rotating model
    params = RotatingModelParams(mu_B=1.0, theta=THETA, omega=0.5)
    spec = rotating_model(params)
    grid = TimeGrid(0.0, params.period, 4096)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    direct = propagate(spec, grid, [0, 1], frames=frames)
    dev_rotating = 0.0
    for lvl in (0, 1):
        c = coefficient_propagate(eff, lvl)
        recon = np.einsum("kim,km->ki", frames.vectors, c)
        dev_rotating = max(
            dev_rotating, float(np.max(np.linalg.norm(recon - direct.states[lvl], axis=1)))
        )

    # second model in its published regime
    ms = MSSecondModelParams.from_regime(n=10, tau=2 * np.pi)
    ms_spec = ms_second_model(ms)
    ms_grid = TimeGrid(0.0, ms.tau, 65536)
    ms_frames = build_frames(ms_spec, ms_grid)
    ms_eff = build_effective(ms_frames, connection(ms_frames))
    ms_direct = propagate(ms_spec, ms_grid, [0, 1], frames=ms_frames)
    dev_ms = 0.0
    for lvl in (0, 1):
        c = coefficient_propagate(ms_eff, lvl)
        recon = np.einsum("kim,km->ki", ms_frames.vectors, c)
        dev_ms = max(dev_ms, float(np.max(np.linalg.norm(recon - ms_direct.states[lvl], axis=1))))

    ok = dev_rotating <= 1e-5 and dev_ms <= 1e-5
    assert verdict(
        8,
        "coefficient propagation equals direct propagation",
        ok,
        f"rotating dev={dev_rotating:.3e}, driven-two-axis dev={dev_ms:.3e} (tol 1e-5)",
    )


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    herm_ratios, transport_ratios = [], []
    for case in range(100):
        n = 2 if case < 50 else 3
        spec = random_smooth_spec(rng, n)

        grid = TimeGrid(0.0, 1.0, 128)
        frames = build_frames(spec, grid)
        gram = np.einsum("kij,kil->kjl", frames.vectors.conj(), frames.vectors)
        assert max_abs(gram - np.eye(n)) < 1e-10

        result = propagate(spec, grid, [0], frames=frames)
        unitarity = max_abs(
            np.einsum("kij,kil->kjl", result.propagators.conj(), result.propagators) - np.eye(n)
        )
        assert unitarity < 1e-10 * grid.steps
        norms = np.linalg.norm(result.states[0], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

        defects, residuals = [], []
        for steps in (128, 256):
            g = TimeGrid(0.0, 1.0, steps)
            f = build_frames(spec, g)
            A = connection(f)
            defects.append(max_abs(A.values - A.values.conj().transpose(0, 2, 1)))
            transported = parallel_transport(f, A)
            tA = connection(transported).values
            residuals.append(max_abs(tA[1:-1, range(n), range(n)]))
        assert defects[1] < 1e-4
        assert residuals[1] < 1e-4
        herm_ratios.append(defects[0] / defects[1])
        transport_ratios.append(residuals[0] / residuals[1])

    herm_med = float(np.median(herm_ratios))
    transport_med = float(np.median(transport_ratios))
    order_ok = (
        3.2 <= herm_med <= 4.8
        and 3.2 <= transport_med <= 4.8
        and min(herm_ratios) > 2.0
        and min(transport_ratios) > 2.0
    )
    elapsed = time.perf_counter() - t0
    ok = order_ok and elapsed < 30.0
    assert verdict(
        9,
        "randomized property suites (100 specs)",
        ok,
        f"median halving ratios: hermiticity={herm_med:.2f}, transport={transport_med:.2f} "
        f"(both 4 +/- 20%), runtime={elapsed:.1f}s (< 30s)",
    )


def adiabatic_iteration(eff):
    """One step of Berry's (1987) adiabatic iteration: M1 = E1 - A1 on the frames of the
    Hermitian part (M + M^dag)/2, looked up from the stack through grid.index_of."""
    grid, stack = eff.frames.grid, (eff.values + eff.values.conj().transpose(0, 2, 1)) / 2
    spec = HamiltonianSpec(eff.frames.dim, lambda t: stack[grid.index_of(t)], batched=True)
    frames = build_frames(spec, grid)
    return build_effective(frames, connection(frames))


def effective_of(spec, grid):
    frames = build_frames(spec, grid)
    return build_effective(frames, connection(frames))


def test_criterion_10_exact_diagonalization_in_the_model_gauge():
    """Claim (c): in the model's own frames one iteration step diagonalises M to rounding.

    The claim needs that gauge: framed numerically, the same specs keep r_gap1 >= 1e-6.
    Under ms_second's resonance the step only halves r_gap while the level empties.
    """
    t0 = time.perf_counter()
    numeric = []  # r_gap1 of each rotating and barred spec, framed numerically

    def numerically_framed(spec, grid):
        return effective_of(HamiltonianSpec(spec.dim, spec.evaluate, batched=spec.batched), grid)

    # rotating model: M is constant and (M + M^dag)/2 has the exact solution's quasi-energies
    rot_const = rot_quasi = rot_r1 = 0.0
    for omega in (0.05, 0.5):
        params = RotatingModelParams(mu_B=1.0, theta=1.0, omega=omega)
        alpha = mixing_angle(params)
        c = np.cos(params.theta - alpha)
        quasi = [-np.cos(alpha) - omega * (1 + c) / 2, np.cos(alpha) - omega * (1 - c) / 2]
        for steps in (256, 4096):
            grid, spec = TimeGrid(0.0, params.period, steps), rotating_model(params)
            eff = effective_of(spec, grid)
            eff1 = adiabatic_iteration(eff)
            rot_const = max(rot_const, max_abs(eff.values - eff.values[0]))
            rot_quasi = max(rot_quasi, max_abs(eff1.frames.energies - np.sort(quasi)))
            rot_r1 = max(rot_r1, criteria(eff1).r_gap)
            numeric.append(criteria(adiabatic_iteration(numerically_framed(spec, grid))).r_gap)

    # barred model: the gap criterion fails (r_gap = 0.866) and one iteration step repairs it
    params = RotatingModelParams(mu_B=1.0, theta=THETA, omega=1e-3)
    barred_r, barred_r1 = [], []
    for steps in (256, 1024):
        grid = TimeGrid(0.0, params.period, steps)
        spec = barred_model(rotating_model(params), grid)
        eff = effective_of(spec, grid)
        barred_r.append(criteria(eff).r_gap)
        barred_r1.append(criteria(adiabatic_iteration(eff)).r_gap)
        numeric.append(criteria(adiabatic_iteration(numerically_framed(spec, grid))).r_gap)

    # ms_second resonance: r_gap1 / r_gap stays near 1/2 and level 0 empties
    ms_ratios, ms_leaks = [], []
    for n in (5, 20):
        spec = ms_second_model(MSSecondModelParams.from_regime(n=n, tau=1.0))
        grid = TimeGrid(0.0, 1.0, 4096)
        eff = effective_of(spec, grid)
        ms_ratios.append(criteria(adiabatic_iteration(eff)).r_gap / criteria(eff).r_gap)
        coefficients = propagate(spec, grid, [0], frames=eff.frames).coefficients[0]
        ms_leaks.append(1 - np.min(np.abs(coefficients[:, 0]) ** 2))

    elapsed = time.perf_counter() - t0
    ok = (
        rot_const <= 1e-14
        and rot_quasi <= 1e-14
        and rot_r1 <= 1e-12
        and min(barred_r) >= 0.1
        and max(barred_r1) <= 1e-9
        and min(numeric) >= 1e-6
        and all(0.4 <= r <= 0.6 for r in ms_ratios)
        and min(ms_leaks) >= 0.99
        and elapsed < 10.0
    )
    assert verdict(
        10,
        "exact diagonalization by one adiabatic iteration step",
        ok,
        f"rotating: max|M - M(0)|={rot_const:.1e}, quasi-energy dev={rot_quasi:.1e} (tol 1e-14), "
        f"r_gap1={rot_r1:.1e} (tol 1e-12); barred: r_gap={min(barred_r):.3f} (>= 0.1), "
        f"r_gap1={max(barred_r1):.1e} (tol 1e-9); numeric frames: min r_gap1={min(numeric):.1e} "
        f"(>= 1e-6); ms_second: r_gap1/r_gap={', '.join(f'{r:.3f}' for r in ms_ratios)} "
        f"([0.4, 0.6]), leak={min(ms_leaks):.4f} (>= 0.99); runtime={elapsed:.2f}s (< 10s)",
    )


def test_criterion_10_survival_predicted_from_the_eigenvectors_of_m0():
    """Claim (c) as a prediction: in the rotating model's own frames M is constant, so
    c(t) = exp(-i M(0) t) c(0), and the eigenvectors of M(0) give the survival probability
    |c_0(t)|^2 that `propagate` must reproduce to its O(dt^2)."""
    t0 = time.perf_counter()
    errors = {}
    for omega in (0.05, 0.5):
        params = RotatingModelParams(mu_B=1.0, theta=1.0, omega=omega)
        spec = rotating_model(params)
        for steps in (512, 1024, 2048, 4096):
            grid = TimeGrid(0.0, params.period, steps)
            eff = effective_of(spec, grid)
            w, W = np.linalg.eigh((eff.values[0] + eff.values[0].conj().T) / 2)
            predicted = np.exp(-1j * np.outer(grid.times, w)) @ np.abs(W[0]) ** 2
            c0 = propagate(spec, grid, [0], frames=eff.frames).coefficients[0][:, 0]
            errors[omega, steps] = max_abs(np.abs(predicted) ** 2 - np.abs(c0) ** 2)
    ratios = [errors[key] / errors[key[0], 2 * key[1]] for key in errors if key[1] < 4096]
    finest = max(errors[omega, 4096] for omega in (0.05, 0.5))
    elapsed = time.perf_counter() - t0
    ok = all(3.2 <= r <= 4.8 for r in ratios) and finest <= 1e-6 and elapsed < 5.0
    assert verdict(
        10,
        "survival probability from the eigenvectors of M(0)",
        ok,
        f"halving ratios={', '.join(f'{r:.2f}' for r in ratios)} (4 +/- 20%), "
        f"max err(K=4096)={finest:.1e} (tol 1e-6), runtime={elapsed:.2f}s (< 5s)",
    )
