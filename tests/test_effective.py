import dataclasses
import json

import numpy as np
import pytest

from adiabatica import (
    AdiabaticaError,
    GridMismatchError,
    RotatingModelParams,
    TimeGrid,
    barred_model,
    build_effective,
    build_frames,
    connection,
    criteria,
    holonomy,
    max_abs,
    parallel_transport,
    phase_split,
    propagate,
    rotating_model,
)
from adiabatica.effective import (
    DEGENERATE_RTOL,
    WITNESS_RTOL,
    EffectiveHamiltonian,
    accumulate_trapezoid,
)
from adiabatica.models import SIGMA_X, SIGMA_Z
from adiabatica.spectral import ConnectionMatrix, FrameTrajectory, HamiltonianSpec

from conftest import random_smooth_spec, traced_peak


def static_pipeline(H, grid):
    frames = build_frames(HamiltonianSpec(dim=H.shape[0], evaluate=lambda t: H), grid)
    conn = connection(frames)
    return frames, conn, build_effective(frames, conn)


@pytest.mark.parametrize(
    "epsilon, energy_offset",
    [(np.nan, 0.0), (-1.0, 0.0), (0.0, 0.0), (np.inf, 0.0)]
    + [(0.1, np.nan), (0.1, np.inf), (0.1, -np.inf)],
)
def test_criteria_rejects_epsilon_outside_0_inf_and_non_finite_offset(epsilon, energy_offset):
    # RuntimeWarnings are errors in this suite: the check comes before any arithmetic
    _, _, eff = static_pipeline(SIGMA_Z + 0.3 * SIGMA_X, TimeGrid(0.0, 3.0, 32))
    message = r"epsilon must lie in \(0, inf\) and energy_offset must be finite"
    with pytest.raises(ValueError, match=message):
        criteria(eff, epsilon=epsilon, energy_offset=energy_offset)


def test_static_effective_is_constant_diagonal():
    grid = TimeGrid(0.0, 3.0, 32)
    H = SIGMA_Z + 0.3 * SIGMA_X
    frames, _, eff = static_pipeline(H, grid)
    expected = np.diag(frames.energies[0]).astype(complex)
    assert max_abs(eff.values - expected) < 1e-11


def test_static_criteria_all_true():
    grid = TimeGrid(0.0, 3.0, 32)
    _, _, eff = static_pipeline(SIGMA_Z, grid)
    report = criteria(eff, epsilon=0.1)
    assert report.r_naive == 0.0
    assert report.verdicts == {"naive": True, "gap": True, "level": True}


def test_rotating_effective_matrix_reference_value():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 2, omega=0.1)
    grid = TimeGrid(0.0, params.period, 64)
    frames = build_frames(rotating_model(params), grid)
    eff = build_effective(frames, connection(frames))
    expected = np.array([[-1.05, -0.05], [-0.05, 0.95]])
    assert max_abs(eff.values - expected) < 1e-12


def test_rotating_criteria_closed_form_oracle():
    muB, theta, omega = 1.0, np.pi / 3, 1e-3
    params = RotatingModelParams(mu_B=muB, theta=theta, omega=omega)
    grid = TimeGrid(0.0, params.period, 256)
    frames = build_frames(rotating_model(params), grid)
    eff = build_effective(frames, connection(frames))
    report = criteria(eff, epsilon=0.1)

    # closed forms: constant connection entries and energies
    num = np.sin(theta) / 2 * omega
    a_pp = (1 + np.cos(theta)) / 2 * omega
    a_mm = (1 - np.cos(theta)) / 2 * omega
    r_naive = num / (2 * muB)
    r_gap = num / abs((-muB - a_pp) - (muB - a_mm))
    r_level = num / min(abs(-muB - a_pp), abs(muB - a_mm))
    assert report.r_naive == pytest.approx(r_naive, rel=1e-10)
    assert report.r_gap == pytest.approx(r_gap, rel=1e-10)
    assert report.r_level == pytest.approx(r_level, rel=1e-10)
    assert report.r_naive == pytest.approx(2.165e-4, rel=1e-3)
    assert report.verdicts == {"naive": True, "gap": True, "level": True}


@pytest.mark.parametrize("model", ["rotating", "barred_rotating"])
def test_criteria_witnesses_survive_one_ulp_perturbation(model, rng):
    # On the rotating model |A_01|, the energies and the effective diagonal are
    # flat to rounding, so without a tie rule a last-bit change moves the witness.
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    grid = TimeGrid(0.0, params.period, 512)
    spec = rotating_model(params)
    if model == "barred_rotating":
        spec = barred_model(spec, grid)
    frames = build_frames(spec, grid)
    conn = connection(frames)
    report = criteria(build_effective(frames, conn))
    for _ in range(3):
        values = conn.values
        up = rng.random(values.shape) < 0.5
        nudged = np.where(up, np.nextafter(values.real, np.inf), np.nextafter(values.real, -np.inf))
        nudged = nudged + 1j * np.where(
            up, np.nextafter(values.imag, -np.inf), np.nextafter(values.imag, np.inf)
        )
        other = criteria(build_effective(frames, ConnectionMatrix(grid, nudged)))
        assert other.witnesses == report.witnesses
        for name in ("r_naive", "r_gap", "r_level"):
            assert getattr(other, name) == pytest.approx(getattr(report, name), rel=1e-14)


def masked_criteria(eff, epsilon, energy_offset):
    """Reference: every ratio over all (K, N, N) ordered pairs, the diagonal masked by
    -inf in the numerator and +inf in the pair denominators, one witness per array."""
    times, E = eff.frames.grid.times, eff.frames.energies
    n, diag = eff.frames.dim, np.einsum("kii->ki", eff.values)
    idx = np.arange(n)

    def witness(values, pick):
        extreme_at = int(pick(values))
        extreme = values.flat[extreme_at]
        near = np.abs(values - extreme) <= WITNESS_RTOL * abs(extreme)
        near.flat[extreme_at] = True
        k, *levels = np.unravel_index(int(np.argmax(near)), values.shape)
        return float(extreme), {"time": float(times[k]), "levels": [int(m) for m in levels]}

    offdiag = np.abs(eff.values)
    offdiag[:, idx, idx] = -np.inf
    naive = np.abs(E[:, :, None] - E[:, None, :])
    gap = np.abs(diag[:, :, None] - diag[:, None, :])
    naive[:, idx, idx] = gap[:, idx, idx] = np.inf
    numerator, witnesses = witness(offdiag, np.argmax)
    out = {"witnesses": {"numerator": witnesses}, "verdicts": {}}
    floor = DEGENERATE_RTOL * max_abs(E)
    for name, values in (("naive", naive), ("gap", gap), ("level", np.abs(diag + energy_offset))):
        den, out["witnesses"][f"{name}_denominator"] = witness(values, np.argmin)
        out[f"r_{name}"] = numerator / den if den > floor else float("inf")
        out["verdicts"][name] = bool(out[f"r_{name}"] < epsilon)
    return out


def tied_effective(rng, n, steps):
    """An EffectiveHamiltonian stack with planted ties and near ties (within WITNESS_RTOL)
    in every criteria quantity: equal level spacings, repeated diagonals, equal |M_ij|."""
    k = steps + 1
    E = np.cumsum(0.5 + rng.random((k, n)), axis=1)
    spacing = 0.5 * rng.choice([1.0, 1 + 3e-10, 1 - 2e-10], size=k)
    equal = rng.random(k) < 0.5
    E[equal] = spacing[equal, None] * np.arange(n) + rng.integers(-2, 3, size=(equal.sum(), 1))
    values = (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))) / 4
    peak = 2.0 * rng.choice([1, -1, 1j, -1j, 1 - 1e-10, 1 + 4e-10j], size=(k, n, n))
    planted = rng.random((k, n, n)) < 0.1
    values[planted] = peak[planted]
    diag = rng.choice([-1.0, -0.5, -0.25, 0.25, 0.5, 1.0 + 1e-10], size=(k, n)).astype(complex)
    noisy = rng.random(k) < 0.3
    diag[noisy] += rng.normal(size=(noisy.sum(), n)) + 1e-3j * rng.normal(size=(noisy.sum(), n))
    idx = np.arange(n)
    values[:, idx, idx] = diag
    vectors = np.broadcast_to(np.eye(n, dtype=complex), (k, n, n))
    return EffectiveHamiltonian(values, FrameTrajectory(TimeGrid(0.0, 1.0, steps), E, vectors))


@pytest.mark.parametrize("n", [3, 4, 8])
def test_criteria_match_the_masked_reference_on_planted_ties(n):
    # Symmetric denominators over unordered pairs must name the same witnesses as the
    # masked (K, N, N) arrays: the first near pair of a symmetric set has i < j.
    rng = np.random.default_rng(n)
    for trial in range(40):
        eff = tied_effective(rng, n, int(rng.integers(1, 24)))
        for energy_offset in (0.0, 0.25, -0.5, 0.0371):
            report = criteria(eff, epsilon=0.5, energy_offset=energy_offset)
            expected = masked_criteria(eff, 0.5, energy_offset)
            for key, value in expected.items():
                assert getattr(report, key) == value, (trial, energy_offset, key)


def test_criteria_temporaries_stay_below_two_stacks():
    # Traced peak against S, one (K+1, N, N) complex stack (8 MiB at N = 16, K = 2048).
    # Every pass builds its magnitudes, takes its witness and drops them: |M| as a float
    # (K+1, N^2) array and its witness's difference and magnitude read 1.50 S. Three
    # masked (K+1, N, N) float arrays held at once read 2.53 S.
    spec = random_smooth_spec(np.random.default_rng(7), 16)
    grid = TimeGrid(0.0, 10.0, 2048)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    stack = (grid.steps + 1) * 16 * 16 * 16
    assert traced_peak(lambda: criteria(eff)) <= 1.75 * stack


def test_barred_criteria_naive_passes_gap_fails():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=1e-3)
    grid = TimeGrid(0.0, params.period, 256)
    barred = barred_model(rotating_model(params), grid)
    frames = build_frames(barred, grid)
    eff = build_effective(frames, connection(frames))
    report = criteria(eff, epsilon=0.1)
    assert report.verdicts["naive"] is True
    assert report.verdicts["gap"] is False
    # the gap ratio collapses to tan(theta)/2, independent of omega
    assert report.r_gap == pytest.approx(np.tan(np.pi / 3) / 2, rel=1e-9)


def test_grid_mismatch_raises():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    spec = rotating_model(params)
    frames_a = build_frames(spec, TimeGrid(0.0, params.period, 64))
    frames_b = build_frames(spec, TimeGrid(0.0, params.period, 128))
    with pytest.raises(GridMismatchError):
        build_effective(frames_a, connection(frames_b))


# Each entry given frames on `grid` and something built on the frames `other` of another grid.
MISMATCHED = {
    "build_effective": lambda spec, grid, frames, other: build_effective(frames, connection(other)),
    "phase_split": lambda spec, grid, frames, other: phase_split(frames, connection(other), 0),
    "holonomy": lambda spec, grid, frames, other: holonomy(frames, connection(other), 0),
    "parallel_transport": lambda spec, grid, frames, other: parallel_transport(
        frames, connection(other)
    ),
    "propagate": lambda spec, grid, frames, other: propagate(spec, grid, [0], frames=other),
}


@pytest.mark.parametrize("entry", MISMATCHED)
@pytest.mark.parametrize("other", [(2.0, 64), (1.0, 128)], ids=["longer", "finer"])
def test_every_entry_rejects_inputs_on_another_grid(entry, other):
    # Mixed grids of equal K give plausible numbers: with the connection from [0, 2T],
    # phase_split would report twice the geometric phase of [0, T].
    params = RotatingModelParams(mu_B=1.0, theta=1.0, omega=0.5)
    spec = rotating_model(params)
    grid = TimeGrid(0.0, params.period, 64)
    frames = build_frames(spec, grid)
    other_frames = build_frames(spec, TimeGrid(0.0, other[0] * params.period, other[1]))
    with pytest.raises(GridMismatchError):
        MISMATCHED[entry](spec, grid, frames, other_frames)


def test_degenerate_denominator_reports_infinite_ratio():
    grid = TimeGrid(0.0, 3.0, 32)
    _, _, eff = static_pipeline(SIGMA_Z, grid)
    # shift the energy origin so one effective level sits at zero
    report = criteria(eff, epsilon=0.1, energy_offset=1.0)
    assert report.r_level == float("inf")
    assert report.verdicts["level"] is False


@pytest.mark.parametrize(
    "analytic, rel", [(True, 1e-13), (False, 1e-10)], ids=["analytic", "numeric"]
)
def test_criteria_do_not_depend_on_the_energy_unit(analytic, rel):
    # H -> lam H, t -> t / lam is the same physics in an energy unit 1 / lam times larger.
    reports = {}
    for lam in (1e-15, 1.0, 1e15):
        params = RotatingModelParams(mu_B=lam, theta=1.0, omega=lam / 2)
        spec = rotating_model(params)
        if not analytic:
            spec = HamiltonianSpec(dim=2, evaluate=spec.evaluate, batched=True)
        frames = build_frames(spec, TimeGrid(0.0, params.period, 1024))
        reports[lam] = criteria(build_effective(frames, connection(frames)))
    unit = reports[1.0]
    assert unit.verdicts["gap"] is analytic
    for report in reports.values():
        for key in ("r_naive", "r_gap", "r_level"):
            assert getattr(report, key) == pytest.approx(getattr(unit, key), rel=rel)
        assert report.verdicts == unit.verdicts


def test_criteria_scaling_monotonicity():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.01)
    grid = TimeGrid(0.0, params.period, 128)
    frames = build_frames(rotating_model(params), grid)
    conn = connection(frames)
    eff = build_effective(frames, conn)
    base = criteria(eff, epsilon=0.1)
    s = 3.7
    scaled_conn = ConnectionMatrix(conn.grid, s * conn.values)
    scaled = criteria(build_effective(frames, scaled_conn), epsilon=0.1)
    # only r_naive scales exactly: its denominator ignores the connection
    assert scaled.r_naive == pytest.approx(s * base.r_naive, rel=1e-14)


def test_energy_offset_touches_only_r_level():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.01)
    grid = TimeGrid(0.0, params.period, 128)
    frames = build_frames(rotating_model(params), grid)
    eff = build_effective(frames, connection(frames))
    a = criteria(eff, epsilon=0.1, energy_offset=0.0)
    b = criteria(eff, epsilon=0.1, energy_offset=0.35)
    assert a.r_naive == b.r_naive
    assert a.r_gap == b.r_gap
    assert a.r_level != b.r_level


def test_report_serializes_to_json():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.01)
    grid = TimeGrid(0.0, params.period, 64)
    frames = build_frames(rotating_model(params), grid)
    eff = build_effective(frames, connection(frames))
    report = criteria(eff)
    payload = json.loads(json.dumps(dataclasses.asdict(report)))
    assert set(payload) == {
        "r_naive", "r_gap", "r_level", "epsilon", "verdicts", "witnesses", "energy_offset",
    }
    assert set(payload["witnesses"]["numerator"]) == {"time", "levels"}


def test_barred_connection_identities():
    # off-diagonals of the barred connection equal the base ones; diagonals
    # pick up the negated energy
    params = RotatingModelParams(mu_B=1.2, theta=np.pi / 3, omega=0.4)
    grid = TimeGrid(0.0, params.period, 256)
    base_spec = rotating_model(params)
    base_frames = build_frames(base_spec, grid)
    base_conn = connection(base_frames).values
    barred = barred_model(base_spec, grid)
    barred_frames = build_frames(barred, grid)
    barred_conn = connection(barred_frames).values

    offdiag = np.array([[0, 1], [1, 0]], dtype=bool)
    assert max_abs((barred_conn - base_conn)[:, offdiag]) < 1e-8
    expected_diag = base_conn[:, [0, 1], [0, 1]] - base_frames.energies
    assert max_abs(barred_conn[:, [0, 1], [0, 1]] - expected_diag) < 1e-8


def test_adiabatic_amplitude_geometric_part_exact():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.05)
    grid = TimeGrid(0.0, params.period, 512)
    frames = build_frames(rotating_model(params), grid)
    conn = connection(frames)
    geo = accumulate_trapezoid(conn.values[:, 0, 0].real, grid.dt)[-1]
    assert abs(geo - np.pi * (1 + np.cos(params.theta))) < 1e-12


def test_effective_hermitian_within_connection_tolerance(rng):
    spec = random_smooth_spec(rng, 3)
    grid = TimeGrid(0.0, 1.0, 256)
    frames = build_frames(spec, grid)
    conn = connection(frames)
    eff = build_effective(frames, conn)
    conn_defect = max_abs(conn.values - conn.values.conj().transpose(0, 2, 1))
    eff_defect = max_abs(eff.values - eff.values.conj().transpose(0, 2, 1))
    assert eff_defect <= conn_defect + 1e-14


def test_report_is_frozen():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.01)
    grid = TimeGrid(0.0, params.period, 64)
    frames = build_frames(rotating_model(params), grid)
    report = criteria(build_effective(frames, connection(frames)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.r_naive = 0.0


def test_trapezoid_of_columns_equals_one_call_per_column(rng):
    diagonal = np.einsum("knn->kn", rng.normal(size=(65, 3, 3)))  # a strided view, as in transport
    for values in (rng.normal(size=(257, 5)), diagonal):
        columns = accumulate_trapezoid(values, 0.37)
        assert columns.shape == values.shape
        for n in range(values.shape[1]):
            assert np.array_equal(columns[:, n], accumulate_trapezoid(values[:, n], 0.37))


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
def test_trapezoid_raises_when_one_column_is_not_finite(bad):
    values = np.ones((33, 4))
    values[20, 2] = bad  # 1e308 overflows the sum, not the sample
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AdiabaticaError, match="accumulated phase is not finite"):
            accumulate_trapezoid(values, 2.0)
