import dataclasses
import json

import numpy as np
import pytest

from adiabatica import (
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
from adiabatica.effective import accumulate_trapezoid
from adiabatica.models import SIGMA_X, SIGMA_Z
from adiabatica.spectral import ConnectionMatrix, HamiltonianSpec


def static_pipeline(H, grid):
    frames = build_frames(HamiltonianSpec(dim=H.shape[0], evaluate=lambda t: H), grid)
    conn = connection(frames)
    return frames, conn, build_effective(frames, conn)


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
    payload = json.loads(json.dumps(report.to_dict()))
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
    from conftest import random_smooth_spec

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
