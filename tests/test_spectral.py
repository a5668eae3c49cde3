import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatica import (
    AdiabaticaError,
    EigenGapTooSmallError,
    FrameTrajectory,
    HamiltonianSpec,
    MSSecondModelParams,
    NotHermitianError,
    RotatingModelParams,
    TimeGrid,
    barred_model,
    build_effective,
    build_frames,
    connection,
    criteria,
    holonomy,
    max_abs,
    ms_second_model,
    propagate,
    rotating_model,
    stepping_propagators,
)
from adiabatica import numerics
from adiabatica.models import SIGMA_X, SIGMA_Z
from adiabatica.numerics import dagger, matmul

from conftest import random_smooth_spec


def static_spec(H: np.ndarray) -> HamiltonianSpec:
    return HamiltonianSpec(dim=H.shape[0], evaluate=lambda t: H)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    for steps in (0, -3, 2.5, True, 16.0, "16"):
        with pytest.raises(ValueError, match="positive integer"):
            TimeGrid(0.0, 1.0, steps)
    assert TimeGrid(0.0, 1.0, np.int64(4)).times.shape == (5,)
    grid = TimeGrid(0.0, 2.0, 8)
    assert grid.dt == pytest.approx(0.25)
    assert len(grid.times) == 9


@pytest.mark.parametrize("dim", [0, -1, 2.0, True])
def test_spec_rejects_a_dim_that_is_not_a_positive_integer(dim):
    # The rule TimeGrid applies to steps: an int or numpy integer, not a bool, >= 1.
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        HamiltonianSpec(dim=dim, evaluate=lambda t: np.eye(2))
    assert HamiltonianSpec(dim=np.int64(2), evaluate=lambda t: np.eye(2)).dim == 2


@pytest.mark.parametrize(
    "t_start, t_end", [(-1e308, 1e308), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)]
)
def test_grid_rejects_non_finite_times_and_step(t_start, t_end):
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(t_start, t_end, 16)


def test_grid_rejects_a_step_within_the_float_spacing():
    with pytest.raises(ValueError, match="per step"):
        TimeGrid(1e12, 1e12 + 0.001, 64)  # dt = 1.5e-5, ulp(1e12) = 1.2e-4
    with pytest.raises(ValueError, match="per step"):
        TimeGrid(0.0, 5e-324, 16)  # dt underflows to 0
    with pytest.raises(ValueError, match="per step"):
        # dt = 1.5 ulp rounds up to 2 ulp among subnormals: the last two times would coincide
        TimeGrid(2.225073858507e-311, 2.225073858507e-311 + 6 * 5e-324, 4)
    with pytest.raises(ValueError, match="t_end must exceed t_start"):
        TimeGrid(1.0, 0.0, 4)
    assert TimeGrid(-1e12, -1e12 + 0.05, 128).dt > np.spacing(1e12)  # about 3.2 ulp


@settings(max_examples=300, deadline=None)
@given(
    t_start=st.floats(-1e15, 1e15),
    span_ulps=st.floats(0.5, 1e5),
    steps=st.integers(1, 4096),
)
def test_every_accepted_grid_has_strictly_increasing_times(t_start, span_ulps, steps):
    # Spans of a few float spacings per step at the grid's magnitude reach the bound.
    t_end = t_start + span_ulps * steps * math.ulp(abs(t_start) or 1.0)
    try:
        grid = TimeGrid(t_start, t_end, steps)
    except ValueError:
        return
    assert np.all(np.diff(grid.times) > 0)


def test_non_finite_analytic_frame_raises():
    spec = rotating_model(RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5))
    grid = TimeGrid(0.0, 1.0, 16)
    for part in (0, 2):  # energies, then eigenvector derivatives

        def frame(times):
            arrays = spec.analytic_frame(times)
            arrays[part][3, 0] = np.nan
            return arrays

        bad = HamiltonianSpec(dim=2, evaluate=spec.evaluate, analytic_frame=frame)
        with pytest.raises(AdiabaticaError, match="non-finite"):
            build_frames(bad, grid)


def test_non_orthonormal_analytic_frame_raises_a_numerical_error():
    # The bound is 1e-10 per grid step, 1.6e-9 on 16 steps. Vectors scaled by 1 + 5e-9
    # leave max|V^dagger V - I| near 1e-8 and raise; by 1 + 5e-10, near 1e-9, they pass.
    spec = rotating_model(RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5))

    def scaled(factor):
        def frame(times):
            energies, vectors, derivs = spec.analytic_frame(times)
            return energies, vectors * factor, derivs

        return HamiltonianSpec(dim=2, evaluate=spec.evaluate, analytic_frame=frame)

    grid = TimeGrid(0.0, 1.0, 16)
    with pytest.raises(AdiabaticaError, match="analytic frames not orthonormal"):
        build_frames(scaled(1 + 5e-9), grid)
    assert build_frames(scaled(1 + 5e-10), grid).grid == grid


@pytest.mark.parametrize(
    "malformed",
    [
        lambda e, v, d: (e, v, d[:, :, 0]),  # (K, 2) derivatives broadcast into a wrong r_gap
        lambda e, v, d: (e[:, 0], v, d),  # (K,) energies
        lambda *frame: tuple(np.pad(x, [(0, 0)] + [(0, 1)] * (x.ndim - 1)) for x in frame),
        lambda e, v, d: (e[:-1], v[:-1], d[:-1]),  # one time short
        lambda e, v, d: (e + 0j, v, d),  # complex energies
    ],
    ids=["derivatives (K, 2)", "energies (K,)", "N + 1 levels", "one time short", "complex energies"],
)
def test_analytic_frame_of_the_wrong_shape_or_type_raises_value_error(malformed):
    # Rotating theta = 1, omega = 0.5 over one period at K = 64: as in spec.sample, nothing
    # is broadcast, so no malformed frame reaches the connection or the criteria.
    params = RotatingModelParams(mu_B=1.0, theta=1.0, omega=0.5)
    spec = rotating_model(params)
    bad = HamiltonianSpec(
        dim=2,
        evaluate=spec.evaluate,
        analytic_frame=lambda times: malformed(*spec.analytic_frame(times)),
        batched=True,
    )
    with pytest.raises(ValueError, match="analytic frame must give real energies and shapes"):
        build_frames(bad, TimeGrid(0.0, params.period, 64))


def test_static_frames_constant():
    grid = TimeGrid(0.0, 5.0, 32)
    frames = build_frames(static_spec(SIGMA_Z), grid)
    assert frames.vector_derivatives is None
    assert np.allclose(frames.energies, np.tile([-1.0, 1.0], (33, 1)))
    assert max_abs(frames.vectors - frames.vectors[0]) < 1e-12


def test_static_connection_vanishes():
    grid = TimeGrid(0.0, 5.0, 32)
    frames = build_frames(static_spec(SIGMA_Z), grid)
    assert max_abs(connection(frames).values) < 1e-12


def test_rotating_analytic_frames_match_closed_form():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.1)
    frames = build_frames(rotating_model(params), TimeGrid(0.0, params.period, 64))
    assert frames.vector_derivatives is not None
    for k, t in enumerate(frames.grid.times[:: 16]):
        e = np.exp(-1j * params.omega * t)
        ch, sh = np.cos(params.theta / 2), np.sin(params.theta / 2)
        expected = np.array([[ch * e, sh * e], [sh, -ch]])
        assert max_abs(frames.vectors[16 * k] - expected) < 1e-12
    assert np.allclose(frames.energies, np.tile([-1.0, 1.0], (65, 1)))


def test_continuity_gauge_is_rephased_analytic_gauge():
    # The continuity gauge discretely parallel-transports each level, so it
    # matches the model gauge up to one constant phase after undoing the
    # accumulated geometric rephasing exp(i int A_nn dt).
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.1)
    spec = rotating_model(params)
    grid = TimeGrid(0.0, params.period, 512)
    analytic = build_frames(spec, grid)
    numeric = build_frames(HamiltonianSpec(dim=2, evaluate=spec.evaluate), grid)
    assert numeric.vector_derivatives is None
    A = connection(analytic).values
    from adiabatica.effective import accumulate_trapezoid

    for n in range(2):
        overlaps = np.einsum("ki,ki->k", analytic.vectors[:, :, n].conj(), numeric.vectors[:, :, n])
        assert np.all(np.abs(np.abs(overlaps) - 1.0) < 1e-9)
        geo = accumulate_trapezoid(A[:, n, n].real, grid.dt)
        aligned = overlaps * np.exp(-1j * geo)
        assert np.max(np.abs(aligned - aligned[0])) < 1e-4


def test_two_gauge_holonomies_agree():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.1)
    spec = rotating_model(params)
    grid = TimeGrid(0.0, params.period, 32768)
    analytic = build_frames(spec, grid)
    numeric = build_frames(HamiltonianSpec(dim=2, evaluate=spec.evaluate), grid)
    for n in range(2):
        h_a = holonomy(analytic, connection(analytic), n).value
        h_n = holonomy(numeric, connection(numeric), n).value
        assert abs(h_a - h_n) < 1e-8


def test_rotating_connection_equator_values():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 2, omega=0.1)
    frames = build_frames(rotating_model(params), TimeGrid(0.0, params.period, 64))
    A = connection(frames).values
    assert np.allclose(A[:, 0, 0], 0.05, atol=1e-14)
    assert np.allclose(A[:, 0, 1], 0.05, atol=1e-14)
    assert np.allclose(A[:, 1, 0], 0.05, atol=1e-14)
    assert np.allclose(A[:, 1, 1], 0.05, atol=1e-14)


def test_real_analytic_frames_give_a_complex_connection():
    # H = cos t sigma_z + sin t sigma_x is real symmetric, and so are its eigenvector columns:
    # level 0 (E = -1) is (sin t/2, -cos t/2), level 1 is (cos t/2, sin t/2).
    def evaluate(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return np.cos(t) * SIGMA_Z + np.sin(t) * SIGMA_X

    def frame(times):
        c, s = np.cos(times / 2), np.sin(times / 2)
        vectors = np.stack([np.stack([s, -c], -1), np.stack([c, s], -1)], -1)
        derivatives = 0.5 * np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -1)
        return np.tile([-1.0, 1.0], (len(times), 1)), vectors, derivatives

    spec = HamiltonianSpec(dim=2, evaluate=evaluate, analytic_frame=frame, batched=True)
    grid = TimeGrid(0.0, 2 * np.pi, 256)
    frames = build_frames(spec, grid)
    assert frames.vectors.dtype == float
    conn = connection(frames)
    A = conn.values
    # zero to the bit on the diagonal and in the real parts; -i/2 and i/2 off the diagonal
    # up to the rounding of sin^2 + cos^2
    assert np.array_equal(A.diagonal(axis1=1, axis2=2), np.zeros((257, 2)))
    assert np.array_equal(A.real, np.zeros((257, 2, 2)))
    assert max_abs(A - np.array([[0, -0.5j], [0.5j, 0]])) <= np.finfo(float).eps
    assert criteria(build_effective(frames, conn)).r_naive == pytest.approx(0.25, rel=1e-15)
    # the real frame changes sign around the loop: Berry phase pi
    assert abs(holonomy(frames, conn, 0).value + 1) < 1e-12
    coefficients = propagate(spec, grid, [0], frames=frames).coefficients[0]
    assert max_abs(np.sum(np.abs(coefficients) ** 2, axis=1) - 1) < 1e-12


def finite_difference_connection(frames):
    """Same-gauge dual route: differentiate the stored vectors numerically."""
    fd_frames = FrameTrajectory(frames.grid, frames.energies, frames.vectors)
    return connection(fd_frames).values


def test_connection_branches_on_the_derivatives_it_reads():
    # Analytic frames stripped of their derivatives take second-order finite differences.
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    frames = build_frames(rotating_model(params), TimeGrid(0.0, params.period, 1024))
    bare = FrameTrajectory(frames.grid, frames.energies, frames.vectors)
    values = connection(bare).values
    dv = np.gradient(frames.vectors, frames.grid.dt, axis=0, edge_order=2)
    assert np.array_equal(values, 1j * matmul(dagger(frames.vectors), dv))
    assert max_abs(values - connection(frames).values) < 1e-5


def test_ms_second_connection_numeric_vs_analytic():
    params = MSSecondModelParams.from_regime(n=2, tau=2 * np.pi)
    spec = ms_second_model(params)
    grid = TimeGrid(0.0, 1.0, 32768)
    frames = build_frames(spec, grid)
    analytic = connection(frames).values
    numeric = finite_difference_connection(frames)
    assert max_abs(numeric[1:-1] - analytic[1:-1]) < 1e-8


def test_connection_hermiticity_scales_as_dt_squared(rng):
    spec = random_smooth_spec(rng, 3)
    defects = []
    for steps in (128, 256):
        frames = build_frames(spec, TimeGrid(0.0, 1.0, steps))
        A = connection(frames).values
        defects.append(max_abs(A - A.conj().transpose(0, 2, 1)))
    ratio = defects[0] / defects[1]
    assert defects[0] < 1e-3
    assert 2.5 < ratio < 6.5


def test_connection_finite_difference_convergence():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    spec = rotating_model(params)
    errs = []
    for steps in (256, 512):
        grid = TimeGrid(0.0, params.period, steps)
        frames = build_frames(spec, grid)
        analytic = connection(frames).values
        numeric = finite_difference_connection(frames)
        errs.append(max_abs(numeric[1:-1] - analytic[1:-1]))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


def test_gauge_covariance_quadratic_phase(rng):
    spec = random_smooth_spec(rng, 3)
    grid = TimeGrid(0.0, 1.0, 512)
    frames = build_frames(spec, grid)
    A = connection(frames).values
    times = grid.times

    coeff = np.array([[0.3, -0.2, 0.11], [0.05, 0.4, -0.3], [-0.17, 0.0, 0.21]])
    alphas = coeff[0][None, :] + coeff[1][None, :] * times[:, None] + coeff[2][None, :] * times[:, None] ** 2
    alpha_dots = coeff[1][None, :] + 2 * coeff[2][None, :] * times[:, None]

    transformed = frames.vectors * np.exp(1j * alphas)[:, None, :]
    from adiabatica.spectral import FrameTrajectory

    tframes = FrameTrajectory(grid, frames.energies, transformed)
    At = connection(tframes).values

    # diagonal shifts by -d alpha/dt; off-diagonals pick up e^{i(alpha_m - alpha_n)}
    n = 3
    tol = 5e-4  # discretization tolerance at this grid
    for a in range(n):
        assert max_abs(At[1:-1, a, a] - (A[1:-1, a, a] - alpha_dots[1:-1, a])) < tol
        for b in range(n):
            if a == b:
                continue
            phase = np.exp(1j * (alphas[1:-1, b] - alphas[1:-1, a]))
            assert max_abs(At[1:-1, a, b] - phase * A[1:-1, a, b]) < tol


def test_level_crossing_raises():
    for evaluate in (
        lambda t: np.diag([t - 0.5, 0.5 - t]).astype(complex),
        lambda t: np.zeros((2, 2), dtype=complex),  # gap 0 at a floor of 1e-10 * 0
        lambda t: 3 * np.eye(2, dtype=complex),
    ):
        with pytest.raises(EigenGapTooSmallError):
            build_frames(HamiltonianSpec(dim=2, evaluate=evaluate), TimeGrid(0.0, 1.0, 16))


def test_non_hermitian_spec_raises():
    def evaluate(t: float) -> np.ndarray:
        return np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)

    with pytest.raises(NotHermitianError):
        build_frames(HamiltonianSpec(dim=2, evaluate=evaluate), TimeGrid(0.0, 1.0, 16))


def test_non_finite_spec_raises():
    def evaluate(t: float) -> np.ndarray:
        value = np.nan if t > 0.5 else 1.0
        return np.array([[value, 0.2], [0.2, -1.0]], dtype=complex)

    spec = HamiltonianSpec(dim=2, evaluate=evaluate)
    for stage in (build_frames, stepping_propagators, propagate, barred_model):
        with pytest.raises(NotHermitianError):
            stage(spec, TimeGrid(0.0, 1.0, 16))


@pytest.mark.parametrize(
    "H, error",
    [
        pytest.param([[0.0, 1e308], [-1e308, 0.0]], NotHermitianError, id="defect-overflows"),
        pytest.param([[1.7e308, 0.0], [0.0, -1.7e308]], None, id="gap-overflows"),
    ],
)
def test_checks_near_the_float_range_raise_no_runtime_warning(H, error):
    # H - H^dagger of the first and the gap of the second overflow: an infinite defect
    # fails the Hermitian check, an infinite gap is no crossing. numpy warnings are errors.
    spec = static_spec(np.array(H, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert np.isfinite(build_frames(spec, TimeGrid(0.0, 1.0, 8)).vectors).all()
        else:
            with pytest.raises(error):
                build_frames(spec, TimeGrid(0.0, 1.0, 8))


@pytest.mark.parametrize("batched", [False, True], ids=["per-time", "batched"])
@pytest.mark.parametrize("lower", [np.nan, 0.5], ids=["non-finite", "non-Hermitian"])
def test_sample_is_the_hermitian_check_on_both_paths(batched, lower):
    H = np.array([[1.0, 0.2], [lower, -1.0]], dtype=complex)

    def evaluate(t):
        return np.broadcast_to(H, np.shape(t) + H.shape)

    spec = HamiltonianSpec(dim=2, evaluate=evaluate, batched=batched)
    with pytest.raises(NotHermitianError, match="non-finite or non-Hermitian samples"):
        spec.sample(np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("lower", [np.nan, 0.5], ids=["non-finite", "non-Hermitian"])
def test_hermitian_check_sees_the_last_block(monkeypatch, lower):
    # 10 samples in blocks of 3: only the last sample is bad, and the largest entry
    # is in the first block. The message reads the whole stack's defect and scale.
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 3 * 16 * 2 * 2)
    hams = np.empty((10, 2, 2), dtype=complex)
    hams[:] = [[1.0, 0.2], [0.2, -1.0]]
    hams[0, 0, 0] = 3.0
    hams[-1, 1, 0] = lower
    spec = HamiltonianSpec(dim=2, evaluate=lambda t: hams, batched=True)
    defect, scale = max_abs(hams - dagger(hams)), max_abs(hams)
    message = f"defect {defect:.3e} vs scale {scale:.3e}"
    with pytest.raises(NotHermitianError, match=re.escape(message)):
        spec.sample(np.linspace(0.0, 1.0, 10))


def test_under_resolved_grid_raises():
    # Constant gap 2, but the eigenvectors turn by a * dt / 2 = 1.25 rad (> 45 deg) per step.
    a = 40.0

    def evaluate(t: float) -> np.ndarray:
        return np.cos(a * t) * SIGMA_Z + np.sin(a * t) * SIGMA_X

    spec = HamiltonianSpec(dim=2, evaluate=evaluate)
    with pytest.raises(EigenGapTooSmallError, match="grid index 1: under-resolved grid"):
        build_frames(spec, TimeGrid(0.0, 1.0, 16))
    frames = build_frames(spec, TimeGrid(0.0, 1.0, 256))
    assert np.allclose(frames.energies, np.tile([-1.0, 1.0], (257, 1)))


def test_continuity_overlaps_real_positive(rng):
    spec = random_smooth_spec(rng, 3)
    frames = build_frames(spec, TimeGrid(0.0, 1.0, 128))
    for k in range(1, 129):
        ov = np.einsum("in,in->n", frames.vectors[k - 1].conj(), frames.vectors[k])
        assert np.all(ov.real > 0)
        assert np.all(np.abs(ov.imag) <= 1e-10 * np.abs(ov))


def sequential_matched_frames(hams: np.ndarray) -> np.ndarray:
    """Reference continuity gauge: per-step level matching by maximal overlap, then rephasing."""
    from scipy.optimize import linear_sum_assignment

    _, vectors = np.linalg.eigh(hams)
    for k in range(1, len(hams)):
        _, cols = linear_sum_assignment(-np.abs(vectors[k - 1].conj().T @ vectors[k]))
        vectors[k] = vectors[k][:, cols]
        diag = np.einsum("in,in->n", vectors[k - 1].conj(), vectors[k])
        vectors[k] = vectors[k] * (diag / np.abs(diag)).conj()
    return vectors


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_continuity_gauge_matches_sequential_reference(rng, dim):
    spec = random_smooth_spec(rng, dim)
    grid = TimeGrid(0.0, 4.0, 512)
    frames = build_frames(spec, grid)
    hams = np.array([spec.evaluate(t) for t in grid.times])
    # 512 rephasings of unit-modulus factors: rounding stays far below 1e-11
    assert max_abs(frames.vectors - sequential_matched_frames(hams)) < 1e-11


def test_frame_orthonormality(rng):
    spec = random_smooth_spec(rng, 3)
    frames = build_frames(spec, TimeGrid(0.0, 1.0, 128))
    eye = np.eye(3)
    gram = np.einsum("kij,kil->kjl", frames.vectors.conj(), frames.vectors)
    assert max_abs(gram - eye) < 1e-10


def test_index_of_scalar_array_and_off_grid():
    grid = TimeGrid(1.0, 3.0, 8)
    assert grid.index_of(grid.times[5]) == 5
    assert isinstance(grid.index_of(1.0), int)
    assert np.array_equal(grid.index_of(grid.times[::-1]), np.arange(8, -1, -1))
    for bad in (1.1, 0.75, 3.25, np.nan):
        with pytest.raises(ValueError, match="not a grid sample"):
            grid.index_of(bad)
    with pytest.raises(ValueError, match="time 1.1 "):
        grid.index_of(np.array([1.0, 1.1, 2.0]))
    # Grid times near 0 on a grid of large magnitude carry the rounding error of its ends:
    # the midpoints of a 17-step grid are the odd samples of its 34-step refinement.
    coarse, fine = TimeGrid(-1e8, 1e8 + 0.3, 17), TimeGrid(-1e8, 1e8 + 0.3, 34)
    mids = coarse.times[:-1] + coarse.dt / 2
    assert np.array_equal(fine.index_of(mids), np.arange(1, 34, 2))


def test_index_of_tolerance_never_covers_the_gap_between_samples():
    # 1e-9 * 1e12 exceeds dt/2 = 1/128 here; 1e12 + 0.49 lies between samples 31 and 32.
    grid = TimeGrid(1e12, 1e12 + 1, 64)
    with pytest.raises(ValueError, match="not a grid sample"):
        grid.index_of(1e12 + 0.49)
    assert np.array_equal(grid.index_of(grid.times), np.arange(65))
    mids = grid.times[:-1] + grid.dt / 2
    assert np.array_equal(TimeGrid(1e12, 1e12 + 1, 128).index_of(mids), np.arange(1, 128, 2))
    # Below dt/4 = 1e-4, about one ulp at 1e12, the floor of 4 eps * 1e12 keeps the
    # rounded midpoints on the grid (as the barred model looks them up).
    grid = TimeGrid(-1e12, -1e12 + 0.05, 64)
    mids = grid.times[:-1] + grid.dt / 2
    assert np.array_equal(TimeGrid(-1e12, -1e12 + 0.05, 128).index_of(mids), np.arange(1, 128, 2))
