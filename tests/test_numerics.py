import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatica import AdiabaticaError, TimeGrid, build_frames, max_abs, numerics
from adiabatica.models import SIGMA_X, SIGMA_Z
from adiabatica.numerics import TAYLOR_MAX_NORM, _taylor_degree, dagger, exp_antihermitian_batch, matmul

from conftest import random_hermitian, random_smooth_spec


def taylor_expm(H: np.ndarray, s: float, terms: int = 32) -> np.ndarray:
    """Independent oracle: truncated Taylor series of exp(-i s H)."""
    acc = np.eye(H.shape[0], dtype=complex)
    term = np.eye(H.shape[0], dtype=complex)
    for j in range(1, terms):
        term = term @ (-1j * s * H) / j
        acc = acc + term
    return acc


def test_eig_deterministic(rng):
    spec = random_smooth_spec(rng, 5)
    grid = TimeGrid(0.0, 1.0, 64)
    a, b = build_frames(spec, grid), build_frames(spec, grid)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.vectors, b.vectors)


def test_exp_zero_generator():
    assert np.allclose(exp_antihermitian_batch(np.zeros((1, 3, 3)), 2.7)[0], np.eye(3), atol=1e-15)


def test_exp_sigma_z_pi():
    assert max_abs(exp_antihermitian_batch(SIGMA_Z[None], np.pi)[0] + np.eye(2)) < 1e-12


def test_exp_sigma_x_half_pi_vs_taylor_oracle():
    got = exp_antihermitian_batch(SIGMA_X[None], np.pi / 2)[0]
    assert max_abs(got - taylor_expm(SIGMA_X, np.pi / 2)) < 1e-12
    assert max_abs(got - (-1j * SIGMA_X)) < 1e-12


def test_exp_unitarity_random(rng):
    for n in (2, 3, 5, 8):
        H = random_hermitian(rng, n)
        U = exp_antihermitian_batch(H[None], 0.83)[0]
        assert max_abs(U.conj().T @ U - np.eye(n)) < 1e-12


def test_exp_semigroup_same_generator(rng):
    H = random_hermitian(rng, 4)
    lhs = exp_antihermitian_batch(H[None], 0.4)[0] @ exp_antihermitian_batch(H[None], 1.1)[0]
    rhs = exp_antihermitian_batch(H[None], 1.5)[0]
    assert max_abs(lhs - rhs) < 1e-11


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 4]),
    k=st.integers(1, 40),
    s=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_equals_numpy_matmul(n, k, s, seed):
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, (k, n, n)), random_complex(rng, (k, n, n))
    cases = [
        (a, b),  # (K, N, N) @ (K, N, N)
        (a, random_complex(rng, (n, s))),  # (K, N, N) @ (N, S)
        (a, b[0]),  # (B, N, N) @ (N, N)
        (dagger(a), b),  # conjugate-transposed view
        (a[0], b[0]),  # single matrices
    ]
    for x, y in cases:
        expected = np.matmul(x, y)
        got = matmul(x, y)
        assert got.shape == expected.shape
        scale = max(1.0, max_abs(expected))
        assert max_abs(got - expected) <= 1e-14 * scale
    buffer = np.empty((k, n, n), dtype=complex)
    assert matmul(a, b, out=buffer) is buffer
    assert max_abs(buffer - np.matmul(a, b)) <= 1e-14 * max(1.0, max_abs(buffer))


def eigh_step(hams, s):
    """The reference reconstruction V e^{-i s w} V^dagger from eigh, which both step routes
    (the N = 2 closed form and the scaled-and-squared Taylor series) are checked against."""
    w, V = np.linalg.eigh(hams)
    return (V * np.exp(-1j * s * w)[:, None, :]) @ dagger(V)


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 16),
    scale=st.floats(1e-3, 1e2),
    dt=st.floats(1e-4, 10.0),
    identity_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_two_level_step_matches_eigh(k, scale, dt, identity_share, seed):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (k, 2, 2))
    hams = scale * (x + dagger(x)) / 2
    # identity_share = 1 makes H proportional to I (r = 0): sin(dt r)/r -> dt
    trace = np.einsum("kii->k", hams).real / 2
    hams = identity_share * trace[:, None, None] * np.eye(2) + (1 - identity_share) * hams
    got = exp_antihermitian_batch(hams, dt)
    size = dt * max_abs(hams)
    assert max_abs(got - eigh_step(hams, dt)) <= 1e-14 * (1 + size)
    assert max_abs(dagger(got) @ got - np.eye(2)) <= 1e-14


def test_closed_form_step_at_large_phase_and_zero_field():
    hams = np.array([[[3.0, 1 - 2j], [1 + 2j, -1.0]], [[2.5, 0.0], [0.0, 2.5]]], dtype=complex)
    for dt in (1e-3, 1.0, 1e3 / max_abs(hams)):
        got = exp_antihermitian_batch(hams, dt)
        assert max_abs(got - eigh_step(hams, dt)) <= 1e-14 * (1 + dt * max_abs(hams))
    assert max_abs(exp_antihermitian_batch(hams, 0.3)[1] - np.exp(-0.75j) * np.eye(2)) < 1e-15


def traceless_one_norm(hams):
    """max over the stack of ||H - tr(H)/N||_1, the norm the Taylor route is picked by."""
    n = hams.shape[-1]
    h0 = hams - (np.einsum("kii->k", hams).real / n)[:, None, None] * np.eye(n)
    return np.abs(h0).sum(axis=1).max()


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([3, 4, 8, 16]),
    k=st.integers(1, 16),
    x=st.floats(1e-3, 2.0),
    identity_share=st.sampled_from([0.0, 0.5, 1.0]),
    offset=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_taylor_step_matches_eigh(n, k, x, identity_share, offset, seed):
    # dt is set so that dt ||H0||_1 = x, which draws both sides of TAYLOR_MAX_NORM.
    rng = np.random.default_rng(seed)
    y = random_complex(rng, (k, n, n))
    hams = (y + dagger(y)) / 2
    trace = np.einsum("kii->k", hams).real / n
    # identity_share = 1 makes H proportional to I: an exact phase
    hams = identity_share * trace[:, None, None] * np.eye(n) + (1 - identity_share) * hams
    hams += offset * np.eye(n)
    dt = x / traceless_one_norm(hams) if identity_share < 1 else x
    got = exp_antihermitian_batch(hams, dt)
    size = dt * max_abs(hams)
    assert max_abs(got - eigh_step(hams, dt)) <= 1e-14 * (1 + size)
    assert max_abs(dagger(got) @ got - np.eye(n)) <= 1e-14


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 3, 4, 8, 16]),
    k=st.integers(1, 16),
    log_x=st.floats(-3.0, 4.0),
    identity_share=st.sampled_from([0.0, 0.5, 1.0]),
    offset=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaled_taylor_step_matches_eigh(n, k, log_x, identity_share, offset, seed):
    # x = dt ||H0||_1 from 1e-3 to 1e4: steps above TAYLOR_MAX_NORM are scaled by
    # up to 2^-14 and squared back. At N = 1, H0 = 0 and the step is the phase alone.
    x = 10.0**log_x
    rng = np.random.default_rng(seed)
    y = random_complex(rng, (k, n, n))
    hams = (y + dagger(y)) / 2
    trace = np.einsum("kii->k", hams).real / n
    hams = identity_share * trace[:, None, None] * np.eye(n) + (1 - identity_share) * hams
    hams += offset * np.eye(n)
    dt = x / traceless_one_norm(hams) if identity_share < 1 and n > 1 else x
    got = exp_antihermitian_batch(hams, dt)
    assert max_abs(got - eigh_step(hams, dt)) <= 1e-14 * (1 + dt * max_abs(hams))
    assert max_abs(dagger(got) @ got - np.eye(n)) <= 1e-14 * (1 + x)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_taylor_step_does_not_depend_on_the_block_size(monkeypatch, n):
    # 7 steps in one block, in blocks of one step, and in blocks of 3, 3 and a
    # tail of 1. The last step alone is coarse (x > TAYLOR_MAX_NORM), so every
    # block must be scaled and squared as often as that one.
    rng = np.random.default_rng(n)
    y = random_complex(rng, (7, n, n))
    hams = (y + dagger(y)) / 2 + 0.3 * np.eye(n)
    dt = 0.5 / traceless_one_norm(hams) if n > 1 else 0.5
    hams[-1] *= 8
    if n > 1:  # at N = 1, H0 = 0 and no step is coarse
        assert dt * traceless_one_norm(hams[:-1]) <= TAYLOR_MAX_NORM < dt * traceless_one_norm(hams[-1:])
    whole = exp_antihermitian_batch(hams, dt)
    for per_block in (1, 3):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", per_block * 16 * n * n)
        assert len(numerics._blocks(hams)) == -(-7 // per_block)
        assert np.array_equal(exp_antihermitian_batch(hams, dt), whole)


def test_taylor_degree_is_the_smallest_meeting_the_bound():
    for x in (1e-6, 1e-3, 0.025, 0.11, 0.5, TAYLOR_MAX_NORM):
        d = _taylor_degree(x)
        assert x ** (d + 1) / math.factorial(d + 1) <= 2.0**-53
        assert d == 1 or x**d / math.factorial(d) > 2.0**-53
    assert [_taylor_degree(x) for x in (0.025, 0.11, 1.0)] == [7, 9, 18]


@pytest.mark.parametrize("n", [8, 16])
def test_midpoint_steps_on_both_sides_of_the_taylor_crossover(n):
    # The bench's random specs: at its smoke size (16 steps over [0, 10]) the
    # Taylor route scales and squares the steps, at 1024 steps it sums them unscaled.
    spec = random_smooth_spec(np.random.default_rng(7), n)
    for steps, taylor in ((16, False), (1024, True)):
        dt = 10.0 / steps
        hams = np.stack([spec.evaluate(t) for t in dt * (np.arange(steps) + 0.5)])
        assert bool(dt * traceless_one_norm(hams) <= TAYLOR_MAX_NORM) is taylor
        got = exp_antihermitian_batch(hams, dt)
        assert max_abs(got - eigh_step(hams, dt)) <= 1e-14 * (1 + dt * max_abs(hams))
        assert max_abs(dagger(got) @ got - np.eye(n)) <= 1e-14


def test_taylor_route_overflow_guard_runs_before_any_arithmetic():
    # |s| N ||H||_max = 5.1e298 is finite, but H - tr(H)/N overflows: the guard on
    # 2 max(|s|, 1) N ||H||_max must raise first. numpy warnings are errors here.
    hams = np.diag([1.7e308, -1.7e308, -1.7e308]).astype(complex)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdiabaticaError, match="step phase overflows"):
            exp_antihermitian_batch(hams, 1e-10)


def test_two_level_step_halves_before_subtracting():
    # |s| N ||H||_max = 3.4e298 passes the guard; h00 - h11 = 3.4e308 would overflow.
    # numpy warnings are errors here.
    hams = np.diag([1.7e308, -1.7e308]).astype(complex)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exp_antihermitian_batch(hams, 1e-10)
    assert np.isfinite(got).all()
    assert max_abs(dagger(got) @ got - np.eye(2)) <= 1e-15


def test_taylor_route_exponentiates_the_hermitian_part():
    # An anti-Hermitian residue within HERMITICITY_RTOL passes the batch check; the step
    # must be the Hermitian part's, or exp(s residue) leaves the unitary group as s grows.
    for hams in (np.eye(3, dtype=complex)[None], np.ones((1, 1, 1), dtype=complex)):
        residue = np.zeros_like(hams)
        residue[0, 0, 0] = 2e-13j if hams.shape[-1] == 3 else 4e-13j
        for s in (1.0, 100.0, 1000.0):
            got = exp_antihermitian_batch(hams + residue, s)
            assert max_abs(dagger(got) @ got - np.eye(hams.shape[-1])) <= 1e-14
    rng = np.random.default_rng(5)
    y = random_complex(rng, (4, 8, 8))
    hams = (y + dagger(y)) / 2
    skew = 1e-13 * (y - dagger(y)) / 2
    for s in (0.1, 30.0):
        assert np.array_equal(exp_antihermitian_batch(hams + skew, s), exp_antihermitian_batch(hams, s))


def test_both_step_routes_exponentiate_the_same_hermitian_part_at_n2():
    # The coefficient route hands the kernel unsymmetrised sums of M: the closed form
    # must read the Hermitian part too, as the Taylor route does, not the lower triangle.
    rng = np.random.default_rng(11)
    x, y = random_complex(rng, (32, 2, 2)), random_complex(rng, (32, 2, 2))
    hams = (x + dagger(x)) / 2 + 1e-6 * (y - dagger(y)) / 2
    for s in (0.05, 0.7, 3.0):
        closed = exp_antihermitian_batch(hams, s)
        assert max_abs(closed - numerics._taylor_step(hams, s)) <= 1e-13
        assert max_abs(dagger(closed) @ closed - np.eye(2)) <= 1e-14


def test_unitarity_bound_is_per_step_of_the_stack():
    # max|X^dagger X - I| near 2e-10: over the bound of a one-step stack, within that of three.
    drifted = np.sqrt(1 + 2e-10) * np.eye(3, dtype=complex)
    with pytest.raises(AdiabaticaError, match="^drift: defect 2.000e-10$"):
        numerics.require_unitary(np.stack([np.eye(3), drifted]), "drift")
    numerics.require_unitary(np.stack([np.eye(3), drifted, drifted, drifted]), "drift")
    with pytest.raises(AdiabaticaError, match="defect nan"):
        numerics.require_unitary(np.stack([np.eye(3), drifted, np.full((3, 3), np.nan)]), "drift")
