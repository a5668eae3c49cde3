import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatica import NotHermitianError, eig_hermitian, exp_antihermitian, max_abs
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


def test_eig_diagonal_input():
    res = eig_hermitian(np.diag([-1.0, 1.0]).astype(complex))
    assert np.allclose(res.eigenvalues, [-1.0, 1.0])
    assert np.allclose(np.abs(res.eigenvectors), np.eye(2))


def test_eig_sigma_x():
    res = eig_hermitian(SIGMA_X)
    assert np.allclose(res.eigenvalues, [-1.0, 1.0])
    # eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
    for k, expected in enumerate([np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2)]):
        overlap = abs(np.vdot(expected, res.eigenvectors[:, k]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_eig_rotating_initial_hamiltonian():
    # field at angle theta=pi/3 in the xz plane, mu_B = 1
    theta = np.pi / 3
    H = -(np.sin(theta) * SIGMA_X + np.cos(theta) * SIGMA_Z)
    res = eig_hermitian(H)
    assert np.allclose(res.eigenvalues, [-1.0, 1.0], atol=1e-12)
    v_plus = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    v_minus = np.array([np.sin(theta / 2), -np.cos(theta / 2)])
    assert abs(np.vdot(v_plus, res.eigenvectors[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(v_minus, res.eigenvectors[:, 1])) == pytest.approx(1.0, abs=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eig_rejects_non_finite():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


def test_eig_deterministic(rng):
    H = random_hermitian(rng, 5)
    a = eig_hermitian(H)
    b = eig_hermitian(H.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_exp_zero_generator():
    assert np.allclose(exp_antihermitian(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-15)


def test_exp_sigma_z_pi():
    assert max_abs(exp_antihermitian(SIGMA_Z, np.pi) + np.eye(2)) < 1e-12


def test_exp_sigma_x_half_pi_vs_taylor_oracle():
    got = exp_antihermitian(SIGMA_X, np.pi / 2)
    assert max_abs(got - taylor_expm(SIGMA_X, np.pi / 2)) < 1e-12
    assert max_abs(got - (-1j * SIGMA_X)) < 1e-12


def test_exp_unitarity_random(rng):
    for n in (2, 3, 5, 8):
        H = random_hermitian(rng, n)
        U = exp_antihermitian(H, 0.83)
        assert max_abs(U.conj().T @ U - np.eye(n)) < 1e-12


def test_exp_semigroup_same_generator(rng):
    H = random_hermitian(rng, 4)
    lhs = exp_antihermitian(H, 0.4) @ exp_antihermitian(H, 1.1)
    rhs = exp_antihermitian(H, 1.5)
    assert max_abs(lhs - rhs) < 1e-11


def test_eig_reconstruction(rng):
    for n in (2, 4, 8):
        H = random_hermitian(rng, n)
        res = eig_hermitian(H)
        rebuilt = (res.eigenvectors * res.eigenvalues) @ res.eigenvectors.conj().T
        assert max_abs(rebuilt - H) < 1e-11 * max_abs(H)


def test_eigenvalues_ascending(rng):
    H = random_hermitian(rng, 7)
    res = eig_hermitian(H)
    assert np.all(np.diff(res.eigenvalues) >= 0)


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
    """The eigh reconstruction V e^{-i s w} V^dagger, the N >= 3 path applied at any N."""
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


def test_taylor_degree_is_the_smallest_meeting_the_bound():
    for x in (1e-6, 1e-3, 0.025, 0.11, 0.5, TAYLOR_MAX_NORM):
        d = _taylor_degree(x)
        assert x ** (d + 1) / math.factorial(d + 1) <= 2.0**-53
        assert d == 1 or x**d / math.factorial(d) > 2.0**-53
    assert [_taylor_degree(x) for x in (0.025, 0.11, 1.0)] == [7, 9, 18]


@pytest.mark.parametrize("n", [8, 16])
def test_midpoint_steps_on_both_sides_of_the_taylor_crossover(n):
    # The bench's random specs: at its smoke size (16 steps over [0, 10]) the
    # steps take the eigh route, at 1024 steps the Taylor route.
    spec = random_smooth_spec(np.random.default_rng(7), n)
    for steps, taylor in ((16, False), (1024, True)):
        dt = 10.0 / steps
        hams = np.stack([spec.evaluate(t) for t in dt * (np.arange(steps) + 0.5)])
        assert bool(dt * traceless_one_norm(hams) <= TAYLOR_MAX_NORM) is taylor
        got = exp_antihermitian_batch(hams, dt)
        assert max_abs(got - eigh_step(hams, dt)) <= 1e-14 * (1 + dt * max_abs(hams))
        assert max_abs(dagger(got) @ got - np.eye(n)) <= 1e-14


def test_exp_rejects_non_square():
    with pytest.raises(NotHermitianError, match="square"):
        exp_antihermitian(np.zeros((2, 3)), 1.0)
