import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiabatica import (
    AdiabaticaError,
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
    max_abs,
    ms_second_model,
    propagate,
    rotating_exact_solution,
    rotating_model,
    stepping_evolution,
    stepping_propagators,
)
from adiabatica import numerics
from adiabatica.effective import EffectiveHamiltonian
from adiabatica.models import SIGMA_X, SIGMA_Z
from adiabatica.numerics import dagger
from adiabatica.propagation import _coefficient_propagators, _scan, _scan_size, _walk
from adiabatica.spectral import FrameTrajectory, HamiltonianSpec

from conftest import exp_steps, random_hermitian, random_smooth_spec, traced_peak


def exact_initial(params, level):
    return rotating_exact_solution(params, level, 0.0)


@pytest.mark.parametrize(
    "entry, calls",
    [
        ("stepping_propagators", 1),
        ("numeric build_frames", 1),
        ("analytic build_frames", 0),
        ("coefficient_propagate", 0),
        ("coefficient_evolution", 0),
    ],
)
def test_hamiltonians_are_checked_once_where_they_are_sampled(monkeypatch, entry, calls):
    # HamiltonianSpec.sample is the one Hermiticity check: frames and step kernels trust
    # what they are given, and the step kernel takes the Hermitian part of the coefficient
    # route's unsymmetrised sums of M, so those are never checked.
    params = RotatingModelParams(mu_B=1.0, theta=1.0, omega=0.5)
    analytic = rotating_model(params)
    numeric = HamiltonianSpec(dim=2, evaluate=analytic.evaluate, batched=True)
    grid = TimeGrid(0.0, params.period, 64)
    frames = build_frames(analytic, grid)
    eff = build_effective(frames, connection(frames))
    entries = {
        "stepping_propagators": lambda: stepping_propagators(numeric, grid),
        "numeric build_frames": lambda: build_frames(numeric, grid),
        "analytic build_frames": lambda: build_frames(analytic, grid),
        "coefficient_propagate": lambda: coefficient_propagate(eff, 0),
        "coefficient_evolution": lambda: coefficient_evolution(eff),
    }
    checked = []
    check = numerics.require_hermitian_batch

    def counting(hams):
        checked.append(hams.shape)
        return check(hams)

    for name, module in list(sys.modules.items()):
        holds_check = getattr(module, "require_hermitian_batch", None) is check
        if name.startswith("adiabatica") and holds_check:
            monkeypatch.setattr(module, "require_hermitian_batch", counting)
    entries[entry]()
    assert len(checked) == calls


def test_static_propagator_single_generator():
    H = 0.8 * SIGMA_Z + 0.4 * SIGMA_X
    grid = TimeGrid(0.0, 2.5, 128)
    result = propagate(HamiltonianSpec(dim=2, evaluate=lambda t: H), grid)
    assert max_abs(result.propagators[-1] - exp_steps(H[None], 2.5)[0]) < 1e-12


@pytest.mark.parametrize(
    "H, s, closed",
    [
        (SIGMA_X, np.pi / 2, -1j * SIGMA_X),
        (np.diag([0.5, -1.0, 2.0]), 2.7, np.diag(np.exp(-2.7j * np.array([0.5, -1.0, 2.0])))),
    ],
    ids=["sigma_x", "diagonal-n3"],
)
def test_readme_single_exponential_is_one_step(H, s, closed):
    # README "API changes since 0.1.0": exp(-i s H) of one Hermitian H, for s > 0
    N = len(H)
    got = stepping_propagators(HamiltonianSpec(dim=N, evaluate=lambda t: H), TimeGrid(0.0, s, 1))[1]
    assert max_abs(got - closed) < 1e-14


def test_rotating_matches_closed_form_and_converges():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    spec = rotating_model(params)
    errors = {}
    for steps in (1024, 2048):
        grid = TimeGrid(0.0, params.period, steps)
        result = propagate(spec, grid, [exact_initial(params, 0), exact_initial(params, 1)])
        errors[steps] = max(
            np.linalg.norm(
                result.states[lvl][-1] - rotating_exact_solution(params, lvl, params.period)
            )
            for lvl in (0, 1)
        )
    assert errors[2048] < 1e-5
    assert 3.2 < errors[1024] / errors[2048] < 4.8


def test_unitarity_and_norm_conservation(rng):
    spec = random_smooth_spec(rng, 3)
    grid = TimeGrid(0.0, 1.0, 256)
    result = propagate(spec, grid, [0, 2])
    eye = np.eye(3)
    gram = np.einsum("kij,kil->kjl", result.propagators.conj(), result.propagators)
    assert max_abs(gram - eye) < 1e-10 * grid.steps
    for states in result.states:
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-10


def test_time_reversal_round_trip(rng):
    spec = random_smooth_spec(rng, 2)
    grid = TimeGrid(0.0, 1.0, 128)
    forward = propagate(spec, grid, [0])

    def reversed_evaluate(t: float) -> np.ndarray:
        return -spec.evaluate(grid.t_end - (t - grid.t_start))

    backward = propagate(
        HamiltonianSpec(dim=2, evaluate=reversed_evaluate),
        grid,
        [np.asarray(forward.states[0][-1])],
    )
    psi0 = forward.states[0][0]
    assert np.linalg.norm(backward.states[0][-1] - psi0) < 1e-9


def test_coefficients_static():
    grid = TimeGrid(0.0, 2.0, 64)
    spec = HamiltonianSpec(dim=2, evaluate=lambda t: SIGMA_Z.astype(complex))
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    c = coefficient_propagate(eff, 0)
    expected = np.exp(-1j * frames.energies[:, 0] * grid.times)
    assert max_abs(c[:, 0] - expected) < 1e-12
    assert max_abs(c[:, 1]) < 1e-12


def test_coefficient_reconstruction_matches_direct():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    spec = rotating_model(params)
    grid = TimeGrid(0.0, params.period, 4096)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    direct = propagate(spec, grid, [0, 1], frames=frames)
    for level in (0, 1):
        c = coefficient_propagate(eff, level)
        recon = np.einsum("kim,km->ki", frames.vectors, c)
        dev = np.max(np.linalg.norm(recon - direct.states[level], axis=1))
        assert dev < 1e-5


def test_first_quantized_projection_equals_coefficients():
    # matrix-element form of the equality: <v_m(t)|U(t)|v_n(0)> against the
    # coefficient propagator entry, uniformly on the grid
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    spec = rotating_model(params)
    grid = TimeGrid(0.0, params.period, 2048)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    result = propagate(spec, grid, [0, 1], frames=frames)
    for n in (0, 1):
        c = coefficient_propagate(eff, n)
        assert np.max(np.abs(c - result.coefficients[n])) < 2e-5


def test_barred_exact_identity():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=1.0)
    grid = TimeGrid(0.0, params.period, 2048)
    base_spec = rotating_model(params)
    barred = barred_model(base_spec, grid)
    table = propagate(base_spec, grid).propagators
    result = propagate(barred, grid, [0])
    v0 = result.frames.vectors[0, :, 0]
    expected = np.einsum("kji,j->ki", table.conj(), v0)
    dev = np.max(np.linalg.norm(result.states[0] - expected, axis=1))
    assert dev < 5e-5


def test_barred_coefficient_route_reproduces_identity():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=1.0)
    grid = TimeGrid(0.0, params.period, 2048)
    base_spec = rotating_model(params)
    barred = barred_model(base_spec, grid)
    frames = build_frames(barred, grid)
    eff = build_effective(frames, connection(frames))
    table = propagate(base_spec, grid).propagators
    v0 = frames.vectors[0, :, 0]
    expected = np.einsum("kji,j->ki", table.conj(), v0)
    c = coefficient_propagate(eff, 0)
    recon = np.einsum("kim,km->ki", frames.vectors, c)
    assert np.max(np.linalg.norm(recon - expected, axis=1)) < 5e-5


def test_stepping_evolution_composes_exactly():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    grid = TimeGrid(0.0, params.period, 256)
    result = propagate(rotating_model(params), grid)
    evolution = stepping_evolution(result)
    times = grid.times
    triples = [(times[0], times[64], times[160]), (times[32], times[96], times[256])]
    assert composition_check(evolution, triples) < 1e-12


def test_effective_evolution_composes():
    params = MSSecondModelParams.from_regime(n=10, tau=2 * np.pi)
    spec = ms_second_model(params)
    grid = TimeGrid(0.0, params.tau, 2048)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    evolution = coefficient_evolution(eff)
    times = grid.times
    triples = [(times[0], times[512], times[1024]), (times[128], times[700], times[2048])]
    assert composition_check(evolution, triples) < 1e-10


def test_composition_check_evaluates_each_pair_once():
    # 9 sample times give 84 triples of 3 evolution calls each, but only 36 distinct pairs.
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    grid = TimeGrid(0.0, params.period, 64)
    stepping = stepping_evolution(propagate(rotating_model(params), grid))
    calls = []

    def evolution(t2, t1):
        calls.append((t2, t1))
        return stepping(t2, t1)

    triples = list(itertools.combinations(grid.times[::8], 3))
    worst = composition_check(evolution, triples)
    assert len(triples) == 84 and len(calls) == len(set(calls)) == 36
    expected = max(
        max_abs(stepping(t3, t1) - stepping(t3, t2) @ stepping(t2, t1)) for t1, t2, t3 in triples
    )
    assert worst == expected


def test_stepping_evolution_rejects_off_grid_times():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    grid = TimeGrid(0.0, params.period, 64)
    evolution = stepping_evolution(propagate(rotating_model(params), grid))
    with pytest.raises(ValueError):
        evolution(grid.dt * 0.5, 0.0)


def test_propagate_rejects_unnormalized_initial_state():
    params = RotatingModelParams(mu_B=1.0, theta=np.pi / 3, omega=0.5)
    grid = TimeGrid(0.0, params.period, 64)
    # norm 1 + 5e-6 is within a relative 1e-5 of 1, but the bound is an absolute 1e-12;
    # the scalar 1.0 has norm 1 but is no state of shape (2,)
    for psi0, message in (
        ([1.0, 1.0], "is not 1"),
        ([1.0 + 5e-6, 0.0], "is not 1"),
        (1.0, r"shape \(\) is not \(2,\)"),
    ):
        with pytest.raises(ValueError, match=message):
            propagate(rotating_model(params), grid, [np.array(psi0)])


def sequential_accumulate(steps):
    """Reference: one left multiplication per step, in time order."""
    out = [np.eye(steps.shape[1], dtype=complex)]
    for step in steps:
        out.append(step @ out[-1])
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 8, 16]),
    k=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_blocked_accumulate_matches_sequential_loop(n, k, seed):
    # K from 1 covers K below the block size, square K and ragged last blocks.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))
    size = _scan_size(k)
    got = q.copy()
    last = _scan(got, size, None, np.empty_like(q[:size]))
    assert np.shares_memory(last, got) and np.array_equal(last, got[-1])
    assert max_abs(got - sequential_accumulate(q)[1:]) < 1e-12
    # Two runs of whole blocks, the second onto the last product of the first, give the
    # bits of one call: the walk scans its groups so.
    split = size * int(rng.integers(1, -(-k // size) + 1))
    if split < k:
        runs = q.copy()
        carry = _scan(runs[:split], size, None, np.empty_like(q[:size]))
        _scan(runs[split:], size, carry, np.empty_like(q[:size]))
        assert np.array_equal(runs, got)


def test_propagate_without_initial_states(rng):
    spec = random_smooth_spec(rng, 3)
    grid = TimeGrid(0.0, 1.0, 64)
    result = propagate(spec, grid, [])
    assert result.states == [] and result.coefficients == []
    assert result.propagators.shape == (65, 3, 3)


def test_propagate_explicit_vector_matches_level_index(rng):
    spec = random_smooth_spec(rng, 3)
    grid = TimeGrid(0.0, 1.0, 64)
    by_index = propagate(spec, grid, [2, 0])
    psi0 = by_index.frames.vectors[0, :, 0].copy()
    explicit = propagate(spec, grid, [psi0], frames=by_index.frames)
    assert max_abs(explicit.states[0] - by_index.states[1]) < 1e-14
    assert max_abs(explicit.coefficients[0] - by_index.coefficients[1]) < 1e-14
    direct = np.array([U @ psi0 for U in by_index.propagators])
    assert max_abs(explicit.states[0] - direct) < 1e-14
    overlaps = np.einsum("kim,ki->km", by_index.frames.vectors.conj(), direct)
    assert max_abs(explicit.coefficients[0] - overlaps) < 1e-14


def test_coefficient_propagate_matches_vector_loop(rng):
    spec = random_smooth_spec(rng, 4)
    grid = TimeGrid(0.0, 2.0, 200)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    mids = 0.5 * (eff.values[:-1] + eff.values[1:])
    steps = exp_steps(0.5 * (mids + dagger(mids)), grid.dt)
    for level in range(4):
        # The vector loop coefficient_propagate used to run, kept as the reference.
        ref = np.empty((grid.steps + 1, 4), dtype=complex)
        ref[0] = np.eye(4)[level]
        for k in range(grid.steps):
            ref[k + 1] = steps[k] @ ref[k]
        assert max_abs(coefficient_propagate(eff, level) - ref) < 1e-12


def test_step_phase_overflow_raises_before_any_runtime_warning():
    # dt * ||H|| = 6.25e8 * 1e300 overflows; numpy warnings are errors here.
    spec = rotating_model(RotatingModelParams(1e300, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdiabaticaError, match="step phase overflows"):
            stepping_propagators(spec, TimeGrid(0.0, 1e10, 16))


@pytest.mark.parametrize(
    "route",
    [lambda eff: coefficient_propagate(eff, 0), coefficient_evolution],
    ids=["coefficient_propagate", "coefficient_evolution"],
)
def test_coefficient_sums_that_overflow_raise_before_any_runtime_warning(route):
    # M = diag(1e308, -1e308, 0) at every time: the sums M_k + M_{k+1} overflow, and the
    # kernel's guard must raise on them. numpy warnings are errors here.
    grid = TimeGrid(0.0, 1.0, 16)
    frames = FrameTrajectory(grid, np.zeros((17, 3)), np.broadcast_to(np.eye(3), (17, 3, 3)))
    values = np.tile(np.diag([1e308, -1e308, 0.0]).astype(complex), (17, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdiabaticaError, match="step phase overflows"):
            route(EffectiveHamiltonian(values, frames))


def test_step_far_too_coarse_fails_the_drift_check_without_runtime_warning(rng):
    # dt ||H||_max = 1e10 at N = 3: the Taylor step is halved about 35 times and
    # squared back as often, and each squaring doubles the rounding error.
    H = random_hermitian(rng, 3)
    spec = HamiltonianSpec(dim=3, evaluate=lambda t: H)
    grid = TimeGrid(0.0, 16 * 1e10 / max_abs(H), 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdiabaticaError, match="lost unitarity"):
            stepping_propagators(spec, grid)


@pytest.mark.parametrize(
    "defect, last_only",
    [
        pytest.param(1.0 + 1e-6, False, id="1.000001"),
        pytest.param(np.nan, False, id="nan"),
        pytest.param(1.0 + 1e-6, True, id="1.000001-last-step"),
        pytest.param(np.nan, True, id="nan-last-step"),
    ],
)
def test_every_route_checks_unitarity_drift(rng, monkeypatch, defect, last_only):
    # Steps that are not unitary (scaled, or NaN) must fail the drift check on
    # the direct route and on the coefficient route alike. Every route walks the 32
    # steps in groups of 12, 12 and 8, exponentiated in chunks of 3 steps ending in
    # one of 2, so a defect of the last step alone reaches the last call only.
    spec = random_smooth_spec(rng, 3)
    grid = TimeGrid(0.0, 1.0, 32)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 12 * 16 * 3 * 3)
    exp, done = numerics.exp_steps, []

    def defective_steps(hams, s, out, work):  # every route writes its steps here, in order
        steps = exp(hams, s, out, work)
        done.append(len(steps))
        if not last_only or sum(done) == grid.steps:
            steps[-1 if last_only else slice(None)] *= defect
        return steps

    monkeypatch.setattr(numerics, "exp_steps", defective_steps)
    for run in (
        lambda: stepping_propagators(spec, grid),
        lambda: coefficient_propagate(eff, 0),
        lambda: coefficient_evolution(eff),
    ):
        done.clear()
        with pytest.raises(AdiabaticaError, match="lost unitarity"):
            run()


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3, 8]),
    steps=st.integers(4, 40),
    per_block=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stepping_is_unitary_and_composes_across_blocks(n, steps, per_block, seed):
    # Every stack the run reads (samples, steps, frames, propagators) spans several
    # blocks. U(t3, t1) = U(t3, t2) U(t2, t1) holds to rounding at grid samples.
    spec = random_smooth_spec(np.random.default_rng(seed), n)
    grid = TimeGrid(0.0, 1.0, steps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "BLOCK_BYTES", per_block * 16 * n * n)
        propagators = stepping_propagators(spec, grid)
        result = propagate(spec, grid)
    assert max_abs(dagger(propagators) @ propagators - np.eye(n)) <= 1e-12
    times = grid.times[:: max(1, steps // 5)]
    triples = list(itertools.combinations(times, 3))
    assert composition_check(stepping_evolution(result), triples) <= 1e-12


@pytest.mark.parametrize("n, steps", [(2, 8192), (8, 4096), (16, 2048)])
def test_each_route_builds_its_propagators_in_one_stack(n, steps):
    # Traced peaks against S, one (K+1, N, N) complex stack, C, the (K+1, N) column the
    # coefficient route returns, and B = BLOCK_BYTES, the size of every temporary block.
    # Every route is one walk over groups of about B, exponentiated in chunks of about
    # B / 4 (numpy 2.4, Python 3.11). The coefficient column holds no stack: C + 1.55 B,
    # 1.73 B and 1.73 B at N = 2, 8 and 16; it read 2.3, 6.2 and 10.2 MiB when it built
    # the stack, beyond the bound at N = 8 and 16. The full coefficient stack forms its
    # sums M_k + M_{k+1} in a chunk buffer: S + 1.0 B, 0.73 B and 0.83 B. The direct route
    # writes its steps into the stack it returns, beside the stack of its sampled
    # midpoints: 2 S + 1.0 B, 0.73 B and 0.83 B; one that kept its steps in a stack of
    # their own would read 3 S.
    spec = random_smooth_spec(np.random.default_rng(7), n)
    grid = TimeGrid(0.0, 10.0, steps)
    frames = build_frames(spec, grid)
    eff = build_effective(frames, connection(frames))
    stack, column, block = (steps + 1) * n * n * 16, (steps + 1) * n * 16, numerics.BLOCK_BYTES
    assert traced_peak(lambda: coefficient_propagate(eff, 0)) <= column + 3 * block
    assert traced_peak(lambda: coefficient_evolution(eff)) <= stack + 3 * block
    assert traced_peak(lambda: stepping_propagators(spec, grid)) <= 2 * stack + 3 * block


def test_two_level_steps_drop_their_temporaries(monkeypatch):
    # ms_second at K = 4096 is one chunk of steps (C = 256 KiB, S one (K+1, 2, 2) stack). The
    # closed form drops each K-length temporary after its last use: 1.75 C above its start
    # inside exp (numpy 2.4, Python 3.11), against 2.26 C when all lived to the end. The
    # call's peak, 6.28 S inside exp then, is now the drift check's at 6.03 S.
    spec = ms_second_model(MSSecondModelParams.from_regime(n=2, tau=6.3))
    grid = TimeGrid(0.0, 6.3, 4096)
    exp, inside = numerics.exp_steps, []

    def traced_exp(hams, s, out, work):
        inside.append(traced_peak(lambda: exp(hams, s, out, work)) / out.nbytes)
        return out

    stack = (grid.steps + 1) * 4 * 16
    assert traced_peak(lambda: stepping_propagators(spec, grid)) <= 6.15 * stack
    monkeypatch.setattr(numerics, "exp_steps", traced_exp)
    stepping_propagators(spec, grid)
    assert inside and max(inside) <= 2.0


def held_route(generators, s, per_group, per_chunk):
    """The full-stack route the walk replaced, kept as the reference: the kernel on the held
    generators in the walk's chunks (per_chunk steps, cut where a group of per_group ends),
    then one _scan of the whole stack."""
    k, n = generators.shape[:2]
    out = np.empty((k + 1, n, n), dtype=complex)
    out[0] = np.eye(n)
    for g in range(0, k, per_group):
        for i in range(g, min(g + per_group, k), per_chunk):
            c = slice(i, min(i + per_chunk, g + per_group, k))
            out[1:][c] = exp_steps(generators[c], s)
    _scan(out[1:], _scan_size(k), None, np.empty_like(out[1:]))
    return out


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 8, 16]),
    k=st.integers(1, 80),
    scale=st.sampled_from([0.1, 3.0, 300.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, k=13, scale=3.0, seed=1)
@example(n=8, k=1, scale=300.0, seed=2)
@example(n=2, k=13, scale=0.1, seed=3)
@example(n=16, k=50, scale=300.0, seed=4)
@example(n=1, k=80, scale=3.0, seed=5)
def test_walk_gives_the_bits_of_the_held_stack_route(n, k, scale, seed):
    # The walk must give each step the arithmetic the held-stack route gives it on the
    # walk's chunks: one kernel call per chunk, the same scan blocks. Both sources are
    # checked, the sampled H of stepping_propagators and the sums M_k + M_{k+1} of the
    # coefficient routes, as the whole stack and as every column. K = 13 ends in a
    # one-step scan block; K = 1 is one step. At N = 1 the scan's products are single
    # complex multiplies, which must not round by the length of a run.
    # BLOCK_BYTES sets the walk's groups (whole scan blocks, about BLOCK_BYTES each) and
    # chunks (about BLOCK_BYTES / 4, down to one step): one matrix, one and three scan
    # blocks, and the default are walked. Each step's norm is scaled by up to `scale`,
    # so at 300 the chunks scale and square their steps, each as often as its own need.
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(k + 1, n, n)) + 1j * rng.normal(size=(k + 1, n, n))
    y *= scale ** rng.uniform(0.0, 1.0, size=k + 1)[:, None, None]
    hams = (y[:-1] + dagger(y[:-1])) / 2
    values = (y + dagger(y)) / 2 + 1e-3 * (y - dagger(y)) / 2
    grid = TimeGrid(0.0, 1.0, k)

    def sampled(t):  # H at the midpoints of the grid: row k at t_k + dt/2
        return hams[np.rint(np.asarray(t) / grid.dt - 0.5).astype(int)]

    spec = HamiltonianSpec(dim=n, evaluate=sampled, batched=True)
    frames = FrameTrajectory(grid, np.zeros((k + 1, n)), np.broadcast_to(np.eye(n), (k + 1, n, n)))
    eff = EffectiveHamiltonian(values, frames)
    matrix, size = n * n * 16, _scan_size(k)
    for block_bytes in (matrix, size * matrix, 3 * size * matrix, numerics.BLOCK_BYTES):
        per_group = size * max(1, block_bytes // (size * matrix))
        per_chunk = min(max(1, block_bytes // 4 // matrix), per_group, k)
        stepping = held_route(hams, grid.dt, per_group, per_chunk)
        coefficient = held_route(values[:-1] + values[1:], grid.dt / 2, per_group, per_chunk)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "BLOCK_BYTES", block_bytes)
            assert np.array_equal(stepping_propagators(spec, grid), stepping)
            assert np.array_equal(_coefficient_propagators(eff), coefficient)
            for level in range(n):
                column = _walk(lambda c, buf: hams[c], k, n, grid.dt, level)
                assert np.array_equal(column, stepping[:, :, level])
                assert np.array_equal(coefficient_propagate(eff, level), coefficient[:, :, level])


def landau_zener_spec(gap: float, rate: float = 1.0) -> HamiltonianSpec:
    """H(t) = (rate t sigma_z + gap sigma_x) / 2, batched, with numeric frames."""

    def evaluate(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return 0.5 * (rate * t * SIGMA_Z + gap * SIGMA_X)

    return HamiltonianSpec(dim=2, evaluate=evaluate, batched=True)


@pytest.mark.parametrize("gap", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_landau_zener_leak_matches_the_closed_form(gap):
    # Zener (1932): a sweep through the avoided crossing leaves the lower level with
    # probability exp(-pi gap^2 / (2 rate)); P runs from 0.68 down to 5.4e-5 here.
    result = propagate(landau_zener_spec(gap), TimeGrid(-100.0, 100.0, 2**14), [0])
    leak = 1.0 - abs(result.coefficients[0][-1, 0]) ** 2
    assert leak == pytest.approx(np.exp(-np.pi * gap**2 / 2), rel=5e-3)
