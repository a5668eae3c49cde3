"""Built-in two-level model Hamiltonians with analytic eigenframes.

All energies are angular frequencies (hbar = 1). Level index 0 carries each
model's conventional "+" label: for the rotating-field model that is the
spin-aligned state with energy -mu_B, for the driven two-axis model it is the
upper level +|R(t)|. The parameter records and the rotating model's closed-form
phases live in closed_form, which loads no numpy; their one public home is there.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .closed_form import MSSecondModelParams, RotatingModelParams, _require_level, mixing_angle
from .numerics import dagger, matmul
from .spectral import HamiltonianSpec, TimeGrid

__all__ = [
    "barred_model",
    "ms_candidate_evolution",
    "ms_second_model",
    "rotating_exact_solution",
    "rotating_model",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _dot_sigma(r) -> np.ndarray:
    """r[0] sigma_x + r[1] sigma_y + r[2] sigma_z; array components give a stack.

    Scalar components fill one 2x2 directly, a few times cheaper than _matrix2
    for the per-time calls of unbatched sampling.
    """
    x, y, z = r
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) or isinstance(z, np.ndarray):
        return _matrix2(z, x - 1j * y, x + 1j * y, -z)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0], out[0, 1], out[1, 0], out[1, 1] = z, complex(x, -y), complex(x, y), -z
    return out


def _matrix2(a, b, c, d) -> np.ndarray:
    """Complex [[a, b], [c, d]], broadcast over the entries' shape."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def rotating_model(params: RotatingModelParams) -> HamiltonianSpec:
    """H(t) = -mu_B * (unit field direction(t) . sigma), with analytic frames.

    evaluate and the frame take a scalar time or an array of times.
    """
    muB, theta, omega = params.mu_B, params.theta, params.omega
    ct, st = math.cos(theta), math.sin(theta)
    ch, sh = math.cos(theta / 2), math.sin(theta / 2)

    def evaluate(t):
        phi = omega * t
        return _dot_sigma((-muB * (st * np.cos(phi)), -muB * (st * np.sin(phi)), -muB * ct))

    def frame(t):
        e = np.exp(-1j * omega * t)
        vectors = _matrix2(ch * e, sh * e, sh, -ch)
        derivs = _matrix2(-1j * omega * ch * e, -1j * omega * sh * e, 0.0, 0.0)
        return np.full(e.shape + (2,), [-muB, muB]), vectors, derivs

    return HamiltonianSpec(dim=2, evaluate=evaluate, analytic_frame=frame, batched=True)


def rotating_exact_solution(params: RotatingModelParams, level: int, t: float) -> np.ndarray:
    """Closed-form solution of the rotating-field Schroedinger equation.

    The state is the frame vector at the constant mixing angle alpha =
    mixing_angle(params) times a constant-rate phase; exact for all drive speeds.
    """
    _require_level(level, 2)
    muB, omega, alpha = params.mu_B, params.omega, mixing_angle(params)
    half, c, cos_alpha = (params.theta - alpha) / 2, math.cos(params.theta - alpha), math.cos(alpha)
    e = np.exp(-1j * omega * t)
    w = np.array([[math.cos(half) * e, math.sin(half) * e], [math.sin(half), -math.cos(half)]])
    energies = np.array(
        [-muB * cos_alpha - omega / 2 * (1 + c), muB * cos_alpha - omega / 2 * (1 - c)]
    )
    return w[:, level] * np.exp(-1j * energies[level] * t)


def barred_model(base: HamiltonianSpec, grid: TimeGrid) -> HamiltonianSpec:
    """Reversed-conjugated dynamics -U(t)^dag H(t) U(t) over a stored stepping run.

    U is accumulated at half steps of the grid so the returned spec can be
    evaluated both at grid points and at the midpoints the integrator uses;
    other times raise ValueError. The returned spec is batched when the base
    is. When the base supplies analytic frames, the returned spec does too:
    vectors U^dag v_n with energies -E_n.
    """
    from .propagation import stepping_propagators  # here, so importing models skips propagation
    half_grid = TimeGrid(grid.t_start, grid.t_end, 2 * grid.steps)
    table = stepping_propagators(base, half_grid)

    def evaluate(t):
        U = table[half_grid.index_of(t)]
        return matmul(matmul(-dagger(U), base.evaluate(t)), U)

    frame = None
    if base.analytic_frame is not None:

        def frame(t):
            energies, vectors, derivs = base.analytic_frame(t)
            U_dag = dagger(table[half_grid.index_of(t)])
            # d/dt (U^dag v_n) = i E_n U^dag v_n + U^dag dv_n/dt
            barred_derivs = matmul(U_dag, 1j * vectors * energies[..., None, :] + derivs)
            return -energies, matmul(U_dag, vectors), barred_derivs

    return HamiltonianSpec(
        dim=base.dim, evaluate=evaluate, analytic_frame=frame, batched=base.batched
    )


def _ms_field(params: MSSecondModelParams, t) -> np.ndarray:
    """Field vector R(t), shape (3,) + shape of t."""
    w0, w = params.omega_0, params.omega
    s2 = np.sin(2 * w0 * t)
    s, c = np.sin(w * t), np.cos(w * t)
    return np.array(
        [
            w0 * c - 0.5 * w * s * s2,
            w0 * s + 0.5 * w * c * s2,
            w * np.sin(w0 * t) ** 2,
        ]
    )


def ms_second_model(params: MSSecondModelParams) -> HamiltonianSpec:
    """H(t) = R(t) . sigma with |R| = sqrt(omega_0^2 + omega^2 sin^2(omega_0 t)).

    Analytic frames come from the spherical angles of R(t) (azimuth taken
    continuously in t through its derivative), with energies +/-|R(t)|.
    evaluate and the frame take a scalar time or an array of times.
    """

    def evaluate(t):
        return _dot_sigma(_ms_field(params, t))

    def frame(t):
        r, w0, w = _ms_field(params, t), params.omega_0, params.omega
        s2, c2 = np.sin(2 * w0 * t), np.cos(2 * w0 * t)
        s, c = np.sin(w * t), np.cos(w * t)
        rdot = np.array(
            [
                -w0 * w * s - 0.5 * w * (w * c * s2 + 2 * w0 * s * c2),
                w0 * w * c + 0.5 * w * (-w * s * s2 + 2 * w0 * c * c2),
                w * w0 * s2,
            ]
        )
        rn = np.sqrt(np.sum(r * r, axis=0))
        rndot = np.sum(r * rdot, axis=0) / rn
        rho = np.hypot(r[0], r[1])  # >= omega_0 > 0, no polar singularity
        big_theta = np.arccos(r[2] / rn)
        theta_dot = (r[2] * rndot - rdot[2] * rn) / (rn * rn * (rho / rn))
        phi = np.arctan2(r[1], r[0])
        phi_dot = (r[0] * rdot[1] - r[1] * rdot[0]) / (rho * rho)

        e = np.exp(-1j * phi)
        ch, sh = np.cos(big_theta / 2), np.sin(big_theta / 2)
        vectors = _matrix2(ch * e, sh * e, sh, -ch)
        derivs = _matrix2(
            (-0.5 * theta_dot * sh - 1j * phi_dot * ch) * e,
            (0.5 * theta_dot * ch - 1j * phi_dot * sh) * e,
            0.5 * theta_dot * ch,
            0.5 * theta_dot * sh,
        )
        return np.stack([rn, -rn], axis=-1), vectors, derivs

    return HamiltonianSpec(dim=2, evaluate=evaluate, analytic_frame=frame, batched=True)


def ms_candidate_evolution(
    params: MSSecondModelParams,
    t2: float,
    t1: float,
    fixed_direction: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Two-time candidate evolution exp{-i omega_0 (t2-t1) n(t2-t1) . sigma}.

    The published form depends only on the elapsed time, with the in-plane
    axis n(s) = (cos(omega s), sin(omega s), 0); that reading is exactly what
    the composition-law check interrogates. fixed_direction, a finite nonzero
    3-vector (else ValueError), freezes the axis to a constant unit vector instead.
    """
    s = t2 - t1
    if fixed_direction is None:
        axis = np.array([math.cos(params.omega * s), math.sin(params.omega * s), 0.0])
    else:
        axis = np.asarray(fixed_direction, dtype=float)
        if axis.shape != (3,) or not np.isfinite(axis).all() or not axis.any():
            raise ValueError("fixed_direction must be a finite, nonzero vector of shape (3,)")
        axis = axis / np.abs(axis).max()  # so that the norm neither overflows nor underflows
        axis = axis / np.linalg.norm(axis)
    angle = params.omega_0 * s
    return math.cos(angle) * np.eye(2, dtype=complex) - 1j * math.sin(angle) * _dot_sigma(axis)
