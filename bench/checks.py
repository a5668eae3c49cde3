"""Per-operation correctness checks for CLI outputs and library analyses.

A check raises CheckFailed; the caller counts the operation as failed and
keeps running. Accuracy gates (closed-form error, coefficient route) apply
from ACCURACY_MIN_STEPS grid steps on, where the second-order error is in its
asymptotic range; smoke runs at K=16 check structure and invariants only.
"""

from __future__ import annotations

import json
import math

import numpy as np

ACCURACY_MIN_STEPS = 256
REF_TOL = 1e-3  # ||psi - psi_exact|| on the rotating model
COEFF_TOL = 1e-4  # coefficient route against the direct route
HOLONOMY_TOL = 1e-8  # | |holonomy| - 1 | on cyclic grids
UNITARITY_TOL = 1e-9  # max |U^dag U - 1|
PROB_TOL = 1e-9  # sum of occupation probabilities against 1
COMPOSITION_TOL = 1e-8  # composition-law deviations that must vanish


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def closed_form_error(states: np.ndarray, basis: list[np.ndarray]) -> float:
    """max_k ||psi(t_k) - psi_exact(t_k)||, psi_exact expanded in psi(t_0).

    basis[m] holds the closed-form solution of level m on the grid; at t_0
    the levels are orthonormal, so the expansion coefficients are overlaps.
    """
    psi0 = states[0]
    exact = sum(np.vdot(phi[0], psi0) * phi for phi in basis)
    return float(np.max(np.linalg.norm(states - exact, axis=1)))


def _gated_error(states: list, basis: list, steps: int) -> float:
    error = max(closed_form_error(s, basis) for s in states)
    require(math.isfinite(error), "closed-form error is not finite")
    if steps >= ACCURACY_MIN_STEPS:
        require(error < REF_TOL, f"closed-form error {error:.3e} exceeds {REF_TOL:.0e}")
    return error


def _csv_columns(text: str) -> dict[str, list[str]]:
    require(text.endswith("\n"), "CSV output lacks its final newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    require(all(len(r) == len(header) for r in rows), "CSV rows differ in width from the header")
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def _parse(fmt: str, data: bytes):
    text = data.decode("utf-8")
    try:
        return json.loads(text) if fmt == "json" else _csv_columns(text)
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"{fmt} output does not parse: {exc}") from exc


def _simulate_states(fmt, out, dim: int):
    """Per-level states (K+1, dim) and occupation probabilities (K+1, dim)."""
    if fmt == "json":
        levels = out["levels"]
        states = [np.array(lv["psi_re"]) + 1j * np.array(lv["psi_im"]) for lv in levels]
        probs = [np.array(lv["probabilities"]) for lv in levels]
        return states, probs
    states, probs = [], []
    for n in range(dim):
        re = np.stack([_floats(out[f"psi{n}_re_{i}"]) for i in range(dim)], axis=1)
        im = np.stack([_floats(out[f"psi{n}_im_{i}"]) for i in range(dim)], axis=1)
        states.append(re + 1j * im)
        probs.append(np.stack([_floats(out[f"prob{n}_{m}"]) for m in range(dim)], axis=1))
    return states, probs


def _field(case, out, key: str) -> np.ndarray:
    """One numeric field of a command's output, as a column, in either format."""
    if case.fmt == "csv":
        return _floats(out[key])
    if case.command == "holonomy":
        return np.array([level[key] for level in out["levels"]])
    if case.command == "sweep":
        i = out["columns"].index(key)
        return np.array([row[i] for row in out["rows"]])
    return np.atleast_1d(np.array(out[key], dtype=float))


def check_cli(case, returncode: int, stderr: bytes, data: bytes, basis) -> float | None:
    """Check one CLI invocation; returns the closed-form state error when the case has one."""
    require(returncode == 0, f"exit code {returncode}: {stderr.decode(errors='replace')[-300:]}")
    require(b"Traceback" not in stderr, "traceback on stderr")
    out = _parse(case.fmt, data)
    field = lambda key: _field(case, out, key)  # noqa: E731

    if case.command == "simulate":
        states, probs = _simulate_states(case.fmt, out, 2)
        for p in probs:
            require(p.shape == (case.steps + 1, 2), f"probabilities have shape {p.shape}")
            require(np.max(np.abs(p.sum(axis=1) - 1.0)) < PROB_TOL, "probabilities do not sum to 1")
        return None if case.reference is None else _gated_error(states, basis, case.steps)

    if case.command == "holonomy":
        h = field("holonomy_re") + 1j * field("holonomy_im")
        require(len(h) == 2, f"{len(h)} holonomy levels")
        require(np.max(np.abs(np.abs(h) - 1.0)) < HOLONOMY_TOL, "|holonomy| != 1 on a cyclic grid")
    elif case.command == "criteria":
        ratios = np.concatenate([field(k) for k in ("r_naive", "r_gap", "r_level")])
        require(bool(np.all(ratios >= 0)), "negative criteria ratio")
    elif case.command == "composition-check":
        keys = ("candidate_fixed_direction", "effective_stepping", "hamiltonian_stepping")
        devs = np.concatenate([field(k) for k in keys])
        require(np.max(devs) < COMPOSITION_TOL, f"composition-law deviations {devs}")
    elif case.command == "sweep":
        plus, minus = field("geometric_phase_plus"), field("geometric_phase_minus")
        points = case.config["sweep"]["points"]
        require(len(plus) == points, f"{len(plus)} sweep rows, expected {points}")
        require(np.max(np.abs(plus + minus - 2 * math.pi)) < 1e-12, "phase split does not sum to 2 pi")
    elif case.command == "ms-probe":
        chain_abs = field("chain_abs")
        require(len(chain_abs) == case.steps + 1, f"{len(chain_abs)} probe samples")
        require(np.max(chain_abs) <= 1.0 + 1e-9, "|L(t)| exceeds 1")
    return None


def check_analysis(system, analysis) -> float | None:
    """Check one library analysis; returns the closed-form state error for the N=2 entry."""
    result, coeffs, holonomies = analysis.result, analysis.coefficients, analysis.holonomies
    n, steps = system.spec.dim, system.grid.steps
    U = result.propagators
    drift = float(np.max(np.abs(np.einsum("kij,kil->kjl", U.conj(), U) - np.eye(n))))
    require(drift < UNITARITY_TOL, f"propagators not unitary: drift {drift:.3e}")
    if steps >= ACCURACY_MIN_STEPS:
        dev = float(np.max(np.abs(coeffs - result.coefficients[0])))
        require(dev < COEFF_TOL, f"coefficient route differs from direct route by {dev:.3e}")
    if system.cyclic:
        worst = max(abs(abs(h.value) - 1.0) for h in holonomies)
        require(worst < HOLONOMY_TOL, f"|holonomy| deviates from 1 by {worst:.3e}")
    return _gated_error(result.states, system.reference, steps) if system.reference else None
