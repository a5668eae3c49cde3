"""Seeded workload generator: CLI configs and library analysis systems.

Everything the benchmark feeds the program is built here from the run's seed,
so the same seed gives byte-identical configs and identical random specs. The
library receives only the generated configs and specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

THETA_REF = math.pi / 3


@dataclass(frozen=True)
class CliCase:
    """One entry of a CLI mix: a config file and how its output is collected."""

    name: str
    command: str
    config: dict
    to_file: bool
    steps: int
    reference: tuple | None = None  # (mu_B, theta, omega) of a rotating-model state check

    @property
    def fmt(self) -> str:
        return self.config["format"]


def _rotating(rng: np.random.Generator) -> dict:
    """Rotating-model block with a seeded cone angle and drive speed."""
    theta, omega = rng.uniform(0.8, 1.3), rng.uniform(0.3, 0.7)
    return {"model": "rotating", "mu_B": 1.0, "theta": float(theta), "omega": float(omega)}


def _rotating_ref(omega: float) -> dict:
    """Fixed rotating-model block: its closed-form error is the same on every seed."""
    return {"model": "rotating", "mu_B": 1.0, "theta": THETA_REF, "omega": omega}


def _ms_second(rng: np.random.Generator, n: int = 10) -> dict:
    tau = float(rng.uniform(5.0, 8.0))
    # Same expression as the CLI's check, so the n-regime relation holds exactly.
    return {"model": "ms_second", "omega0": 2 * n * (2 * math.pi / tau), "tau": tau, "n": n}


def _period_grid(model: dict, steps: int) -> dict:
    """One full drive period, so every holonomy is taken on a cyclic grid."""
    if model["model"] == "ms_second":
        t_end = model["tau"]
    else:
        t_end = 2 * math.pi / abs(model["omega"])
    return {"t_start": 0.0, "t_end": t_end, "steps": steps}


def _case(name, command, model, steps, fmt, to_file, seed, reference=False, extra=None):
    config = {"command": command, "model": model, "format": fmt, "seed": seed}
    if command == "sweep":
        config["sweep"] = extra
    else:
        config["grid"] = _period_grid(model, steps)
    ref = (model["mu_B"], model["theta"], model["omega"]) if reference else None
    return CliCase(name, command, config, to_file, steps, ref)


def cli_oneshot(seed: int, scale: int | None = None) -> list[CliCase]:
    """Small CLI runs of a parameter scan; import dominates each one.

    scale replaces every grid size (smoke runs use 16).
    """
    rng = np.random.default_rng(seed)
    k = (lambda steps: scale or steps)
    sweep_model = {"model": "rotating", "mu_B": 1.0, "theta": float(rng.uniform(0.8, 1.3))}
    return [
        _case("criteria-rotating", "criteria", _rotating(rng), k(4096), "json", False, seed),
        _case("criteria-barred", "criteria",
              dict(_rotating(rng), model="barred_rotating"), k(1024), "csv", True, seed),
        _case("holonomy-ms", "holonomy", _ms_second(rng), k(4096), "json", True, seed),
        _case("holonomy-rotating", "holonomy", _rotating(rng), k(1024), "csv", False, seed),
        _case("composition-ms", "composition-check", _ms_second(rng), k(1024), "json", False, seed),
        _case("sweep", "sweep", sweep_model, 61, "csv", True, seed,
              extra={"ratio_min": 1e-3, "ratio_max": 1e3, "points": 61}),
        # The only state output of the scan: it carries ref_error_max.
        _case("simulate-rotating-small", "simulate", _rotating_ref(0.5), k(256), "csv", False,
              seed, reference=True),
    ]


def cli_trajectory(seed: int, scale: int | None = None) -> list[CliCase]:
    """Trajectory commands at large K: rendering and per-time loops weigh as much as import."""
    rng = np.random.default_rng(seed)
    k = (lambda steps: scale or steps)
    slow = _rotating_ref(0.01)
    return [
        _case("simulate-rotating-json", "simulate", slow, k(8192), "json", True, seed,
              reference=True),
        _case("simulate-rotating-csv", "simulate", slow, k(8192), "csv", False, seed,
              reference=True),
        _case("simulate-barred", "simulate",
              dict(_rotating(rng), model="barred_rotating"), k(4096), "json", False, seed),
        _case("simulate-ms", "simulate", _ms_second(rng), k(8192), "csv", True, seed),
        _case("ms-probe", "ms-probe", _ms_second(rng), k(8192), "json", False, seed),
    ]


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (M + M.conj().T) / 2


def random_smooth_spec(rng: np.random.Generator, n: int, spec_type):
    """The construction of tests/conftest.py::random_smooth_spec, without pytest.

    A smooth two-frequency Hamiltonian with level spacing of order 2; the
    static part dominates, keeping adjacent gaps far above the crossing floor.
    """
    base = np.diag(np.arange(n, dtype=float) * 2.0) + random_hermitian(rng, n, 0.2)
    drive_a = random_hermitian(rng, n, 0.3)
    drive_b = random_hermitian(rng, n, 0.3)
    nu_a, nu_b = rng.uniform(0.5, 1.5, size=2)
    delta = rng.uniform(0, 2 * np.pi)

    def evaluate(t: float) -> np.ndarray:
        return base + drive_a * np.cos(nu_a * t + delta) + drive_b * np.sin(nu_b * t)

    return spec_type(dim=n, evaluate=evaluate)


def closed_form_basis(ad, params, grid) -> list[np.ndarray]:
    """basis[m][k] is rotating_exact_solution of level m at grid time k."""
    return [np.array([ad.rotating_exact_solution(params, m, t) for t in grid.times])
            for m in (0, 1)]


@dataclass
class LibSystem:
    """One in-process analysis target; reference holds closed-form basis states."""

    name: str
    spec: object
    grid: object
    cyclic: bool
    reference: list = field(default_factory=list)


def lib_systems(seed: int, ad, scale: int | None = None) -> list[LibSystem]:
    """N=2 rotating (analytic frame removed), N=8 and N=16 random smooth specs.

    ad is the imported adiabatica package. The rotating entry keeps a closed
    form (closed_form_basis).
    """
    rng = np.random.default_rng(seed)
    params = ad.RotatingModelParams(mu_B=1.0, theta=THETA_REF, omega=0.5)
    rotating = ad.rotating_model(params)
    grid2 = ad.TimeGrid(0.0, params.period, scale or 8192)
    return [
        LibSystem("rotating-n2", ad.HamiltonianSpec(dim=2, evaluate=rotating.evaluate), grid2,
                  cyclic=True, reference=closed_form_basis(ad, params, grid2)),
        LibSystem("random-n8", random_smooth_spec(rng, 8, ad.HamiltonianSpec),
                  ad.TimeGrid(0.0, 10.0, scale or 4096), cyclic=False),
        LibSystem("random-n16", random_smooth_spec(rng, 16, ad.HamiltonianSpec),
                  ad.TimeGrid(0.0, 10.0, scale or 2048), cyclic=False),
    ]
