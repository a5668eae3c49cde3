"""Model parameter records and the rotating model's closed-form phases, in math alone:
importing this module loads no numpy, so the CLI's sweep starts without it. models
republishes these names."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from .errors import AdiabaticaError

__all__ = [
    "MSSecondModelParams",
    "RotatingModelParams",
    "mixing_angle",
    "rotating_dynamical_phase",
    "rotating_geometric_phase",
]


def _is_integer(x) -> bool:
    """An integer, and not a bool: the one test of every integer argument. numpy registers
    its integer types as numbers.Integral, and np.bool_ is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _require_level(level, dim: int) -> None:
    """ValueError unless level is an integer, not a bool, in [0, dim)."""
    if not _is_integer(level) or not 0 <= level < dim:
        raise ValueError(f"level must be an integer in [0, {dim}), not {level!r}")


@dataclass(frozen=True)
class RotatingModelParams:
    """Spin in a magnetic field of fixed polar angle rotating uniformly about z.

    mu_B is the product of moment and field strength (angular frequency),
    theta the cone angle in (0, pi), omega the nonzero drive frequency; mu_B
    and omega must be finite.
    """

    mu_B: float
    theta: float
    omega: float

    def __post_init__(self):
        if not 0 < self.mu_B < math.inf:
            raise ValueError("mu_B must be positive and finite")
        if not 0 < self.theta < math.pi:
            raise ValueError("theta must lie in (0, pi)")
        if not (math.isfinite(self.omega) and self.omega != 0):
            raise ValueError("omega must be finite and nonzero")

    @property
    def period(self) -> float:
        return 2 * math.pi / abs(self.omega)


def mixing_angle(params: RotatingModelParams) -> float:
    """Constant frame-mixing angle that diagonalizes the effective Hamiltonian.

    alpha = atan2(omega sin theta, 2 mu_B + omega cos theta), the branch
    continuous in omega with alpha(0) = 0; it satisfies
    2 mu_B sin(alpha) = omega sin(theta - alpha).
    """
    return math.atan2(
        params.omega * math.sin(params.theta),
        2 * params.mu_B + params.omega * math.cos(params.theta),
    )


def rotating_geometric_phase(params: RotatingModelParams, level: int = 0) -> float:
    """Geometric part of the exact phase accumulated over one drive period.

    Equals pi * (1 +/- cos(theta - alpha)): the Berry value pi (1 +/- cos theta)
    in the slow-drive limit and 0 mod 2*pi in the fast-drive limit.
    """
    _require_level(level, 2)
    c = math.cos(params.theta - mixing_angle(params))
    sign = 1.0 if level == 0 else -1.0
    return math.pi * (1 + sign * c)


def rotating_dynamical_phase(params: RotatingModelParams, level: int = 0) -> float:
    """Dynamical part of the exact phase over one drive period; AdiabaticaError unless finite."""
    _require_level(level, 2)
    sign = 1.0 if level == 0 else -1.0
    phase = -sign * params.mu_B * math.cos(mixing_angle(params)) * params.period
    if not math.isfinite(phase):
        raise AdiabaticaError(f"dynamical phase over one period is not finite: {phase}")
    return phase


@dataclass(frozen=True)
class MSSecondModelParams:
    """Two-level model with drive 2*pi/tau and fast internal frequency omega_0.

    The published regime ties the two as omega_0 = 2 n omega; pass regime_n, an
    integer and not a bool, to enforce it. Both must be positive and finite, and so
    must omega: a tau near the float floor makes 2*pi/tau overflow.
    """

    omega_0: float
    tau: float
    regime_n: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.omega_0 < math.inf:
            raise ValueError("omega_0 must be positive and finite")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not math.isfinite(self.omega):
            raise ValueError(f"tau = {self.tau!r} is too small: omega = 2*pi/tau overflows")
        if self.regime_n is not None:
            n = self.regime_n
            if not _is_integer(n):
                raise ValueError("regime_n must be an integer if given")
            expected = 2 * n * self.omega
            if not math.isclose(self.omega_0, expected, rel_tol=1e-12):
                raise ValueError(
                    f"omega_0 = {self.omega_0} does not equal 2 * n * omega = {expected}"
                )

    @property
    def omega(self) -> float:
        return 2 * math.pi / self.tau

    @classmethod
    def from_regime(cls, n: int, tau: float) -> "MSSecondModelParams":
        return cls(omega_0=2 * n * (2 * math.pi / tau), tau=tau, regime_n=n)
