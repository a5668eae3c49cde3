"""Exception and warning types shared across the package."""

__all__ = [
    "AdiabaticaError",
    "EigenGapTooSmallError",
    "GridMismatchError",
    "NonCyclicWarning",
    "NotHermitianError",
]


class AdiabaticaError(Exception):
    """Base class for numerical failures raised by this package."""


class NotHermitianError(AdiabaticaError):
    """Input matrix fails the Hermiticity tolerance."""


class EigenGapTooSmallError(AdiabaticaError):
    """Adjacent instantaneous energy levels approach a crossing."""


class GridMismatchError(AdiabaticaError):
    """Inputs were computed on different time grids."""


class NonCyclicWarning(UserWarning):
    """Holonomy requested on a trajectory whose endpoints do not match."""
