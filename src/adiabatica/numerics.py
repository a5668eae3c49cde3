"""Dense complex linear-algebra kernel for small Hermitian problems (N <= 16 target).

Eigendecomposition is delegated to LAPACK via numpy.linalg.eigh, which is
deterministic for identical input and returns ascending eigenvalues. Matrix
exponentials of Hermitian generators are built from the eigendecomposition so
the result is unitary by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError

HERMITICITY_RTOL = 1e-12


def max_abs(M: np.ndarray) -> float:
    """Entrywise max-modulus norm."""
    return float(np.max(np.abs(M))) if M.size else 0.0


def dagger(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack (a copy of the conjugate, transposed view)."""
    return stack.conj().swapaxes(-1, -2)


def require_hermitian_batch(hams: np.ndarray, rtol: float = HERMITICITY_RTOL) -> float:
    """Raise NotHermitianError unless a (K, N, N) stack is finite and Hermitian.

    The tolerance is rtol * ||stack||_max; returns that max-modulus scale.
    """
    scale = max_abs(hams)
    defect = max_abs(hams - dagger(hams))
    if not np.isfinite(scale) or defect > rtol * scale:
        raise NotHermitianError(
            f"non-finite or non-Hermitian samples: defect {defect:.3e} vs scale {scale:.3e}"
        )
    return scale


def require_hermitian(H: np.ndarray, rtol: float = HERMITICITY_RTOL) -> None:
    """Raise NotHermitianError unless H is square, finite and Hermitian within rtol * ||H||_max."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {H.shape}")
    require_hermitian_batch(H[None], rtol)


@dataclass(frozen=True)
class HermitianEigenResult:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(H: np.ndarray) -> HermitianEigenResult:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come out ascending; eigenvector k is column k of the returned
    matrix. Output is deterministic for identical input.
    """
    H = np.asarray(H, dtype=complex)
    require_hermitian(H)
    w, V = np.linalg.eigh(H)
    return HermitianEigenResult(eigenvalues=w, eigenvectors=V)


def exp_antihermitian(H: np.ndarray, s: float) -> np.ndarray:
    """exp(-i * s * H) for Hermitian H, unitary by construction."""
    res = eig_hermitian(H)
    V = res.eigenvectors
    return (V * np.exp(-1j * s * res.eigenvalues)) @ V.conj().T
