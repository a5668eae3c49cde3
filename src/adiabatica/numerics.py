"""Dense complex linear-algebra kernel for small Hermitian problems (N <= 16 target).

Eigendecomposition is delegated to LAPACK via numpy.linalg.eigh, which is
deterministic for identical input and returns ascending eigenvalues. Step
exponentials exp(-i s H) take one of three routes: a closed form at N = 2, a
truncated Taylor series by Horner's rule for N >= 3 when |s| ||H - tr(H)/N||_1
<= 1, and an eigh reconstruction otherwise. Each is unitary to rounding, not
by construction; propagation checks the accumulated drift. Products of matrix
stacks go through matmul, which skips BLAS for N <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdiabaticaError, NotHermitianError

HERMITICITY_RTOL = 1e-12
TAYLOR_MAX_NORM = 1.0  # |s| ||H - tr(H)/N||_1 up to which N >= 3 steps use the Taylor series
SMALL_PRODUCT_MAX_N = 3  # above this contracted size one BLAS call per matrix is cheaper


def max_abs(M: np.ndarray) -> float:
    """Entrywise max-modulus norm."""
    return float(np.max(np.abs(M))) if M.size else 0.0


def dagger(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack (a copy of the conjugate, transposed view)."""
    return stack.conj().swapaxes(-1, -2)


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over stacks of matrices, broadcast as np.matmul does; out must not overlap a or b.

    Up to a contracted size of SMALL_PRODUCT_MAX_N it sums elementwise products:
    there np.matmul's one BLAS call per matrix costs more than the arithmetic.
    """
    n = a.shape[-1]
    if n > SMALL_PRODUCT_MAX_N:
        return np.matmul(a, b, out=out)
    # out[..., i, l] = sum over j of a[..., i, j] * b[..., j, l], one j at a time
    out = np.multiply(a[..., :, 0, None], b[..., None, 0, :], out=out)
    for j in range(1, n):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def require_hermitian_batch(hams: np.ndarray, rtol: float = HERMITICITY_RTOL) -> float:
    """Raise NotHermitianError unless a (K, N, N) stack is finite and Hermitian.

    The tolerance is rtol * ||stack||_max; returns that max-modulus scale.
    """
    if hams.ndim != 3 or hams.shape[1] != hams.shape[2]:
        raise NotHermitianError(f"expected a stack of square matrices, got shape {hams.shape}")
    scale = max_abs(hams)
    defect = max_abs(hams - dagger(hams))
    if not np.isfinite(scale) or defect > rtol * scale:
        raise NotHermitianError(
            f"non-finite or non-Hermitian samples: defect {defect:.3e} vs scale {scale:.3e}"
        )
    return scale


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
    require_hermitian_batch(H[None])
    w, V = np.linalg.eigh(H)
    return HermitianEigenResult(eigenvalues=w, eigenvectors=V)


def _taylor_degree(x: float) -> int:
    """Smallest d >= 1 with x^(d+1) / (d+1)! <= 2^-53: the truncation bound at 1-norm x."""
    d, term = 1, x * x / 2
    while term > 2.0**-53:
        d += 1
        term *= x / (d + 1)
    return d


def _taylor_step(hams: np.ndarray, s: float) -> np.ndarray | None:
    """exp(-i s H) by a truncated Taylor series, or None when x = |s| max ||H0||_1 > TAYLOR_MAX_NORM.

    H = m I + H0 with m = tr(H)/N, so exp(-i s H) = e^{-i s m} exp(A), A = -i s H0.
    One degree d = _taylor_degree(x) serves the batch. Horner's rule P <- A P + I/j!
    runs through matmul into two buffers beside A, as many as the eigh route holds.
    """
    n = hams.shape[-1]
    diag = (slice(None), *np.diag_indices(n))
    m = (hams[diag].real / n).sum(axis=1)  # divided first: no overflow near the float range
    a = hams.astype(complex)  # a copy
    a[diag] -= m[:, None]
    a *= -1j * s
    x = float(np.abs(a).sum(axis=1).max(initial=0.0))
    if not x <= TAYLOR_MAX_NORM:
        return None
    d = _taylor_degree(x)
    p = a * (1.0 / math.factorial(d))  # P = A / d! + I / (d-1)!, then d - 1 Horner products
    p[diag] += 1.0 / math.factorial(d - 1)
    buffer = np.empty_like(a)
    for j in range(d - 2, -1, -1):
        buffer = matmul(a, p, out=buffer)
        buffer[diag] += 1.0 / math.factorial(j)
        p, buffer = buffer, p
    p *= np.exp(-1j * s * m)[:, None, None]
    return p


def exp_antihermitian_batch(hams: np.ndarray, s: float) -> np.ndarray:
    """exp(-i * s * H) for each H of a (K, N, N) stack; NotHermitianError unless finite and Hermitian.

    At N = 2, H = m I + r . sigma, read from the real diagonal and the lower
    triangle as eigh reads it, has the closed form
    e^{-i s m} [cos(s |r|) I - i sin(s |r|) r/|r| . sigma]. For N >= 3 a
    truncated Taylor series of the traceless part serves steps with
    |s| max ||H - tr(H)/N||_1 <= TAYLOR_MAX_NORM (_taylor_step); larger steps
    rebuild V e^{-i s w} V^dagger from a batched eigh. Every route is unitary
    to rounding. N ||H||_max bounds every eigenvalue, so an AdiabaticaError is
    raised before any phase s w can overflow.
    """
    bound = abs(float(s)) * hams.shape[-1] * require_hermitian_batch(hams)
    if not np.isfinite(bound):
        raise AdiabaticaError("step phase overflows: |s| N ||H||_max is not finite")
    if hams.shape[-1] == 2:
        h00, h11, h10 = hams[:, 0, 0].real, hams[:, 1, 1].real, hams[:, 1, 0]
        m, z = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
        r = np.hypot(z, np.abs(h10))
        # sin(s r) / r, which tends to s at r = 0 (H proportional to I)
        sinc = np.divide(np.sin(s * r), r, out=np.full_like(r, s), where=r > 0)
        phase = np.exp(-1j * s * m)
        cos, off = phase * np.cos(s * r), -1j * phase * sinc
        out = np.empty(hams.shape, dtype=complex)
        out[:, 0, 0], out[:, 1, 1] = cos + off * z, cos - off * z
        out[:, 1, 0], out[:, 0, 1] = off * h10, off * h10.conj()
        return out
    if hams.shape[-1] >= 3 and (out := _taylor_step(hams, s)) is not None:
        return out
    w, V = np.linalg.eigh(hams)
    V_dag = dagger(V)
    V *= np.exp(-1j * s * w)[:, None, :]  # in place: no third (K, N, N) buffer
    return matmul(V, V_dag)


def exp_antihermitian(H: np.ndarray, s: float) -> np.ndarray:
    """exp(-i * s * H) for Hermitian H, by the route exp_antihermitian_batch picks; unitary to rounding."""
    return exp_antihermitian_batch(np.asarray(H, dtype=complex)[None], s)[0]
