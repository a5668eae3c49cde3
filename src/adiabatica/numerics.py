"""Dense complex linear-algebra kernel for small Hermitian problems (N <= 16 target).

Step exponentials exp(-i s H) take one of two routes, chosen from N alone: a
closed form at N = 2, and for every other N a truncated Taylor series by
Horner's rule, scaled and squared when |s| ||H - tr(H)/N||_1 > 1. Both are
unitary to rounding, not by construction; propagation checks the accumulated
drift. Products of matrix stacks go through matmul, which skips BLAS for N <= 3.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AdiabaticaError, NotHermitianError

HERMITICITY_RTOL = 1e-12
TAYLOR_MAX_NORM = 1.0  # |s| ||H - tr(H)/N||_1 that scaling reaches before the Taylor series
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


def require_hermitian_batch(hams: np.ndarray) -> float:
    """Raise NotHermitianError unless a (K, N, N) stack is finite and Hermitian.

    The tolerance is HERMITICITY_RTOL * ||stack||_max; returns that max-modulus scale.
    """
    if hams.ndim != 3 or hams.shape[1] != hams.shape[2]:
        raise NotHermitianError(f"expected a stack of square matrices, got shape {hams.shape}")
    scale = max_abs(hams)
    defect = max_abs(hams - dagger(hams))
    if not np.isfinite(scale) or defect > HERMITICITY_RTOL * scale:
        raise NotHermitianError(
            f"non-finite or non-Hermitian samples: defect {defect:.3e} vs scale {scale:.3e}"
        )
    return scale


def require_unitary(stack: np.ndarray, tol: float, what: str) -> None:
    """Raise AdiabaticaError unless max|X^dagger X - I| over a stack of square matrices is <= tol.

    NaN-safe: a non-finite X fails. The message reads "<what>: defect <value>".
    """
    gram = matmul(dagger(stack), stack)
    gram -= np.eye(stack.shape[-1])
    defect = max_abs(gram)
    if not defect <= tol:
        raise AdiabaticaError(f"{what}: defect {defect:.3e}")


def _taylor_degree(x: float) -> int:
    """Smallest d >= 1 with x^(d+1) / (d+1)! <= 2^-53: the truncation bound at 1-norm x."""
    d, term = 1, x * x / 2
    while term > 2.0**-53:
        d += 1
        term *= x / (d + 1)
    return d


def _taylor_step(hams: np.ndarray, s: float) -> np.ndarray:
    """exp(-i s H) by a truncated Taylor series, scaled and squared.

    Only the Hermitian part (H + H^dagger)/2 is exponentiated, the matrix the batch
    check accepted, so a residue within HERMITICITY_RTOL cannot grow with |s|.
    It is H = m I + H0 with m = tr(H)/N, so exp(-i s H) = e^{-i s m} exp(A), A = -i s H0.
    A is halved q times, the fewest with x / 2^q <= TAYLOR_MAX_NORM, x = |s| max ||H0||_1.
    Horner's rule P <- A P + I/j! at one degree _taylor_degree(x / 2^q), then q squarings
    P <- P P (each doubles the rounding), run through matmul into two buffers beside A.
    """
    n = hams.shape[-1]
    diag = (slice(None), *np.diag_indices(n))
    a = np.conjugate(hams.swapaxes(-1, -2), order="C", dtype=complex)  # one contiguous pass
    a += hams  # 2 (H + H^dagger)/2; the overflow guard bounds its entries
    m = (a[diag].real / (2 * n)).sum(axis=1)  # divided first: no overflow near the float range
    a[diag] -= 2 * m[:, None]
    a *= -0.5j * s  # halving is exact: the bits of a Hermitian H are kept
    x = float(np.abs(a).sum(axis=1).max(initial=0.0))
    q = 0
    while x > TAYLOR_MAX_NORM:
        x, q = x / 2, q + 1
    if q:
        a *= 2.0**-q
    d = _taylor_degree(x)
    p = a * (1.0 / math.factorial(d))  # P = A / d! + I / (d-1)!, then d - 1 Horner products
    p[diag] += 1.0 / math.factorial(d - 1)
    buffer = np.empty_like(a)
    for j in range(d - 2, -1, -1):
        buffer = matmul(a, p, out=buffer)
        buffer[diag] += 1.0 / math.factorial(j)
        p, buffer = buffer, p
    for _ in range(q):
        buffer = matmul(p, p, out=buffer)
        p, buffer = buffer, p
    p *= np.exp(-1j * s * m)[:, None, None]
    return p


def exp_antihermitian_batch(hams: np.ndarray, s: float) -> np.ndarray:
    """exp(-i * s * H) for each H of a (K, N, N) stack; NotHermitianError unless finite and Hermitian.

    At N = 2, H = m I + r . sigma, read from the real diagonal and the lower
    triangle as eigh reads it, has the closed form
    e^{-i s m} [cos(s |r|) I - i sin(s |r|) r/|r| . sigma]. Every other N takes
    a scaled-and-squared Taylor series of the traceless part (_taylor_step).
    Both routes are unitary to rounding. Before any arithmetic on H, AdiabaticaError
    is raised unless |s| N ||H||_max, a bound on every phase s w, is finite, and off
    N = 2 also 2 max(|s|, 1) N ||H||_max, as entries of H - tr(H)/N reach 2 ||H||_max.
    """
    n, s_abs = hams.shape[-1], abs(float(s))
    scale = require_hermitian_batch(hams)
    bound = s_abs * n * scale if n == 2 else 2 * max(s_abs, 1.0) * n * scale
    if not math.isfinite(bound):
        raise AdiabaticaError("step phase overflows: the bound on |s| N ||H||_max is not finite")
    if n != 2:
        return _taylor_step(hams, s)
    h00, h11, h10 = hams[:, 0, 0].real, hams[:, 1, 1].real, hams[:, 1, 0]
    m, z = 0.5 * h00 + 0.5 * h11, 0.5 * h00 - 0.5 * h11  # halved first: no overflow
    r = np.hypot(z, np.abs(h10))
    # sin(s r) / r, which tends to s at r = 0 (H proportional to I)
    sinc = np.divide(np.sin(s * r), r, out=np.full_like(r, s), where=r > 0)
    phase = np.exp(-1j * s * m)
    cos, off = phase * np.cos(s * r), -1j * phase * sinc
    out = np.empty(hams.shape, dtype=complex)
    out[:, 0, 0], out[:, 1, 1] = cos + off * z, cos - off * z
    out[:, 1, 0], out[:, 0, 1] = off * h10, off * h10.conj()
    return out

