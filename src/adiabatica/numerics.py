"""Dense complex linear-algebra kernel for small Hermitian problems (N <= 16 target).

Step exponentials exp(-i s H) take one of two routes, chosen from N alone: a
closed form at N = 2, and for every other N a truncated Taylor series by
Horner's rule, scaled and squared when |s| ||H - tr(H)/N||_1 > 1. Both take
the Hermitian part (H + H^dagger)/2 and are unitary to rounding, not by
construction; require_unitary bounds the drift of an accumulated stack per step.
Products of matrix stacks go through matmul, which skips BLAS for N <= 3.
The Taylor step, the step overflow guard, dagger_matmul and the two stack checks
stream each (K, N, N) stack through consecutive blocks of about BLOCK_BYTES
(1 MiB), so a block's working set stays in cache and no kernel holds a stack
beside its input and output, only a few blocks; the step kernel may write its
output over its input. Every matrix gets the same arithmetic in the same order, so
the results do not depend on the block size, bit for bit. eigh_batch shares
blocks of about BLOCK_BYTES / 8 among as many threads as the process may use
CPUs, at most EIGH_MAX_THREADS, so pinning the process to one CPU (taskset)
runs it on the calling thread alone; each matrix gets the same LAPACK call,
so its results are np.linalg.eigh's, bit for bit.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import AdiabaticaError, NotHermitianError

__all__ = ["max_abs"]

HERMITICITY_RTOL = 1e-12
UNITARITY_RTOL = 1e-10  # drift allowed per step spanned by a unitary stack (require_unitary)
TAYLOR_MAX_NORM = 1.0  # |s| ||H - tr(H)/N||_1 that scaling reaches before the Taylor series
SMALL_PRODUCT_MAX_N = 3  # above this contracted size one BLAS call per matrix is cheaper
BLOCK_BYTES = 2**20  # stacks are streamed in blocks of about this size: 256 matrices at N = 16
EIGH_MAX_THREADS = 2  # eigh_batch threads, the calling one included: the most measured to pay


def max_abs(M: np.ndarray) -> float:
    """Entrywise max-modulus norm."""
    return float(np.max(np.abs(M))) if M.size else 0.0


def _blocks(stack: np.ndarray, nbytes: int | None = None) -> list[slice]:
    """Consecutive first-axis slices of about nbytes each, BLOCK_BYTES if None; at least one."""
    nbytes = BLOCK_BYTES if nbytes is None else nbytes
    size = max(1, nbytes // max(1, stack.itemsize * math.prod(stack.shape[1:])))
    return [slice(i, i + size) for i in range(0, max(len(stack), 1), size)]


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


def dagger_matmul(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dagger(v) @ x over two (K, N, .) stacks, bit for bit, one block of v conjugated at a time;
    complex also for real stacks (real analytic frames), so callers may scale it by 1j in place."""
    out = np.empty((len(v), v.shape[-1], x.shape[-1]), dtype=np.result_type(v, x, 1j))
    for b in _blocks(v):
        matmul(dagger(v[b]), x[b], out=out[b])
    return out


def eigh_batch(hams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a (K, N, N) float or complex stack, its blocks shared among threads.

    The stack is cut into blocks of about BLOCK_BYTES / 8. The calling thread starts
    w - 1 more, w the least of the block count, the usable CPUs and EIGH_MAX_THREADS,
    and each thread takes the next untaken block until none is left, writing its eigh
    into that block's slices of the preallocated outputs. Every thread is joined before
    it returns, and the first exception a thread raised is raised here.
    """
    blocks = _blocks(hams, BLOCK_BYTES // 8)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(blocks), cpus or 1, EIGH_MAX_THREADS)
    energies, vectors = np.empty(hams.shape[:-1], hams.real.dtype), np.empty_like(hams)
    todo, lock, errors = iter(blocks), threading.Lock(), []

    def next_block() -> slice | None:
        with lock:  # a shared iterator is safe only under the GIL, which free-threaded builds lack
            return next(todo, None)

    def work() -> None:
        try:
            for b in iter(next_block, None):
                energies[b], vectors[b] = np.linalg.eigh(hams[b])
        except Exception as exc:  # raised in the caller once every thread has joined
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return energies, vectors


def _max_over_blocks(stack: np.ndarray, measure) -> np.ndarray:
    """Elementwise max of measure(block) over the blocks of a stack, NaN-keeping as max() is not."""
    return np.max([measure(stack[b]) for b in _blocks(stack)], axis=0)


def require_hermitian_batch(hams: np.ndarray) -> None:
    """Raise NotHermitianError unless a (K, N, N) stack is finite and Hermitian.

    The tolerance is HERMITICITY_RTOL * ||stack||_max. HamiltonianSpec.sample is
    the one caller: every H enters the library there.
    """
    scale, defect = _max_over_blocks(hams, lambda h: (max_abs(h), max_abs(h - dagger(h))))
    if not np.isfinite(scale) or defect > HERMITICITY_RTOL * scale:
        raise NotHermitianError(
            f"non-finite or non-Hermitian samples: defect {defect:.3e} vs scale {scale:.3e}"
        )


def require_unitary(stack: np.ndarray, what: str) -> None:
    """Raise AdiabaticaError unless max|X^dagger X - I| <= UNITARITY_RTOL * max(1, K).

    K + 1 matrices span K steps: the drift bound of a K-step propagator, which frames
    taken from one inherit. A non-finite X fails. The message reads "<what>: defect <value>".
    """

    def defect_of(block: np.ndarray) -> float:
        gram = matmul(dagger(block), block)
        gram -= np.eye(block.shape[-1])
        return max_abs(gram)

    defect = _max_over_blocks(stack, defect_of)
    if not defect <= UNITARITY_RTOL * max(1, len(stack) - 1):
        raise AdiabaticaError(f"{what}: defect {defect:.3e}")


def _taylor_degree(x: float) -> int:
    """Smallest d >= 1 with x^(d+1) / (d+1)! <= 2^-53: the truncation bound at 1-norm x."""
    d, term = 1, x * x / 2
    while term > 2.0**-53:
        d += 1
        term *= x / (d + 1)
    return d


def _taylor_step(hams: np.ndarray, s: float, out: np.ndarray) -> np.ndarray:
    """exp(-i s H) by a truncated Taylor series, scaled and squared, into out (may be hams).

    Only the Hermitian part (H + H^dagger)/2 is exponentiated, the matrix the sampling
    check accepted, so a residue within HERMITICITY_RTOL cannot grow with |s|.
    It is H = m I + H0 with m = tr(H)/N, so exp(-i s H) = e^{-i s m} exp(A), A = -i s H0.
    A is halved q times, the fewest with x / 2^q <= TAYLOR_MAX_NORM, x = |s| max ||H0||_1.
    Horner's rule P <- A P + I/j! at one degree _taylor_degree(x / 2^q), then q squarings
    P <- P P (each doubles the rounding), run through matmul into two buffers.
    Two passes over the blocks: the first forms A in out and x, which fixes q and d for
    the whole stack; the second exponentiates each block of A in place.
    """
    n = hams.shape[-1]
    diag = (slice(None), *np.diag_indices(n))
    # m from the whole gathered diagonal of H + H^dagger, 2 Re H_ii exactly: numpy sums a
    # gathered (K, N) array in an order that differs between K = 1 and K > 1, so per block
    # a one-matrix tail would change bits. Divided first: no overflow near the float range.
    m = (2 * hams[diag].real / (2 * n)).sum(axis=1)
    blocks, x = _blocks(out), 0.0
    for b in blocks:
        blk = out[b]
        # 2 (H + H^dagger)/2 from a block-sized copy of H^dagger, so blk may be hams[b];
        # the overflow guard bounds its entries
        np.add(hams[b], dagger(hams[b]), out=blk)
        blk[diag] -= 2 * m[b, None]
        blk *= -0.5j * s  # halving is exact: the bits of a Hermitian H are kept
        x = max(x, float(np.abs(blk).sum(axis=1).max(initial=0.0)))
    q = 0
    while x > TAYLOR_MAX_NORM:
        x, q = x / 2, q + 1
    d = _taylor_degree(x)
    phase = np.exp(-1j * s * m)
    p_full, buffer_full = np.empty_like(out[blocks[0]]), np.empty_like(out[blocks[0]])
    for b in blocks:
        blk = out[b]
        p, buffer = p_full[: len(blk)], buffer_full[: len(blk)]
        if q:
            blk *= 2.0**-q
        # P = A / d! + I / (d-1)!, then d - 1 Horner products
        np.multiply(blk, 1.0 / math.factorial(d), out=p)
        p[diag] += 1.0 / math.factorial(d - 1)
        for j in range(d - 2, -1, -1):
            matmul(blk, p, out=buffer)
            buffer[diag] += 1.0 / math.factorial(j)
            p, buffer = buffer, p
        for _ in range(q):
            matmul(p, p, out=buffer)
            p, buffer = buffer, p
        np.multiply(p, phase[b, None, None], out=blk)
    return out


def exp_antihermitian_batch(
    hams: np.ndarray, s: float, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(-i * s * (H + H^dagger)/2) for each H of a (K, N, N) stack: its Hermitian part.

    At N = 2, that part is m I + r . sigma, read from the real diagonal and the
    mean of H_10 and conj(H_01), with the closed form
    e^{-i s m} [cos(s |r|) I - i sin(s |r|) r/|r| . sigma]. Every other N takes
    a scaled-and-squared Taylor series of the traceless part (_taylor_step).
    Both routes are unitary to rounding. Before any arithmetic on H, AdiabaticaError
    is raised unless |s| N ||H||_max, a bound on every phase s w, is finite, and off
    N = 2 also 2 max(|s|, 1) N ||H||_max, as entries of H - tr(H)/N reach 2 ||H||_max;
    so a non-finite stack is rejected too. The steps go into out, a new complex stack
    if None; out may be hams itself, and the results are the same bit for bit.
    """
    n, s_abs = hams.shape[-1], abs(float(s))
    scale = float(_max_over_blocks(hams, max_abs))
    bound = s_abs * n * scale if n == 2 else 2 * max(s_abs, 1.0) * n * scale
    if not math.isfinite(bound):
        raise AdiabaticaError("step phase overflows: the bound on |s| N ||H||_max is not finite")
    out = np.empty(hams.shape, dtype=complex) if out is None else out
    if n != 2:
        return _taylor_step(hams, s, out)
    h00, h11 = hams[:, 0, 0].real, hams[:, 1, 1].real
    h10 = 0.5 * hams[:, 1, 0] + 0.5 * hams[:, 0, 1].conj()  # the Hermitian part's H_10
    m, z = 0.5 * h00 + 0.5 * h11, 0.5 * h00 - 0.5 * h11  # halved first: no overflow
    r = np.hypot(z, np.abs(h10))
    # sin(s r) / r, which tends to s at r = 0 (H proportional to I)
    sinc = np.divide(np.sin(s * r), r, out=np.full_like(r, s), where=r > 0)
    phase = np.exp(-1j * s * m)
    cos, off = phase * np.cos(s * r), -1j * phase * sinc
    out[:, 0, 0], out[:, 1, 1] = cos + off * z, cos - off * z
    out[:, 1, 0], out[:, 0, 1] = off * h10, off * h10.conj()
    return out

