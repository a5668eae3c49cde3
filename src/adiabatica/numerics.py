"""Dense complex linear-algebra kernels for small Hermitian stacks (N <= 16).

dagger_matmul, eigh_batch and the stack checks stream a (K, N, N) stack through
consecutive blocks of BLOCK_BYTES or less, so a block's working set stays in
cache and no kernel holds a stack beside its input and output, only a few
blocks. Every matrix gets the same arithmetic in the same order whatever the
blocks, so their results do not depend on the block size, bit for bit:
eigh_batch's are np.linalg.eigh's. The step kernel, exp_steps, takes one chunk
of a stack and picks its scaling and Taylor degree from that chunk alone.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Sequence

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


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """The diagonals of a stack of matrices, (..., N): a writable view, not a gather."""
    return np.einsum("...ii->...i", stack)


def dagger(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack (a copy of the conjugate, transposed view)."""
    return stack.conj().swapaxes(-1, -2)


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over stacks of matrices, broadcast as np.matmul does; out must not overlap a or b.

    From a contracted size of 2 up to SMALL_PRODUCT_MAX_N it sums elementwise products:
    there np.matmul's one BLAS call per matrix costs more than the arithmetic. At 1 that
    is one multiply over a contiguous run, which numpy rounds by the run's length.
    """
    n = a.shape[-1]
    if n == 1 or n > SMALL_PRODUCT_MAX_N:
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
    with np.errstate(over="ignore"):  # an infinite defect fails the check
        scale, defect = _max_over_blocks(hams, lambda h: (max_abs(h), max_abs(h - dagger(h))))
    if not np.isfinite(scale) or defect > HERMITICITY_RTOL * scale:
        raise NotHermitianError(
            f"non-finite or non-Hermitian samples: defect {defect:.3e} vs scale {scale:.3e}"
        )


def unitarity_defect(stack: np.ndarray, work: Sequence[np.ndarray]) -> float:
    """max|X^dagger X - I| over a (K, N, N) stack, NaN if any X is not finite, through work:
    two complex buffers at least as long as the stack."""
    conj, gram = (w[: len(stack)] for w in work)
    matmul(np.conjugate(stack, out=conj).swapaxes(-1, -2), stack, out=gram)
    gram -= np.eye(stack.shape[-1])
    return max_abs(gram)


def require_drift(defect: float, steps: int, what: str) -> None:
    """Raise AdiabaticaError unless defect <= UNITARITY_RTOL * max(1, steps), NaN failing:
    the drift bound of a propagator over that many steps, which frames taken from one
    inherit. The message reads "<what>: defect <value>"."""
    if not defect <= UNITARITY_RTOL * max(1, steps):
        raise AdiabaticaError(f"{what}: defect {defect:.3e}")


def require_unitary(stack: np.ndarray, what: str) -> None:
    """require_drift on max|X^dagger X - I| over K + 1 matrices (K steps), via two block buffers."""
    work = np.empty((2, len(stack[_blocks(stack)[0]])) + stack.shape[1:], dtype=complex)
    defect = _max_over_blocks(stack, lambda block: unitarity_defect(block, work))
    require_drift(float(defect), len(stack) - 1, what)


def _taylor_degree(x: float) -> int:
    """Smallest d >= 1 with x^(d+1) / (d+1)! <= 2^-53: the truncation bound at 1-norm x."""
    d, term = 1, x * x / 2
    while term > 2.0**-53:
        d += 1
        term *= x / (d + 1)
    return d


def exp_steps(
    hams: np.ndarray, s: float, out: np.ndarray, work: Sequence[np.ndarray]
) -> np.ndarray:
    """exp(-i s (H + H^dagger)/2) for each H of a (c, N, N) chunk, into out; returns out.

    out must not overlap hams. work is two buffers at least c long; they may overlap
    hams, which is read in full before either is written. Before any arithmetic,
    AdiabaticaError is raised unless |s| N ||H||_max, a bound on every phase s w, is
    finite, and off N = 2 also 2 max(|s|, 1) N ||H||_max, as entries of H - tr(H)/N
    reach 2 ||H||_max; so a non-finite chunk fails too.

    At N = 2 the Hermitian part is m I + r . sigma, read from the real diagonal and the
    mean of H_10 and conj(H_01), and the step e^{-i s m} [cos(s |r|) I - i sin(s |r|)
    r/|r| . sigma]. Every other N takes a Taylor series: H = m I + H0 with m = tr(H)/N,
    so exp(-i s H) = e^{-i s m} exp(A), A = -i s H0 formed in out. Only the Hermitian
    part is exponentiated, the matrix the sampling check accepted, so a residue within
    HERMITICITY_RTOL cannot grow with |s|. A is halved q times, the fewest with
    x / 2^q <= TAYLOR_MAX_NORM, x = |s| max ||H0||_1 over the chunk, and summed by
    Horner's rule P <- A P + I/j! at degree d = _taylor_degree(x / 2^q), then squared q
    times P <- P P (each doubles the rounding), through matmul between the two buffers.
    So q and d are the chunk's: a chunk of finer steps takes fewer products.
    """
    s, n = float(s), hams.shape[-1]
    scale = max_abs(hams)
    bound = abs(s) * n * scale if n == 2 else 2 * max(abs(s), 1.0) * n * scale
    if not math.isfinite(bound):
        raise AdiabaticaError("step phase overflows: the bound on |s| N ||H||_max is not finite")
    if n == 2:
        h00, h11 = hams[:, 0, 0].real, hams[:, 1, 1].real
        h10 = 0.5 * hams[:, 1, 0] + 0.5 * hams[:, 0, 1].conj()  # the Hermitian part's H_10
        m, z = 0.5 * h00 + 0.5 * h11, 0.5 * h00 - 0.5 * h11  # halved first: no overflow
        r = np.hypot(z, np.abs(h10))
        # sin(s r) / r, which tends to s at r = 0 (H proportional to I)
        sinc = np.divide(np.sin(s * r), r, out=np.full_like(r, s), where=r > 0)
        phase = np.exp(-1j * s * m)
        del m  # each c-length temporary goes after its last use
        cos = phase * np.cos(s * r)
        del r
        off = -1j * phase * sinc
        del phase, sinc
        out[:, 0, 0] = cos + off * z
        out[:, 1, 1] = cos - off * z
        del cos, z
        out[:, 1, 0] = off * h10
        out[:, 0, 1] = off * h10.conj()
        return out
    # m = sum of 2 Re H_ii / (2N), added left to right whatever the chunk's length: a
    # (c, N) sum's order changes with its layout and, at c = 1, with its length.
    terms = 2 * _diagonal(hams).real / (2 * n)
    m = terms[:, 0].copy()
    for term in terms.T[1:]:
        m += term
    # 2 (H + H^dagger)/2, which the overflow guard bounds
    np.add(hams, np.conjugate(hams.swapaxes(-1, -2), out=out), out=out)
    _diagonal(out)[...] -= 2 * m[:, None]
    out *= -0.5j * s  # halving is exact: the bits of a Hermitian H are kept
    x, q = float(np.abs(out).sum(axis=1).max(initial=0.0)), 0
    while x > TAYLOR_MAX_NORM:
        x, q = x / 2, q + 1
    d = _taylor_degree(x)
    p, buffer = (w[: len(out)] for w in work)
    if q:
        out *= 2.0**-q
    # P = A / d! + I / (d-1)!, then d - 1 Horner products
    np.multiply(out, 1.0 / math.factorial(d), out=p)
    _diagonal(p)[...] += 1.0 / math.factorial(d - 1)
    for j in range(d - 2, -1, -1):
        matmul(out, p, out=buffer)
        _diagonal(buffer)[...] += 1.0 / math.factorial(j)
        p, buffer = buffer, p
    for _ in range(q):
        matmul(p, p, out=buffer)
        p, buffer = buffer, p
    return np.multiply(p, np.exp(-1j * s * m)[:, None, None], out=out)
