"""Dense complex linear-algebra kernels for small Hermitian stacks (N <= 16).

The step kernel, dagger_matmul, eigh_batch and the stack checks stream a
(K, N, N) stack through consecutive blocks of BLOCK_BYTES or less, so a block's
working set stays in cache and no kernel holds a stack beside its input and
output, only a few blocks. Every matrix gets the same arithmetic in the same
order whatever the blocks, so no result depends on the block size, bit for bit:
eigh_batch's are np.linalg.eigh's.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Iterable, Sequence

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
    scale, defect = _max_over_blocks(hams, lambda h: (max_abs(h), max_abs(h - dagger(h))))
    if not np.isfinite(scale) or defect > HERMITICITY_RTOL * scale:
        raise NotHermitianError(
            f"non-finite or non-Hermitian samples: defect {defect:.3e} vs scale {scale:.3e}"
        )


def unitarity_defect(stack: np.ndarray, work: Sequence[np.ndarray] | None = None) -> float:
    """max|X^dagger X - I| over a (K, N, N) stack, NaN if any X is not finite, through work:
    two buffers at least as long as the stack, or new ones if None."""
    if work is None:
        gram = matmul(dagger(stack), stack)
    else:
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
    """require_drift on max|X^dagger X - I| over a stack of K + 1 matrices, which span K steps."""
    require_drift(float(_max_over_blocks(stack, unitarity_defect)), len(stack) - 1, what)


def _taylor_degree(x: float) -> int:
    """Smallest d >= 1 with x^(d+1) / (d+1)! <= 2^-53: the truncation bound at 1-norm x."""
    d, term = 1, x * x / 2
    while term > 2.0**-53:
        d += 1
        term *= x / (d + 1)
    return d


class StepPlan:
    """exp(-i s (H + H^dagger)/2) for the K steps of a (K, N, N) stack H met block by block.

    A block's steps take two calls: form writes its generator, exp turns that into
    the steps in place. At N = 2 the generator is H itself and exp a closed form.
    Every other N takes a Taylor series: H = m I + H0 with m = tr(H)/N, so
    exp(-i s H) = e^{-i s m} exp(A), the generator A = -i s H0. Only the Hermitian
    part is exponentiated, the matrix the sampling check accepted, so a residue
    within HERMITICITY_RTOL cannot grow with |s|. A is halved q times, the fewest
    with x / 2^q <= TAYLOR_MAX_NORM, x = |s| max ||H0||_1 over the stack, and summed
    by Horner's rule at one degree d = _taylor_degree(x / 2^q). Building the plan is
    a first pass over the blocks that fixes m, q and d for the stack, so each step
    gets the same arithmetic in the same order whatever the blocks, bit for bit.
    """

    def __init__(
        self,
        s: float,
        diagonal: np.ndarray,
        blocks: Iterable[tuple[slice, np.ndarray, np.ndarray]],
    ) -> None:
        """diagonal is Re H_ii of the whole stack, (K, N); blocks yields (b, H[b], out).

        Before any arithmetic on a block, AdiabaticaError is raised unless |s| N ||H||_max,
        a bound on every phase s w, is finite, and off N = 2 also 2 max(|s|, 1) N ||H||_max,
        as entries of H - tr(H)/N reach 2 ||H||_max; so a non-finite block fails too.
        Then its generator is formed into out (form).
        """
        self.s, n = float(s), diagonal.shape[-1]
        self.m = self.phase = None
        if n != 2:
            # m from the whole gathered diagonal, 2 Re H_ii exactly: numpy sums a (K, N)
            # array in an order that differs between K = 1 and K > 1, so per block a
            # one-matrix tail would change bits. Divided first: no overflow near the float
            # range; an overflow here comes with a non-finite guard bound, which raises.
            with np.errstate(over="ignore", invalid="ignore"):
                self.m = (2 * diagonal / (2 * n)).sum(axis=1)
        x, s_abs = 0.0, abs(self.s)
        for b, h, out in blocks:
            scale = max_abs(h)
            bound = s_abs * n * scale if n == 2 else 2 * max(s_abs, 1.0) * n * scale
            if not math.isfinite(bound):
                raise AdiabaticaError(
                    "step phase overflows: the bound on |s| N ||H||_max is not finite"
                )
            a = self.form(h, b, out)
            if n != 2:
                x = max(x, float(np.abs(a).sum(axis=1).max(initial=0.0)))
        self.q = 0
        while x > TAYLOR_MAX_NORM:
            x, self.q = x / 2, self.q + 1
        self.d = _taylor_degree(x)
        if n != 2:
            self.phase = np.exp(-1j * self.s * self.m)

    def form(self, hams: np.ndarray, b: slice, out: np.ndarray) -> np.ndarray:
        """The generator of steps b from their H into out, which must not overlap hams."""
        if self.m is None:
            np.copyto(out, hams)
            return out
        # 2 (H + H^dagger)/2, which the overflow guard bounds
        np.add(hams, np.conjugate(hams.swapaxes(-1, -2), out=out), out=out)
        _diagonal(out)[...] -= 2 * self.m[b, None]
        out *= -0.5j * self.s  # halving is exact: the bits of a Hermitian H are kept
        return out

    def exp(self, blk: np.ndarray, b: slice, work: Sequence[np.ndarray]) -> np.ndarray:
        """The steps b in place of their generator in blk; returns blk.

        At N = 2 the Hermitian part is m I + r . sigma, read from the real diagonal and
        the mean of H_10 and conj(H_01), and the step
        e^{-i s m} [cos(s |r|) I - i sin(s |r|) r/|r| . sigma]. Every other N runs
        Horner's rule P <- A P + I/j!, then q squarings P <- P P (each doubles the
        rounding), through matmul between the two buffers of work, each at least as
        long as blk.
        """
        s = self.s
        if self.m is None:
            h00, h11 = blk[:, 0, 0].real, blk[:, 1, 1].real
            h10 = 0.5 * blk[:, 1, 0] + 0.5 * blk[:, 0, 1].conj()  # the Hermitian part's H_10
            m, z = 0.5 * h00 + 0.5 * h11, 0.5 * h00 - 0.5 * h11  # halved first: no overflow
            r = np.hypot(z, np.abs(h10))
            # sin(s r) / r, which tends to s at r = 0 (H proportional to I)
            sinc = np.divide(np.sin(s * r), r, out=np.full_like(r, s), where=r > 0)
            phase = np.exp(-1j * s * m)
            del m  # each K-length temporary goes after its last use
            cos = phase * np.cos(s * r)
            del r
            off = -1j * phase * sinc
            del phase, sinc
            blk[:, 0, 0] = cos + off * z
            blk[:, 1, 1] = cos - off * z
            del cos, z
            blk[:, 1, 0] = off * h10
            blk[:, 0, 1] = off * h10.conj()
            return blk
        p, buffer = (w[: len(blk)] for w in work)
        q, d = self.q, self.d
        if q:
            blk *= 2.0**-q
        # P = A / d! + I / (d-1)!, then d - 1 Horner products
        np.multiply(blk, 1.0 / math.factorial(d), out=p)
        _diagonal(p)[...] += 1.0 / math.factorial(d - 1)
        for j in range(d - 2, -1, -1):
            matmul(blk, p, out=buffer)
            _diagonal(buffer)[...] += 1.0 / math.factorial(j)
            p, buffer = buffer, p
        for _ in range(q):
            matmul(p, p, out=buffer)
            p, buffer = buffer, p
        return np.multiply(p, self.phase[b, None, None], out=blk)
