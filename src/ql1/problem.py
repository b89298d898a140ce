"""Problem instances and the matrix-free operator with work accounting.

The operator abstraction hides how A is stored (dense symmetric matrix,
or the factored form B'B + 2*gamma*I) behind a single ``apply`` that
increments a matrix-vector-product counter by exactly one per call.
That counter is the canonical work metric for every solver and
benchmark in this package.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# A factored B is applied in row blocks of at most BLOCK_BYTES, so that each
# block is read from memory once per product: the block's B_blk @ v, then
# y_blk @ B_blk while the block is still in cache.
BLOCK_BYTES = 1024 * 1024


@functools.cache
def _cpus() -> int:
    """The number of CPUs this process may run on, read once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_pool() -> ThreadPoolExecutor:
    # The threads that run the ranges of ``spread`` after the first, for every
    # caller in the process; the calling thread runs the first. An executor
    # starts a thread only when it is given a task, so a process whose jobs
    # all stay in one range starts none.
    return ThreadPoolExecutor(max_workers=max(1, _cpus() - 1), thread_name_prefix="ql1-blocks")


_pool = _new_pool()


def _renew_pool() -> None:
    # A forked child has none of the parent's threads, so a pool it inherited
    # would queue work that nothing runs; the child makes its own.
    global _pool
    _pool = _new_pool()


if hasattr(os, "register_at_fork"):  # no fork on Windows
    os.register_at_fork(after_in_child=_renew_pool)


def spread(fn, count: int, min_part: int) -> list:
    """[fn(lo, hi) for each of min(_cpus(), count // min_part) contiguous ranges of range(count)].

    At least one range; each caller names only ``min_part``, the fewest
    items worth a thread. The calling thread runs the first range and the
    shared pool the rest; the results come back in range order, and an
    exception raised in any range reaches the caller. One range starts no thread.
    """
    parts = min(_cpus(), count // min_part)
    if parts <= 1:
        return [fn(0, count)]
    cuts = [p * count // parts for p in range(parts + 1)]
    rest = [_pool.submit(fn, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    return [fn(0, cuts[1])] + [future.result() for future in rest]


def _as_vector(v, n: int, name: str = "v") -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != n:
        raise ValueError(f"{name} must be a vector of length {n}, got shape {v.shape}")
    return v


def _all_finite(a: np.ndarray) -> bool:
    # min and max propagate NaN and expose inf without the temporary the size
    # of a that np.isfinite(a).all() makes, which raised peak memory.
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def objective_from_ax(x: np.ndarray, ax: np.ndarray, b: np.ndarray, tau: float) -> float:
    """F(x) = 1/2 x'(Ax) - b'x + tau*||x||_1 with A x supplied."""
    return 0.5 * float(x @ ax) - float(b @ x) + tau * float(np.abs(x).sum())


class CountingOperator:
    """Matrix-free application of a symmetric PSD operator A.

    Subclasses implement ``_matvec``; ``apply`` wraps it and advances
    ``mv_count`` by exactly 1 per call regardless of how the product is
    realized internally. The counter is never decremented; callers that
    need per-solve work take deltas of ``mv_count``.
    """

    kind: str = ""

    def __init__(self, n: int):
        self.n = int(n)
        self.mv_count = 0

    def apply(self, v) -> np.ndarray:
        v = _as_vector(v, self.n)
        self.mv_count += 1
        return self._matvec(v)

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """Materialize A as a dense array (test/oracle use; not counted)."""
        raise NotImplementedError


class DenseOperator(CountingOperator):
    """A stored as a full symmetric n-by-n matrix."""

    kind = "dense"

    def __init__(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"dense operator needs a square matrix, got shape {a.shape}")
        if not _all_finite(a):
            raise ValueError("dense operator matrix has non-finite entries")
        super().__init__(a.shape[0])
        self.a = a
        self._check_symmetry()

    def _check_symmetry(self) -> None:
        # Symmetry is asserted by probe at construction, not enforced
        # structurally: |u'(Av) - v'(Au)| <= 1e-10 ||u|| ||v|| ||A||_est.
        if self.n == 0:
            return
        rng = np.random.default_rng(0)
        scale = max(float(np.abs(self.a).max()), 1e-300)
        for _ in range(3):
            u = rng.standard_normal(self.n)
            v = rng.standard_normal(self.n)
            gap = abs(u @ (self.a @ v) - v @ (self.a @ u))
            if gap > 1e-10 * np.linalg.norm(u) * np.linalg.norm(v) * scale * self.n:
                raise ValueError("dense operator matrix is not symmetric")

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        return self.a @ v

    def dense(self) -> np.ndarray:
        return self.a.copy()


class FactoredOperator(CountingOperator):
    """A represented implicitly as B'B + 2*gamma*I for an m-by-n B.

    One ``apply`` performs two rectangular products per row block of B
    but still counts as a single matrix-vector product: the work metric
    counts applications of A, not BLAS calls.

    B is cut into its row blocks once, at construction, with the
    ``BLOCK_BYTES`` in force at that time. :func:`spread` cuts the blocks
    into contiguous chunks of two blocks or more, and the block terms are
    added to the result in block order, so the product has the same bits
    as the serial loop.
    """

    kind = "factored"

    def __init__(self, b_mat, gamma: float):
        b_mat = np.asarray(b_mat, dtype=np.float64)
        if b_mat.ndim != 2:
            raise ValueError(f"factored operator needs a 2-D matrix, got shape {b_mat.shape}")
        if not _all_finite(b_mat):
            raise ValueError("factored operator matrix B has non-finite entries")
        gamma = float(gamma)
        if not np.isfinite(gamma) or gamma < 0:
            raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
        super().__init__(b_mat.shape[1])
        self.b_mat = np.ascontiguousarray(b_mat)
        self.gamma = gamma
        rows = max(1, BLOCK_BYTES // max(1, self.b_mat.itemsize * self.n))
        self._blocks = [self.b_mat[s:s + rows] for s in range(0, self.m, rows)]

    @property
    def m(self) -> int:
        return self.b_mat.shape[0]

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        blocks = self._blocks
        out = (2.0 * self.gamma) * v
        # (B_blk v)' B_blk per block. ``np.dot``, unlike ``@``, releases the
        # GIL on blocks of this size, so that pool threads overlap; the two
        # give the same bits. At least two blocks per chunk: 2 or 3 blocks
        # split in two ran slower than one thread.
        chunks = spread(lambda lo, hi: [np.dot(np.dot(blk, v), blk) for blk in blocks[lo:hi]],
                        len(blocks), 2)
        for terms in chunks:
            for term in terms:
                out += term
        return out

    def dense(self) -> np.ndarray:
        return self.b_mat.T @ self.b_mat + 2.0 * self.gamma * np.eye(self.n)


class QuadraticProblem:
    """Instance data for min_x 1/2 x'Ax - b'x + tau*||x||_1.

    Immutable after construction; safe to share across solves. Work
    accounting flows through ``op.mv_count``.
    """

    def __init__(self, op: CountingOperator, b, tau: float):
        self.op = op
        self.n = op.n
        self.b = _as_vector(b, self.n, "b")
        if not _all_finite(self.b):
            raise ValueError("b has non-finite entries")
        self.tau = float(tau)
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")

    def objective(self, x, ax: np.ndarray | None = None) -> float:
        """F(x). Consumes one matrix-vector product unless ``ax`` (= A x) is supplied."""
        x = _as_vector(x, self.n, "x")
        if ax is None:
            ax = self.op.apply(x)
        return objective_from_ax(x, ax, self.b, self.tau)
