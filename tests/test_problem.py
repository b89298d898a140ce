import multiprocessing
import sys
import threading

import numpy as np
import pytest
from conftest import PoolSpy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ql1 import problem as problem_mod
from ql1.problem import DenseOperator, FactoredOperator, QuadraticProblem
from ql1.rng import _SPLIT, Rng


def test_apply_identity():
    op = DenseOperator(np.eye(2))
    assert np.array_equal(op.apply([3.0, -1.0]), [3.0, -1.0])


def test_apply_dense_diagonal():
    op = DenseOperator([[2.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(op.apply([1.0, 1.0]), [2.0, 4.0])


def test_apply_factored_matches_dense_expansion():
    op = FactoredOperator([[1.0, 0.0]], 0.5)
    assert np.array_equal(op.apply([1.0, 0.0]), [2.0, 0.0])


def test_factored_agrees_with_dense_expansion_randomized():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.integers(1, 30)
        n = rng.integers(1, 50)
        b_mat = rng.standard_normal((m, n))
        gamma = float(rng.uniform(0, 2))
        op = FactoredOperator(b_mat, gamma)
        dense = op.dense()
        v = rng.standard_normal(n)
        got = op.apply(v)
        want = dense @ v
        scale = max(np.abs(want).max(), 1e-30)
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_mv_count_increments_by_one_per_apply():
    op = FactoredOperator(np.ones((3, 4)), 1.0)
    assert op.mv_count == 0
    v = np.zeros(4)
    for k in range(1, 6):
        op.apply(v)
        assert op.mv_count == k


def _one_shot(b_mat, gamma, v):
    return b_mat.T @ (b_mat @ v) + (2.0 * gamma) * v


def _block_sum(b_mat, gamma, v, rows):
    """The serial blocked product: each block's term added in block order."""
    want = (2.0 * gamma) * v
    for start in range(0, b_mat.shape[0], rows):
        blk = b_mat[start:start + rows]
        want += (blk @ v) @ blk
    return want


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40), rows=st.integers(1, 42),
       gamma=st.sampled_from([0.0, 1e-3, 0.5, 7.0]), seed=st.integers(0, 2**32 - 1))
@example(m=7, n=5, rows=1, gamma=0.5, seed=0)   # one row per block
@example(m=7, n=5, rows=3, gamma=0.5, seed=0)   # a final partial block
@example(m=7, n=5, rows=7, gamma=0.5, seed=0)   # exactly one block
def test_blocked_factored_product(m, n, rows, gamma, seed):
    rng = np.random.default_rng(seed)
    b_mat = rng.standard_normal((m, n))
    v = rng.standard_normal(n)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of `rows` rows, cut when the operator is made
        mp.setattr(problem_mod, "BLOCK_BYTES", rows * 8 * n)
        op = FactoredOperator(b_mat, gamma)
    first = op.apply(v)
    assert op.mv_count == 1
    kept = first.copy()
    second = op.apply(v)
    assert op.mv_count == 2
    assert np.array_equal(first, _block_sum(b_mat, gamma, v, rows))
    want = _one_shot(b_mat, gamma, v)
    if rows >= m:
        assert np.array_equal(first, want)
    scale = (np.abs(b_mat).T @ (np.abs(b_mat) @ np.abs(v)) + 2.0 * gamma * np.abs(v)).max()
    assert np.abs(first - want).max() <= 1e-13 * scale
    # each apply returns a fresh array that the next apply leaves alone
    assert np.array_equal(first, kept) and np.array_equal(second, first)
    for other in (second, v, b_mat):
        assert not np.shares_memory(first, other)


def test_blocked_product_thresholds():
    # Every B is applied in row blocks of at most 1 MiB: 128 rows of 1024 columns.
    rng = np.random.default_rng(11)
    v = rng.standard_normal(1024)
    b_mat = rng.standard_normal((256, 1024))
    assert b_mat[:128].nbytes == problem_mod.BLOCK_BYTES
    one = np.ascontiguousarray(b_mat[:128])
    assert np.array_equal(FactoredOperator(one, 0.5).apply(v), _one_shot(one, 0.5, v))
    want = _block_sum(b_mat, 0.5, v, 128)
    assert np.array_equal(FactoredOperator(b_mat, 0.5).apply(v), want)
    # the operator stores B C-ordered, so the memory order of its input does not matter
    for other in (np.asfortranarray(b_mat), np.ascontiguousarray(b_mat[::-1])[::-1]):
        assert not other.flags.c_contiguous
        assert np.array_equal(FactoredOperator(other, 0.5).apply(v), want)
    # an empty B adds nothing to 2*gamma*v
    assert np.array_equal(FactoredOperator(np.zeros((0, 3)), 0.5).apply([1.0, 2.0, 3.0]),
                          [1.0, 2.0, 3.0])
    assert FactoredOperator(np.zeros((4, 0)), 0.5).apply(np.zeros(0)).shape == (0,)


def _block_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("ql1-blocks")}


def test_spread_returns_the_ranges_in_order_the_first_from_the_caller(monkeypatch):
    # one range per CPU while each range keeps min_part items or more
    monkeypatch.setattr(problem_mod, "_cpus", lambda: 3)
    caller = threading.get_ident()

    def fn(lo, hi):
        return lo, hi, threading.get_ident() == caller

    got = problem_mod.spread(fn, 10, 3)
    assert [(lo, hi) for lo, hi, _ in got] == [(0, 3), (3, 6), (6, 10)]
    assert [on_caller for *_, on_caller in got] == [True, False, False]
    # no more ranges than CPUs, and fewer where the items run short
    assert [r[:2] for r in problem_mod.spread(fn, 100, 1)] == [(0, 33), (33, 66), (66, 100)]
    assert [r[:2] for r in problem_mod.spread(fn, 5, 2)] == [(0, 2), (2, 5)]


@pytest.mark.parametrize("parts", [1, 0])
def test_spread_in_one_part_makes_no_pool(parts):
    # count // min_part is 1 or 0 on eight CPUs, and any count is one part on one CPU
    spy = PoolSpy()
    count = 4 * parts + 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem_mod, "_pool", spy)
        mp.setattr(problem_mod, "_cpus", lambda: 8)
        assert problem_mod.spread(lambda lo, hi: (lo, hi), count, 4) == [(0, count)]
        mp.setattr(problem_mod, "_cpus", lambda: 1)
        assert problem_mod.spread(lambda lo, hi: (lo, hi), 100, 1) == [(0, 100)]
    assert spy.submits == 0


def test_spread_raises_what_a_pool_range_raises(monkeypatch):
    monkeypatch.setattr(problem_mod, "_cpus", lambda: 2)

    def fn(lo, hi):
        if lo:
            raise RuntimeError(f"range from {lo}")
        return lo

    with pytest.raises(RuntimeError, match="range from 5"):
        problem_mod.spread(fn, 10, 2)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_chunked_product_has_the_serial_bits(cpus):
    # 1 to 17 blocks of 3 rows, with a full and a partial last block, and
    # empty B; every product equals the serial loop bit for bit, through the
    # process's pool and through a stand-in that sees one task per chunk
    # after the first, which the caller computes.
    rng = np.random.default_rng(cpus)
    rows, n = 3, 5
    shapes = [(3 * k - d, n) for k in range(1, 18) for d in (0, 1)] + [(0, n), (7, 0)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem_mod, "BLOCK_BYTES", rows * 8 * n)
        mp.setattr(problem_mod, "_cpus", lambda: cpus)
        for m, cols in shapes:
            b_mat = rng.standard_normal((m, cols))
            v = rng.standard_normal(cols)
            op = FactoredOperator(b_mat, 0.5)
            got = op.apply(v)
            assert op.mv_count == 1
            assert np.array_equal(got, _block_sum(b_mat, 0.5, v, rows)), (m, cols)
            real, spy = problem_mod._pool, PoolSpy()
            mp.setattr(problem_mod, "_pool", spy)
            assert np.array_equal(op.apply(v), got), (m, cols)
            blocks = -(-m // rows) if cols else min(m, 1)
            chunks = max(1, min(cpus, blocks // 2))
            assert spy.submits == chunks - 1, (m, cols)
            mp.setattr(problem_mod, "_pool", real)


@pytest.mark.parametrize("cpus, shape, used", [
    (1, (17 * 64, 2048), (0, 0)),   # 17 blocks, one CPU
    (8, (256, 1024), (0, 0)),       # the desk suite's 2 MiB sg operator: 2 blocks
    (8, (300, 1024), (0, 0)),       # 3 blocks
    (8, (250, 500), (0, 0)),        # the desk suite's en operator: 1 block
    (2, (4 * 64, 2048), (1, 2)),    # 4 blocks on two CPUs: one thread, one task a product
])
def test_no_thread_where_none_helps(cpus, shape, used):
    # two operators apply once each, through a new pool of cpus - 1 workers;
    # `used` is (threads started, tasks submitted)
    rng = np.random.default_rng(0)
    b_mat = rng.standard_normal(shape)
    v = rng.standard_normal(shape[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem_mod, "_cpus", lambda: cpus)
        before = _block_threads()
        spy = PoolSpy(problem_mod._new_pool())
        mp.setattr(problem_mod, "_pool", spy)
        try:
            got = FactoredOperator(b_mat, 0.5).apply(v)
            FactoredOperator(b_mat, 0.5).apply(v)
            assert (len(_block_threads() - before), spy.submits) == used
        finally:
            spy.pool.shutdown()
    rows = problem_mod.BLOCK_BYTES // (8 * shape[1])
    assert np.array_equal(got, _block_sum(b_mat, 0.5, v, rows))


def test_threads_may_share_an_operator():
    # Two callers at once, each with its own products, on a pool that has
    # fewer threads than the chunks it is given; a shortened switch interval
    # makes the threads interleave often.
    rng = np.random.default_rng(2)
    rows, n, rounds = 4, 6, 30
    b_mat = rng.standard_normal((16 * rows - 1, n))
    vs = [rng.standard_normal(n) for _ in range(rounds)]
    want = [_block_sum(b_mat, 0.5, v, rows) for v in vs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem_mod, "BLOCK_BYTES", rows * 8 * n)
        op = FactoredOperator(b_mat, 0.5)
    got = [[], []]
    start = threading.Barrier(2)

    def caller(i):
        start.wait(timeout=30)
        got[i] = [op.apply(v).tobytes() for v in vs]

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem_mod, "_cpus", lambda: 3)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got[0] == got[1] == [w.tobytes() for w in want]
    assert op.mv_count == 2 * rounds


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.parametrize("work", ["product", "normals"])
def test_a_forked_child_makes_its_own_pool(work):
    # The parent's pool threads do not exist in a forked child; a child that
    # reused the pool would wait forever on its first chunked product or
    # split normals draw.
    rng = np.random.default_rng(4)
    b_mat = rng.standard_normal((8 * 64, 2048))
    v = rng.standard_normal(2048)
    op = FactoredOperator(b_mat, 0.5)
    run = {"product": lambda: op.apply(v), "normals": lambda: Rng(4).normals(_SPLIT)}[work]
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem_mod, "_cpus", lambda: 2)
        want = run()
        assert _block_threads()  # the parent's pool has a thread, which the child lacks
        child = ctx.Process(target=lambda: send.send_bytes(run().tobytes()))
        child.start()
        try:
            arrived = recv.poll(timeout=60)
            got = recv.recv_bytes() if arrived else None
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.terminate()
                child.join(timeout=10)
    assert arrived, f"the forked child's {work} did not finish"
    assert got == want.tobytes()
    assert child.exitcode == 0


def test_apply_dimension_mismatch():
    op = DenseOperator(np.eye(3))
    with pytest.raises(ValueError):
        op.apply(np.zeros(4))


def test_dense_requires_symmetry():
    with pytest.raises(ValueError):
        DenseOperator([[1.0, 2.0], [0.0, 1.0]])


def test_dense_requires_square():
    with pytest.raises(ValueError):
        DenseOperator(np.ones((2, 3)))


def test_factored_rejects_negative_gamma():
    with pytest.raises(ValueError):
        FactoredOperator(np.ones((2, 2)), -0.1)


def test_objective_zero_vector_is_zero():
    p = QuadraticProblem(DenseOperator(np.eye(4)), np.arange(4.0), 2.0)
    assert p.objective(np.zeros(4)) == 0.0


def test_objective_hand_values():
    # A=I2, b=0, tau=1, x=(1,-1): 1/2*2 + 0 + 2 = 3
    p = QuadraticProblem(DenseOperator(np.eye(2)), np.zeros(2), 1.0)
    assert p.objective([1.0, -1.0]) == pytest.approx(3.0, abs=0)
    # A=[2], b=(2), tau=0, x=(1): 1 - 2 = -1
    p = QuadraticProblem(DenseOperator([[2.0]]), [2.0], 0.0)
    assert p.objective([1.0]) == pytest.approx(-1.0, abs=0)


def test_objective_mv_accounting_with_and_without_cache():
    p = QuadraticProblem(DenseOperator(np.eye(3)), np.ones(3), 0.5)
    x = np.array([1.0, 2.0, 3.0])
    before = p.op.mv_count
    p.objective(x)
    assert p.op.mv_count == before + 1
    ax = p.op.apply(x)
    before = p.op.mv_count
    p.objective(x, ax=ax)
    assert p.op.mv_count == before


def test_quadratic_exactness_identity():
    # F(x) - F(y) - g(y)'(x-y) - 1/2 (x-y)'A(x-y) - tau(|x|_1 - |y|_1) = 0
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(1, 40)
        raw = rng.standard_normal((n, n))
        a = raw @ raw.T
        p = QuadraticProblem(DenseOperator(a), rng.standard_normal(n), float(rng.uniform(0, 3)))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        lhs = (
            p.objective(x)
            - p.objective(y)
            - (p.op.apply(y) - p.b) @ (x - y)
            - 0.5 * (x - y) @ (a @ (x - y))
            - p.tau * (np.abs(x).sum() - np.abs(y).sum())
        )
        scale = max(abs(p.objective(x)), abs(p.objective(y)), 1.0)
        assert abs(lhs) <= 1e-10 * scale


def test_operator_probe_invariants():
    # symmetry and positive semidefiniteness under random probes
    rng = np.random.default_rng(5)
    ops = []
    raw = rng.standard_normal((20, 20))
    ops.append(DenseOperator(raw @ raw.T))
    ops.append(FactoredOperator(rng.standard_normal((8, 20)), 0.3))
    for op in ops:
        a_est = max(np.abs(op.dense()).max(), 1e-30)
        for _ in range(20):
            u = rng.standard_normal(op.n)
            v = rng.standard_normal(op.n)
            au = op.apply(u)
            av = op.apply(v)
            assert abs(u @ av - v @ au) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v) * a_est
            assert v @ av >= -1e-10 * a_est * (v @ v)


def test_tau_must_be_nonnegative():
    with pytest.raises(ValueError):
        QuadraticProblem(DenseOperator(np.eye(2)), np.zeros(2), -1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: QuadraticProblem(DenseOperator(np.eye(2)), [1.0, np.nan], 1.0),
        lambda: QuadraticProblem(DenseOperator(np.eye(2)), [1.0, np.inf], 1.0),
        lambda: QuadraticProblem(DenseOperator(np.eye(2)), np.zeros(2), np.nan),
        lambda: QuadraticProblem(DenseOperator(np.eye(2)), np.zeros(2), np.inf),
        lambda: DenseOperator([[1.0, np.nan], [np.nan, 1.0]]),
        lambda: DenseOperator([[np.inf, 0.0], [0.0, 1.0]]),
        lambda: FactoredOperator([[1.0, np.inf]], 0.5),
        lambda: FactoredOperator([[1.0, 2.0]], np.nan),
        lambda: FactoredOperator([[1.0, 2.0]], np.inf),
    ],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_b_dimension_checked():
    with pytest.raises(ValueError):
        QuadraticProblem(DenseOperator(np.eye(2)), np.zeros(3), 1.0)
