import numpy as np
import pytest

from ql1.problem import DenseOperator, FactoredOperator, QuadraticProblem


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
    p.gradient(x, ax=ax)
    assert p.op.mv_count == before


def test_gradient_hand_values():
    p = QuadraticProblem(DenseOperator(np.eye(2)), np.array([1.0, 1.0]), 0.0)
    assert np.array_equal(p.gradient(np.zeros(2)), [-1.0, -1.0])
    assert np.array_equal(p.gradient([1.0, 1.0]), [0.0, 0.0])
    p = QuadraticProblem(DenseOperator([[2.0, 0.0], [0.0, 4.0]]), np.array([1.0, 0.0]), 0.0)
    assert np.array_equal(p.gradient([1.0, 1.0]), [1.0, 4.0])


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
            - p.gradient(y) @ (x - y)
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
