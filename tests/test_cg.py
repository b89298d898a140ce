import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ql1.cg import (
    CGState,
    CurvatureBreak,
    cg_step,
    cutback,
    cutback_alpha,
    init_cg_cycle,
    orthant_model_value,
    sufficient_decrease,
)
from ql1.problem import DenseOperator, QuadraticProblem


def test_init_empty_support():
    s = init_cg_cycle(np.zeros(3), np.array([1.0, -2.0, 0.5]), 1.0)
    assert np.array_equal(s.rho, np.zeros(3))
    assert np.array_equal(s.d, np.zeros(3))


def test_init_hand_values():
    s = init_cg_cycle(np.array([1.0, 0.0]), np.array([2.0, 9.0]), 0.5)
    assert np.array_equal(s.r, [2.5, 9.0])
    assert np.array_equal(s.rho, [2.5, 0.0])
    assert np.array_equal(s.d, [-2.5, 0.0])
    s = init_cg_cycle(np.array([-1.0, 1.0]), np.zeros(2), 1.0)
    assert np.array_equal(s.r, [-1.0, 1.0])
    assert np.array_equal(s.rho, s.r)
    assert np.array_equal(s.d, [1.0, -1.0])


def test_cg_step_identity_hessian_one_shot():
    # with A = I and full support the first step lands on the subspace minimizer
    rng = np.random.default_rng(0)
    n = 6
    op = DenseOperator(np.eye(n))
    b = rng.standard_normal(n)
    x = np.sign(rng.standard_normal(n)) * rng.uniform(1, 2, n)
    g = op.a @ x - b
    s = init_cg_cycle(x, g, 0.3)
    s1, _ = cg_step(s, op)
    assert np.abs(s1.x - (x - s.rho)).max() <= 1e-14 * np.abs(x).max()
    assert np.abs(s1.rho).max() <= 1e-12


def test_cg_step_1d_crossing():
    op = DenseOperator([[2.0]])
    x = np.array([1.0])
    g = np.array([2.0])  # A x - b with b = 0
    s = init_cg_cycle(x, g, 0.0)
    assert np.array_equal(s.d, [-2.0])
    s1, crossed = cg_step(s, op)
    # alpha = r'rho / d'Ad = 4/8 = 0.5, landing exactly at 0
    assert s1.last_alpha == 0.5
    assert np.array_equal(s1.x, [0.0])
    assert crossed


def test_cg_detects_stationary_start():
    op = DenseOperator(np.diag([2.0, 4.0]))
    x = np.array([1.0, 1.0])
    b = np.array([2.0, 4.0])
    s = init_cg_cycle(x, op.a @ x - b, 0.0)
    assert np.linalg.norm(s.rho) == 0.0


def test_curvature_break_on_singular_direction():
    op = DenseOperator(np.diag([1.0, 0.0]))
    x = np.array([0.0, 1.0])
    g = op.a @ x - np.array([0.0, 1.0])
    s = init_cg_cycle(x, g, 0.0)
    with pytest.raises(CurvatureBreak):
        cg_step(s, op, curv_tol=1e-14)


def _run_cycle(op, b, tau, x0, max_steps=200):
    g = op.a @ x0 - b
    s = init_cg_cycle(x0, g, tau)
    states = [s]
    while np.linalg.norm(s.rho) > 1e-10 and len(states) <= max_steps:
        s, _ = cg_step(s, op)
        states.append(s)
    return states


def test_cycle_conjugacy_descent_and_finite_termination():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        raw = rng.standard_normal((n, n))
        a = raw @ raw.T + n * np.eye(n)  # well conditioned
        op = DenseOperator(a)
        b = rng.standard_normal(n)
        x0 = np.sign(rng.standard_normal(n)) * rng.uniform(0.5, 2.0, n)
        x0[rng.random(n) < 0.3] = 0.0
        support = int(np.count_nonzero(x0))
        tau = 0.4
        states = _run_cycle(op, b, tau, x0)
        # finite termination within support + 2 steps
        assert len(states) - 1 <= support + 2
        # model value decreases strictly while stepping
        q_vals = [
            orthant_model_value(s.x, s.anchor, a @ s.x, b, tau) for s in states
        ]
        for q_prev, q_next in zip(q_vals, q_vals[1:]):
            assert q_next < q_prev + 1e-12
        # pairwise conjugacy of the directions used; directions whose
        # norm has collapsed to termination noise carry no signal and
        # are excluded from the relative comparison
        dirs = [s.d for s in states[:-1] if np.linalg.norm(s.d) > 0]
        if dirs:
            cutoff = 1e-4 * max(np.linalg.norm(d) for d in dirs)
            dirs = [d for d in dirs if np.linalg.norm(d) >= cutoff]
        scale = np.abs(a).max()
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                dad = dirs[i] @ (a @ dirs[j])
                norm = np.linalg.norm(dirs[i]) * np.linalg.norm(dirs[j]) * scale
                assert abs(dad) <= 1e-8 * norm


def test_residual_recurrence_consistency():
    rng = np.random.default_rng(2)
    n = 20
    raw = rng.standard_normal((n, n))
    a = raw @ raw.T + np.eye(n)
    op = DenseOperator(a)
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    x0[rng.random(n) < 0.3] = 0.0
    tau = 0.7
    for s in _run_cycle(op, b, tau, x0):
        explicit = a @ s.x - b + tau * s.anchor_sign
        bound = 1e-8 * np.abs(a).max() * max(np.linalg.norm(s.x), 1.0)
        assert np.abs(s.r - explicit).max() <= bound
        # the anchor's zero coordinates stay exactly zero all cycle
        assert np.all(s.x[s.anchor == 0.0] == 0.0)
        assert np.all(s.rho[s.anchor == 0.0] == 0.0)
        assert np.all(s.d[s.anchor == 0.0] == 0.0)


def test_objective_from_state_matches_direct_evaluation():
    rng = np.random.default_rng(3)
    n = 15
    raw = rng.standard_normal((n, n))
    a = raw @ raw.T + np.eye(n)
    op = DenseOperator(a)
    b = rng.standard_normal(n)
    p = QuadraticProblem(op, b, 0.5)
    x0 = rng.standard_normal(n)
    for s in _run_cycle(op, b, p.tau, x0):
        direct = p.objective(s.x, ax=a @ s.x)
        assert abs(s.objective(b, p.tau) - direct) <= 1e-8 * max(1.0, abs(direct))


def _cut(x_k, anchor, d, ad):
    """Cutback of the step along d from x_k, in a cycle anchored at anchor, residual 0."""
    x_k, anchor, d, ad = (np.asarray(v, dtype=np.float64) for v in (x_k, anchor, d, ad))
    r = np.zeros_like(x_k)
    s = CGState(
        x=x_k, r=r, rho=r, d=d, anchor=anchor, anchor_sign=np.sign(anchor),
        free=anchor != 0.0, shift=np.zeros_like(x_k), rho_dot=0.0,
    )
    return cutback(s, ad, cutback_alpha(x_k, anchor, d))


def test_cutback_hand_example():
    # grid-scan oracle confirmed: the largest sign-preserving step is 0.5
    x_cg = np.array([1.0, 1.0])
    x_k = np.array([1.0, 2.0])
    d = np.array([-2.0, 1.0])
    alpha_b, snap, moved = cutback_alpha(x_k, x_cg, d)
    assert moved
    assert alpha_b == 0.5
    out = _cut(x_k, x_cg, d, ad=[4.0, -2.0])
    assert np.array_equal(out.x, [0.0, 2.5])
    assert out.x[0] == 0.0  # snapped exactly
    assert np.array_equal(out.r, [2.0, -1.0])  # r + alpha_b * Ad
    assert out.last_alpha == 0.5
    assert np.array_equal(out.anchor, x_cg)


def test_cutback_matches_scan_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        x_cg = np.sign(rng.standard_normal(n)) * rng.uniform(0.5, 2, n)
        x_k = x_cg * rng.uniform(0.5, 1.5, n)  # same orthant
        d = rng.standard_normal(n)
        alpha_b, snap, moved = cutback_alpha(x_k, x_cg, d)
        assert moved
        boundary_bound = (x_cg != 0) & (np.sign(d) == -np.sign(x_cg)) & (x_k * d < 0)
        if not np.any(boundary_bound):
            assert alpha_b == 1.0  # defensive full step, no boundary ahead
            continue
        # scan: largest alpha on a fine grid keeping the closed orthant
        grid = np.linspace(0, max(alpha_b * 2, 1.0), 40001)
        pts = x_k[None, :] + grid[:, None] * d[None, :]
        keeps = np.all(np.sign(pts) * np.sign(x_cg)[None, :] >= 0, axis=1)
        sup = grid[keeps].max()
        res = grid[1] - grid[0]
        assert abs(alpha_b - sup) <= res + 1e-12


def test_cutback_off_orthant_returns_unchanged():
    x_cg = np.array([1.0, 1.0])
    x_k = np.array([1.0, -2.0])
    out = _cut(x_k, x_cg, np.array([5.0, 5.0]), ad=[3.0, 3.0])
    assert np.array_equal(out.x, x_k)
    assert np.array_equal(out.r, [0.0, 0.0])  # alpha_b = 0: residual kept


def test_cutback_zero_direction_no_move():
    x_cg = np.array([1.0, -1.0])
    x_k = np.array([2.0, -0.5])
    assert np.array_equal(_cut(x_k, x_cg, np.zeros(2), ad=np.zeros(2)).x, x_k)


def test_cutback_defensive_full_step():
    # no coordinate moves toward the boundary: take the whole direction
    x_cg = np.array([1.0])
    x_k = np.array([1.0])
    d = np.array([2.0])
    out = _cut(x_k, x_cg, d, ad=[6.0])
    assert np.array_equal(out.x, [3.0])
    assert np.array_equal(out.r, [6.0])


_entries = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def _spd_cycle(draw):
    n = draw(st.integers(1, 6))
    raw = draw(hnp.arrays(np.float64, (n, n), elements=_entries))
    a = raw @ raw.T
    a = 0.5 * (a + a.T) + 0.1 * np.eye(n)
    b = draw(hnp.arrays(np.float64, n, elements=_entries))
    anchor = draw(hnp.arrays(np.float64, n, elements=_entries))
    tau = draw(st.floats(0.0, 1.0))
    return a, b, anchor, tau


@settings(max_examples=100, deadline=None)
@given(_spd_cycle())
def test_cutback_property_on_cycles(cycle):
    # cut back every step of a CG cycle taken from an iterate on the
    # anchor's orthant, as the solver does after a rejected crossing step
    a, b, anchor, tau = cycle
    op = DenseOperator(a)
    p = QuadraticProblem(op, b, tau)
    s = init_cg_cycle(anchor, a @ anchor - b, tau)
    for _ in range(anchor.size + 2):
        if not np.array_equal(np.sign(s.x), s.anchor_sign) or np.linalg.norm(s.rho) == 0.0:
            break
        try:
            s_new, _ = cg_step(s, op)
        except CurvatureBreak:
            break
        c = cutback(s, s_new.last_ad, cutback_alpha(s.x, s.anchor, s.d))
        # the point lies on the anchor's closed orthant
        assert np.all(np.sign(c.x) * s.anchor_sign >= 0.0)
        assert np.all(c.x[s.anchor == 0.0] == 0.0)
        # the residual is A x - b + tau*sign(anchor)
        direct_r = a @ c.x - b + tau * s.anchor_sign
        scale = 1.0 + np.abs(a).sum(axis=1).max() * max(np.abs(c.x).max(), np.abs(s.x).max())
        scale += np.abs(b).max() + tau
        assert np.abs(c.r - direct_r).max() <= 1e-10 * scale
        # the objective read from the state is F
        f = p.objective(c.x)
        assert abs(c.objective(b, tau) - f) <= 1e-10 * scale * (1.0 + np.abs(c.x).sum())
        s = s_new


def test_orthant_model_hand_values():
    assert orthant_model_value(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2), 1.0) == 0.0
    # off-orthant: q = -1 while F = +1
    q = orthant_model_value(np.array([-1.0]), np.array([1.0]), np.array([0.0]), np.array([0.0]), 1.0)
    assert q == -1.0


def test_orthant_model_equals_objective_in_orthant():
    rng = np.random.default_rng(5)
    n = 10
    raw = rng.standard_normal((n, n))
    a = raw @ raw.T
    p = QuadraticProblem(DenseOperator(a), rng.standard_normal(n), 0.8)
    anchor = np.sign(rng.standard_normal(n)) * rng.uniform(0.5, 1, n)
    anchor[rng.random(n) < 0.3] = 0.0
    for _ in range(20):
        x = anchor * rng.uniform(0.1, 3.0, n)  # stays in the anchor's orthant
        f = p.objective(x, ax=a @ x)
        q = orthant_model_value(x, anchor, a @ x, p.b, p.tau)
        assert abs(q - f) <= 1e-12 * max(1.0, abs(f))


def test_sufficient_decrease_cases():
    v = np.array([2.0, 0.0])  # ||v||^2 = 4
    assert sufficient_decrease(9.0, 10.0, v, 0.0)
    assert sufficient_decrease(10.0, 10.0, v, 0.0)
    assert not sufficient_decrease(10.1, 10.0, v, 0.0)
    assert sufficient_decrease(9.9996, 10.0, v, 1e-4)  # boundary
    assert not sufficient_decrease(7.0, 10.0, v, 1.0)  # needs <= 6
