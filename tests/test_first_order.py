import numpy as np
import pytest
from conftest import diag_l1_solution

from ql1.cg import CurvatureBreak
from ql1.first_order import (
    LS_MAX_HALVINGS,
    LS_WINDOW,
    LS_XI,
    bb_ls_step,
    bb_stepsize,
    ista_step,
    ls_window,
    subspace_ista_step,
)
from ql1.problem import DenseOperator, QuadraticProblem
from ql1.subgrad import gradient_balance, release_grad, split_subgradient, support_grad_map


def test_ista_step_hand_values():
    got = ista_step(np.array([0.0, 1.0]), np.array([5.0, 0.0]), 2.0, 1.0)
    assert np.array_equal(got, [-3.0, 0.0])


def test_ista_step_rejects_mismatched_shapes_and_a_nonpositive_alpha():
    with pytest.raises(ValueError, match="shape mismatch"):
        ista_step(np.zeros(3), np.zeros(2), 1.0, 1.0)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha must be positive"):
            ista_step(np.zeros(3), np.zeros(3), 1.0, alpha)


def test_ista_step_identity_when_no_gradient_no_penalty():
    x = np.array([0.3, -2.0, 1.5])
    for alpha in (0.1, 1.0, 7.0):
        assert np.array_equal(ista_step(x, np.zeros(3), 0.0, alpha), x)


def test_ista_step_zero_is_fixed_point():
    g = np.array([0.5, -1.0, 0.9])
    for alpha in (0.2, 1.0, 4.0):
        assert np.array_equal(ista_step(np.zeros(3), g, 1.0, alpha), np.zeros(3))


def test_ista_step_equals_parts_formulation():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = rng.integers(1, 15)
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.4] = 0.0
        g = rng.standard_normal(n) * 2.0
        tau = float(rng.uniform(0, 2))
        alpha = float(rng.uniform(0.05, 3))
        direct = ista_step(x, g, tau, alpha)
        split = split_subgradient(x, g, tau, alpha)
        parts = x - alpha * split.release - alpha * split.support_map
        assert np.abs(direct - parts).max() <= 1e-14 * max(1.0, np.abs(direct).max())


def test_subspace_step_hand_values():
    got = subspace_ista_step(np.array([0.0, 1.0]), np.array([5.0, 0.0]), 0.5, 1.0)
    assert np.array_equal(got, [0.0, 0.5])
    assert np.array_equal(subspace_ista_step(np.zeros(3), np.ones(3) * 9, 0.1, 1.0), np.zeros(3))
    assert np.array_equal(subspace_ista_step(np.array([2.0]), np.array([1.0]), 0.5, 1.0), [0.5])


def test_subspace_step_preserves_zero_pattern():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = rng.integers(1, 20)
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.5] = 0.0
        step = subspace_ista_step(x, rng.standard_normal(n) * 4, rng.uniform(0, 2), rng.uniform(0.1, 2))
        assert np.all(step[x == 0.0] == 0.0)


def _spd_instance(rng, n, tau):
    raw = rng.standard_normal((n, n))
    a = raw @ raw.T + n * np.eye(n)
    return QuadraticProblem(DenseOperator(a), rng.standard_normal(n) * 3, tau)


def test_full_step_contraction_smooth_case():
    # with alpha <= 1/L and tau=0: F(x+) - F* <= (1 - lambda*alpha)(F(x) - F*);
    # F* exact from a linear solve
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        p = _spd_instance(rng, n, 0.0)
        a = p.op.dense()
        eigs = np.linalg.eigvalsh(a)
        lam, big_l = float(eigs[0]), float(eigs[-1])
        alpha = 1.0 / big_l
        x_star = np.linalg.solve(a, p.b)
        f_star = p.objective(x_star)
        x = rng.standard_normal(n) * 2
        for _ in range(5):
            f_x = p.objective(x)
            x_new = ista_step(x, p.op.apply(x) - p.b, p.tau, alpha)
            f_new = p.objective(x_new)
            assert f_new - f_star <= (1 - lam * alpha) * (f_x - f_star) + 1e-10
            x = x_new


def test_full_step_contraction_diagonal_l1_case():
    # diagonal A with tau > 0: exact F* from the per-coordinate closed form
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        diag = rng.uniform(0.5, 5.0, n)
        p = QuadraticProblem(DenseOperator(np.diag(diag)), rng.standard_normal(n) * 3, 1.0)
        lam, big_l = float(diag.min()), float(diag.max())
        alpha = 1.0 / big_l
        f_star = p.objective(diag_l1_solution(diag, p.b, p.tau))
        x = rng.standard_normal(n)
        for _ in range(5):
            f_x = p.objective(x)
            x = ista_step(x, p.op.apply(x) - p.b, p.tau, alpha)
            assert p.objective(x) - f_star <= (1 - lam * alpha) * (f_x - f_star) + 1e-10


def test_subspace_step_contraction_under_balance():
    # when the balance condition holds, the subspace step contracts at
    # least at the halved rate (1 - lambda*alpha/2)
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 30))
        diag = rng.uniform(0.5, 5.0, n)
        p = QuadraticProblem(DenseOperator(np.diag(diag)), rng.standard_normal(n) * 3, 0.7)
        lam, big_l = float(diag.min()), float(diag.max())
        alpha = 1.0 / big_l
        f_star = p.objective(diag_l1_solution(diag, p.b, p.tau))
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.3] = 0.0
        g = p.op.apply(x) - p.b
        if not gradient_balance(release_grad(x, g, p.tau), support_grad_map(x, g, p.tau, alpha)):
            continue
        checked += 1
        f_x = p.objective(x)
        x_new = subspace_ista_step(x, g, p.tau, alpha)
        assert p.objective(x_new) - f_star <= (1 - 0.5 * lam * alpha) * (f_x - f_star) + 1e-10


def test_bb_stepsize_1d_quadratic():
    # A=[2]: s=1, As = g - g_prev = 2, so alpha_B = 1/2
    x, x_prev = np.array([1.0]), np.array([0.0])
    g, g_prev = np.array([-2.0]), np.array([-4.0])
    assert bb_stepsize(x, x_prev, g, g_prev, 0.123) == 0.5


def test_bb_stepsize_fallbacks():
    x = np.array([1.0])
    g = np.array([0.5])
    # zero displacement
    assert bb_stepsize(x, x, g, g, 0.25) == 0.25
    # nonpositive curvature no lower than -1e-8 * L * s's (L = 4): roundoff
    assert bb_stepsize(x, np.array([0.0]), g, np.array([0.5 + 1e-9]), 0.25) == 0.25
    # far lower, but s is one rounding step of x, so the curvature is noise
    x_prev = np.nextafter(x, 0.0)
    assert bb_stepsize(x, x_prev, g, g + 1e-15, 0.25) == 0.25


def test_bb_stepsize_negative_curvature_is_a_curvature_break():
    x = np.array([1.0])
    with pytest.raises(CurvatureBreak) as info:
        bb_stepsize(x, np.array([0.0]), np.array([0.5]), np.array([1.5]), 0.25)
    assert info.value.curvature == -1.0


def _no_bound():
    raise AssertionError("the line search fell back")


def test_bb_ls_step_accepts_exact_1d_minimizer_first_trial():
    p = QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 0.0)
    window = ls_window(p.objective(np.array([1.0])))
    mv0 = p.op.mv_count
    x, g = np.array([1.0]), np.array([-2.0])
    res = bb_ls_step(
        p,
        x=x,
        g=g,
        alpha=bb_stepsize(x, np.array([0.0]), g, np.array([-4.0]), 0.1),
        step=ista_step,
        window=window,
        mv_left=100,
        bound_alpha=_no_bound,
    )
    # BB step is exact for 1-D quadratics: 1 - 0.5*(-2) = 2 = minimizer
    assert np.array_equal(res.x, [2.0])
    assert res.trials == 1
    assert p.op.mv_count - mv0 == res.trials
    assert not res.fallback
    assert res.f == pytest.approx(-4.0, abs=0)
    assert window[0] == res.f


def test_bb_ls_accepted_steps_satisfy_nonmonotone_bound():
    rng = np.random.default_rng(10)
    n = 25
    raw = rng.standard_normal((n, n))
    p = QuadraticProblem(DenseOperator(raw @ raw.T + np.eye(n)), rng.standard_normal(n) * 2, 0.5)
    big_l = float(np.linalg.eigvalsh(p.op.dense())[-1])
    x = np.zeros(n)
    g = -p.b.copy()
    window = ls_window(0.0)
    alpha = 1.0 / big_l  # then the BB steplength of each step's own pair
    for _ in range(60):
        ref = max(window)
        res = bb_ls_step(p, x, g, alpha, ista_step, window, 1000, lambda: 1.0 / big_l)
        if not res.fallback:
            # the BB steplength, halved once per rejected trial
            a = alpha / 2.0 ** (res.trials - 1)
            assert np.array_equal(res.x, ista_step(x, g, p.tau, a))
            diff = x - res.x
            assert res.f <= ref - (a / 2) * LS_XI * float(diff @ diff) + 1e-12
        x, g, alpha = res.x, res.g, bb_stepsize(res.x, x, res.g, g, 1.0 / big_l)


def test_bb_ls_subspace_mode_freezes_zeros():
    rng = np.random.default_rng(12)
    n = 15
    raw = rng.standard_normal((n, n))
    p = QuadraticProblem(DenseOperator(raw @ raw.T + np.eye(n)), rng.standard_normal(n) * 2, 0.5)
    x = rng.standard_normal(n)
    x[::2] = 0.0
    ax = p.op.apply(x)
    g = ax - p.b
    window = ls_window(p.objective(x, ax=ax))
    res = bb_ls_step(p, x, g, 0.05, subspace_ista_step, window, 1000, lambda: 0.05)
    assert np.all(res.x[x == 0.0] == 0.0)


def test_bb_ls_fallback_after_max_halvings():
    # an artificially unreachable reference forces the fallback path
    p = QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 0.0)
    window = ls_window(-1e9)
    asked = []
    res = bb_ls_step(
        p,
        x=np.array([1.0]),
        g=np.array([-2.0]),
        alpha=0.5,
        step=ista_step,
        window=window,
        mv_left=1000,
        bound_alpha=lambda: asked.append(1) or 0.125,
    )
    # the bound is asked for once, after the halvings
    assert asked == [1]
    assert res.fallback
    assert np.array_equal(res.x, ista_step(np.array([1.0]), np.array([-2.0]), 0.0, 0.125))
    assert res.trials == LS_MAX_HALVINGS + 1 == 61
    assert p.op.mv_count == res.trials
    # the fallback value still enters the window
    assert window[0] == res.f


def test_bb_ls_stops_at_mv_left():
    # the same unreachable reference: mv_left ends the search before the fallback
    p = QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 0.0)
    window = ls_window(-1e9)
    res = bb_ls_step(p, np.array([1.0]), np.array([-2.0]), 0.125, ista_step, window,
                     mv_left=3, bound_alpha=_no_bound)
    assert res.trials == p.op.mv_count == 3
    assert not res.fallback
    assert np.array_equal(res.x, ista_step(np.array([1.0]), np.array([-2.0]), 0.0, 0.125 / 4))
    with pytest.raises(ValueError):
        bb_ls_step(p, np.array([1.0]), np.array([-2.0]), 0.125, ista_step, window,
                   mv_left=0, bound_alpha=_no_bound)


def test_line_search_memory_window_shift():
    assert (LS_WINDOW, LS_XI, LS_MAX_HALVINGS) == (5, 0.005, 60)
    window = ls_window(5.0)
    assert list(window) == [5.0] * 5
    window.appendleft(4.0)
    assert list(window) == [4.0, 5.0, 5.0, 5.0, 5.0]
    for f in (2.0, 3.0, 1.0, 1.0):
        window.appendleft(f)
    # newest first; the seed has left the window
    assert list(window) == [1.0, 1.0, 3.0, 2.0, 4.0]
    assert max(window) == 4.0
