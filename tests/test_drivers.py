import math

import numpy as np
import pytest
from conftest import solve_with_iterates
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ql1.drivers as drivers_mod
import ql1.first_order
from ql1.cg import CurvatureBreak
from ql1.drivers import (
    EIG_SHORT_PRODUCTS,
    STATUS_BUDGET,
    STATUS_CONVERGED,
    STATUS_STALLED,
    STATUS_UNBOUNDED,
    SolverConfig,
    accuracy,
    estimate_max_eig,
    read_trace_records,
    reference_objective,
    solve,
    write_trace_csv,
)
from ql1.fileio import read_problem
from ql1.first_order import bb_stepsize, ista_step
from ql1.probgen import gen_elastic_net, gen_strict_comp
from ql1.problem import DenseOperator, FactoredOperator, QuadraticProblem
from ql1.subgrad import min_norm_subgrad, release_grad

ALGOS = ("iicg1", "iicg2", "fista", "istabb")


def diag_l1_solution(diag, b, tau):
    shrunk = np.sign(b) * np.maximum(np.abs(b) - tau, 0.0)
    return shrunk / diag


def test_estimate_max_eig_identity():
    op = DenseOperator(np.eye(5))
    est = estimate_max_eig(op)
    assert est == pytest.approx(1.01, rel=1e-4)
    assert op.mv_count > 0  # the Lanczos estimate is charged


def test_estimate_max_eig_diagonal():
    est = estimate_max_eig(DenseOperator(np.diag([1.0, 4.0])))
    assert est == pytest.approx(4.04, rel=2e-3)


def test_estimate_max_eig_factored_scalar():
    # B = [[3]], gamma = 0.5: A = [9 + 1] = [10]
    est = estimate_max_eig(FactoredOperator([[3.0]], 0.5))
    assert est == pytest.approx(10.1, rel=1e-6)


def test_estimate_max_eig_zero_operator():
    assert estimate_max_eig(DenseOperator(np.zeros((3, 3)))) == 1.0


def test_estimate_max_eig_brackets_lambda_max_on_desk_suite(desk_manifest):
    # the Ritz value never overshoots, and converges to within the 1.01 margin
    for row in desk_manifest:
        op = read_problem(row.path).op
        if op.kind == "dense":
            lam = float(np.linalg.eigvalsh(op.dense())[-1])
        else:
            lam = float(np.linalg.norm(op.b_mat, 2)) ** 2 + 2.0 * op.gamma
        est = estimate_max_eig(op)
        assert lam <= est <= 1.01 * lam * (1.0 + 1e-12), row.problem


def test_estimate_charge_is_the_setup_cost():
    # BB solves pay the short estimate, FISTA and the constant policy the
    # safe one, and an injected l_value pays nothing
    problem = gen_strict_comp(25, 6, 80.0, 0.4, 0.5, seed=4).problem
    op = problem.op

    def charge(*cap):
        before = op.mv_count
        estimate_max_eig(op, *cap)
        return op.mv_count - before

    short, safe = charge(EIG_SHORT_PRODUCTS), charge()
    assert short == EIG_SHORT_PRODUCTS < safe
    for algo, policy, charged in (
        ("iicg1", "bb", short), ("iicg2", "bb", short), ("istabb", "bb", short),
        ("iicg1", "constant", safe), ("iicg2", "constant", safe), ("fista", "constant", safe),
    ):
        tr = solve(problem, SolverConfig(algorithm=algo, tol=1e-10, alpha_policy=policy))
        assert tr.mv_setup == charged, (algo, policy)
        tr = solve(problem, SolverConfig(algorithm=algo, tol=1e-10, alpha_policy=policy,
                                         l_value=tr.l_est))
        assert tr.mv_setup == 0, (algo, policy)


def test_one_dimensional_solution_all_solvers():
    # closed form x* = (b - tau)/a for b > tau > 0
    for algo in ALGOS:
        p = QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0)
        tr = solve(p, SolverConfig(algorithm=algo, tol=1e-12, mv_budget=5000))
        assert tr.status == STATUS_CONVERGED
        assert tr.final_x[0] == pytest.approx(1.5, abs=1e-10)
        g = p.op.apply(tr.final_x) - p.b
        assert np.abs(min_norm_subgrad(tr.final_x, g, p.tau)).max() <= 1e-10


def test_zero_solution_when_penalty_dominates():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(6)
    raw = rng.standard_normal((6, 6))
    p = QuadraticProblem(DenseOperator(raw @ raw.T + np.eye(6)), b, float(np.abs(b).max()) + 0.1)
    for algo in ALGOS:
        start = p.op.mv_count
        tr = solve(p, SolverConfig(algorithm=algo, tol=1e-10))
        assert tr.status == STATUS_CONVERGED
        assert np.array_equal(tr.final_x, np.zeros(6))
        assert len(tr.records) == 0
        # only the setup products were spent
        assert p.op.mv_count - start == tr.mv_setup


def test_diagonal_closed_form_all_solvers():
    rng = np.random.default_rng(1)
    diag = rng.uniform(0.5, 4.0, 12)
    b = rng.standard_normal(12) * 3
    tau = 0.8
    x_star = diag_l1_solution(diag, b, tau)
    for algo in ALGOS:
        p = QuadraticProblem(DenseOperator(np.diag(diag)), b, tau)
        tr = solve(p, SolverConfig(algorithm=algo, tol=1e-12, mv_budget=20000))
        assert tr.status == STATUS_CONVERGED
        assert np.abs(tr.final_x - x_star).max() <= 1e-8 * max(1.0, np.abs(x_star).max())


def test_solvers_agree_on_final_objective():
    rng = np.random.default_rng(2)
    n = 20
    raw = rng.standard_normal((n, 20))
    p_data = [(raw @ raw.T + np.eye(n), rng.standard_normal(n) * 2, 0.6)]
    raw2 = rng.standard_normal((8, n))
    for a, b, tau in p_data:
        finals = []
        tol = 1e-8
        for algo in ALGOS:
            p = QuadraticProblem(DenseOperator(a), b, tau)
            tr = solve(p, SolverConfig(algorithm=algo, tol=tol, mv_budget=30000))
            assert tr.status == STATUS_CONVERGED
            finals.append(tr.f_final)
        spread = max(finals) - min(finals)
        assert spread <= 10 * tol * max(1.0, abs(min(finals)))


def test_fista_fixed_point_and_smooth_convergence():
    rng = np.random.default_rng(3)
    b = rng.standard_normal(5)
    p = QuadraticProblem(DenseOperator(np.eye(5)), b, 0.0)
    tr = solve(p, SolverConfig(algorithm="fista", tol=1e-10, mv_budget=5000))
    assert tr.status == STATUS_CONVERGED
    assert np.abs(tr.final_x - b).max() <= 1e-8
    # the prox step is a fixed point at b (gradient zero, no penalty)
    assert np.array_equal(ista_step(b, np.zeros(5), 0.0, 1.0), b)
    # warm start at the solution terminates without stepping
    tr = solve(p, SolverConfig(algorithm="fista", tol=1e-10), x0=b)
    assert tr.status == STATUS_CONVERGED
    assert len(tr.records) == 0


def test_bad_warm_start_is_rejected_before_any_product():
    p = QuadraticProblem(DenseOperator(np.diag([2.0, 4.0])), np.ones(2), 0.1)
    bad = ([math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf], [1.0], [1.0, 2.0, 3.0],
           [[1.0, 2.0]], 1.0, [[1.0], [2.0, 3.0]], "ab", {})
    for algo in ALGOS:
        for x0 in bad:
            before = p.op.mv_count
            with pytest.raises(ValueError, match="^x0 must"):
                solve(p, SolverConfig(algorithm=algo), x0=x0)
            assert p.op.mv_count == before, (algo, x0)
        # a good warm start pays one product beyond the set-up
        cold = solve(p, SolverConfig(algorithm=algo, mv_budget=1)).mv_setup
        assert solve(p, SolverConfig(algorithm=algo, mv_budget=1), x0=[0.5, 0.0]).mv_setup == (
            cold + 1), algo


def test_accuracy_values():
    assert accuracy(3.5, 3.5) == 0.0
    assert accuracy(-1.9998, -2.0) == pytest.approx(1e-4)
    assert accuracy(1e-13, 0.0) == pytest.approx(0.1)


def test_reported_work_equals_counter_delta():
    # every operator application during a solve is visible in the trace,
    # also the CG product whose negative curvature ends an indefinite run
    problems = [
        gen_strict_comp(25, 6, 80.0, 0.4, 0.5, seed=4).problem,
        QuadraticProblem(DenseOperator(np.diag([1.0, -1.0, 2.0])), np.ones(3), 0.1),
    ]
    for problem in problems:
        for algo in ALGOS:
            before = problem.op.mv_count
            tr = solve(problem, SolverConfig(algorithm=algo, tol=1e-10, mv_budget=2000))
            assert tr.mv_total == problem.op.mv_count - before, algo
            assert tr.mv_setup > 0  # the Lanczos estimate is charged


def test_smooth_case_matches_linear_solve():
    # tau = 0 reduces to an SPD linear system
    rng = np.random.default_rng(13)
    raw = rng.standard_normal((15, 15))
    p = QuadraticProblem(DenseOperator(raw @ raw.T + np.eye(15)), rng.standard_normal(15), 0.0)
    x_star = np.linalg.solve(p.op.dense(), p.b)
    for algo in ("iicg1", "iicg2"):
        tr = solve(p, SolverConfig(algorithm=algo, tol=1e-12))
        assert tr.status == STATUS_CONVERGED
        assert np.abs(tr.final_x - x_star).max() <= 1e-9 * max(1.0, np.abs(x_star).max())


def test_trace_mv_strictly_increasing_and_k_sequential():
    inst = gen_strict_comp(40, 10, 100.0, 0.3, 0.5, seed=5)
    for algo in ALGOS:
        tr = solve(inst.problem, SolverConfig(algorithm=algo, tol=1e-10, mv_budget=20000))
        mvs = [r.mv for r in tr.records]
        assert all(a < b for a, b in zip(mvs, mvs[1:]))
        assert [r.k for r in tr.records] == list(range(1, len(tr.records) + 1))
        assert all(r.step in ("ISTA", "SUBISTA", "CG", "CUTBACK", "LSFALLBACK") for r in tr.records)


def test_constant_policy_descent():
    # with the constant steplength from the exact largest eigenvalue,
    # recorded objectives never increase
    inst = gen_strict_comp(30, 8, 50.0, 0.4, 0.5, seed=6)
    big_l = float(np.linalg.eigvalsh(inst.problem.op.dense())[-1])
    for algo in ("iicg1", "iicg2"):
        tr = solve(
            inst.problem,
            SolverConfig(algorithm=algo, tol=1e-11, alpha_policy="constant", l_value=big_l,
                         mv_budget=30000),
        )
        assert tr.status == STATUS_CONVERGED
        fs = [tr.f0] + [r.f for r in tr.records]
        for f_prev, f_next in zip(fs, fs[1:]):
            assert f_next <= f_prev + 1e-12 * max(1.0, abs(f_prev))


def test_bb_policy_nonmonotone_window_bound():
    # replay the trace: first-order records respect the nonmonotone
    # window of the last M accepted first-order values; CG-phase records
    # never increase the objective
    inst = gen_strict_comp(40, 10, 1000.0, 0.3, 0.5, seed=7)
    for algo in ("iicg1", "iicg2", "istabb"):
        tr = solve(inst.problem, SolverConfig(algorithm=algo, tol=1e-10, mv_budget=30000))
        window = [tr.f0] * 5
        f_prev = tr.f0
        for rec in tr.records:
            if rec.step in ("ISTA", "SUBISTA", "LSFALLBACK"):
                assert rec.f <= max(window) + 1e-9 * max(1.0, abs(rec.f))
                window = [rec.f] + window[:4]
            else:
                assert rec.f <= f_prev + 1e-9 * max(1.0, abs(f_prev))
            f_prev = rec.f


def test_trace_f_matches_direct_objective():
    inst = gen_strict_comp(30, 8, 100.0, 0.4, 0.5, seed=8)
    tr, xs = solve_with_iterates(
        inst.problem, SolverConfig(algorithm="iicg2", tol=1e-10, mv_budget=20000)
    )
    for rec, x in zip(tr.records, xs[1:]):
        direct = inst.problem.objective(x, ax=inst.problem.op.dense() @ x)
        assert abs(rec.f - direct) <= 1e-8 * max(1.0, abs(direct))
        assert rec.nnz == int(np.count_nonzero(x))


def test_budget_exhaustion():
    inst = gen_strict_comp(20, 6, 100.0, 0.4, 0.5, seed=9)
    tr = solve(inst.problem, SolverConfig(algorithm="iicg2", tol=1e-12, mv_budget=1))
    assert tr.status == STATUS_BUDGET
    assert tr.final_x is not None


def test_mv_budget_is_a_hard_cap():
    p = gen_elastic_net(50, 100, 10, 0, 1, seed=3).problem
    for algo in ALGOS:
        setup = solve(p, SolverConfig(algorithm=algo, mv_budget=1)).mv_setup
        for budget in range(setup + 1, setup + 100):
            tr = solve(p, SolverConfig(algorithm=algo, tol=1e-14, mv_budget=budget))
            assert tr.mv_total <= budget, (algo, budget)
            assert tr.status == STATUS_BUDGET, (algo, budget)
            assert p.objective(tr.final_x) == pytest.approx(tr.f_best, rel=1e-9)


@pytest.mark.parametrize("algorithm", ("iicg1", "iicg2", "istabb"))
def test_fallback_pays_for_the_safe_bound_once(algorithm, monkeypatch):
    # a BB solve steps at its short estimate; with no halvings every BB
    # step falls back, at 1/L of the safe estimate, paid on the first
    p = gen_elastic_net(50, 100, 10, 0, 1, seed=3).problem
    alpha_bound = 1.0 / estimate_max_eig(p.op)
    calls = []  # (cap, products the solve spent before the call) per estimate
    estimate, bb_ls_step = drivers_mod.estimate_max_eig, drivers_mod.bb_ls_step
    before = p.op.mv_count

    def counted(op, max_products=drivers_mod._EIG_MAX_PRODUCTS):
        calls.append((max_products, op.mv_count - before))
        return estimate(op, max_products)

    def bound_caps_fit(budget):
        # the set-up's short estimate first; the bound is offered what is left
        return all(cap == min(drivers_mod._EIG_MAX_PRODUCTS, budget - spent)
                   for cap, spent in calls[1:])

    steps = []

    def captured(problem, x, g, alpha, step, *args):
        res = bb_ls_step(problem, x, g, alpha, step, *args)
        steps.append((x, g, step, res))
        return res

    monkeypatch.setattr(drivers_mod, "estimate_max_eig", counted)
    monkeypatch.setattr(drivers_mod, "bb_ls_step", captured)
    tr = solve(p, SolverConfig(algorithm=algorithm, tol=1e-8))
    assert tr.status == STATUS_CONVERGED
    assert "LSFALLBACK" not in [rec.step for rec in tr.records]
    assert len(calls) == 1

    monkeypatch.setattr(ql1.first_order, "LS_MAX_HALVINGS", 0)
    calls.clear()
    steps.clear()
    before = p.op.mv_count
    tr = solve(p, SolverConfig(algorithm=algorithm, tol=1e-8, mv_budget=400))
    assert tr.status in (STATUS_CONVERGED, STATUS_BUDGET)
    assert len(calls) == 2 and bound_caps_fit(400)
    assert tr.mv_total == p.op.mv_count - before
    assert tr.l_est < 1.0 / alpha_bound
    fallbacks = [rec for rec in tr.records if rec.step == "LSFALLBACK"]
    assert len(fallbacks) == len(steps) >= 2
    for x, g, step, res in steps:
        assert res.fallback and res.trials == 1
        assert step is ista_step or algorithm == "iicg2"
        assert np.array_equal(res.x, step(x, g, p.tau, alpha_bound))

    # no product starts past the budget, also where it runs out inside the
    # safe estimate: then the solve ends with no step
    setup = solve(p, SolverConfig(algorithm=algorithm, mv_budget=1)).mv_setup
    unpaid = 0
    for budget in range(setup + 1, setup + 100):
        before = p.op.mv_count
        calls.clear()
        tr = solve(p, SolverConfig(algorithm=algorithm, tol=1e-14, mv_budget=budget))
        assert bound_caps_fit(budget), budget
        assert tr.mv_total == p.op.mv_count - before <= budget, budget
        assert tr.status == STATUS_BUDGET, budget
        assert p.objective(tr.final_x) == pytest.approx(tr.f_best, rel=1e-9)
        unpaid += not tr.records
    assert unpaid >= 1


@pytest.mark.parametrize("algorithm", ("iicg1", "iicg2", "istabb"))
def test_the_line_search_starts_from_the_last_first_order_steps_own_pair(algorithm,
                                                                         monkeypatch):
    # the first trial's steplength is 1/L at the first step and otherwise
    # the BB steplength of the last first-order step's start and end point,
    # whatever CG points came after it
    p = gen_elastic_net(60, 100, 10.0, 0.1, 5.0, seed=0).problem
    split, bb_ls_step = drivers_mod.split_subgradient, drivers_mod.bb_ls_step
    points, calls = [], []

    def with_grad(x, g, *args):
        points.append((x, g))
        return split(x, g, *args)

    def captured(problem, x, g, alpha, *args):
        assert points[-1][0] is x  # the last accepted point
        calls.append((len(points) - 1, alpha))
        return bb_ls_step(problem, x, g, alpha, *args)

    monkeypatch.setattr(drivers_mod, "split_subgradient", with_grad)
    monkeypatch.setattr(drivers_mod, "bb_ls_step", captured)
    tr, seen = solve_with_iterates(p, SolverConfig(algorithm=algorithm, tol=1e-8))
    assert tr.status == STATUS_CONVERGED
    assert all(x is y for (x, _), y in zip(points, seen, strict=True))
    assert calls[0] == (0, 1.0 / tr.l_est)
    after_cg = 0
    for (j, _), (i, alpha) in zip(calls, calls[1:]):
        (x, g), (x_prev, g_prev) = points[j + 1], points[j]
        assert alpha == bb_stepsize(x, x_prev, g, g_prev, 1.0 / tr.l_est), i
        # CG or CUTBACK points lie between the pair and x exactly when i > j + 1
        cg_between = tr.records[i - 1].step in ("CG", "CUTBACK")
        assert cg_between == (i > j + 1), i
        after_cg += cg_between
    assert len(calls) >= 10
    assert after_cg >= 3 if algorithm != "istabb" else after_cg == 0


@pytest.mark.parametrize("l_value", (None, 1.0))
def test_an_empty_problem_converges_at_no_product(l_value):
    # an operator on n = 0 coordinates is a zero operator, so its L is 1.0
    p = QuadraticProblem(DenseOperator(np.zeros((0, 0))), np.zeros(0), 0.5)
    assert estimate_max_eig(p.op) == 1.0 and p.op.mv_count == 0
    for algo in ALGOS:
        for policy in drivers_mod._POLICIES[algo]:
            tr = solve(p, SolverConfig(algorithm=algo, alpha_policy=policy, l_value=l_value))
            assert tr.status == STATUS_CONVERGED, (algo, policy)
            assert tr.mv_total == 0 and tr.records == [] and tr.final_x.shape == (0,)
            assert tr.f_best == 0.0
    assert reference_objective(p) == 0.0 and p.op.mv_count == 0


def test_indefinite_operator_is_unbounded():
    p = QuadraticProblem(DenseOperator(np.diag([1.0, -1.0, 2.0])), np.ones(3), 0.1)
    for algo in ALGOS:
        tr = solve(p, SolverConfig(algorithm=algo, mv_budget=2000))
        assert tr.status == STATUS_UNBOUNDED, algo
        # iiCG's first CG direction, and the curvature of istabb's second
        # BB step and of FISTA's second step, already show that A is indefinite
        assert tr.mv_total - tr.mv_setup <= 3 and np.isfinite(tr.f_final), algo


def test_stalled_when_target_unreachable():
    # F stops moving at the minimizer x = 1.5, whose subgradient is exactly 0
    p = QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0)
    f_min = p.objective(np.array([1.5]))
    empty = QuadraticProblem(DenseOperator(np.zeros((0, 0))), np.zeros(0), 0.5)
    for algo, products in (("iicg1", 4), ("iicg2", 4), ("istabb", 4), ("fista", 21)):
        tr = solve(
            p,
            SolverConfig(
                algorithm=algo,
                f_star=f_min - 10.0,  # below the true minimum
                tol=1e-10,
                mv_budget=40000,
            ),
        )
        assert tr.status == STATUS_STALLED, algo
        assert tr.mv_total == products and tr.f_best == f_min, algo
        tr = solve(empty, SolverConfig(algorithm=algo, f_star=-1.0))
        assert tr.status == STATUS_STALLED and tr.mv_total == 0 and tr.records == [], algo


@st.composite
def _diagonal_problem_minimized_at_zero(draw):
    # |b_i| <= tau, so the subgradient of F at x = 0 holds 0 exactly
    n = draw(st.integers(0, 6))
    d = draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 1e3)))
    tau = draw(st.floats(0.0, 10.0))
    u = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    return QuadraticProblem(DenseOperator(np.diag(d)), tau * u, tau)


@settings(max_examples=50, deadline=None)
@given(_diagonal_problem_minimized_at_zero())
def test_a_start_at_an_exact_minimizer_ends_at_the_set_up(p):
    # F cannot fall below F(0) = 0, so an f* of -1 stalls at once
    for algo in ALGOS:
        for policy in drivers_mod._POLICIES[algo]:
            for f_star, status in ((-1.0, STATUS_STALLED), (None, STATUS_CONVERGED)):
                tr = solve(p, SolverConfig(algorithm=algo, alpha_policy=policy, f_star=f_star))
                assert tr.status == status, (algo, policy, f_star)
                assert tr.mv_total == tr.mv_setup and tr.records == [], (algo, policy, f_star)


def test_iicg_variants_coincide_after_identification():
    # warm-start both variants from a post-identification iterate: while
    # the release component stays zero, the two solvers take literally
    # identical steps
    inst = gen_strict_comp(50, 12, 50.0, 0.5, 0.5, seed=10)
    p = inst.problem
    big_l = float(np.linalg.eigvalsh(p.op.dense())[-1])
    probe, probe_xs = solve_with_iterates(
        p,
        SolverConfig(algorithm="iicg2", tol=1e-12, alpha_policy="constant",
                     l_value=big_l, mv_budget=30000),
    )
    assert probe.status == STATUS_CONVERGED
    a = p.op.dense()
    warm = None
    for x in probe_xs[1:]:
        if not np.array_equal(np.sign(x), np.sign(inst.x_star)):
            continue
        g = a @ x - p.b
        if np.abs(release_grad(x, g, p.tau)).max() == 0.0:
            warm = x
            break
    assert warm is not None, "no post-identification iterate found"
    cfg = dict(tol=1e-12, alpha_policy="constant", l_value=big_l, mv_budget=30000)
    tr1, xs1 = solve_with_iterates(p, SolverConfig(algorithm="iicg1", **cfg), x0=warm)
    tr2, xs2 = solve_with_iterates(p, SolverConfig(algorithm="iicg2", **cfg), x0=warm)
    assert tr1.status == tr2.status == STATUS_CONVERGED
    assert len(tr1.records) == len(tr2.records)
    for xa, xb in zip(xs1[1:], xs2[1:]):
        assert np.array_equal(xa, xb)
    for ra, rb in zip(tr1.records, tr2.records):
        assert ra.f == rb.f and ra.mv == rb.mv
        g = a @ xs1[ra.k] - p.b
        assert np.abs(release_grad(xs1[ra.k], g, p.tau)).max() == 0.0


@pytest.mark.parametrize("algorithm", ALGOS)
def test_one_split_per_accepted_point(algorithm, monkeypatch):
    # the start point and each recorded step get one subgradient split
    # each; a CG cycle's anchor reuses the split of its first-order step
    split = drivers_mod.split_subgradient
    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(drivers_mod, "split_subgradient", counted)
    p = gen_elastic_net(60, 100, 10.0, 0.1, 5.0, seed=3).problem
    tr = solve(p, SolverConfig(algorithm=algorithm, tol=1e-6))
    assert tr.status == STATUS_CONVERGED
    assert len(built) == len(tr.records) + 1
    steps = [rec.step for rec in tr.records]
    cycles = sum(a not in ("CG", "CUTBACK") and b in ("CG", "CUTBACK")
                 for a, b in zip(steps, steps[1:]))
    assert cycles >= 3 if algorithm.startswith("iicg") else cycles == 0


@pytest.mark.parametrize("algorithm", ("iicg1", "iicg2"))
@pytest.mark.parametrize("policy", ("bb", "constant"))
def test_a_cutback_ends_its_cycle(algorithm, policy):
    # the step after a cutback is the next first-order step, or there is none
    p = gen_elastic_net(60, 100, 10.0, 0.1, 5.0, seed=0).problem
    tr = solve(p, SolverConfig(algorithm=algorithm, tol=1e-8, alpha_policy=policy))
    steps = [rec.step for rec in tr.records]
    assert steps.count("CUTBACK") >= 1
    for step, after in zip(steps, steps[1:] + [None]):
        if step == "CUTBACK":
            assert after in (None, "ISTA", "SUBISTA", "LSFALLBACK")


@pytest.mark.parametrize("algorithm", ("iicg1", "iicg2"))
@pytest.mark.parametrize("policy", ("bb", "constant"))
def test_an_accepted_crossing_step_ends_its_cycle(algorithm, policy, monkeypatch):
    # The orthant model agrees with F only on the anchor's orthant: a CG
    # step that left it and passed sufficient decrease is recorded as CG,
    # and the step after it is the next first-order step, or there is
    # none. So every cutback starts from a point on the anchor's orthant.
    p = gen_elastic_net(60, 100, 10.0, 0.1, 5.0, seed=0).problem
    step, alpha = drivers_mod.cg_step, drivers_mod.cutback_alpha
    crossings, cut_starts = [], []

    def watched_step(st, op, curv_tol):
        out = step(st, op, curv_tol)
        if out[2]:
            crossings.append(op.mv_count - before)
        return out

    def watched_alpha(x_k, anchor_sign, d):
        cut_starts.append(np.array_equal(np.sign(x_k), anchor_sign))
        return alpha(x_k, anchor_sign, d)

    monkeypatch.setattr(drivers_mod, "cg_step", watched_step)
    monkeypatch.setattr(drivers_mod, "cutback_alpha", watched_alpha)
    before = p.op.mv_count
    tr = solve(p, SolverConfig(algorithm=algorithm, tol=1e-8, alpha_policy=policy))
    steps = [rec.step for rec in tr.records]
    by_mv = {rec.mv: i for i, rec in enumerate(tr.records)}
    accepted = [by_mv[mv] for mv in crossings if steps[by_mv[mv]] == "CG"]
    assert len(accepted) >= 1
    for i in accepted:
        after = steps[i + 1] if i + 1 < len(steps) else None
        assert after in (None, "ISTA", "SUBISTA", "LSFALLBACK"), (i, after)
    assert len(cut_starts) == steps.count("CUTBACK") >= 1
    assert all(cut_starts)


@pytest.mark.parametrize("algorithm", ("iicg1", "iicg2"))
@pytest.mark.parametrize("policy", ("bb", "constant"))
def test_a_curvature_break_on_a_singular_operator_closes_its_cycle(algorithm, policy,
                                                                   monkeypatch):
    # At x0 = (1.5, -0.5) the gradient is 0, so a cycle's first direction
    # is -tau*sign(x0), which lies in the null space of A = [[1, 1], [1, 1]]:
    # a break at zero curvature, not a negative one. The solve goes on with
    # a first-order step, and the bb line search falls back on the way.
    p = QuadraticProblem(DenseOperator(np.ones((2, 2))), np.ones(2), 0.1)
    step = drivers_mod.cg_step
    breaks = []

    def watched(st, op, curv_tol):
        try:
            return step(st, op, curv_tol)
        except CurvatureBreak:
            breaks.append(op.mv_count - before)
            raise

    monkeypatch.setattr(drivers_mod, "cg_step", watched)
    before = p.op.mv_count
    tr = solve(p, SolverConfig(algorithm=algorithm, tol=1e-10, alpha_policy=policy),
               x0=[1.5, -0.5])
    assert tr.status == STATUS_CONVERGED
    assert tr.f_final == pytest.approx(-(1 - 0.1) ** 2 / 2, abs=1e-12)
    assert tr.mv_total == p.op.mv_count - before
    assert len(breaks) >= 1
    for mv in breaks:
        after = next((rec.step for rec in tr.records if rec.mv > mv), None)
        assert after in ("ISTA", "SUBISTA", "LSFALLBACK"), (mv, after)
    assert ("LSFALLBACK" in [rec.step for rec in tr.records]) == (policy == "bb")


def test_reference_objective_close_to_known_solution():
    inst = gen_strict_comp(30, 8, 100.0, 0.4, 0.5, seed=11)
    f_star_true = inst.problem.objective(inst.x_star, ax=inst.problem.op.dense() @ inst.x_star)
    f_ref = reference_objective(inst.problem, 10000)
    assert abs(f_ref - f_star_true) <= 1e-10 * max(1.0, abs(f_star_true))


def test_trace_csv_roundtrip(tmp_path):
    inst = gen_strict_comp(20, 5, 50.0, 0.4, 0.5, seed=12)
    tr = solve(inst.problem, SolverConfig(algorithm="iicg1", tol=1e-8))
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    back = read_trace_records(path)
    assert len(back) == len(tr.records)
    for a, b in zip(tr.records, back):
        assert (a.mv, a.k, a.nnz, a.step) == (b.mv, b.k, b.nnz, b.step)
        assert a.f == b.f  # 17 significant digits round-trip doubles


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(algorithm="nope")
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mv_budget=0)
    # values that would otherwise burn the budget or divide by zero in solve
    nan, inf = math.nan, math.inf
    bad = [
        dict(tol=nan), dict(tol=-1e-6),
        dict(f_star=nan), dict(f_star=inf), dict(f_star=-inf),
        dict(bal_factor=0.0), dict(bal_factor=-1.0), dict(bal_factor=nan), dict(bal_factor=inf),
        dict(l_value=0.0), dict(l_value=-2.0), dict(l_value=nan), dict(l_value=inf),
        dict(c=-1e-4), dict(c=nan), dict(c=inf),
        dict(mv_budget=inf), dict(mv_budget=2.5), dict(mv_budget=True),
    ]
    for kwargs in bad:
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must"):
            SolverConfig(**kwargs)
    # the boundary values stay valid
    SolverConfig(f_star=-1e300, bal_factor=1e-3, l_value=1e-300, c=0.0, tol=1e300)
    assert SolverConfig(mv_budget=np.int64(7)).mv_budget == 7


def test_alpha_policy_table():
    # each algorithm runs the policies it lists, the first by default;
    # a policy it would ignore is rejected, not silently replaced
    assert SolverConfig(algorithm="fista").alpha_policy == "constant"
    for algo in ("iicg1", "iicg2", "istabb"):
        assert SolverConfig(algorithm=algo).alpha_policy == "bb"
    for algo in ("iicg1", "iicg2"):
        assert SolverConfig(algorithm=algo, alpha_policy="constant").alpha_policy == "constant"
    with pytest.raises(ValueError, match="fista"):
        SolverConfig(algorithm="fista", alpha_policy="bb")
    with pytest.raises(ValueError, match="istabb"):
        SolverConfig(algorithm="istabb", alpha_policy="constant")
    for algo in ALGOS:
        with pytest.raises(ValueError):
            SolverConfig(algorithm=algo, alpha_policy="sgd")
