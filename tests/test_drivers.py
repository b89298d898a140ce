import numpy as np
import pytest

from ql1.drivers import (
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
from ql1.first_order import ista_step
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
    inst = gen_strict_comp(25, 6, 80.0, 0.4, 0.5, seed=4)
    before = inst.problem.op.mv_count
    estimate_max_eig(inst.problem.op)
    charged = inst.problem.op.mv_count - before
    for algo in ALGOS:
        tr = solve(inst.problem, SolverConfig(algorithm=algo, tol=1e-10))
        assert tr.mv_setup == charged


def test_one_dimensional_solution_all_solvers():
    # closed form x* = (b - tau)/a for b > tau > 0
    for algo in ALGOS:
        p = QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0)
        tr = solve(p, SolverConfig(algorithm=algo, tol=1e-12, mv_budget=5000))
        assert tr.status == STATUS_CONVERGED
        assert tr.final_x[0] == pytest.approx(1.5, abs=1e-10)
        g = p.gradient(tr.final_x)
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
    tr = solve(
        inst.problem,
        SolverConfig(algorithm="iicg2", tol=1e-10, theory_checks=True, mv_budget=20000),
    )
    assert tr.xs is not None and len(tr.xs) == len(tr.records)
    for rec, x in zip(tr.records, tr.xs):
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


def test_indefinite_operator_is_unbounded():
    p = QuadraticProblem(DenseOperator(np.diag([1.0, -1.0, 2.0])), np.ones(3), 0.1)
    for algo in ALGOS:
        tr = solve(p, SolverConfig(algorithm=algo, mv_budget=2000))
        assert tr.status == STATUS_UNBOUNDED, algo
        # iiCG's first CG direction, and the curvature of istabb's second
        # BB step and of FISTA's second step, already show that A is indefinite
        assert tr.mv_total - tr.mv_setup <= 3 and np.isfinite(tr.f_final), algo


def test_stalled_when_target_unreachable():
    p = QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0)
    f_min = p.objective(np.array([1.5]))
    tr = solve(
        p,
        SolverConfig(
            algorithm="iicg2",
            f_star=f_min - 10.0,  # below the true minimum
            tol=1e-10,
            mv_budget=40000,
        ),
    )
    assert tr.status == STATUS_STALLED
    assert tr.mv_total < 40000


def test_iicg_variants_coincide_after_identification():
    # warm-start both variants from a post-identification iterate: while
    # the release component stays zero, the two solvers take literally
    # identical steps
    inst = gen_strict_comp(50, 12, 50.0, 0.5, 0.5, seed=10)
    p = inst.problem
    big_l = float(np.linalg.eigvalsh(p.op.dense())[-1])
    probe = solve(
        p,
        SolverConfig(algorithm="iicg2", tol=1e-12, alpha_policy="constant",
                     l_value=big_l, theory_checks=True, mv_budget=30000),
    )
    assert probe.status == STATUS_CONVERGED
    a = p.op.dense()
    warm = None
    for x in probe.xs:
        if not np.array_equal(np.sign(x), np.sign(inst.x_star)):
            continue
        g = a @ x - p.b
        if np.abs(release_grad(x, g, p.tau)).max() == 0.0:
            warm = x
            break
    assert warm is not None, "no post-identification iterate found"
    cfg = dict(tol=1e-12, alpha_policy="constant", l_value=big_l,
               theory_checks=True, mv_budget=30000)
    tr1 = solve(p, SolverConfig(algorithm="iicg1", **cfg), x0=warm)
    tr2 = solve(p, SolverConfig(algorithm="iicg2", **cfg), x0=warm)
    assert tr1.status == tr2.status == STATUS_CONVERGED
    assert len(tr1.records) == len(tr2.records)
    for xa, xb in zip(tr1.xs, tr2.xs):
        assert np.array_equal(xa, xb)
    for ra, rb in zip(tr1.records, tr2.records):
        assert ra.f == rb.f and ra.mv == rb.mv
        g = a @ tr1.xs[ra.k - 1] - p.b
        assert np.abs(release_grad(tr1.xs[ra.k - 1], g, p.tau)).max() == 0.0


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


def test_alpha_policy_table():
    # each algorithm runs the policies it lists, the first by default;
    # a policy it would ignore is rejected, not silently replaced
    assert SolverConfig(algorithm="fista").policy() == "constant"
    for algo in ("iicg1", "iicg2", "istabb"):
        assert SolverConfig(algorithm=algo).policy() == "bb"
    for algo in ("iicg1", "iicg2"):
        assert SolverConfig(algorithm=algo, alpha_policy="constant").policy() == "constant"
    with pytest.raises(ValueError, match="fista"):
        SolverConfig(algorithm="fista", alpha_policy="bb")
    with pytest.raises(ValueError, match="istabb"):
        SolverConfig(algorithm="istabb", alpha_policy="constant")
    for algo in ALGOS:
        with pytest.raises(ValueError):
            SolverConfig(algorithm=algo, alpha_policy="sgd")
