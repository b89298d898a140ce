import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ql1.bench
from ql1.bench import (
    BenchResult,
    alpha_sweep_detail,
    dolan_more,
    pareto_frontier,
    read_bench_csv,
    run_suite,
    write_bench_csv,
)
from ql1.drivers import (
    ALGORITHMS,
    BUDGET_REACH,
    SolverConfig,
    TraceRecord,
    accuracy,
    reference_objective,
    solve,
)
from ql1.fileio import ManifestRow, read_problem, write_problem
from ql1.probgen import gen_elastic_net, gen_strict_comp
from ql1.problem import DenseOperator, FactoredOperator, QuadraticProblem


def _result(problem, solver, mv, tol=1e-4, seconds=0.0):
    return BenchResult(problem, solver, tol, mv, seconds, 0.0, "converged" if mv else "budget")


def _curve(points, solver):
    return {round(2.0 ** p.log2_theta, 9): p.rho for p in points if p.solver == solver}


def test_dolan_more_hand_example():
    # metric rows per problem: [1, 2] and [2, 2]
    results = [
        _result("p1", "s1", 1),
        _result("p1", "s2", 2),
        _result("p2", "s1", 2),
        _result("p2", "s2", 2),
    ]
    points = dolan_more(results, metric="mv")
    c1, c2 = _curve(points, "s1"), _curve(points, "s2")
    assert c1[1.0] == 1.0
    assert c2[1.0] == 0.5
    assert c2[2.0] == 1.0


def test_dolan_more_single_solver():
    results = [_result("p1", "s1", 3), _result("p2", "s1", 7)]
    points = dolan_more(results)
    assert all(p.rho == 1.0 for p in points)


def test_dolan_more_solver_failing_everywhere():
    results = [
        _result("p1", "good", 5),
        _result("p2", "good", 6),
        BenchResult("p1", "bad", 1e-4, None, 0.0, math.inf, "budget"),
        BenchResult("p2", "bad", 1e-4, None, 0.0, math.inf, "budget"),
    ]
    points = dolan_more(results)
    assert all(p.rho == 0.0 for p in points if p.solver == "bad")
    assert all(p.rho == 1.0 for p in points if p.solver == "good")


def test_dolan_more_excludes_all_fail_problems_with_warning():
    results = [
        _result("p1", "s1", 4),
        _result("p1", "s2", 4),
        BenchResult("p2", "s1", 1e-4, None, 0.0, math.inf, "budget"),
        BenchResult("p2", "s2", 1e-4, None, 0.0, math.inf, "budget"),
    ]
    with pytest.warns(UserWarning, match="excluded"):
        points = dolan_more(results)
    assert all(p.rho == 1.0 for p in points)


def test_dolan_more_curves_nondecreasing_reach_success_fraction():
    rng = np.random.default_rng(0)
    results = []
    for pi in range(12):
        for s in ("a", "b", "c"):
            mv = None if rng.random() < 0.2 else int(rng.integers(1, 500))
            status = "converged" if mv else "budget"
            results.append(BenchResult(f"p{pi}", s, 1e-4, mv, 0.0, 0.0, status))
    points = dolan_more(results)
    included = {
        p for p in {r.problem for r in results}
        if any(r.mv is not None for r in results if r.problem == p)
    }
    for s in ("a", "b", "c"):
        curve = [p.rho for p in points if p.solver == s]
        assert all(x <= y + 1e-15 for x, y in zip(curve, curve[1:]))
        successes = sum(
            1 for r in results if r.solver == s and r.mv is not None and r.problem in included
        )
        assert curve[-1] == pytest.approx(successes / len(included))


def _records(pairs, f_star=1.0):
    # choose F values so that accuracy(F, 1.0) equals the requested value
    return [
        TraceRecord(mv=i + 1, k=i + 1, f=f_star + acc * abs(f_star), nnz=nnz, step="ISTA")
        for i, (acc, nnz) in enumerate(pairs)
    ]


def test_pareto_hand_examples():
    recs = _records([(0.05, 7), (0.1, 4), (0.2, 2)])
    front = pareto_frontier(recs, 1.0)
    assert [(round(a, 12), n) for a, n in front] == [(0.05, 7), (0.1, 4), (0.2, 2)]

    recs = _records([(0.05, 4), (0.05, 7)])
    front = pareto_frontier(recs, 1.0)
    assert [(round(a, 12), n) for a, n in front] == [(0.05, 4)]

    recs = _records([(0.3, 9)])
    assert [(round(a, 12), n) for a, n in pareto_frontier(recs, 1.0)] == [(0.3, 9)]


def test_pareto_strictly_monotone():
    rng = np.random.default_rng(1)
    pairs = [(float(rng.uniform(0, 1)), int(rng.integers(0, 30))) for _ in range(200)]
    front = pareto_frontier(_records(pairs), 1.0)
    accs = [a for a, _ in front]
    nnzs = [n for _, n in front]
    assert all(a < b for a, b in zip(accs, accs[1:]))
    assert all(a > b for a, b in zip(nnzs, nnzs[1:]))
    # nothing on the frontier is dominated by any record
    for fa, fn in front:
        for pa, pn in pairs:
            better_acc = round(pa, 15) <= round(fa, 15)
            assert not (better_acc and pn < fn and (pa < fa or pn < fn))


def _tiny_manifest(tmp_path):
    rows = []
    p1 = QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0)
    path1 = tmp_path / "one_d.ql1p"
    write_problem(path1, p1)
    rows.append(ManifestRow("one_d", "custom", 0, "n=1;spd=1", str(path1)))
    inst = gen_strict_comp(15, 4, 50.0, 0.4, 0.5, seed=2)
    path2 = tmp_path / "sc.ql1p"
    write_problem(path2, inst.problem)
    rows.append(ManifestRow("sc", "strict_comp", 2, "n=15;spd=1", str(path2)))
    return rows


def _configs(solvers, tols, mv_budget):
    return [SolverConfig(algorithm=s, tol=t, mv_budget=mv_budget) for s in solvers for t in tols]


def test_run_suite_basic(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    results = run_suite(manifest, _configs(["iicg1", "iicg2"], [1e-4, 1e-10], 5000))
    assert len(results) == 2 * 2 * 2
    for r in results:
        assert r.status == "converged"
        assert r.mv is not None and r.mv <= 5000
        assert r.final_accuracy <= r.tol
    # the two solvers agree on the 1-D final objective to 1e-10:
    # F* = -2.25 for A=[2], b=4, tau=1, so accuracy differences map back
    # to objective differences through |F*|
    one_d = [r for r in results if r.problem == "one_d" and r.tol == 1e-10]
    assert len(one_d) == 2
    f_gap = abs(one_d[0].final_accuracy - one_d[1].final_accuracy) * 2.25
    assert f_gap <= 1e-10


def test_run_suite_deterministic_mv(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    a = run_suite(manifest, _configs(["iicg2"], [1e-6], 5000))
    b = run_suite(manifest, _configs(["iicg2"], [1e-6], 5000))
    assert [(r.problem, r.mv) for r in a] == [(r.problem, r.mv) for r in b]


def test_run_suite_budget_one_fails(tmp_path):
    manifest = _tiny_manifest(tmp_path)[1:]  # the strict-comp instance
    f_stars = {"sc": reference_objective(read_problem(manifest[0].path), 5000)}
    results = run_suite(manifest, _configs(["iicg2"], [1e-10], 1), f_stars=f_stars)
    assert results[0].mv is None
    assert results[0].status in ("budget", "stalled")


def test_run_suite_zero_work_solve_counts_setup_only(tmp_path):
    b = np.array([0.5, -0.25])
    p = QuadraticProblem(DenseOperator(np.eye(2)), b, 1.0)  # tau >= ||b||_inf
    path = tmp_path / "zero.ql1p"
    write_problem(path, p)
    manifest = [ManifestRow("zero", "custom", 0, "spd=1", str(path))]
    results = run_suite(manifest, _configs(["iicg2"], [1e-6], 100))
    assert results[0].status == "converged"
    assert results[0].mv is not None and results[0].mv > 0  # spectral estimation only


def test_run_suite_missing_file_continues(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    manifest.insert(0, ManifestRow("ghost", "custom", 0, "", str(tmp_path / "missing.ql1p")))
    results = run_suite(manifest, _configs(["iicg2"], [1e-4], 5000))
    assert results[0].status.startswith("error")
    assert results[0].mv is None
    assert all(r.status == "converged" for r in results[1:])


def test_run_suite_mv_is_first_record_within_tol(tmp_path):
    # the accuracy stop ends a solve at the first accepted step within tol,
    # so its product count is where a long subgradient-norm run of the
    # same solver first met the target (the start point counts as mv_setup)
    manifest = _tiny_manifest(tmp_path)
    solvers, tols = ["iicg1", "iicg2", "fista", "istabb"], [1e-4, 1e-10]
    f_stars = {row.problem: reference_objective(read_problem(row.path)) for row in manifest}
    results = iter(run_suite(manifest, _configs(solvers, tols, 5000), f_stars))
    for row in manifest:
        problem, f_star = read_problem(row.path), f_stars[row.problem]
        for cfg in _configs(solvers, tols, 5000):
            long = solve(problem, SolverConfig(algorithm=cfg.algorithm, tol=1e-15, mv_budget=5000))
            points = [(long.mv_setup, long.f0)] + [(rec.mv, rec.f) for rec in long.records]
            first = next(mv for mv, f in points if accuracy(f, f_star) <= cfg.tol)
            assert next(results).mv == first, (row.problem, cfg.algorithm, cfg.tol)


def test_run_suite_without_configs_solves_nothing(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved without a config")

    monkeypatch.setattr(ql1.bench, "solve", no_solve)
    monkeypatch.setattr(ql1.bench, "reference_objective", no_solve)
    assert run_suite(_tiny_manifest(tmp_path), []) == []


def test_bench_csv_roundtrip(tmp_path):
    results = [
        _result("p1", "s1", 12),
        BenchResult("p2", "s1", 1e-10, None, 0.25, 3.5e-2, "budget"),
    ]
    path = tmp_path / "bench.csv"
    write_bench_csv(path, results)
    header = path.read_text().splitlines()[0]
    assert header == "problem,solver,tol,mv,seconds,accuracy,status"
    back = read_bench_csv(path)
    assert [(r.problem, r.solver, r.mv, r.status) for r in back] == [
        ("p1", "s1", 12, "converged"),
        ("p2", "s1", None, "budget"),
    ]


def test_alpha_sweep_baseline_and_monotone_budget(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    table = alpha_sweep_detail(manifest, [1.0, 10.0], tol=1e-4, mv_budget=5000).table
    assert table[0] == (1.0, 1.0)  # by definition
    assert math.isfinite(table[1][1]) and table[1][1] > 0


def test_alpha_sweep_requires_baseline(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    with pytest.raises(ValueError):
        alpha_sweep_detail(manifest, [10.0])
    with pytest.raises(ValueError):
        alpha_sweep_detail(manifest, [0.5, 1.0])


# -- rows read off a shared trace ---------------------------------------------


def _own_row(problem, cfg, f_star):
    """(mv, status, accuracy) of a config's row from a solve of its own."""
    trace = solve(problem, replace(cfg, f_star=f_star))
    reached = trace.status == "converged" and trace.mv_total <= cfg.mv_budget
    return trace.mv_total if reached else None, trace.status, accuracy(trace.f_best, f_star)


def _suite_against_own_solves(problem, configs, f_star=None):
    """run_suite's rows on one problem, each checked against a solve of its config's own.

    Returns the rows and the configs run_suite solved. With ``f_star`` None
    the suite computes the reference itself, so iiCG-2 rows can be read
    off its trace.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.ql1p"
        write_problem(path, problem)
        manifest = [ManifestRow("p", "custom", 0, "", str(path))]
        solved = []
        real_solve = ql1.bench.solve

        def counting(problem, cfg, *args, **kwargs):
            solved.append(cfg)
            return real_solve(problem, cfg, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ql1.bench, "solve", counting)
            rows = run_suite(manifest, configs, None if f_star is None else {"p": f_star})
        problem = read_problem(path)
    if f_star is None:
        f_star = reference_objective(problem, max(cfg.mv_budget for cfg in configs))
    assert [(r.solver, r.tol) for r in rows] == [(cfg.algorithm, cfg.tol) for cfg in configs]
    for r, cfg in zip(rows, configs):
        assert (r.mv, r.status, r.final_accuracy) == _own_row(problem, cfg, f_star), cfg
    return rows, solved


def _en_problem():
    # iicg2 meets accuracy 1e-4 at 43 products and 1e-10 at 78; fista needs 300
    # and more for 1e-10
    return gen_elastic_net(30, 60, 10.0, 0.1, 5.0, seed=1).problem


def test_suite_row_met_at_the_start_costs_the_set_up():
    # tau >= ||b||_inf: x = 0 is the minimizer, and the reference stops at its start
    problem = QuadraticProblem(DenseOperator(np.diag([1.0, 3.0])), np.array([0.5, -1.0]), 2.0)
    configs = [SolverConfig(algorithm=a, tol=1e-4) for a in ("iicg2", "fista")]
    rows, solved = _suite_against_own_solves(problem, configs)
    assert [r.mv for r in rows] == [solve(problem, cfg).mv_setup for cfg in configs]
    assert [cfg.algorithm for cfg in solved] == ["fista"]


def test_suite_budget_ending_inside_a_group_fails_only_the_tighter_rows():
    configs = _configs(["fista"], [1e-1, 1e-4, 1e-10], 300)
    rows, solved = _suite_against_own_solves(_en_problem(), configs)
    assert [r.status for r in rows] == ["converged", "converged", "budget"]
    assert [cfg.tol for cfg in solved] == [1e-10]


def test_suite_reads_iicg2_rows_off_the_reference_only_far_from_their_budget():
    problem = _en_problem()
    configs = _configs(["iicg2"], [1e-4, 1e-10], 2000) + _configs(["iicg2"], [1e-4, 1e-10], 300)
    rows, solved = _suite_against_own_solves(problem, configs)
    assert all(r.status == "converged" for r in rows)
    # 43 products is within BUDGET_REACH of 300, so the 300 group is solved once
    assert rows[2].mv == 43 >= 300 - BUDGET_REACH
    assert [(cfg.mv_budget, cfg.tol) for cfg in solved] == [(300, 1e-10)]


def test_suite_stalled_and_unbounded_groups_end_every_row_they_do_not_reach():
    # an f* below the minimum is never reached: the solves stall
    problem = QuadraticProblem(DenseOperator(np.diag([1.0, 2.0, 4.0])), np.array([1.0, -2.0, 3.0]),
                               0.5)
    f_min = reference_objective(problem)
    configs = _configs(["iicg2", "istabb", "fista"], [1e-4, 1e-10], 5000)
    rows, solved = _suite_against_own_solves(problem, configs, f_min - 1.0)
    assert {r.status for r in rows} == {"stalled"} and len(solved) == 3
    # a negative eigenvalue makes F unbounded below
    problem = QuadraticProblem(DenseOperator(np.diag([1.0, -1.0])), np.array([1.0, 1.0]), 0.1)
    rows, solved = _suite_against_own_solves(problem, configs, -1e300)
    assert {r.status for r in rows} == {"unbounded"} and len(solved) == 3


def test_suite_never_reads_a_bal_factor_row_off_the_reference():
    configs = [SolverConfig(algorithm="iicg2", tol=1e-4, mv_budget=2000, bal_factor=f)
               for f in (1.0, 10.0)]
    _, solved = _suite_against_own_solves(_en_problem(), configs)
    assert [cfg.bal_factor for cfg in solved] == [10.0]


@st.composite
def _suite_case(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["dense", "factored", "indefinite"]))
    if kind == "factored":
        b_mat = rng.standard_normal((draw(st.integers(1, 2 * n)), n))
        op = FactoredOperator(b_mat, draw(st.sampled_from([0.0, 1e-3, 1.0])))
    else:
        raw = rng.standard_normal((n, n))
        shift = -0.5 if kind == "indefinite" else draw(st.sampled_from([1e-3, 1.0]))
        op = DenseOperator(raw @ raw.T + shift * np.eye(n))
    b = 10.0 * rng.standard_normal(n)
    problem = QuadraticProblem(op, b, draw(st.sampled_from([0.0, 0.1, 1.5])) * np.abs(b).max())
    budgets = draw(st.lists(st.sampled_from([1, 30, 300, 2000]), min_size=1, max_size=2,
                            unique=True))
    tols = draw(st.lists(st.sampled_from([1e-1, 1e-4, 1e-10]), min_size=1, max_size=3,
                         unique=True))
    configs = [
        SolverConfig(algorithm=a, tol=tol, mv_budget=budget,
                     alpha_policy=draw(st.sampled_from([None, "constant"]))
                     if a in ("iicg1", "iicg2") else None,
                     bal_factor=draw(st.sampled_from([1.0, 1.0, 10.0])))
        for a in draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True))
        for budget in budgets
        for tol in tols
    ]
    # None: the suite's own reference; else an f* offset from the minimum
    offset = draw(st.sampled_from([None, None, 0.0, -1.0]))
    return problem, configs, offset


@settings(max_examples=40, deadline=None)
@given(_suite_case())
def test_suite_rows_equal_their_own_solves(case):
    problem, configs, offset = case
    f_star = None
    if offset is not None:
        f_ref = reference_objective(problem, max(cfg.mv_budget for cfg in configs))
        f_star = f_ref + offset * (1.0 + abs(f_ref))
    _, solved = _suite_against_own_solves(problem, configs, f_star)
    groups = {(cfg.algorithm, cfg.alpha_policy, cfg.bal_factor, cfg.mv_budget)
              for cfg in configs}
    assert len(solved) <= len(groups)
