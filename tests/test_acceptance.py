"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest
from conftest import solve_with_iterates

from ql1.bench import (
    BenchResult,
    alpha_sweep_detail,
    dolan_more,
    pareto_frontier,
    run_suite,
)
from ql1.drivers import SolverConfig, TraceRecord
from ql1.fileio import read_problem, write_problem
from ql1.first_order import ista_step
from ql1.probgen import desk_suite, gen_strict_comp
from ql1.subgrad import min_norm_subgrad, split_subgradient


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status}: {name}")
    assert not failures, f"criterion {num} failures: {failures[:10]}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_prox_oracle_equivalence():
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    resolution = 1e-4
    for trial in range(10_000):
        x = float(rng.uniform(-2, 2))
        if rng.random() < 0.3:
            x = 0.0
        g = float(rng.uniform(-1, 1))
        tau = float(rng.uniform(0, 0.5))
        alpha = float(rng.uniform(0.05, 0.3))
        span = 10.0 * alpha * (abs(g) + tau) + 1e-3
        npts = int(math.ceil(2 * span / (0.9 * resolution))) + 1
        ys = np.linspace(x - span, x + span, npts)
        model = g * (ys - x) + (ys - x) ** 2 / (2 * alpha) + tau * np.abs(ys)
        y_grid = float(ys[np.argmin(model)])
        y_solver = float(ista_step(np.array([x]), np.array([g]), tau, alpha)[0])
        if abs(y_solver - y_grid) > resolution:
            failures.append((trial, x, g, tau, alpha, y_solver, y_grid))
    elapsed = time.perf_counter() - t_start
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _report(1, f"prox oracle equivalence, 10000 coordinates in {elapsed:.1f}s", failures)


# ------------------------------------------------------- criteria 2, 3 and 4

_THEORY_RUNS = None
_THEORY_SECONDS = None


def _theory_runs():
    """50 SPD instances (n <= 50), both interleaved variants, exact-L mode."""
    global _THEORY_RUNS, _THEORY_SECONDS
    if _THEORY_RUNS is not None:
        return _THEORY_RUNS
    t_start = time.perf_counter()
    runs = []
    for seed in range(50):
        n = 10 + (seed % 5) * 10
        nnz = max(1, n // 4 + (seed % 3))
        cond = [10.0, 30.0, 80.0][seed % 3]
        tau = [0.2, 0.6, 1.5][seed % 3]
        inst = gen_strict_comp(n, nnz, cond, tau, 0.5, seed=seed)
        a = inst.problem.op.dense()
        eigs = np.linalg.eigvalsh(a)
        lam, big_l = float(eigs[0]), float(eigs[-1])
        f_star = inst.problem.objective(inst.x_star, ax=a @ inst.x_star)
        for algo in ("iicg1", "iicg2"):
            cfg = SolverConfig(
                algorithm=algo,
                tol=1e-12,
                alpha_policy="constant",
                l_value=big_l,
                c=1.0 / (8.0 * big_l),
                mv_budget=30000,
            )
            trace, xs = solve_with_iterates(inst.problem, cfg)
            runs.append((seed, algo, inst, a, lam, big_l, f_star, trace, xs))
    _THEORY_RUNS = runs
    _THEORY_SECONDS = time.perf_counter() - t_start
    return runs


def test_criterion_2_lemma_suite():
    failures = []
    for seed, algo, inst, a, lam, big_l, f_star, trace, xs in _theory_runs():
        p = inst.problem
        alpha = 1.0 / big_l
        beta = 1.0 / (8.0 * big_l)
        if trace.status != "converged":
            failures.append((seed, algo, trace.status))
            continue
        fs = [trace.f0] + [r.f for r in trace.records]
        for i, rec in enumerate(trace.records):
            x_prev = xs[i]
            f_prev, f_next = fs[i], fs[i + 1]
            g_prev = a @ x_prev - p.b
            if rec.step == "ISTA":
                if f_next - f_star > (1 - lam * alpha) * (f_prev - f_star) + 1e-10:
                    failures.append((seed, algo, i, "full-step contraction"))
            elif rec.step == "SUBISTA":
                if f_next - f_star > (1 - 0.5 * lam * alpha) * (f_prev - f_star) + 1e-10:
                    failures.append((seed, algo, i, "subspace-step contraction"))
            elif rec.step == "CG":
                v = min_norm_subgrad(x_prev, g_prev, p.tau)
                if f_next > f_prev - beta * float(v @ v) + 1e-10:
                    failures.append((seed, algo, i, "cg-step decrease"))
            parts = split_subgradient(x_prev, g_prev, p.tau, alpha)
            if np.linalg.norm(parts.support_map) > np.linalg.norm(parts.support) + 1e-12:
                failures.append((seed, algo, i, "support-map bound"))
    elapsed = _THEORY_SECONDS
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(2, f"step lemmas on 50 SPD instances in {elapsed:.1f}s", failures)


def test_criterion_3_two_step_qlinear_rate():
    failures = []
    for seed, algo, inst, a, lam, big_l, f_star, trace, _ in _theory_runs():
        beta = 1.0 / (8.0 * big_l)
        rate = 1.0 - lam * beta / 2.0
        fs = [trace.f0] + [r.f for r in trace.records]
        for k in range(len(fs) - 2):
            if fs[k + 2] - f_star > rate * (fs[k] - f_star) + 1e-10:
                failures.append((seed, algo, k))
    _report(3, "two-step q-linear recursion along every theory trace", failures)


def test_criterion_4_work_complexity_bound():
    failures = []
    eps = 1e-6
    for seed, algo, inst, a, lam, big_l, f_star, trace, _ in _theory_runs():
        beta = 1.0 / (8.0 * big_l)
        gap0 = trace.f0 - f_star
        measured = trace.mv_setup if gap0 <= eps else next(
            (r.mv for r in trace.records if r.f - f_star <= eps), None
        )
        if gap0 <= eps:
            continue
        bound = math.log(eps / gap0) / math.log(math.sqrt(1.0 - lam * beta / 2.0))
        if measured is None or measured > bound:
            failures.append((seed, algo, measured, round(bound, 1)))
    _report(4, "product count within the complexity bound at eps=1e-6", failures)


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_finite_identification():
    failures = []
    conds = [1e2, 1e3, 1e4]
    for seed in range(100):
        inst = gen_strict_comp(
            100,
            [5, 20, 50, 80][seed % 4],
            conds[seed % 3],
            [0.1, 0.5, 2.0][seed % 3],
            0.5,
            seed=seed,
        )
        p = inst.problem
        a = p.op.dense()
        v0 = float(np.abs(min_norm_subgrad(np.zeros(100), -p.b, p.tau)).max())
        tol = 1e-10 / max(1.0, v0)
        target_sign = np.sign(inst.x_star)
        for algo in ("iicg1", "iicg2"):
            trace, xs = solve_with_iterates(p, SolverConfig(algorithm=algo, tol=tol))
            if trace.status != "converged":
                failures.append((seed, algo, trace.status))
                continue
            g = a @ trace.final_x - p.b
            v_inf = float(np.abs(min_norm_subgrad(trace.final_x, g, p.tau)).max())
            if v_inf > 1e-10:
                failures.append((seed, algo, "subgradient norm", v_inf))
            if not np.array_equal(np.sign(trace.final_x), target_sign):
                failures.append((seed, algo, "final sign pattern"))
            last_phase = []
            for rec, x in zip(reversed(trace.records), reversed(xs[1:])):
                if rec.step in ("CG", "CUTBACK"):
                    last_phase.append(x)
                elif last_phase:
                    break
            if any(not np.array_equal(np.sign(x), target_sign) for x in last_phase):
                failures.append((seed, algo, "sign drift in last CG phase"))
    _report(5, "identification on 100 strict-complementarity instances", failures)


# ---------------------------------------------------------------- criterion 6


def _is_spd(row) -> bool:
    """The manifest row's ``spd=`` parameter: 1 when A is positive definite."""
    return dict(item.split("=", 1) for item in row.params.split(";"))["spd"] == "1"


def test_criterion_6_suite_cross_agreement(desk_manifest, desk_fstars):
    failures = []
    tol = 1e-4
    configs = [SolverConfig(algorithm=s, tol=tol) for s in ("iicg1", "iicg2", "fista", "istabb")]
    results = run_suite(desk_manifest, configs, f_stars=desk_fstars)
    by_problem: dict[str, list[BenchResult]] = {}
    for r in results:
        by_problem.setdefault(r.problem, []).append(r)
    for problem, cells in by_problem.items():
        converged = [r for r in cells if r.mv is not None]
        if len(converged) >= 2:
            spread = max(r.final_accuracy for r in converged) - min(
                r.final_accuracy for r in converged
            )
            if spread > 10 * tol:
                failures.append((problem, "objective disagreement", spread))

    spd_rows = [row for row in desk_manifest if _is_spd(row)]
    configs = [SolverConfig(algorithm=s, tol=1e-10) for s in ("iicg1", "iicg2")]
    high = run_suite(spd_rows, configs, f_stars=desk_fstars)
    for r in high:
        if r.mv is None or r.mv > 50000:
            failures.append((r.problem, r.solver, "high-accuracy failure", r.status))
    _report(6, "desk suite: 4-solver agreement at 1e-4, interleaved at 1e-10", failures)


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_balance_steplength_sweep(desk_manifest, desk_fstars):
    failures = []
    factors = [1.0, 10.0, 100.0]
    spd_rows = [row for row in desk_manifest if _is_spd(row)]
    detail = alpha_sweep_detail(spd_rows, factors, tol=1e-4, f_stars=desk_fstars)
    for factor, by_problem in detail.statuses.items():
        for problem, status in by_problem.items():
            if status != "converged":
                failures.append((factor, problem, status))
    for factor, inflation in detail.table:
        if not math.isfinite(inflation):
            failures.append((factor, "non-finite inflation"))
    line = ", ".join(f"{f:g}x -> {v:.3f}" for f, v in detail.table)
    _report(7, f"balance sweep inflation [{line}]", failures)


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_benchmark_tooling(tmp_path):
    failures = []

    # performance profile hand example: metric rows [1, 2] and [2, 2]
    results = [
        BenchResult("p1", "s1", 1e-4, 1, 0.0, 0.0, "converged"),
        BenchResult("p1", "s2", 1e-4, 2, 0.0, 0.0, "converged"),
        BenchResult("p2", "s1", 1e-4, 2, 0.0, 0.0, "converged"),
        BenchResult("p2", "s2", 1e-4, 2, 0.0, 0.0, "converged"),
    ]
    curves = {
        (p.solver, round(2.0 ** p.log2_theta, 9)): p.rho for p in dolan_more(results)
    }
    if not (
        curves[("s1", 1.0)] == 1.0
        and curves[("s2", 1.0)] == 0.5
        and curves[("s2", 2.0)] == 1.0
    ):
        failures.append(("dolan-more hand example", curves))

    # pareto hand examples
    def recs(pairs):
        return [
            TraceRecord(mv=i + 1, k=i + 1, f=1.0 + acc, nnz=nnz, step="ISTA")
            for i, (acc, nnz) in enumerate(pairs)
        ]

    front = pareto_frontier(recs([(0.05, 7), (0.1, 4), (0.2, 2)]), 1.0)
    if [(round(a, 9), n) for a, n in front] != [(0.05, 7), (0.1, 4), (0.2, 2)]:
        failures.append(("pareto all-retained example", front))
    front = pareto_frontier(recs([(0.05, 4), (0.05, 7)]), 1.0)
    if [(round(a, 9), n) for a, n in front] != [(0.05, 4)]:
        failures.append(("pareto tie example", front))
    front = pareto_frontier(recs([(0.3, 9)]), 1.0)
    if [(round(a, 9), n) for a, n in front] != [(0.3, 9)]:
        failures.append(("pareto singleton example", front))

    # problem file round trip is bit-exact
    inst = gen_strict_comp(20, 6, 50.0, 0.4, 0.5, seed=77)
    path_a = tmp_path / "roundtrip_a.ql1p"
    path_b = tmp_path / "roundtrip_b.ql1p"
    write_problem(path_a, inst.problem)
    write_problem(path_b, read_problem(path_a))
    if path_a.read_bytes() != path_b.read_bytes():
        failures.append(("roundtrip bytes",))

    # identical seeds give byte-identical suite files across runs
    dir_a = tmp_path / "suite_a"
    dir_b = tmp_path / "suite_b"
    rows_a = desk_suite(dir_a)
    rows_b = desk_suite(dir_b)
    if [r.problem for r in rows_a] != [r.problem for r in rows_b]:
        failures.append(("suite row mismatch",))
    else:
        for ra, rb in zip(rows_a, rows_b):
            with open(ra.path, "rb") as fa, open(rb.path, "rb") as fb:
                if fa.read() != fb.read():
                    failures.append(("suite bytes differ", ra.problem))
    _report(8, "profile/pareto hand examples, bit-exact files, reproducible suite", failures)
