"""Batch benchmark harness: suites, performance profiles, Pareto frontiers.

Results use matrix-vector products as the primary work metric. Each
suite solve stops at the first accepted step whose accuracy against f*
meets the target, so a converged solve's product count is the work
needed to reach it. Failures (budget exhausted or stalled before the
target) follow the dash convention in CSV output.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ql1.drivers import (
    STATUS_CONVERGED,
    SolverConfig,
    TraceRecord,
    accuracy,
    reference_objective,
    solve,
)
from ql1.fileio import ManifestRow, read_problem


@dataclass
class BenchResult:
    problem: str
    solver: str
    tol: float
    mv: int | None          # None means failure (dash in CSV)
    seconds: float
    final_accuracy: float
    status: str


def run_suite(
    manifest: list[ManifestRow],
    configs: list[SolverConfig],
    f_stars: dict[str, float] | None = None,
) -> list[BenchResult]:
    """One BenchResult per (problem, config), each config solved against the row's f*.

    The reference objective comes from ``f_stars`` when given (keyed by
    problem name), otherwise from a high-accuracy reference solve with
    the largest ``mv_budget`` among the configs. ``mv`` is the solve's
    product count when it converged within its budget, and None
    otherwise. A missing or unreadable problem file produces per-row
    error entries and the suite continues.
    """
    results: list[BenchResult] = []
    if not configs:
        return results
    ref_budget = max(cfg.mv_budget for cfg in configs)
    for row in manifest:
        try:
            problem = read_problem(row.path)
        except (OSError, ValueError) as exc:
            error = f"error: {exc}"
            results.extend(
                BenchResult(row.problem, cfg.algorithm, cfg.tol, None, 0.0, math.inf, error)
                for cfg in configs
            )
            continue
        if f_stars is not None and row.problem in f_stars:
            f_star = f_stars[row.problem]
        else:
            f_star = reference_objective(problem, ref_budget)
        for cfg in configs:
            t0 = time.perf_counter()
            trace = solve(problem, replace(cfg, f_star=f_star))
            seconds = time.perf_counter() - t0
            # the run stops at the first record within tol; a set-up that
            # alone exceeds the budget still fails
            reached = trace.status == STATUS_CONVERGED and trace.mv_total <= cfg.mv_budget
            mv = trace.mv_total if reached else None
            acc = accuracy(trace.f_best, f_star)
            results.append(
                BenchResult(row.problem, cfg.algorithm, cfg.tol, mv, seconds, acc, trace.status)
            )
    return results


@dataclass
class ProfilePoint:
    solver: str
    log2_theta: float
    rho: float


def dolan_more(results: list[BenchResult], metric: str = "mv") -> list[ProfilePoint]:
    """Performance profile curves over all (problem, tol) cells.

    For each solver s the curve value at ratio theta is the fraction of
    problems whose metric is within a factor theta of the per-problem
    best; failures count as infinite ratios. Problems where every solver
    fails are excluded with a warning. Curves are emitted at every
    breakpoint ratio observed, with log2(theta) alongside.
    """
    if metric not in ("mv", "time"):
        raise ValueError(f"unknown metric {metric!r}")
    solvers = sorted({r.solver for r in results})
    cells: dict[tuple[str, float], dict[str, float]] = {}
    for r in results:
        key = (r.problem, r.tol)
        value = math.inf
        if r.mv is not None:
            value = float(r.mv) if metric == "mv" else r.seconds
        cells.setdefault(key, {})[r.solver] = value

    ratios: dict[str, list[float]] = {s: [] for s in solvers}
    for key, per_solver in cells.items():
        best = min(per_solver.get(s, math.inf) for s in solvers)
        if not math.isfinite(best):
            warnings.warn(f"all solvers failed on {key[0]} at tol={key[1]:g}; excluded")
            continue
        for s in solvers:
            value = per_solver.get(s, math.inf)
            if not math.isfinite(value):
                ratios[s].append(math.inf)
            elif best == 0.0:
                ratios[s].append(1.0 if value == 0.0 else math.inf)
            else:
                ratios[s].append(value / best)

    # every included cell gives its best solver a finite ratio
    breakpoints = sorted({r for rs in ratios.values() for r in rs if math.isfinite(r)})
    if not breakpoints:
        return []
    points: list[ProfilePoint] = []
    for s in solvers:
        arr = np.array(ratios[s])
        for theta in breakpoints:
            rho = float(np.mean(arr <= theta))
            points.append(ProfilePoint(solver=s, log2_theta=math.log2(theta), rho=rho))
    return points


def pareto_frontier(records: list[TraceRecord], f_star: float) -> list[tuple[float, int]]:
    """Non-dominated (accuracy, nonzeros) pairs over trace records, accuracy ascending.

    A record dominates another when its accuracy and nonzero count are
    both no larger and at least one is strictly smaller.
    """
    pairs = sorted((accuracy(rec.f, f_star), rec.nnz) for rec in records)
    # sorted by (accuracy, nnz), so an accuracy tie never has fewer nonzeros
    frontier: list[tuple[float, int]] = []
    best_nnz = None
    for acc, nnz in pairs:
        if best_nnz is not None and nnz >= best_nnz:
            continue
        frontier.append((acc, nnz))
        best_nnz = nnz
    return frontier


@dataclass
class SweepDetail:
    table: list[tuple[float, float]]               # (factor, mean inflation)
    statuses: dict[float, dict[str, str]]          # factor -> problem -> status


def alpha_sweep_detail(
    manifest: list[ManifestRow],
    factors: list[float],
    tol: float = 1e-4,
    mv_budget: int = 50000,
    f_stars: dict[str, float] | None = None,
) -> SweepDetail:
    """Work inflation of iiCG-2 when the balance steplength is shrunk.

    For each factor the balance test uses 1/(factor * L_est); the
    reported number is the mean over problems of the ratio of products
    used at that factor to products used at factor 1 (failures enter as
    the full budget). A problem file that cannot be read raises
    ValueError.
    """
    if any(f < 1.0 for f in factors):
        raise ValueError("factors must be at least 1")
    if 1.0 not in factors:
        raise ValueError("factor 1 must be included as the baseline")
    configs = [
        SolverConfig(algorithm="iicg2", tol=tol, mv_budget=mv_budget, bal_factor=factor)
        for factor in factors
    ]
    results = run_suite(manifest, configs, f_stars)
    mv_tables: dict[float, dict[str, float]] = {f: {} for f in factors}
    status_tables: dict[float, dict[str, str]] = {f: {} for f in factors}
    for i, r in enumerate(results):
        if r.status.startswith("error"):
            raise ValueError(f"cannot read {r.problem}: {r.status.removeprefix('error: ')}")
        factor = factors[i % len(factors)]  # each problem gets one row per config in turn
        mv_tables[factor][r.problem] = float(r.mv) if r.mv is not None else float(mv_budget)
        status_tables[factor][r.problem] = r.status
    base = mv_tables[1.0]
    table: list[tuple[float, float]] = []
    for factor in factors:
        infl = [mv_tables[factor][p] / max(base[p], 1.0) for p in base]
        table.append((factor, float(np.mean(infl)) if infl else math.nan))
    return SweepDetail(table=table, statuses=status_tables)


def write_bench_csv(path, results: list[BenchResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "solver", "tol", "mv", "seconds", "accuracy", "status"])
        for r in results:
            writer.writerow(
                [
                    r.problem,
                    r.solver,
                    f"{r.tol:g}",
                    r.mv if r.mv is not None else "-",
                    f"{r.seconds:.6f}",
                    f"{r.final_accuracy:.6e}",
                    r.status,
                ]
            )


def read_bench_csv(path) -> list[BenchResult]:
    results = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            mv = None if row["mv"] == "-" else int(row["mv"])
            results.append(
                BenchResult(
                    problem=row["problem"],
                    solver=row["solver"],
                    tol=float(row["tol"]),
                    mv=mv,
                    seconds=float(row["seconds"]),
                    final_accuracy=float(row["accuracy"]),
                    status=row["status"],
                )
            )
    return results


def write_profile_csv(path, points: list[ProfilePoint]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "log2_theta", "rho"])
        for p in points:
            writer.writerow([p.solver, f"{p.log2_theta:.10g}", f"{p.rho:.10g}"])


def write_pareto_csv(path, frontier: list[tuple[float, int]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["accuracy", "nnz"])
        for acc, nnz in frontier:
            writer.writerow([f"{acc:.17g}", nnz])


def write_sweep_csv(path, table: list[tuple[float, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["factor", "mean_inflation"])
        for factor, infl in table:
            writer.writerow([f"{factor:g}", f"{infl:.10g}"])
