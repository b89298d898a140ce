"""Batch benchmark harness: suites, performance profiles, Pareto frontiers.

Results use matrix-vector products as the primary work metric; the
accuracy of an incumbent changes only when a step is accepted, so the
first trace record whose accuracy meets the target gives the product
count at which the target was reached. Failures (budget exhausted or
stalled before the target) follow the dash convention in CSV output.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from ql1.drivers import (
    RunTrace,
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


def mv_to_accuracy(trace: RunTrace, f_star: float, tol: float) -> int | None:
    """First matrix-vector count at which the incumbent met the target."""
    if accuracy(trace.f0, f_star) <= tol:
        return trace.mv_setup
    for rec in trace.records:
        if accuracy(rec.f, f_star) <= tol:
            return rec.mv
    return None


def run_suite(
    manifest: list[ManifestRow],
    solvers: list[str],
    tols: list[float],
    mv_budget: int = 50000,
    f_stars: dict[str, float] | None = None,
) -> list[BenchResult]:
    """One BenchResult per (problem, solver, tol).

    Reference objectives come from ``f_stars`` when given (keyed by
    problem name), otherwise from a high-accuracy reference solve per
    problem. A missing or unreadable problem file produces per-row error
    entries and the suite continues.
    """
    results: list[BenchResult] = []
    for row in manifest:
        try:
            problem = read_problem(row.path)
        except (OSError, ValueError) as exc:
            for solver in solvers:
                for tol in tols:
                    results.append(
                        BenchResult(row.problem, solver, tol, None, 0.0, math.inf, f"error: {exc}")
                    )
            continue
        if f_stars is not None and row.problem in f_stars:
            f_star = f_stars[row.problem]
        else:
            f_star = reference_objective(problem, mv_budget)
        for solver in solvers:
            for tol in tols:
                cfg = SolverConfig(
                    algorithm=solver,
                    termination="fstar",
                    f_star=f_star,
                    tol=tol,
                    mv_budget=mv_budget,
                )
                t0 = time.perf_counter()
                trace = solve(problem, cfg)
                seconds = time.perf_counter() - t0
                mv = mv_to_accuracy(trace, f_star, tol)
                if mv is not None and mv > mv_budget:
                    mv = None  # the set-up alone used more than the budget
                final_acc = accuracy(trace.f_best, f_star)
                results.append(
                    BenchResult(row.problem, solver, tol, mv, seconds, final_acc, trace.status)
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
    if not solvers:
        return []
    cells: dict[tuple[str, float], dict[str, float]] = {}
    for r in results:
        key = (r.problem, r.tol)
        value = math.inf
        if r.mv is not None:
            value = float(r.mv) if metric == "mv" else r.seconds
        cells.setdefault(key, {})[r.solver] = value

    ratios: dict[str, list[float]] = {s: [] for s in solvers}
    n_problems = 0
    for key, per_solver in cells.items():
        best = min(per_solver.get(s, math.inf) for s in solvers)
        if not math.isfinite(best):
            warnings.warn(f"all solvers failed on {key[0]} at tol={key[1]:g}; excluded")
            continue
        n_problems += 1
        for s in solvers:
            value = per_solver.get(s, math.inf)
            if not math.isfinite(value):
                ratios[s].append(math.inf)
            elif best == 0.0:
                ratios[s].append(1.0 if value == 0.0 else math.inf)
            else:
                ratios[s].append(value / best)
    if n_problems == 0:
        return []

    breakpoints = sorted({r for rs in ratios.values() for r in rs if math.isfinite(r)})
    if not breakpoints:
        breakpoints = [1.0]
    points: list[ProfilePoint] = []
    for s in solvers:
        arr = np.array(ratios[s])
        for theta in breakpoints:
            rho = float(np.mean(arr <= theta))
            points.append(ProfilePoint(solver=s, log2_theta=math.log2(theta), rho=rho))
    return points


def pareto_frontier(
    records: list[TraceRecord] | RunTrace, f_star: float
) -> list[tuple[float, int]]:
    """Non-dominated (accuracy, nonzeros) pairs over a trace, accuracy ascending.

    A record dominates another when its accuracy and nonzero count are
    both no larger and at least one is strictly smaller.
    """
    if isinstance(records, RunTrace):
        records = records.records
    pairs = [(accuracy(rec.f, f_star), rec.nnz) for rec in records]
    if not pairs:
        return []
    pairs.sort()
    frontier: list[tuple[float, int]] = []
    best_nnz = None
    last_acc = None
    for acc, nnz in pairs:
        if best_nnz is not None and nnz >= best_nnz:
            continue
        if last_acc is not None and acc == last_acc:
            continue
        frontier.append((acc, nnz))
        best_nnz = nnz
        last_acc = acc
    return frontier


def cg_phase_histogram(records: list[TraceRecord] | RunTrace) -> list[tuple[int, int]]:
    """(phase index, step count) per run of consecutive CG/cutback records."""
    if isinstance(records, RunTrace):
        records = records.records
    phases: list[tuple[int, int]] = []
    count = 0
    for rec in records:
        if rec.step in ("CG", "CUTBACK"):
            count += 1
        elif count:
            phases.append((len(phases) + 1, count))
            count = 0
    if count:
        phases.append((len(phases) + 1, count))
    return phases


@dataclass
class SweepDetail:
    table: list[tuple[float, float]]               # (factor, mean inflation)
    mv: dict[float, dict[str, float]]              # factor -> problem -> products used
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
    the full budget).
    """
    if any(f < 1.0 for f in factors):
        raise ValueError("factors must be at least 1")
    if 1.0 not in factors:
        raise ValueError("factor 1 must be included as the baseline")
    mv_tables: dict[float, dict[str, float]] = {f: {} for f in factors}
    status_tables: dict[float, dict[str, str]] = {f: {} for f in factors}
    for row in manifest:
        problem = read_problem(row.path)
        if f_stars is not None and row.problem in f_stars:
            f_star = f_stars[row.problem]
        else:
            f_star = reference_objective(problem, mv_budget)
        for factor in factors:
            cfg = SolverConfig(
                algorithm="iicg2",
                termination="fstar",
                f_star=f_star,
                tol=tol,
                mv_budget=mv_budget,
                bal_factor=factor,
            )
            trace = solve(problem, cfg)
            mv = mv_to_accuracy(trace, f_star, tol)
            mv_tables[factor][row.problem] = float(mv) if mv is not None else float(mv_budget)
            status_tables[factor][row.problem] = trace.status
    base = mv_tables[1.0]
    table: list[tuple[float, float]] = []
    for factor in factors:
        infl = [mv_tables[factor][p] / max(base[p], 1.0) for p in base]
        table.append((factor, float(np.mean(infl)) if infl else math.nan))
    return SweepDetail(table=table, mv=mv_tables, statuses=status_tables)


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
