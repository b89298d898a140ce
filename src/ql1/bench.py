"""Batch benchmark harness: suites, performance profiles, Pareto frontiers.

Results use matrix-vector products as the primary work metric. A suite
row is the first accepted point (the start included) of its config's
solve whose accuracy against f* meets the row's target, so a converged
row's product count is the work needed to reach it. Failures (budget
exhausted or stalled before the target) follow the dash convention in
CSV output.

A target changes only where a solve stops, so ``run_suite`` reads every
row that one trajectory settles off that trajectory's trace: configs
that differ only in their target share one solve, at the tightest
target, and an iiCG-2 row at the reference's settings is read off the
reference solve itself. A row read off a trace has the ``mv``, accuracy
and status that a solve of its own would have had, and its ``seconds``
are the time from that solve's beginning to the row's point.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import astuple, dataclass, replace

import numpy as np

from ql1.drivers import (
    BUDGET_REACH,
    STATUS_CONVERGED,
    RunTrace,
    SolverConfig,
    TraceRecord,
    accuracy,
    reference_config,
    reference_objective,
    solve,
)
from ql1.fileio import ManifestRow, read_csv, read_problem, write_csv


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
    the largest ``mv_budget`` among the configs. ``mv`` is the product
    count at which the config's solve first met its target, when it did
    within its budget, and None otherwise. A missing or unreadable
    problem file produces per-row error entries and the suite continues.

    Each trajectory is solved once (module docstring). Configs that
    differ only in ``tol`` and ``f_star`` form a group, solved at its
    tightest tol; a looser row is that trace's first point within its
    tol, and where the solve ended (``budget``, ``stalled`` or
    ``unbounded``) before it, the row gets the same status and
    ``f_best``. An iiCG-2 config equal to :func:`reference_config` but
    for ``tol``, ``f_star`` and ``mv_budget`` is read off the reference
    trace when its point comes more than ``BUDGET_REACH`` products
    before the config's own budget, where the budget cannot yet have
    shaped the trajectory; otherwise it is solved with its group. A
    row's ``seconds`` run from the beginning of the solve it was read off
    to its point (a record's ``t``, or the trace's ``t_setup`` at the
    start); a row whose solve ended before its target has the solve's
    wall time.
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
        ref_traces: list[RunTrace] = []
        if f_stars is not None and row.problem in f_stars:
            f_star = f_stars[row.problem]
        else:
            f_star = reference_objective(problem, ref_budget, trace_out=ref_traces)
        ref = (ref_traces[0], reference_config(ref_budget)) if ref_traces else None
        results.extend(_problem_rows(row.problem, problem, configs, f_star, ref))
    return results


def _problem_rows(name: str, problem, configs: list[SolverConfig], f_star: float,
                  ref: tuple[RunTrace, SolverConfig] | None) -> list[BenchResult]:
    """One problem's rows, in config order; ``ref`` is the reference's trace and config."""
    rows: list[BenchResult | None] = [None] * len(configs)
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        if ref is not None:
            ref_trace, ref_cfg = ref
            if replace(cfg, tol=ref_cfg.tol, f_star=None, mv_budget=ref_cfg.mv_budget) == ref_cfg:
                point = _first_within(ref_trace, f_star, cfg.tol)
                if point is not None and point[0] < cfg.mv_budget - BUDGET_REACH:
                    rows[i] = _reached(name, cfg, f_star, point)
                    continue
        groups.setdefault(astuple(replace(cfg, tol=1.0, f_star=None)), []).append(i)
    for members in groups.values():
        tightest = min(configs[i].tol for i in members)
        t0 = time.perf_counter()
        trace = solve(problem, replace(configs[members[0]], tol=tightest, f_star=f_star))
        seconds = time.perf_counter() - t0
        for i in members:
            cfg = configs[i]
            point = _first_within(trace, f_star, cfg.tol)
            if point is not None:
                rows[i] = _reached(name, cfg, f_star, point)
            else:
                # the solve ended before this target, as a solve of its own would
                rows[i] = BenchResult(name, cfg.algorithm, cfg.tol, None, seconds,
                                      accuracy(trace.f_best, f_star), trace.status)
    return rows


def _first_within(trace: RunTrace, f_star: float, tol: float) -> tuple[int, float, float] | None:
    """(mv, t, best F so far) at the trace's first point within tol of f*, the
    start included, or None when no point is."""
    best = trace.f0
    if accuracy(best, f_star) <= tol:
        return trace.mv_setup, trace.t_setup, best
    for rec in trace.records:
        if rec.f < best:
            best = rec.f
        if accuracy(rec.f, f_star) <= tol:
            return rec.mv, rec.t, best
    return None


def _reached(name: str, cfg: SolverConfig, f_star: float,
             point: tuple[int, float, float]) -> BenchResult:
    """The row of a config whose target was met at ``point`` (see :func:`_first_within`)."""
    mv, seconds, f_best = point
    # a set-up that alone exceeds the budget still fails
    return BenchResult(name, cfg.algorithm, cfg.tol, mv if mv <= cfg.mv_budget else None,
                       seconds, accuracy(f_best, f_star), STATUS_CONVERGED)


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
    write_csv(path, ["problem", "solver", "tol", "mv", "seconds", "accuracy", "status"],
              ([r.problem, r.solver, f"{r.tol:g}", r.mv if r.mv is not None else "-",
                f"{r.seconds:.6f}", f"{r.final_accuracy:.6e}", r.status] for r in results))


def read_bench_csv(path) -> list[BenchResult]:
    columns = {
        "problem": str,
        "solver": str,
        "tol": float,
        "mv": lambda text: None if text == "-" else int(text),
        "seconds": float,
        "accuracy": float,
        "status": str,
    }
    return [
        BenchResult(row["problem"], row["solver"], row["tol"], row["mv"], row["seconds"],
                    row["accuracy"], row["status"])
        for row in read_csv(path, columns)
    ]


def write_profile_csv(path, points: list[ProfilePoint]) -> None:
    write_csv(path, ["solver", "log2_theta", "rho"],
              ([p.solver, f"{p.log2_theta:.10g}", f"{p.rho:.10g}"] for p in points))


def write_pareto_csv(path, frontier: list[tuple[float, int]]) -> None:
    write_csv(path, ["accuracy", "nnz"], ([f"{acc:.17g}", nnz] for acc, nnz in frontier))


def write_sweep_csv(path, table: list[tuple[float, float]]) -> None:
    write_csv(path, ["factor", "mean_inflation"],
              ([f"{factor:g}", f"{infl:.10g}"] for factor, infl in table))
