"""Command-line interface.

Subcommands: gen, solve, fstar, bench, profile, pareto, sweep. All
outputs are CSV files (or single values on stdout); no plotting. Exit
codes: 0 on success, 1 when any per-row error occurred or a value is out
of range, 2 on usage errors, among them an empty or unparsable comma list.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ql1 import bench as bench_mod
from ql1 import drivers, probgen
from ql1.fileio import read_manifest, read_problem, write_problem


def _comma_list(convert):
    """An argparse type: a comma-separated list, each item passed through ``convert``.

    Blank items are skipped. An empty list, or an item that ``convert``
    rejects with ValueError, is a usage error.
    """

    def parse(text: str) -> list:
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        try:
            return [convert(item) for item in items]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _solver(name: str) -> str:
    if name not in drivers.ALGORITHMS:
        raise ValueError(f"unknown solver {name!r}; choose from {', '.join(drivers.ALGORITHMS)}")
    return name


def _add_gen(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gen", help="generate a problem file or the default suite")
    p.add_argument("--family", required=True,
                   choices=["elastic-net", "sigrec", "strict-comp", "suite"])
    p.add_argument("--out", required=True, help="output .ql1p file (or directory for suite)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=250)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--scale", type=float, default=500.0, help="elastic-net observation scale")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--signal-nnz", type=int, default=32, help="sigrec spike count")
    p.add_argument("--noise-sigma", type=float, default=0.01, help="sigrec noise level")
    p.add_argument("--nnz", type=int, default=25, help="strict-comp solution support size")
    p.add_argument("--cond", type=float, default=100.0, help="strict-comp condition target")
    p.add_argument("--margin", type=float, default=0.5, help="strict-comp complementarity margin")


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "suite":
        rows = probgen.desk_suite(args.out)
        print(f"wrote {len(rows)} instances and manifest.csv to {args.out}")
        return 0
    if args.family == "elastic-net":
        inst = probgen.gen_elastic_net(args.m, args.n, args.scale, args.gamma, args.tau, args.seed)
    elif args.family == "sigrec":
        inst = probgen.gen_sigrec(
            args.m, args.n, args.signal_nnz, args.noise_sigma, args.gamma, args.tau, args.seed
        )
    else:
        inst = probgen.gen_strict_comp(
            args.n, args.nnz, args.cond, args.tau, args.margin, args.seed
        )
    write_problem(args.out, inst.problem)
    print(f"wrote {inst.family} instance (n={inst.problem.n}, tau={inst.problem.tau:g}) to {args.out}")
    return 0


def _add_solve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("solve", help="solve one problem file")
    p.add_argument("problem", help="input .ql1p file")
    p.add_argument("--algorithm", default="iicg2", choices=list(drivers.ALGORITHMS))
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--fstar", type=float, default=None,
                   help="reference objective; stop once the accuracy against it is at most tol")
    p.add_argument("--budget", type=int, default=50000)
    p.add_argument("--alpha-policy", default=None, choices=["bb", "constant"])
    p.add_argument("--trace-out", default=None, help="write the run trace CSV here")


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = read_problem(args.problem)
    cfg = drivers.SolverConfig(
        algorithm=args.algorithm,
        tol=args.tol,
        f_star=args.fstar,
        mv_budget=args.budget,
        alpha_policy=args.alpha_policy,
    )
    trace = drivers.solve(problem, cfg)
    if args.trace_out:
        drivers.write_trace_csv(trace, args.trace_out)
    # final_x is the last point of a converged solve and the best one otherwise
    converged = trace.status == drivers.STATUS_CONVERGED
    f = trace.f_final if converged else trace.f_best
    print(
        f"status={trace.status} mv={trace.mv_total} steps={len(trace.records)} "
        f"F={f:.12e} nnz={int(np.count_nonzero(trace.final_x))}"
    )
    return 0 if converged else 1


def _add_fstar(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("fstar", help="high-accuracy reference objective for one problem")
    p.add_argument("problem")
    p.add_argument("--budget", type=int, default=50000,
                   help="base budget; the reference run uses four times this")


def _cmd_fstar(args: argparse.Namespace) -> int:
    problem = read_problem(args.problem)
    print(f"{drivers.reference_objective(problem, args.budget):.17g}")
    return 0


def _add_bench(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("bench", help="run a benchmark suite from a manifest")
    p.add_argument("manifest")
    p.add_argument("--solvers", type=_comma_list(_solver), default="iicg1,iicg2,fista,istabb",
                   help="comma-separated solver names")
    p.add_argument("--tols", type=_comma_list(float), default="1e-4,1e-10",
                   help="comma-separated accuracy targets")
    p.add_argument("--budget", type=int, default=50000)
    p.add_argument("--out", required=True, help="output bench CSV")


def _cmd_bench(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.manifest)
    configs = [
        drivers.SolverConfig(algorithm=s, tol=t, mv_budget=args.budget)
        for s in args.solvers
        for t in args.tols
    ]
    results = bench_mod.run_suite(manifest, configs)
    bench_mod.write_bench_csv(args.out, results)
    errors = sum(1 for r in results if r.status.startswith("error"))
    print(f"wrote {len(results)} results to {args.out} ({errors} errors)")
    return 1 if errors else 0


def _add_profile(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("profile", help="performance profile curves from a bench CSV")
    p.add_argument("bench_csv")
    p.add_argument("--metric", default="mv", choices=["mv", "time"])
    p.add_argument("--out", required=True)


def _cmd_profile(args: argparse.Namespace) -> int:
    results = bench_mod.read_bench_csv(args.bench_csv)
    points = bench_mod.dolan_more(results, metric=args.metric)
    bench_mod.write_profile_csv(args.out, points)
    print(f"wrote {len(points)} profile points to {args.out}")
    return 0


def _add_pareto(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("pareto", help="accuracy/sparsity frontier from a trace CSV")
    p.add_argument("trace_csv")
    p.add_argument("--fstar", type=float, required=True)
    p.add_argument("--out", required=True)


def _cmd_pareto(args: argparse.Namespace) -> int:
    records = drivers.read_trace_records(args.trace_csv)
    frontier = bench_mod.pareto_frontier(records, args.fstar)
    bench_mod.write_pareto_csv(args.out, frontier)
    print(f"wrote {len(frontier)} frontier points to {args.out}")
    return 0


def _add_sweep(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sweep", help="balance-steplength sensitivity sweep")
    p.add_argument("manifest")
    p.add_argument("--factors", type=_comma_list(float), default="1,10,100",
                   help="comma-separated factors (>= 1)")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--budget", type=int, default=50000)
    p.add_argument("--out", required=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.manifest)
    table = bench_mod.alpha_sweep_detail(
        manifest, args.factors, tol=args.tol, mv_budget=args.budget
    ).table
    bench_mod.write_sweep_csv(args.out, table)
    print(f"wrote sweep table ({len(table)} factors) to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "fstar": _cmd_fstar,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "pareto": _cmd_pareto,
    "sweep": _cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ql1", description="Quadratic l1-regularized solvers and benchmark tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_solve(sub)
    _add_fstar(sub)
    _add_bench(sub)
    _add_profile(sub)
    _add_pareto(sub)
    _add_sweep(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
