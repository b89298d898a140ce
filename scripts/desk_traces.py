"""Digest the solver traces of the desk suite, and diff two digests.

Run from the repository root:

    python3 scripts/desk_traces.py write --out desk.json
    python3 scripts/desk_traces.py diff parent.json desk.json

``write`` generates the 48-instance desk suite in a temporary directory and
solves 14 items on each instance, 672 in all:

- iicg1, iicg2, istabb and fista with the subgradient-norm stop at 1e-6
  and at 1e-10;
- iicg1 and iicg2 with the constant steplength at 1e-8;
- the reference solve that ``reference_objective`` makes;
- fista, istabb and iicg2 stopped at accuracy 1e-4 against that f*.

For each item it stores the sha256 of the trace records and the
``final_x`` bytes, the status, ``mv_total``, ``mv_setup`` and ``f_best``,
and for each kind of item the products and the records of each step name
(ISTA, SUBISTA, CG, CUTBACK, LSFALLBACK), summed over the 48 instances.

``diff A B`` lists every item whose entry differs, then the summed products
and step counts of each kind from A to B; a digest written before step
counts were stored still diffs, without the step table. It exits 1 when
any item differs, and 0 when the two digests agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import ql1.drivers as drivers
from ql1.drivers import RunTrace, SolverConfig
from ql1.fileio import read_problem
from ql1.probgen import desk_suite

# (name, config) of each item but the reference; fstar items get f* set.
KINDS = (
    [(f"{alg} vnorm {tol:g}", SolverConfig(algorithm=alg, tol=tol))
     for tol in (1e-6, 1e-10) for alg in ("iicg1", "iicg2", "istabb", "fista")]
    + [(f"{alg} constant 1e-08", SolverConfig(algorithm=alg, tol=1e-8, alpha_policy="constant"))
       for alg in ("iicg1", "iicg2")]
    + [(f"{alg} fstar 0.0001", SolverConfig(algorithm=alg, tol=1e-4))
       for alg in ("fista", "istabb", "iicg2")]
)
REFERENCE = "reference"


def digest(trace: RunTrace) -> dict:
    h = hashlib.sha256()
    for r in trace.records:
        h.update(f"{r.mv},{r.k},{r.f.hex()},{r.nnz},{r.step}\n".encode())
    h.update(trace.final_x.tobytes())
    return {"sha256": h.hexdigest(), "status": trace.status, "mv_total": trace.mv_total,
            "mv_setup": trace.mv_setup, "f_best": trace.f_best}


def reference_trace(problem) -> RunTrace:
    """The trace of the one solve that ``reference_objective`` runs."""
    solve, traces = drivers.solve, []

    def keep(*args, **kwargs):
        traces.append(solve(*args, **kwargs))
        return traces[-1]

    drivers.solve = keep
    try:
        drivers.reference_objective(problem)
    finally:
        drivers.solve = solve
    (trace,) = traces
    return trace


def write(args: argparse.Namespace) -> int:
    items: dict[str, dict] = {}
    mv = Counter()
    steps = defaultdict(Counter)
    with tempfile.TemporaryDirectory() as tmp:
        for row in desk_suite(tmp):
            problem = read_problem(row.path)
            ref = reference_trace(problem)
            traces = {REFERENCE: ref}
            for kind, cfg in KINDS:
                if "fstar" in kind:
                    cfg = replace(cfg, f_star=ref.f_best)
                traces[kind] = drivers.solve(problem, cfg)
            for kind, trace in traces.items():
                items[f"{row.problem} {kind}"] = digest(trace)
                mv[kind] += trace.mv_total
                steps[kind].update(r.step for r in trace.records)
            print(row.problem, file=sys.stderr, flush=True)
    Path(args.out).write_text(
        json.dumps({"items": items, "mv_totals": mv, "steps": steps}, indent=1) + "\n")
    return 0


def diff(args: argparse.Namespace) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    lines = []
    for key in sorted(a["items"].keys() | b["items"].keys()):
        ia, ib = a["items"].get(key), b["items"].get(key)
        if ia == ib:
            continue
        if ia is None or ib is None:
            lines.append(f"{key}: only in {'B' if ia is None else 'A'}")
            continue
        moved = [f"{f} {ia[f]} -> {ib[f]}" for f in ("status", "mv_total", "mv_setup", "f_best")
                 if ia[f] != ib[f]]
        lines.append(f"{key}: {'; '.join(moved) or 'records or final_x'}")
    families = Counter(key[:2] for key in lines)
    header = f"{len(lines)} of {len(b['items'])} items differ" + "".join(
        f", {fam} {n}" for fam, n in sorted(families.items()))
    print("\n".join([header, *lines]))
    print("products summed over the suite, A -> B:")
    for kind in a["mv_totals"]:
        ma, mb = a["mv_totals"][kind], b["mv_totals"].get(kind, 0)
        print(f"  {kind:<22} {ma:>8} -> {mb:>8}{'' if ma == mb else '  *'}")
    if "steps" in a and "steps" in b:
        print("records of each step summed over the suite, A -> B:")
        for kind, sa in a["steps"].items():
            sb = b["steps"].get(kind, {})
            for name in [*sa, *(name for name in sb if name not in sa)]:
                ma, mb = sa.get(name, 0), sb.get(name, 0)
                print(f"  {kind:<22} {name:<10} {ma:>8} -> {mb:>8}{'' if ma == mb else '  *'}")
    return 1 if lines else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="solve the desk suite and write its digest")
    w.add_argument("--out", required=True)
    d = sub.add_parser("diff", help="list the items in which two digests differ")
    d.add_argument("a")
    d.add_argument("b")
    args = p.parse_args(argv)
    return write(args) if args.command == "write" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
