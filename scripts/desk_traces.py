"""Digest the solver traces of the desk suite, and diff two digests.

Run from the repository root:

    PYTHONPATH=src python3 scripts/desk_traces.py write --out desk.json
    PYTHONPATH=src python3 scripts/desk_traces.py diff parent.json desk.json

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
(ISTA, SUBISTA, CG, CUTBACK, LSFALLBACK), summed over the 48 instances. It
also stores the host: the Python, numpy and BLAS versions and the CPU count.
Rounding differs from host to host, so only digests written on one host
compare item by item.

``diff A B`` lists every item whose entry differs; then, for each kind in
which some item's products moved, how many items fell and how many rose,
with the largest relative rise and fall; then the summed products and step
counts of each kind from A to B. When both digests name their
hosts and these differ, a ``hosts differ:`` line follows the header. A
digest written before step counts or hosts were stored still diffs, without
the step table or the host line. It exits 2 when an item's status differs or
an item is in only one digest, 1 when items differ in anything else, and 0
when the two digests agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

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


def host() -> dict:
    """What decides a digest's rounding, besides the code: the host's numerics."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpus": os.cpu_count()}


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
        json.dumps({"host": host(), "items": items, "mv_totals": mv, "steps": steps},
                   indent=1) + "\n")
    return 0


def diff(args: argparse.Namespace) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    lines = []
    status_changed = False  # an item's status, or whether it is there at all
    for key in sorted(a["items"].keys() | b["items"].keys()):
        ia, ib = a["items"].get(key), b["items"].get(key)
        if ia == ib:
            continue
        if ia is None or ib is None:
            lines.append(f"{key}: only in {'B' if ia is None else 'A'}")
            status_changed = True
            continue
        status_changed |= ia["status"] != ib["status"]
        moved = [f"{f} {ia[f]} -> {ib[f]}" for f in ("status", "mv_total", "mv_setup", "f_best")
                 if ia[f] != ib[f]]
        lines.append(f"{key}: {'; '.join(moved) or 'records or final_x'}")
    families = Counter(key[:2] for key in lines)
    header = f"{len(lines)} of {len(b['items'])} items differ" + "".join(
        f", {fam} {n}" for fam, n in sorted(families.items()))
    ha, hb = a.get("host"), b.get("host")
    if ha and hb and ha != hb:
        header += "\nhosts differ: " + "; ".join(
            f"{f} {ha.get(f)} -> {hb.get(f)}" for f in {**ha, **hb} if ha.get(f) != hb.get(f))
    print("\n".join([header, *lines]))
    by_kind = defaultdict(list)  # kind -> (relative change, item, A's, B's products)
    for key in a["items"].keys() & b["items"].keys():
        ma, mb = a["items"][key]["mv_total"], b["items"][key]["mv_total"]
        if ma != mb:
            by_kind[key.split(" ", 1)[1]].append(((mb - ma) / max(ma, 1), key, ma, mb))
    if by_kind:
        print("items whose products moved, by kind, A -> B:")
    for kind in sorted(by_kind):
        changes = sorted(by_kind[kind])
        fell = [c for c in changes if c[0] < 0]
        rose = [c for c in changes if c[0] > 0]
        parts = [f"fell {len(fell)}, rose {len(rose)}"]
        for word, extreme in (("rise", rose[-1:]), ("fall", fell[:1])):
            for rel, key, ma, mb in extreme:
                parts.append(f"largest {word} {key} {ma} -> {mb} ({rel:+.1%})")
        print(f"  {kind:<22} {'; '.join(parts)}")
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
    return 2 if status_changed else 1 if lines else 0


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
