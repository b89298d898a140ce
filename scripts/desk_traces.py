"""Digest the solver traces of the desk suite and of large-lasso, and diff two digests.

Run from the repository root:

    PYTHONPATH=src python3 scripts/desk_traces.py write --out desk.json
    PYTHONPATH=src python3 scripts/desk_traces.py diff parent.json desk.json [--may-change]

``write`` generates the 48-instance desk suite in a temporary directory and
solves 14 items on each, 672 in all: iicg1, iicg2, istabb and fista with
the subgradient-norm stop at 1e-6 and at 1e-10; iicg1 and iicg2 with the
constant steplength at 1e-8; the reference solve of ``reference_objective``;
and fista, istabb and iicg2 stopped at accuracy 1e-4 against that f*. It
adds the 48 solves of one pass of the benchmark's large-lasso at seed 0
(``lasso5000 large-lasso iicg1`` and so on), 720 items in all, since no desk
operator has the 4 row blocks that take the threaded product. The recipe is
the ``perfbench/workloads.py`` beside the imported ``ql1``'s ``src``, so with
``PYTHONPATH=$base/src`` it is the base's.

For each item it stores the sha256 of the trace records and the ``final_x``
bytes, the status, ``mv_total``, ``mv_setup`` and ``f_best``; for each kind,
the products and the records of each step name, summed over the instances;
and the host: Python, numpy and BLAS versions, the number of CPUs the
process may run on and the BLAS thread variables (``OPENBLAS_NUM_THREADS``
and the like, None when unset).
Rounding differs from host to host, so only digests written on one host
compare.

``diff A B`` lists every item whose entry differs; then, for each kind in
which some item's products moved, how many items fell and rose, with the
largest relative rise and fall; then each kind's summed products and step
counts from A to B. A ``hosts differ:`` line follows the header when both
digests name their hosts and these differ; a digest older than hosts or step
counts diffs without them. It exits 2 when an item's status differs or an
item is in only one digest, 1 when items differ in anything else (0 with
``--may-change``), and 0 when the two digests agree.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

import ql1.drivers as drivers
import ql1.problem
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
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LARGE_LASSO_SIZE = "full"  # the benchmark's own; tests use "tiny"


def digest(trace: RunTrace) -> dict:
    h = hashlib.sha256()
    for r in trace.records:
        h.update(f"{r.mv},{r.k},{r.f.hex()},{r.nnz},{r.step}\n".encode())
    h.update(trace.final_x.tobytes())
    return {"sha256": h.hexdigest(), "status": trace.status, "mv_total": trace.mv_total,
            "mv_setup": trace.mv_setup, "f_best": trace.f_best}


def host() -> dict:
    """What decides a digest's rounding, besides the code: the host's numerics.

    BLAS's thread count changes how its sums are split: a digest written
    with ``OPENBLAS_NUM_THREADS=1`` differs from the default in most
    strict-comp items. OpenBLAS sizes its threads by the CPUs the process
    may run on, so ``cpus`` counts those, as ``ql1.problem`` does, and not
    ``os.cpu_count()``, which ``taskset`` leaves unchanged.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpus": ql1.problem._cpus(), **{var: os.environ.get(var) for var in BLAS_THREADS}}


def solves(tmp):
    """Each item's name and trace: the desk suite's, then those of large-lasso's pass."""
    for row in desk_suite(tmp):
        problem = read_problem(row.path)
        out = []
        drivers.reference_objective(problem, trace_out=out)
        (ref,) = out
        yield f"{row.problem} {REFERENCE}", ref
        for kind, cfg in KINDS:
            if "fstar" in kind:
                cfg = replace(cfg, f_star=ref.f_best)
            yield f"{row.problem} {kind}", drivers.solve(problem, cfg)
        print(row.problem, file=sys.stderr, flush=True)
    names, result = large_lasso(LARGE_LASSO_SIZE, tmp)
    yield from zip(names, result.traces, strict=True)


def large_lasso(size: str, tmp):
    # the recipe of the checkout whose ql1 is imported: the base's under PYTHONPATH=$base/src
    path = Path(drivers.__file__).resolve().parents[2] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up while it loads
    spec.loader.exec_module(workloads)
    wl = workloads.LargeLasso(0, size, Path(tmp))
    wl.setup()
    names = [f"lasso{base} {wl.name} {alg}" for base, alg in product(wl.base_seeds, wl.solvers)]
    return names, wl.run_pass()


def write(args: argparse.Namespace) -> int:
    items: dict[str, dict] = {}
    mv = Counter()
    steps = defaultdict(Counter)
    with tempfile.TemporaryDirectory() as tmp:
        for key, trace in solves(tmp):
            kind = key.split(" ", 1)[1]
            items[key] = digest(trace)
            mv[kind] += trace.mv_total
            steps[kind].update(r.step for r in trace.records)
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
    if ha and hb:
        # a field a digest predates reads as None, as an unset variable does
        moved = [f"{f} {ha.get(f)} -> {hb.get(f)}" for f in {**ha, **hb} if ha.get(f) != hb.get(f)]
        if moved:
            header += "\nhosts differ: " + "; ".join(moved)
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
    return 2 if status_changed else 1 if lines and not args.may_change else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="solve the desk suite and large-lasso, write the digest")
    w.add_argument("--out", required=True)
    d = sub.add_parser("diff", help="list the items in which two digests differ")
    d.add_argument("a")
    d.add_argument("b")
    d.add_argument("--may-change", action="store_true", help="exit 0, not 1, if traces differ")
    args = p.parse_args(argv)
    return write(args) if args.command == "write" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
