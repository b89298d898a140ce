"""Record benchmark runs to a BENCH_*.json file, and compare two such files.

Run from the repository root:

    python3 scripts/bench_record.py record --seeds 1 2 3 4 5 6 7 8 9 10
    python3 scripts/bench_record.py compare bench/BENCH_<n>_<sha>.json bench/BENCH_<m>_<sha>.json

``record`` runs ``perfbench/run.py`` of a checkout (``--root``, by default
this repository), as it stands, on each workload of its BENCHMARK.json:
once per seed at ``--trace 0``, then once at ``--trace 1`` at the first
seed the file receives. The file is named ``BENCH_<n>_<short-sha>.json``,
where n counts the commits up to the checkout's HEAD. A checkout with
uncommitted changes measures the next commit: n is one more and the sha
gets ``-dirty``. If the file exists, the runs are added to it, so two
checkouts can be recorded in alternation, a seed at a time, and later
compared in pairs:

    for s in 1 2 3; do
      python3 scripts/bench_record.py record --root ../parent --seeds $s
      python3 scripts/bench_record.py record --seeds $s
    done

``compare A B`` pairs the untraced runs of each workload by seed and prints,
per end-to-end metric, the median and quartiles of each side and the number
of pairs in which B is better. It also prints each seed whose ``mv_total``
differs, each seed whose ``solve_samples`` (the number of timed solves behind
``solve_ms_p50``) differs, each seed whose ``trace_sha256`` differs (or that
it is equal at all the seeds where both runs have one), and the traced
per-layer metrics
side by side when both files hold a traced run at the same seed. It exits 1
when a run of either file failed
its correctness gate.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = "bench"
RUN_TIMEOUT_S = 3600


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def record_name(root: Path) -> tuple[str, dict]:
    """The file name for a checkout, and its git state."""
    head = git(root, "rev-parse", "HEAD")
    count = int(git(root, "rev-list", "--count", "HEAD"))
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    sha = head[:7] + ("-dirty" if dirty else "")
    return f"BENCH_{count + dirty}_{sha}.json", {"head": head, "dirty": dirty}


def run_bench(root: Path, workload: str, seed: int, trace: int, seconds: float,
              size: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    print(" ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info, result = (json.loads(line) for line in lines[-2:])
    return {"seed": seed, "info": info, "result": result}


def record(args: argparse.Namespace) -> int:
    root = Path(args.root).resolve()
    name, git_state = record_name(root)
    out = Path(args.out) if args.out else ROOT / OUT_DIR / name
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    if out.exists():
        rec = json.loads(out.read_text())
        if (rec["git"], rec["size"], rec["seconds"]) != (git_state, args.size, args.seconds):
            print(f"error: {out} holds runs of another checkout, size or --seconds",
                  file=sys.stderr)
            return 2
    else:
        rec = {"git": git_state, "size": args.size, "seconds": args.seconds,
               "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
               "platform": platform.platform(), "runs": {}, "traced": {}}
    trace_seed = None if rec["traced"] else args.seeds[0]
    for seed in args.seeds:
        for wl in workloads:
            runs = rec["runs"].setdefault(wl, [])
            runs[:] = [r for r in runs if r["seed"] != seed]
            runs.append(run_bench(root, wl, seed, 0, args.seconds, args.size))
    if trace_seed is not None:
        for wl in workloads:
            rec["traced"][wl] = run_bench(root, wl, trace_seed, 1, 0, args.size)
    rec["env"] = next(iter(rec["runs"].values()))[0]["info"]["env"]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(rec, indent=1) + "\n")
    print(out)
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated linearly."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_directions(root: Path) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def compare_workload(wl: str, runs_a: list[dict], runs_b: list[dict],
                     better: dict[str, str]) -> list[str]:
    by_seed_a = {r["seed"]: r for r in runs_a}
    by_seed_b = {r["seed"]: r for r in runs_b}
    seeds = sorted(by_seed_a.keys() & by_seed_b.keys())
    lines = [f"{wl}: {len(seeds)} pairs, seeds {' '.join(map(str, seeds))}"]
    if not seeds:
        return lines
    lines.append(f"  {'metric':<14} {'A median [q1-q3]':>30} {'B median [q1-q3]':>30}"
                 f" {'B/A':>6} {'B better':>9}")
    for metric in by_seed_a[seeds[0]]["result"]["metrics"]:
        a = [value(by_seed_a[s], metric) for s in seeds]
        b = [value(by_seed_b[s], metric) for s in seeds]
        lower = better.get(metric, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        ratio = f"{mb / ma:.3f}" if ma else "-"
        lines.append(f"  {metric:<14} {f'{ma:.4g} [{qa1:.4g}-{qa3:.4g}]':>30}"
                     f" {f'{mb:.4g} [{qb1:.4g}-{qb3:.4g}]':>30} {ratio:>6}"
                     f" {f'{wins}/{len(seeds)}':>9}")
    for s in seeds:
        mv_a, mv_b = (by_seed_a[s]["info"]["mv_total"], by_seed_b[s]["info"]["mv_total"])
        if mv_a != mv_b:
            lines.append(f"  seed {s}: mv_total {mv_a} -> {mv_b} ({(mv_b - mv_a) / mv_a:+.3%})")
    for s in seeds:
        n_a, n_b = (by_seed[s]["info"].get("solve_samples") for by_seed in (by_seed_a, by_seed_b))
        if None not in (n_a, n_b) and n_a != n_b:
            lines.append(f"  seed {s}: solve_samples {n_a} -> {n_b}")
    shas = {s: [by_seed[s]["info"].get("trace_sha256") for by_seed in (by_seed_a, by_seed_b)]
            for s in seeds}
    shas = {s: pair for s, pair in shas.items() if None not in pair}
    differ = [s for s, (sha_a, sha_b) in shas.items() if sha_a != sha_b]
    for s in differ:
        lines.append(f"  seed {s}: trace_sha256 {shas[s][0][:8]} -> {shas[s][1][:8]}")
    if shas and not differ:
        lines.append(f"  trace_sha256 equal at all {len(shas)} seeds")
    return lines


def compare_traced(wl: str, ta: dict, tb: dict) -> list[str]:
    lines = [f"{wl} traced at seed {ta['seed']}: A -> B"]
    ma, mb = ta["result"]["metrics"], tb["result"]["metrics"]
    for metric in ma:
        if metric in mb:
            va, vb = ma[metric]["value"], mb[metric]["value"]
            mark = "" if va == vb else "  *"
            lines.append(f"  {metric:<40} {va:>14.6g} {vb:>14.6g}{mark}")
    return lines


def failures(rec: dict) -> list[str]:
    runs = [r for rs in rec["runs"].values() for r in rs] + list(rec["traced"].values())
    return [f"{r['info']['workload']} seed {r['seed']} trace {r['info']['trace']}: "
            f"{r['result']['failed']} checks failed"
            for r in runs if not r["result"]["correct"]]


def compare(args: argparse.Namespace) -> int:
    rec_a, rec_b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    better = metric_directions(ROOT)
    lines = [f"{side}: {path} (HEAD {rec['git']['head'][:7]}"
             f"{', uncommitted changes' if rec['git']['dirty'] else ''})"
             for side, path, rec in (("A", args.a, rec_a), ("B", args.b, rec_b))]
    for wl in rec_a["runs"]:
        if wl in rec_b["runs"]:
            lines += compare_workload(wl, rec_a["runs"][wl], rec_b["runs"][wl], better)
    for wl, ta in rec_a["traced"].items():
        tb = rec_b["traced"].get(wl)
        if tb and tb["seed"] == ta["seed"]:
            lines += compare_traced(wl, ta, tb)
    bad = [f"A {f}" for f in failures(rec_a)] + [f"B {f}" for f in failures(rec_b)]
    lines += [f"FAILED: {f}" for f in bad]
    print("\n".join(lines))
    return 1 if bad else 0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("record", help="run the benchmark and write a BENCH_*.json file")
    r.add_argument("--root", default=str(ROOT), help="the checkout to measure")
    r.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    r.add_argument("--seconds", type=float, default=45.0)
    r.add_argument("--size", choices=["full", "tiny"], default="full")
    r.add_argument("--out", default=None,
                   help=f"the file to write or add to (default: {OUT_DIR}/BENCH_<n>_<sha>.json)")
    c = sub.add_parser("compare", help="compare two BENCH_*.json files in pairs")
    c.add_argument("a")
    c.add_argument("b")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
