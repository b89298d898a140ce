"""Benchmark of the ql1 library: two workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload suite-pipeline --seed 0 --seconds 45 --trace 0

It imports ql1 from ``src/``, builds the workload's inputs from the seed
(set-up, repeated and timed), then runs timed passes over the workload
until ``--seconds`` have passed, at least three. Every pass goes through the
correctness gate. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
``wall_s`` is the time of one pass, taken robustly: a pass is split into
units (each solve, f* solve or CLI call), and ``wall_s`` sums each unit's
median over the passes, plus the median of what the units leave out. A
slow stretch of the machine within one pass then moves only the units it
falls on. The solve times are likewise each solve's median over the passes.
With ``--trace 1`` the run does one untraced and one traced pass and
reports the per-layer metrics, taken from spans recorded around the
calls into each ql1 module; the spans are written to
``.perfbench_out/spans-<workload>.npz``. The line before the result holds
run information: trace hash, solve count and 90th percentile, failed
fraction, environment and working set.

The exit code is 0 when every check passed, 1 when a check failed, and 2
when the program under test cannot be found or loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up runs at least SETUP_REPS times and until SETUP_MIN_SECONDS have
# passed; setup_s is the median.
SETUP_REPS = 3
SETUP_MIN_SECONDS = 3.0
MIN_PASSES = 3
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_L2_SIZE_FILE = Path("/sys/devices/system/cpu/cpu0/cache/index2/size")


def pin_blas_threads() -> None:
    """One BLAS thread (never more than nproc); must run before numpy is imported."""
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def l2_bytes() -> int | None:
    try:
        text = _L2_SIZE_FILE.read_text().strip()
    except OSError:
        return None
    units = {"K": 1024, "M": 1024 * 1024}
    if text[-1:] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "l2_bytes": l2_bytes(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["large-lasso", "suite-pipeline"])
    p.add_argument("--seed", type=int, default=0, help="added to every instance seed")
    p.add_argument("--seconds", type=float, default=45.0,
                   help="keep running passes until this much time has been measured")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every instance, for the smoke test")
    return p.parse_args(argv)


def percentile_ms(samples: list[float], q: float) -> float:
    import numpy as np

    return 1e3 * float(np.percentile(samples, q))


def per_unit_medians(rows: list[list[float]]) -> list[float]:
    """Each unit's median over the passes; rows[p][i] is unit i of pass p."""
    return [statistics.median(times) for times in zip(*rows)]


def pass_seconds(walls: list[float], units: list[list[float]]) -> float:
    """One pass's time: the units' medians plus the median of the rest of each pass."""
    rest = [wall - sum(u) for wall, u in zip(walls, units)]
    return sum(per_unit_medians(units)) + statistics.median(rest)


def run(args: argparse.Namespace) -> int:
    from tracer import PASS, SETUP, Tracer
    from workloads import WORKLOADS, Gate

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    gate = Gate()
    wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
    tracer = Tracer() if args.trace else None
    try:
        setup_s = []
        while not setup_s or (not tracer and (
                len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_SECONDS)):
            if tracer:
                tracer.start(SETUP)
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.stop()

        # One (wall seconds, mv_total, trace_sha256, solve seconds, unit
        # seconds) per pass; the traces themselves are dropped so memory
        # does not grow with passes.
        passes = []
        started = time.perf_counter()
        while True:
            traced = bool(tracer) and len(passes) == 1
            if traced:
                tracer.start(PASS)
            t0 = time.perf_counter()
            result = wl.run_pass()
            wall = time.perf_counter() - t0
            if traced:
                tracer.stop()
            wl.check_pass(result, gate)
            passes.append((wall, result.mv_total, result.trace_sha256(), result.solve_seconds,
                           result.units))
            del result
            if traced or (not tracer and len(passes) >= MIN_PASSES
                          and time.perf_counter() - started >= args.seconds):
                break

        _, mv_total, sha, seconds, units = passes[0]
        for _, mv, pass_sha, solves, pass_units in passes[1:]:
            gate.check(mv == mv_total, f"mv_total differs between passes: {mv} vs {mv_total}")
            gate.check(pass_sha == sha, "trace_sha256 differs between passes")
            gate.check(len(solves) == len(seconds) and len(pass_units) == len(units),
                       "passes differ in their number of solves or units")

        # Solve times of the untraced passes only (the first, in a traced run).
        untraced = passes[:1] if tracer else passes
        samples = per_unit_medians([p[3] for p in untraced])
        working = wl.working_set()
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "passes": len(passes),
            "setups": len(setup_s),
            "mv_total": mv_total,
            "trace_sha256": sha,
            "solve_samples": len(samples),
            "solve_ms_p90": percentile_ms(samples, 90),
            "env": environment(),
            "working_set": {
                "instances": len(working),
                "operator_bytes_min": min(working),
                "operator_bytes_max": max(working),
            },
        }
        l2 = info["env"]["l2_bytes"]
        if l2:
            info["working_set"]["max_over_l2"] = max(working) / l2

        if tracer:
            untraced_wall, traced_wall = passes[0][0], passes[1][0]
            layer = tracer.layer_metrics(traced_wall, untraced_wall)
            gate.check(layer["problem.apply.calls"][0] == mv_total,
                       "traced apply calls differ from the operators' count")
            layer["drivers.solve_ms_p90"] = (info["solve_ms_p90"], "ms")
            metrics = layer
        else:
            metrics = {
                "wall_s": (pass_seconds([p[0] for p in passes], [p[4] for p in passes]), "s"),
                "solve_ms_p50": (percentile_ms(samples, 50), "ms"),
                "mv_total": (mv_total, "count"),
                "setup_s": (statistics.median(setup_s), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        info["failed_frac"] = gate.failed / gate.attempted
        info["failures"] = gate.messages
        if tracer:
            tracer.write(OUT_DIR / f"spans-{args.workload}.npz", info)
    finally:
        if tracer:
            tracer.stop()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it

    print(json.dumps(info))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ql1" / "__init__.py").is_file():
        print(f"error: the ql1 sources are missing: no {SRC / 'ql1'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import ql1  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import ql1: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
