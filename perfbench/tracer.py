"""In-memory span tracer for the ql1 benchmark.

The tracer wraps public ql1 functions at the place where their callers
look them up (for example ``ql1.drivers.cg_step``, which ``drivers``
imported by name) and methods on their classes (for example
``CountingOperator.apply``). Each call records one span: name, start,
end, parent span and the id of the solve it belongs to. Spans are kept
in flat arrays while the workload runs and turned into per-layer
metrics, and written to disk, once it has finished.

A span's self time is its duration minus the time its child spans
cover. Children run strictly inside their parent and one after another,
so self times are never negative.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import ql1.bench
import ql1.cg
import ql1.cli
import ql1.drivers
import ql1.fileio
import ql1.probgen
import ql1.problem
import ql1.rng

OFF, SETUP, PASS = -1, 0, 1

_clock = time.perf_counter_ns


class Tracer:
    """Records spans between ``start`` and ``stop``; the wrappers exist only in between."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.solve_id = array("q")
        self.span_phase = array("b")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.counts = {SETUP: Counter(), PASS: Counter()}
        self.traces: list[tuple[int, object]] = []
        self.phase = OFF
        self._stack: list[int] = []
        self._solve = -1
        self._next_solve = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        if self.phase == OFF:
            return fn(*args, **kwargs)
        idx = len(self.start_ns)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve_id.append(self._solve)
        self.span_phase.append(self.phase)
        self.end_ns.append(0)
        self._stack.append(idx)
        self.start_ns.append(_clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end_ns[idx] = _clock()
            self._stack.pop()

    def count(self, key: str, value: int = 1) -> None:
        if self.phase != OFF:
            self.counts[self.phase][key] += value

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = functools.wraps(original)(make(original))
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _timed(self, owner, attr: str, name: str) -> None:
        nid = self._id(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(nid, fn, args, kwargs)
            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every traced entry point; ``uninstall`` puts the originals back."""
        drivers, bench, cli, fileio, probgen = (
            ql1.drivers, ql1.bench, ql1.cli, ql1.fileio, ql1.probgen,
        )
        self._install_apply()
        self._timed(ql1.problem.QuadraticProblem, "objective", "problem.objective")

        for fn in ("release_grad", "support_grad_map", "support_grad",
                   "min_norm_subgrad", "gradient_balance"):
            self._timed(drivers, fn, f"subgrad.{fn}")

        for fn in ("init_cg_cycle", "cutback_alpha", "sufficient_decrease"):
            self._timed(drivers, fn, f"cg.{fn}")
        self._install_cg_step()
        self._timed(ql1.cg.CGState, "objective", "cg.CGState.objective")
        self._timed(ql1.cg.CGState, "smooth_grad", "cg.CGState.smooth_grad")

        self._install_bb_ls_step()
        for fn in ("ista_step", "subspace_ista_step"):
            self._timed(drivers, fn, f"first_order.{fn}")

        for owner in (drivers, bench):
            self._install_solve(owner)
            self._install_reference(owner)
        self._timed(drivers, "estimate_max_eig", "drivers.estimate_max_eig")

        for fn in ("gen_elastic_net", "gen_sigrec", "gen_strict_comp"):
            self._timed(probgen, fn, f"probgen.{fn}")
        for fn in ("normals", "uniforms", "normal", "uniform"):
            self._timed(ql1.rng.Rng, fn, f"rng.{fn}")

        for owner in (fileio, cli, probgen):
            self._timed(owner, "write_problem", "fileio.write_problem")
        for owner in (fileio, cli, bench, probgen):
            self._install_read_problem(owner)
        for owner in (fileio, probgen):
            self._timed(owner, "write_manifest", "fileio.write_manifest")
        for owner in (fileio, cli):
            self._timed(owner, "read_manifest", "fileio.read_manifest")

        for fn in ("run_suite", "dolan_more", "write_bench_csv", "read_bench_csv",
                   "write_profile_csv"):
            self._timed(bench, fn, f"bench.{fn}")
        self._timed(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def start(self, phase: int) -> None:
        """Install the wrappers and record spans as part of ``phase``."""
        self.install()
        self.phase = phase

    def stop(self) -> None:
        """Stop recording and remove the wrappers, so untraced code runs unwrapped."""
        self.phase = OFF
        self.uninstall()

    def _install_apply(self) -> None:
        dense, factored = self._id("problem.apply.dense"), self._id("problem.apply.factored")

        def make(fn):
            def apply(op, v):
                if op.kind == "dense":
                    self.count("problem.apply.bytes", 8 * op.n * op.n)
                    return self.call(dense, fn, (op, v), {})
                self.count("problem.apply.bytes", 16 * op.m * op.n)
                return self.call(factored, fn, (op, v), {})
            return apply

        self._patch(ql1.problem.CountingOperator, "apply", make)

    def _install_cg_step(self) -> None:
        nid = self._id("cg.cg_step")

        def make(fn):
            def cg_step(*args, **kwargs):
                try:
                    return self.call(nid, fn, args, kwargs)
                except ql1.cg.CurvatureBreak:
                    self.count("cg.curvature_breaks")
                    raise
            return cg_step

        self._patch(ql1.drivers, "cg_step", make)

    def _install_bb_ls_step(self) -> None:
        nid = self._id("first_order.bb_ls_step")

        def make(fn):
            def bb_ls_step(*args, **kwargs):
                res = self.call(nid, fn, args, kwargs)
                self.count("first_order.ls_trials", res.trials)
                self.count("first_order.ls_fallbacks", int(res.fallback))
                return res
            return bb_ls_step

        self._patch(ql1.drivers, "bb_ls_step", make)

    def _install_solve(self, owner) -> None:
        nid = self._id("drivers.solve")

        def make(fn):
            def solve(*args, **kwargs):
                outer = self._solve
                if outer < 0:
                    self._solve = self._next_solve
                    self._next_solve += 1
                try:
                    trace = self.call(nid, fn, args, kwargs)
                finally:
                    self._solve = outer
                if self.phase != OFF:
                    self.traces.append((self.phase, trace))
                return trace
            return solve

        self._patch(owner, "solve", make)

    def _install_reference(self, owner) -> None:
        nid = self._id("drivers.reference_objective")

        def make(fn):
            def reference_objective(problem, *args, **kwargs):
                mv0 = problem.op.mv_count
                f_star = self.call(nid, fn, (problem,) + args, kwargs)
                self.count("bench.reference.mv", problem.op.mv_count - mv0)
                return f_star
            return reference_objective

        self._patch(owner, "reference_objective", make)

    def _install_read_problem(self, owner) -> None:
        nid = self._id("fileio.read_problem")

        def make(fn):
            def read_problem(path):
                problem = self.call(nid, fn, (path,), {})
                self.count("fileio.read_problem.bytes", os.stat(path).st_size)
                return problem
            return read_problem

        self._patch(owner, "read_problem", make)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "solve_id": np.frombuffer(self.solve_id, dtype=np.int64).copy(),
            "phase": np.frombuffer(self.span_phase, dtype=np.int8).copy(),
            "start_ns": np.frombuffer(self.start_ns, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end_ns, dtype=np.int64).copy(),
        }

    def write(self, path: Path, info: dict) -> None:
        """Save every span, with the name table and run information, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), info=np.array(json.dumps(info)), **self.spans())

    def layer_metrics(self, pass_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced pass; probgen, rng and fileio also count one set-up."""
        sp = self.spans()
        dur = (sp["end_ns"] - sp["start_ns"]).astype(np.float64) * 1e-9
        par = sp["parent"]
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        ids = self._ids

        def mask(*names: str, prefix: str | None = None, phases=(PASS,)) -> np.ndarray:
            wanted = [ids[n] for n in names if n in ids]
            if prefix is not None:
                wanted += [i for n, i in ids.items() if n.startswith(prefix)]
            return np.isin(sp["name_id"], wanted) & np.isin(sp["phase"], phases)

        def self_time(m):
            return float(self_s[m].sum())

        def total_time(m):
            return float(dur[m].sum())

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        counts = self.counts[PASS]
        both = self.counts[SETUP] + self.counts[PASS]
        everywhere = (SETUP, PASS)

        apply_dense = mask("problem.apply.dense")
        apply_factored = mask("problem.apply.factored")
        apply_all = apply_dense | apply_factored
        apply_calls = int(apply_all.sum())
        apply_self = self_time(apply_all)
        subgrad = mask(prefix="subgrad.")
        cg_steps = int(mask("cg.cg_step").sum())
        cutbacks = int(mask("cg.cutback_alpha").sum())
        bb_calls = int(mask("first_order.bb_ls_step").sum())
        solves = mask("drivers.solve")
        solve_s = total_time(solves)  # solves never nest, so these spans do not overlap
        in_solve = sp["solve_id"] >= 0
        solve_mv = int((apply_all & in_solve).sum())
        solve_apply_s = self_time(apply_all & in_solve)
        power = mask("drivers.estimate_max_eig")
        power_idx = np.flatnonzero(power)
        power_mv = int((apply_all & np.isin(par, power_idx)).sum())
        steps = Counter()
        for phase, trace in self.traces:
            if phase == PASS:
                steps.update(rec.step for rec in trace.records)
        n_steps = sum(steps.values())
        read = mask("fileio.read_problem", phases=everywhere)
        read_s = total_time(read)

        m = {
            "problem.apply.calls": (apply_calls, "count"),
            "problem.apply.self_s": (apply_self, "s"),
            "problem.apply.share": (ratio(apply_self, pass_wall_s), "ratio"),
            "problem.apply.us_per_call.dense": (
                1e6 * ratio(self_time(apply_dense), apply_dense.sum()), "us"),
            "problem.apply.us_per_call.factored": (
                1e6 * ratio(self_time(apply_factored), apply_factored.sum()), "us"),
            "problem.apply.gb_per_s_computed": (
                1e-9 * ratio(counts["problem.apply.bytes"], apply_self), "GB/s"),
            "problem.objective.calls": (int(mask("problem.objective").sum()), "count"),
            "problem.objective.self_s": (self_time(mask("problem.objective")), "s"),
            "subgrad.calls": (int(subgrad.sum()), "count"),
            "subgrad.self_s": (self_time(subgrad), "s"),
            "subgrad.calls_per_step": (ratio(subgrad.sum(), n_steps), "calls/step"),
            "cg.cycles": (int(mask("cg.init_cg_cycle").sum()), "count"),
            "cg.cg_step.calls": (cg_steps, "count"),
            "cg.curvature_breaks": (counts["cg.curvature_breaks"], "count"),
            "cg.cutbacks": (cutbacks, "count"),
            "cg.cutback_ratio": (ratio(cutbacks, cg_steps), "ratio"),
            "cg.self_s": (self_time(mask(prefix="cg.")), "s"),
            "first_order.bb_ls_step.calls": (bb_calls, "count"),
            "first_order.ls_trials": (counts["first_order.ls_trials"], "count"),
            "first_order.ls_accept_ratio": (
                ratio(bb_calls - counts["first_order.ls_fallbacks"],
                      counts["first_order.ls_trials"]), "ratio"),
            "first_order.ls_fallbacks": (counts["first_order.ls_fallbacks"], "count"),
            "first_order.self_s": (self_time(mask(prefix="first_order.")), "s"),
            "drivers.self_s": (self_time(mask("drivers.solve", "drivers.reference_objective")), "s"),
            "drivers.nonapply_us_per_mv": (1e6 * ratio(solve_s - solve_apply_s, solve_mv), "us"),
            "drivers.mv_per_s": (ratio(solve_mv, solve_s), "1/s"),
            "drivers.power_iter.mv": (power_mv, "count"),
            "drivers.power_iter.self_s": (self_time(power), "s"),
        }
        for step in ("ISTA", "SUBISTA", "CG", "CUTBACK", "LSFALLBACK"):
            m[f"drivers.steps.{step}"] = (steps[step], "count")
        for fn in ("gen_elastic_net", "gen_sigrec", "gen_strict_comp"):
            m[f"probgen.{fn}.s"] = (total_time(mask(f"probgen.{fn}", phases=everywhere)), "s")
        m["rng.draws.s"] = (self_time(mask(prefix="rng.", phases=everywhere)), "s")
        m["fileio.write_problem.s"] = (
            total_time(mask("fileio.write_problem", phases=everywhere)), "s")
        m["fileio.read_problem.s"] = (read_s, "s")
        m["fileio.read_problem.mb_per_s"] = (
            1e-6 * ratio(both["fileio.read_problem.bytes"], read_s), "MB/s")
        m["fileio.manifest.s"] = (total_time(
            mask("fileio.write_manifest", "fileio.read_manifest", phases=everywhere)), "s")
        m["bench.run_suite.self_s"] = (self_time(mask("bench.run_suite")), "s")
        m["bench.reference.s"] = (total_time(mask("drivers.reference_objective")), "s")
        m["bench.reference.mv"] = (counts["bench.reference.mv"], "count")
        m["bench.dolan_more.s"] = (total_time(mask("bench.dolan_more")), "s")
        m["bench.csv_io.s"] = (total_time(
            mask("bench.write_bench_csv", "bench.read_bench_csv", "bench.write_profile_csv")), "s")
        m["cli.self_s"] = (self_time(mask("cli.main")), "s")
        m["trace.wall_s"] = (pass_wall_s, "s")
        m["trace.overhead_frac"] = (pass_wall_s / untraced_wall_s - 1.0, "ratio")
        return m
