"""The benchmark's two workloads: set-up, one timed pass, and the correctness gate.

Every instance seed is the desk-suite seed plus the benchmark's ``--seed``,
so seed 0 rebuilds exactly the instances ``ql1.probgen.desk_suite`` writes
(the gate compares the files byte for byte). The workloads call ql1 only
through module attributes (``ql1.drivers.solve``, ``ql1.cli.main``, ...),
so a tracer that wraps those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ql1.bench
import ql1.cli
import ql1.drivers
import ql1.fileio
import ql1.probgen
from ql1.drivers import SolverConfig
from ql1.fileio import ManifestRow
from ql1.probgen import GeneratedInstance
from ql1.problem import FactoredOperator, QuadraticProblem


class Gate:
    """Counts correctness checks and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


@dataclass
class PassResult:
    """What one pass did: operator applications, the solves' traces and wall times.

    ``units`` are the wall times of the pass's pieces of work (solves, f*
    solves, CLI calls), in the same order and number on every pass, so the
    run can take each piece's median over passes.
    """

    mv_total: int
    traces: list[ql1.drivers.RunTrace]
    solve_seconds: list[float] = field(default_factory=list)
    units: list[float] = field(default_factory=list)

    def trace_sha256(self) -> str:
        """Hash of every trace record (mv,k,F,nnz,step) of the pass, solves in call order."""
        h = hashlib.sha256()
        for trace in self.traces:
            for r in trace.records:
                h.update(f"{r.mv},{r.k},{r.f:.17g},{r.nnz},{r.step}\n".encode())
            h.update(b"--\n")
        return h.hexdigest()


# -- the desk-suite recipe ---------------------------------------------------

# These mirror the constants of ql1.probgen.desk_suite; at seed 0 the gate
# proves the instances built from them are byte-identical to its files.
_EN_GAMMAS = {"s": 0.0, "i": 1e-3, "m": 1.0}
_SG_GAMMAS = {"s": 0.0, "i": 1e-6, "m": 1e-3}
_SC_CONDS = {"a": 1e2, "b": 1e3, "c": 1e4}
_TAU_FRACS = (0.001, 0.05, 0.3, 0.9)
_SC_VARIANTS = ((0.05, 125), (0.2, 50), (1.0, 15), (5.0, 5))

# Generator dimensions: the desk suite, and a tiny variant for the smoke test.
_DIMS = {
    "full": {"en": (250, 500), "pn": (125, 500), "sg": (256, 1024, 32), "sc": 500,
             "lasso": (1000, 2000)},
    "tiny": {"en": (25, 50), "pn": (13, 50), "sg": (26, 100, 4), "sc": 50,
             "lasso": (50, 100)},
}
_SC_NNZ_TINY = (12, 5, 2, 1)
_CLI_FLAGS = {"cond_target": "cond"}


@dataclass
class Spec:
    """One recipe instance: the generator's CLI family, its arguments, and how tau is set."""

    name: str
    family: str                  # "elastic-net", "sigrec" or "strict-comp"
    args: dict                   # generator keyword arguments except tau
    tau_frac: float | None = None  # factored: tau = tau_frac * ||b||_inf of the tau-free instance
    tau: float | None = None       # strict-comp: tau given directly

    def generate(self, tau: float) -> GeneratedInstance:
        gen = {
            "elastic-net": ql1.probgen.gen_elastic_net,
            "sigrec": ql1.probgen.gen_sigrec,
            "strict-comp": ql1.probgen.gen_strict_comp,
        }[self.family]
        return gen(tau=tau, **self.args)

    def resolve_tau(self) -> float:
        """The tau desk_suite gives the instance."""
        if self.tau is not None:
            return self.tau
        return self.tau_frac * float(np.abs(self.generate(0.0).problem.b).max())

    def cli_args(self, tau: float, out: Path) -> list[str]:
        argv = ["gen", "--family", self.family, "--out", str(out), "--tau", repr(tau)]
        for key, value in self.args.items():
            flag = _CLI_FLAGS.get(key, key.replace("_", "-"))
            argv += [f"--{flag}", repr(value)]
        return argv


def desk_recipe(offset: int, size: str) -> list[Spec]:
    """The 48 desk-suite instances, in desk_suite's order, with every seed shifted by offset."""
    dims = _DIMS[size]
    specs: list[Spec] = []

    def factored(code, base_seed, gammas, family, make_args):
        for ri, (regime, gamma) in enumerate(gammas.items()):
            for vi, frac in enumerate(_TAU_FRACS):
                args = make_args(gamma, base_seed + 10 * ri + vi + offset)
                specs.append(Spec(f"{code}{regime}{vi + 1}", family, args, tau_frac=frac))

    m, n = dims["en"]
    factored("en", 1000, _EN_GAMMAS, "elastic-net",
             lambda g, s: dict(m=m, n=n, scale=500.0, gamma=g, seed=s))
    pm, pn = dims["pn"]
    factored("pn", 2000, _EN_GAMMAS, "elastic-net",
             lambda g, s: dict(m=pm, n=pn, scale=1.0, gamma=g, seed=s))
    sm, sn, snnz = dims["sg"]
    factored("sg", 3000, _SG_GAMMAS, "sigrec",
             lambda g, s: dict(m=sm, n=sn, signal_nnz=snnz, noise_sigma=0.01, gamma=g, seed=s))
    for ri, (regime, cond) in enumerate(_SC_CONDS.items()):
        for vi, (tau, nnz) in enumerate(_SC_VARIANTS):
            if size == "tiny":
                nnz = _SC_NNZ_TINY[vi]
            args = dict(n=dims["sc"], nnz=nnz, cond_target=cond, margin=0.5,
                        seed=4000 + 10 * ri + vi + offset)
            specs.append(Spec(f"sc{regime}{vi + 1}", "strict-comp", args, tau=tau))
    return specs


def operator_bytes(problem: QuadraticProblem) -> int:
    op = problem.op
    if isinstance(op, FactoredOperator):
        return 8 * op.m * op.n
    return 8 * op.n * op.n


def _write_read(problem: QuadraticProblem, path: Path) -> QuadraticProblem:
    ql1.fileio.write_problem(path, problem)
    return ql1.fileio.read_problem(path)


def _solve_all(problems, configs) -> PassResult:
    """Solve each (problem, config) pair in order, timing every solve call."""
    mv0 = sum(p.op.mv_count for p in problems)
    result = PassResult(0, [])
    for problem, cfg in configs:
        t0 = time.perf_counter()
        result.traces.append(ql1.drivers.solve(problem, cfg))
        result.solve_seconds.append(time.perf_counter() - t0)
    result.mv_total = sum(p.op.mv_count for p in problems) - mv0
    result.units = result.solve_seconds
    return result


def _check_desk_identity(gate: Gate, workdir: Path, files: dict[str, Path]) -> None:
    """At the default seed the recipe's files must equal desk_suite's byte for byte."""
    ref_dir = workdir / "desk_suite"
    rows = ql1.probgen.desk_suite(ref_dir)
    gate.check(len(rows) == len(files), f"desk_suite wrote {len(rows)} instances, recipe has {len(files)}")
    for row in rows:
        ours = files.get(row.problem)
        same = ours is not None and ours.read_bytes() == Path(row.path).read_bytes()
        gate.check(same, f"{row.problem}: instance file differs from desk_suite's")
    shutil.rmtree(ref_dir)


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs; timed as set-up."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        """One timed pass over the workload."""
        raise NotImplementedError

    def check_pass(self, result: PassResult, gate: Gate) -> None:
        """Untimed checks of a pass's outputs."""
        raise NotImplementedError

    def working_set(self) -> list[int]:
        """Operator bytes of each instance."""
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything the workload patched."""


class LargeLasso(Workload):
    """Factored elastic-net instances far larger than L2, three solvers each.

    The product count of one instance varies by about a tenth from seed to
    seed, so the pass solves sixteen instances to keep its total steady.
    """

    name = "large-lasso"
    solvers = ("iicg1", "iicg2", "istabb")
    tol = 1e-8
    tau_frac = 0.2
    base_seeds = tuple(5000 + 100 * i for i in range(16))

    def setup(self) -> None:
        self.problems = []
        m, n = _DIMS[self.size]["lasso"]
        for base in self.base_seeds:
            probe = ql1.probgen.gen_elastic_net(m, n, 1.0, 1e-3, 0.0, base + self.seed).problem
            tau = self.tau_frac * float(np.abs(probe.b).max())
            problem = QuadraticProblem(probe.op, probe.b, tau)
            del probe
            self.problems.append(_write_read(problem, self.workdir / f"lasso{base}.ql1p"))

    def run_pass(self) -> PassResult:
        return _solve_all(self.problems, [
            (problem, SolverConfig(algorithm=solver, tol=self.tol))
            for problem in self.problems
            for solver in self.solvers
        ])

    def check_pass(self, result: PassResult, gate: Gate) -> None:
        k = len(self.solvers)
        for i, base in enumerate(self.base_seeds):
            traces = result.traces[i * k:(i + 1) * k]
            for solver, trace in zip(self.solvers, traces):
                gate.check(trace.status == ql1.drivers.STATUS_CONVERGED,
                           f"lasso{base} {solver}: status {trace.status}")
            fs = [t.f_final for t in traces]
            spread = max(fs) - min(fs)
            gate.check(spread <= self.tol * max(1.0, abs(min(fs))),
                       f"lasso{base}: final F disagree by {spread:.3e}")
            nnz = [int(np.count_nonzero(t.final_x)) for t in traces]
            gate.check(len(set(nnz)) == 1, f"lasso{base}: nnz disagree {nnz}")

    def working_set(self) -> list[int]:
        return [operator_bytes(p) for p in self.problems]


class SuitePipeline(Workload):
    """The CLI pipeline in process: gen per instance, manifest, bench, profile."""

    name = "suite-pipeline"
    bench_args = ["--solvers", "fista,istabb,iicg2", "--tols", "1e-4"]

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        # Thin recorders where bench looks up read_problem, solve and
        # reference_objective: the problems give the exact operator count,
        # the traces the hash, and the timings the pass's units and solve times.
        self._read = ql1.bench.read_problem
        self._solve = ql1.bench.solve
        self._reference = ql1.bench.reference_objective
        self.read: list[QuadraticProblem] = []
        self.traces: list[ql1.drivers.RunTrace] = []
        self.units: list[float] = []
        self.solve_seconds: list[float] = []

        def read_problem(path):
            problem = self._read(path)
            self.read.append(problem)
            return problem

        def solve(*args, **kwargs):
            t0 = time.perf_counter()
            trace = self._solve(*args, **kwargs)
            self.units.append(time.perf_counter() - t0)
            self.solve_seconds.append(self.units[-1])
            self.traces.append(trace)
            return trace

        def reference_objective(*args, **kwargs):
            t0 = time.perf_counter()
            f_star = self._reference(*args, **kwargs)
            self.units.append(time.perf_counter() - t0)
            return f_star

        ql1.bench.read_problem = read_problem
        ql1.bench.solve = solve
        ql1.bench.reference_objective = reference_objective
        self.passes = 0

    def close(self) -> None:
        ql1.bench.read_problem = self._read
        ql1.bench.solve = self._solve
        ql1.bench.reference_objective = self._reference

    def _timed_cli(self, argv: list[str]) -> None:
        t0 = time.perf_counter()
        self.rcs.append(ql1.cli.main(argv))
        self.units.append(time.perf_counter() - t0)

    def setup(self) -> None:
        self.specs = desk_recipe(self.seed, self.size)
        self.taus = [spec.resolve_tau() for spec in self.specs]

    def run_pass(self) -> PassResult:
        self.passes += 1
        self.pass_dir = self.workdir / f"pass{self.passes}"
        self.pass_dir.mkdir(parents=True)
        self.read.clear()
        self.traces.clear()
        self.units = []
        self.solve_seconds = []
        self.rcs = []
        rows = []
        with contextlib.redirect_stdout(io.StringIO()):
            for spec, tau in zip(self.specs, self.taus):
                path = self.pass_dir / f"{spec.name}.ql1p"
                self._timed_cli(spec.cli_args(tau, path))
                params = ";".join(f"{k}={v!r}" for k, v in spec.args.items())
                rows.append(ManifestRow(spec.name, spec.family, spec.args["seed"], params, str(path)))
            manifest = self.pass_dir / "manifest.csv"
            ql1.fileio.write_manifest(manifest, rows)
            bench_csv = self.pass_dir / "bench.csv"
            # bench's f* and product solves add their own units, in call order.
            self.rcs.append(ql1.cli.main(["bench", str(manifest), *self.bench_args,
                                          "--out", str(bench_csv)]))
            self._timed_cli(["profile", str(bench_csv), "--out", str(self.pass_dir / "profile.csv")])
        return PassResult(sum(p.op.mv_count for p in self.read), list(self.traces),
                          self.solve_seconds, self.units)

    def check_pass(self, result: PassResult, gate: Gate) -> None:
        gate.check(all(rc == 0 for rc in self.rcs), f"CLI exit codes {self.rcs}")
        rows = ql1.bench.read_bench_csv(self.pass_dir / "bench.csv")
        gate.check(len(rows) == 3 * len(self.specs), f"bench wrote {len(rows)} rows")
        for r in rows:
            gate.check(r.mv is not None, f"{r.problem} {r.solver}: no mv ({r.status})")
        profile = (self.pass_dir / "profile.csv").read_text().splitlines()
        gate.check(len(profile) > 1, "profile CSV has no points")
        if self.seed == 0 and self.size == "full" and self.passes == 1:
            files = {spec.name: self.pass_dir / f"{spec.name}.ql1p" for spec in self.specs}
            _check_desk_identity(gate, self.workdir, files)
        self.working = [operator_bytes(p) for p in self.read]
        shutil.rmtree(self.pass_dir)

    def working_set(self) -> list[int]:
        return self.working


WORKLOADS = {w.name: w for w in (LargeLasso, SuitePipeline)}
