"""Checks that tie the library to what lives outside ``src/``.

The benchmark's tracer (``perfbench/tracer.py``) wraps library functions
by name where their callers look them up, and the README quickstart and
command lines are the first code a user runs. None of them is collected
by the default test paths, so these tests keep them working.
"""

import importlib.util
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import ql1.bench
import ql1.drivers
from ql1.cli import build_parser
from ql1.drivers import SolverConfig
from ql1.fileio import ManifestRow, read_problem, write_problem
from ql1.probgen import gen_elastic_net

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_module(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_mod = _perfbench_module("tracer")
    original = ql1.drivers.cutback_alpha
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert ql1.drivers.cutback_alpha is not original
    finally:
        tracer.uninstall()
    assert ql1.drivers.cutback_alpha is original


def test_traced_names_stay_on_the_call_path():
    # a loop that called a traced function other than through the name the
    # tracer wraps would zero that function's metrics without failing
    tracer_mod = _perfbench_module("tracer")
    p = gen_elastic_net(60, 100, 10.0, 0.1, 5.0, seed=0).problem
    before = p.op.mv_count
    tracer = tracer_mod.Tracer()
    tracer.start(tracer_mod.PASS)
    try:
        tr = ql1.drivers.solve(p, SolverConfig(algorithm="iicg2", tol=1e-8))
        steps = [rec.step for rec in tr.records]
        cycles = sum(a not in ("CG", "CUTBACK") and b in ("CG", "CUTBACK")
                     for a, b in zip(steps, steps[1:]))
        assert cycles >= 3 and "CUTBACK" in steps
        for cfg in (SolverConfig(algorithm="istabb"), SolverConfig(algorithm="fista"),
                    SolverConfig(algorithm="iicg1", alpha_policy="constant")):
            ql1.drivers.solve(p, cfg)
        ql1.drivers.reference_objective(p)
    finally:
        tracer.stop()
    spans = Counter(tracer.names[i] for i in tracer.name_id)
    for name in ("problem.objective",
                 "cg.init_cg_cycle", "cg.cg_step", "cg.cutback_alpha", "cg.sufficient_decrease",
                 "cg.CGState.objective", "cg.CGState.smooth_grad",
                 "first_order.bb_ls_step", "first_order.ista_step",
                 "first_order.subspace_ista_step",
                 "drivers.solve", "drivers.reference_objective", "drivers.estimate_max_eig"):
        assert spans[name] >= 1, name
    applies = sum(n for name, n in spans.items() if name.startswith("problem.apply."))
    assert applies == p.op.mv_count - before >= 1


def test_run_suite_stays_on_the_traced_call_path(tmp_path):
    # suite-pipeline records bench's read_problem, solve and reference_objective
    # through (*args, **kwargs) wrappers, and its traced pass wraps the tracer's
    # around them; the bench passes trace_out through both
    workloads, tracer_mod = _perfbench_module("workloads"), _perfbench_module("tracer")
    path = tmp_path / "p.ql1p"
    write_problem(path, gen_elastic_net(30, 60, 10.0, 0.1, 5.0, seed=1).problem)
    manifest = [ManifestRow("p", "elastic-net", 1, "", str(path))]
    configs = [SolverConfig(algorithm=a, tol=1e-4, mv_budget=2000) for a in ("fista", "iicg2")]
    ref = []
    f_star = ql1.drivers.reference_objective(read_problem(path), 2000, trace_out=ref)
    recorder = workloads.SuitePipeline(0, "tiny", tmp_path)
    tracer = tracer_mod.Tracer()
    try:
        out = []
        value = ql1.bench.reference_objective(read_problem(path), 2000, trace_out=out)
        assert isinstance(value, float) and value == f_star
        assert len(recorder.units) == 1 and out[0].mv_total == ref[0].mv_total
        tracer.start(tracer_mod.PASS)
        try:
            rows = ql1.bench.run_suite(manifest, configs)
        finally:
            tracer.stop()
    finally:
        recorder.close()
    spans = Counter(tracer.names[i] for i in tracer.name_id)
    assert spans["bench.run_suite"] == 1 and spans["drivers.reference_objective"] == 1
    assert tracer.counts[tracer_mod.PASS]["bench.reference.mv"] == ref[0].mv_total
    assert all(r.status == "converged" for r in rows)
    # the iicg2 row is read off the reference trace: only fista goes through solve
    assert [t.mv_total for t in recorder.traces] == [rows[0].mv]


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("converged")


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("ql1 ")]
    assert len(lines) == 8
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
