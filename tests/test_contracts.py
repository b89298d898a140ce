"""Checks that tie the library to what lives outside ``src/``.

The benchmark's tracer (``perfbench/tracer.py``) wraps library functions
by name where their callers look them up, and the README quickstart and
command lines are the first code a user runs. None of them is collected
by the default test paths, so these tests keep them working.
"""

import importlib.util
import re
import shlex
from collections import Counter
from pathlib import Path

import ql1.drivers
from ql1.cli import build_parser
from ql1.drivers import SolverConfig
from ql1.probgen import gen_elastic_net

ROOT = Path(__file__).resolve().parent.parent


def _tracer_module():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


def test_tracer_installs_and_uninstalls():
    tracer_mod = _tracer_module()
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
    tracer_mod = _tracer_module()
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
