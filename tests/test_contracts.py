"""Checks that tie the library to what lives outside ``src/``.

The benchmark's tracer (``perfbench/tracer.py``) wraps library functions
by name where their callers look them up, and the README quickstart and
command lines are the first code a user runs. None of them is collected
by the default test paths, so these tests keep them working.
"""

import importlib.util
import re
import shlex
from pathlib import Path

import ql1.drivers
from ql1.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_uninstalls():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    original = ql1.drivers.cutback_alpha
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert ql1.drivers.cutback_alpha is not original
    finally:
        tracer.uninstall()
    assert ql1.drivers.cutback_alpha is original


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
