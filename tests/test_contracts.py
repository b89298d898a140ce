"""Checks that tie the library to what lives outside ``src/``.

The benchmark's tracer (``perfbench/tracer.py``) wraps library functions
by name where their callers look them up, and the README quickstart is
the first code a user runs. Neither is collected by the default test
paths, so these tests keep both working.
"""

import importlib.util
import re
from pathlib import Path

import ql1.drivers

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

