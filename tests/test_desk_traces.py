import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np

from ql1.drivers import SolverConfig, solve
from ql1.probgen import gen_strict_comp

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "desk_traces.py"
_spec = importlib.util.spec_from_file_location("desk_traces", SCRIPT)
desk_traces = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(desk_traces)


def test_fourteen_items_per_instance():
    assert len(desk_traces.KINDS) + 1 == 14
    assert len({kind for kind, _ in desk_traces.KINDS} | {desk_traces.REFERENCE}) == 14


def test_digest_reads_records_and_final_x():
    p = gen_strict_comp(20, 5, 50.0, 0.4, 0.5, seed=12).problem
    tr = solve(p, SolverConfig(algorithm="iicg2", tol=1e-8))
    d = desk_traces.digest(tr)
    assert d == desk_traces.digest(solve(p, SolverConfig(algorithm="iicg2", tol=1e-8)))
    assert (d["status"], d["mv_total"], d["mv_setup"], d["f_best"]) == (
        tr.status, tr.mv_total, tr.mv_setup, tr.f_best)
    tr.final_x = np.nextafter(tr.final_x, np.inf)
    assert desk_traces.digest(tr)["sha256"] != d["sha256"]


def test_diff_lists_each_changed_item(tmp_path, capsys):
    item = {"sha256": "0", "status": "converged", "mv_total": 10, "mv_setup": 2, "f_best": -1.0}
    a = {"items": {"sga1 reference": item, "ens1 reference": item, "pns1 reference": item},
         "mv_totals": {"reference": 30}}
    b = json.loads(json.dumps(a))
    b["items"]["sga1 reference"].update(status="budget", mv_total=12)
    b["items"]["ens1 reference"]["sha256"] = "1"
    b["mv_totals"]["reference"] = 32
    paths = []
    for name, digest in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digest))
    assert desk_traces.diff(argparse.Namespace(a=paths[0], b=paths[0])) == 0
    assert capsys.readouterr().out.startswith("0 of 3 items differ\n")
    assert desk_traces.diff(argparse.Namespace(a=paths[0], b=paths[1])) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["2 of 3 items differ, en 1, sg 1",
                       "ens1 reference: records or final_x",
                       "sga1 reference: status converged -> budget; mv_total 10 -> 12"]
    assert out[-1] == "  reference                    30 ->       32  *"
