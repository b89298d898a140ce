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
    assert desk_traces.diff(argparse.Namespace(a=paths[0], b=paths[1])) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["2 of 3 items differ, en 1, sg 1",
                       "ens1 reference: records or final_x",
                       "sga1 reference: status converged -> budget; mv_total 10 -> 12"]
    assert out[-1] == "  reference                    30 ->       32  *"


def test_diff_exits_2_only_for_a_status_change_or_a_missing_item(tmp_path, capsys):
    item = {"sha256": "0", "status": "converged", "mv_total": 10, "mv_setup": 2, "f_best": -1.0}
    a = {"items": {"ens1 reference": item, "pns1 reference": item},
         "mv_totals": {"reference": 20}}
    records = json.loads(json.dumps(a))
    records["items"]["ens1 reference"]["sha256"] = "1"
    products = json.loads(json.dumps(a))
    products["items"]["ens1 reference"].update(mv_total=11, f_best=-1.5)
    fewer = json.loads(json.dumps(a))
    del fewer["items"]["pns1 reference"]
    paths = {}
    for name, digest in (("a", a), ("records", records), ("products", products),
                         ("fewer", fewer)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(digest))
    for x, y, code, line in (("a", "records", 1, "ens1 reference: records or final_x"),
                             ("a", "products", 1,
                              "ens1 reference: mv_total 10 -> 11; f_best -1.0 -> -1.5"),
                             ("a", "fewer", 2, "pns1 reference: only in A"),
                             ("fewer", "a", 2, "pns1 reference: only in B")):
        assert desk_traces.diff(argparse.Namespace(a=paths[x], b=paths[y])) == code, (x, y)
        assert capsys.readouterr().out.splitlines()[1] == line


def test_diff_names_the_hosts_when_they_differ(tmp_path, capsys):
    item = {"sha256": "0", "status": "converged", "mv_total": 10, "mv_setup": 2, "f_best": -1.0}
    old = {"items": {"ens1 reference": item}, "mv_totals": {"reference": 10}}
    here = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "cpus": 2}
    a = dict(old, host=here)
    b = dict(old, host=dict(here, numpy="2.3.0", cpus=8))
    paths = {}
    for name, digest in (("old", old), ("a", a), ("b", b)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(digest))
    assert desk_traces.diff(argparse.Namespace(a=paths["a"], b=paths["b"])) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "0 of 1 items differ", "hosts differ: numpy 2.4.6 -> 2.3.0; cpus 2 -> 8"]
    for x, y in (("a", "a"), ("old", "b"), ("a", "old")):
        assert desk_traces.diff(argparse.Namespace(a=paths[x], b=paths[y])) == 0
        out = capsys.readouterr().out
        assert out.startswith("0 of 1 items differ\n") and "hosts differ" not in out


def test_diff_prints_step_counts_only_when_both_digests_have_them(tmp_path, capsys):
    item = {"sha256": "0", "status": "converged", "mv_total": 10, "mv_setup": 2, "f_best": -1.0}
    old = {"items": {"ens1 reference": item}, "mv_totals": {"reference": 10}}
    a = dict(old, steps={"reference": {"ISTA": 3, "CG": 5, "CUTBACK": 1}})
    b = dict(old, steps={"reference": {"ISTA": 3, "CG": 4, "SUBISTA": 1}})
    paths = {}
    for name, digest in (("old", old), ("a", a), ("b", b)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(digest))
    assert desk_traces.diff(argparse.Namespace(a=paths["a"], b=paths["b"])) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-5:] == [
        "records of each step summed over the suite, A -> B:",
        "  reference              ISTA              3 ->        3",
        "  reference              CG                5 ->        4  *",
        "  reference              CUTBACK           1 ->        0  *",
        "  reference              SUBISTA           0 ->        1  *",
    ]
    for x, y in (("old", "b"), ("a", "old")):
        assert desk_traces.diff(argparse.Namespace(a=paths[x], b=paths[y])) == 0
        out = capsys.readouterr().out
        assert "records of each step" not in out and out.endswith(
            "  reference                    10 ->       10\n")


def test_write_stores_the_step_counts_of_each_kind(tmp_path, monkeypatch):
    p = gen_strict_comp(20, 5, 50.0, 0.4, 0.5, seed=12).problem
    # two instances with the same problem: every sum is twice one solve's
    rows = [argparse.Namespace(problem=name, path=None) for name in ("sct1", "sct2")]
    monkeypatch.setattr(desk_traces, "desk_suite", lambda tmp: rows)
    monkeypatch.setattr(desk_traces, "read_problem", lambda path: p)
    out = tmp_path / "desk.json"
    assert desk_traces.write(argparse.Namespace(out=out)) == 0
    d = json.loads(out.read_text())
    for kind, cfg in desk_traces.KINDS:
        if "fstar" not in kind:
            tr = solve(p, cfg)
            steps = [rec.step for rec in tr.records]
            assert d["steps"][kind] == {s: 2 * steps.count(s) for s in set(steps)}, kind
            assert d["mv_totals"][kind] == 2 * tr.mv_total
    assert len(d["items"]) == 28
    assert d["host"] == desk_traces.host()
    assert set(d["host"]) == {"python", "numpy", "blas", "cpus"}
    assert set(d["steps"]) == {kind for kind, _ in desk_traces.KINDS} | {desk_traces.REFERENCE}
