import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from ql1 import problem as problem_mod
from ql1.drivers import SolverConfig, reference_config, solve
from ql1.probgen import gen_strict_comp

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "desk_traces.py"
_spec = importlib.util.spec_from_file_location("desk_traces", SCRIPT)
desk_traces = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(desk_traces)


def diff(a, b, *flags):
    """The exit code of ``desk_traces.py diff a b [flags]``."""
    return desk_traces.main(["diff", str(a), str(b), *flags])


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
    assert diff(paths[0], paths[0]) == 0
    assert capsys.readouterr().out.startswith("0 of 3 items differ\n")
    assert diff(paths[0], paths[1]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["2 of 3 items differ, en 1, sg 1",
                       "ens1 reference: records or final_x",
                       "sga1 reference: status converged -> budget; mv_total 10 -> 12"]
    assert out[-1] == "  reference                    30 ->       32  *"


ITEM = {"sha256": "0", "status": "converged", "mv_total": 10, "mv_setup": 2, "f_best": -1.0}
DESK, LASSO = "ens1 reference", "lasso5000 large-lasso iicg1"


def test_diff_exits_2_only_for_a_status_change_or_a_missing_item(tmp_path, capsys):
    a = {"items": {DESK: ITEM, "pns1 reference": ITEM, LASSO: ITEM},
         "mv_totals": {"reference": 20, "large-lasso iicg1": 10}}
    variants = {"a": (DESK, {}), "records": (DESK, {"sha256": "1"}),
                "products": (DESK, {"mv_total": 11, "f_best": -1.5}),
                "status": (DESK, {"status": "budget"}), "fewer": ("pns1 reference", None),
                "lasso records": (LASSO, {"sha256": "1"}),
                "lasso products": (LASSO, {"mv_total": 11}), "lasso f": (LASSO, {"f_best": -1.5}),
                "lasso status": (LASSO, {"status": "budget"}), "lasso fewer": (LASSO, None)}
    paths = {}
    for name, (key, change) in variants.items():
        digest = json.loads(json.dumps(a))
        if change is None:
            del digest["items"][key]
        else:
            digest["items"][key].update(change)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(digest))
    # A, B, exit code without and with --may-change, the line naming the item
    for x, y, plain, labelled, line in (
            ("a", "a", 0, 0, "products summed over the suite, A -> B:"),
            ("a", "records", 1, 0, "ens1 reference: records or final_x"),
            ("a", "products", 1, 0, "ens1 reference: mv_total 10 -> 11; f_best -1.0 -> -1.5"),
            ("a", "status", 2, 2, "ens1 reference: status converged -> budget"),
            ("a", "fewer", 2, 2, "pns1 reference: only in A"),
            ("fewer", "a", 2, 2, "pns1 reference: only in B"),
            ("lasso records", "a", 1, 0, f"{LASSO}: records or final_x"),
            ("a", "lasso products", 1, 0, f"{LASSO}: mv_total 10 -> 11"),
            ("lasso f", "a", 1, 0, f"{LASSO}: f_best -1.5 -> -1.0"),
            ("lasso status", "a", 2, 2, f"{LASSO}: status budget -> converged"),
            ("a", "lasso fewer", 2, 2, f"{LASSO}: only in A"),
            ("lasso fewer", "a", 2, 2, f"{LASSO}: only in B")):
        for flags, code in (((), plain), (("--may-change",), labelled)):
            assert diff(paths[x], paths[y], *flags) == code, (x, y, flags)
            assert capsys.readouterr().out.splitlines()[1] == line


def test_diff_counts_the_items_whose_products_fell_or_rose_in_each_kind(tmp_path, capsys):
    def item(mv):
        return {"sha256": str(mv), "status": "converged", "mv_total": mv, "mv_setup": 2,
                "f_best": -1.0}

    a = {"items": {"ens1 reference": item(100), "ens2 reference": item(72),
                   "pns1 reference": item(50), "sgs1 reference": item(635),
                   "ens1 iicg1 vnorm 1e-06": item(40), "pns1 iicg1 vnorm 1e-06": item(30),
                   "ens1 fista vnorm 1e-06": item(9)},
         "mv_totals": {"reference": 857, "iicg1 vnorm 1e-06": 70, "fista vnorm 1e-06": 9}}
    b = json.loads(json.dumps(a))
    for key, mv in (("ens1 reference", 110), ("ens2 reference", 87), ("pns1 reference", 45),
                    ("sgs1 reference", 436), ("ens1 iicg1 vnorm 1e-06", 41)):
        b["items"][key] = item(mv)
    b["items"]["pns1 iicg1 vnorm 1e-06"]["sha256"] = "other"  # records only
    b["mv_totals"].update({"reference": 678, "iicg1 vnorm 1e-06": 71})
    paths = []
    for name, digest in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digest))
    assert diff(paths[0], paths[1]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "6 of 7 items differ, en 3, pn 2, sg 1"
    at = out.index("items whose products moved, by kind, A -> B:")
    assert out[at + 1:at + 3] == [
        "  iicg1 vnorm 1e-06      fell 0, rose 1; largest rise ens1 iicg1 vnorm 1e-06 40 -> 41"
        " (+2.5%)",
        "  reference              fell 2, rose 2; largest rise ens2 reference 72 -> 87 (+20.8%);"
        " largest fall sgs1 reference 635 -> 436 (-31.3%)",
    ]
    assert out[at + 3] == "products summed over the suite, A -> B:"
    # no products moved: no such block
    assert diff(paths[0], paths[0]) == 0
    assert "products moved" not in capsys.readouterr().out


def test_diff_names_the_hosts_when_they_differ(tmp_path, capsys):
    item = {"sha256": "0", "status": "converged", "mv_total": 10, "mv_setup": 2, "f_best": -1.0}
    old = {"items": {"ens1 reference": item}, "mv_totals": {"reference": 10}}
    before = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "cpus": 2}
    here = dict(before, OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None, MKL_NUM_THREADS=None)
    a = dict(old, host=here)
    b = dict(old, host=dict(here, numpy="2.3.0", cpus=8))
    one_thread = dict(old, host=dict(here, OPENBLAS_NUM_THREADS="1"))
    # a host recorded before the BLAS thread variables reads them as unset
    pre = dict(old, host=before)
    paths = {}
    for name, digest in (("old", old), ("a", a), ("b", b), ("one", one_thread), ("pre", pre)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(digest))
    assert diff(paths["a"], paths["b"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "0 of 1 items differ", "hosts differ: numpy 2.4.6 -> 2.3.0; cpus 2 -> 8"]
    for x in ("a", "pre"):
        assert diff(paths[x], paths["one"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "0 of 1 items differ", "hosts differ: OPENBLAS_NUM_THREADS None -> 1"]
    for x, y in (("a", "a"), ("old", "b"), ("a", "old"), ("pre", "a"), ("a", "pre")):
        assert diff(paths[x], paths[y]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0 of 1 items differ\n") and "hosts differ" not in out


def test_host_counts_the_cpus_the_process_may_run_on(monkeypatch):
    # OpenBLAS sizes its threads by the affinity, which taskset narrows
    # below os.cpu_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    problem_mod._cpus.cache_clear()
    try:
        assert desk_traces.host()["cpus"] == 1
    finally:
        problem_mod._cpus.cache_clear()


def test_diff_prints_step_counts_only_when_both_digests_have_them(tmp_path, capsys):
    item = {"sha256": "0", "status": "converged", "mv_total": 10, "mv_setup": 2, "f_best": -1.0}
    old = {"items": {"ens1 reference": item}, "mv_totals": {"reference": 10}}
    a = dict(old, steps={"reference": {"ISTA": 3, "CG": 5, "CUTBACK": 1}})
    b = dict(old, steps={"reference": {"ISTA": 3, "CG": 4, "SUBISTA": 1}})
    paths = {}
    for name, digest in (("old", old), ("a", a), ("b", b)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(digest))
    assert diff(paths["a"], paths["b"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-5:] == [
        "records of each step summed over the suite, A -> B:",
        "  reference              ISTA              3 ->        3",
        "  reference              CG                5 ->        4  *",
        "  reference              CUTBACK           1 ->        0  *",
        "  reference              SUBISTA           0 ->        1  *",
    ]
    for x, y in (("old", "b"), ("a", "old")):
        assert diff(paths[x], paths[y]) == 0
        out = capsys.readouterr().out
        assert "records of each step" not in out and out.endswith(
            "  reference                    10 ->       10\n")


def test_write_stores_the_step_counts_of_each_kind(tmp_path, monkeypatch):
    p = gen_strict_comp(20, 5, 50.0, 0.4, 0.5, seed=12).problem
    # two instances with the same problem: every sum is twice one solve's
    rows = [argparse.Namespace(problem=name, path=None) for name in ("sct1", "sct2")]
    monkeypatch.setattr(desk_traces, "desk_suite", lambda tmp: rows)
    monkeypatch.setattr(desk_traces, "read_problem", lambda path: p)
    monkeypatch.setattr(desk_traces, "LARGE_LASSO_SIZE", "tiny")
    out = tmp_path / "desk.json"
    assert desk_traces.write(argparse.Namespace(out=out)) == 0
    d = json.loads(out.read_text())
    for kind, cfg in desk_traces.KINDS:
        if "fstar" not in kind:
            tr = solve(p, cfg)
            steps = [rec.step for rec in tr.records]
            assert d["steps"][kind] == {s: 2 * steps.count(s) for s in set(steps)}, kind
            assert d["mv_totals"][kind] == 2 * tr.mv_total
    assert d["items"]["sct1 reference"] == desk_traces.digest(solve(p, reference_config()))
    assert len([key for key in d["items"] if key.startswith("sct")]) == 28
    assert len(d["items"]) == 28 + 48
    assert d["host"] == desk_traces.host()
    assert set(d["host"]) == {"python", "numpy", "blas", "cpus", "OPENBLAS_NUM_THREADS",
                              "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    lasso_kinds = {f"large-lasso {alg}" for alg in ("iicg1", "iicg2", "istabb")}
    assert set(d["steps"]) == ({kind for kind, _ in desk_traces.KINDS} | {desk_traces.REFERENCE}
                               | lasso_kinds)


def test_write_adds_one_item_per_solve_of_a_large_lasso_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(desk_traces, "desk_suite", lambda tmp: [])
    monkeypatch.setattr(desk_traces, "LARGE_LASSO_SIZE", "tiny")
    out = tmp_path / "desk.json"
    assert desk_traces.write(argparse.Namespace(out=out)) == 0
    d = json.loads(out.read_text())
    # a second pass of the benchmark's own workload, set up apart from write's
    (tmp_path / "wl").mkdir()
    names, result = desk_traces.large_lasso("tiny", tmp_path / "wl")
    keys = [f"lasso{5000 + 100 * i} large-lasso {alg}"
            for i in range(16) for alg in ("iicg1", "iicg2", "istabb")]
    assert list(d["items"]) == names == keys
    assert [d["items"][key] for key in keys] == [desk_traces.digest(tr) for tr in result.traces]
    assert sum(d["mv_totals"].values()) == result.mv_total
    for i, alg in enumerate(("iicg1", "iicg2", "istabb")):
        steps = [rec.step for tr in result.traces[i::3] for rec in tr.records]
        assert d["steps"][f"large-lasso {alg}"] == {s: steps.count(s) for s in set(steps)}


def test_write_runs_the_large_lasso_recipe_beside_the_imported_ql1(tmp_path, monkeypatch):
    # two copies of the checkout, as CI digests its base: one as it is, and one
    # whose recipe solves to 1e-6; each is written with PYTHONPATH at its own src
    recipe = (ROOT / "perfbench" / "workloads.py").read_text()
    assert recipe.count("    tol = 1e-8\n") == 1
    write_tiny = ("import sys; sys.path.insert(0, sys.argv[1]); import desk_traces as d; "
                  "d.LARGE_LASSO_SIZE = 'tiny'; d.desk_suite = lambda tmp: []; "
                  "sys.exit(d.main(['write', '--out', sys.argv[2]]))")
    for name, tol in (("same", "1e-8"), ("looser", "1e-6")):
        base = tmp_path / name
        shutil.copytree(ROOT / "src" / "ql1", base / "src" / "ql1",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (base / "perfbench").mkdir()
        (base / "perfbench" / "workloads.py").write_text(
            recipe.replace("    tol = 1e-8\n", f"    tol = {tol}\n"))
        subprocess.run([sys.executable, "-c", write_tiny, str(SCRIPT.parent),
                        str(tmp_path / f"{name}.json")],
                       cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(base / "src")), check=True)
    monkeypatch.setattr(desk_traces, "desk_suite", lambda tmp: [])
    monkeypatch.setattr(desk_traces, "LARGE_LASSO_SIZE", "tiny")
    assert desk_traces.write(argparse.Namespace(out=tmp_path / "head.json")) == 0
    assert diff(tmp_path / "same.json", tmp_path / "head.json") == 0
    assert diff(tmp_path / "looser.json", tmp_path / "head.json") == 1
    assert diff(tmp_path / "looser.json", tmp_path / "head.json", "--may-change") == 0


def test_an_unreadable_digest_fails_the_gate(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"items": {DESK: ITEM}, "mv_totals": {"reference": 10}}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, text in (("empty", ""), ("cut", good.read_text()[:20])):
        bad = tmp_path / f"{name}.json"
        bad.write_text(text)
        for a, b in ((bad, good), (good, bad)):
            proc = subprocess.run([sys.executable, str(SCRIPT), "diff", str(a), str(b),
                                   "--may-change"], capture_output=True, text=True, env=env)
            assert proc.returncode != 0 and "JSONDecodeError" in proc.stderr, (name, proc)
