import csv

import numpy as np
import pytest

from ql1.cli import main
from ql1.fileio import read_manifest, read_problem, write_manifest, write_problem
from ql1.probgen import gen_strict_comp
from ql1.problem import DenseOperator, QuadraticProblem


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_each_family(tmp_path):
    out = tmp_path / "en.ql1p"
    assert main(["gen", "--family", "elastic-net", "--m", "6", "--n", "10",
                 "--scale", "2", "--gamma", "0.1", "--tau", "0.5",
                 "--seed", "3", "--out", str(out)]) == 0
    p = read_problem(out)
    assert p.n == 10 and p.tau == 0.5

    out = tmp_path / "sg.ql1p"
    assert main(["gen", "--family", "sigrec", "--m", "6", "--n", "12",
                 "--signal-nnz", "2", "--noise-sigma", "0.05",
                 "--tau", "0.1", "--seed", "3", "--out", str(out)]) == 0
    assert read_problem(out).n == 12

    out = tmp_path / "sc.ql1p"
    assert main(["gen", "--family", "strict-comp", "--n", "12", "--nnz", "3",
                 "--cond", "40", "--tau", "0.4", "--margin", "0.5",
                 "--seed", "3", "--out", str(out)]) == 0
    assert read_problem(out).n == 12


def test_gen_same_seed_identical_bytes(tmp_path):
    args = ["gen", "--family", "elastic-net", "--m", "5", "--n", "8",
            "--gamma", "0.2", "--tau", "0.3", "--seed", "11"]
    a, b = tmp_path / "a.ql1p", tmp_path / "b.ql1p"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_and_trace(tmp_path, capsys):
    prob_path = tmp_path / "p.ql1p"
    write_problem(prob_path, QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0))
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", str(prob_path), "--algorithm", "iicg2", "--tol", "1e-10",
               "--trace-out", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status=converged" in out
    rows = _read_csv(trace_path)
    assert list(rows[0].keys()) == ["mv", "k", "F", "nnz", "step"]
    assert all(r["step"] in ("ISTA", "SUBISTA", "CG", "CUTBACK", "LSFALLBACK") for r in rows)


def test_solve_fstar_stops_on_accuracy(tmp_path, capsys):
    prob_path = tmp_path / "p.ql1p"
    inst = gen_strict_comp(12, 4, 40.0, 0.4, 0.5, seed=5)
    write_problem(prob_path, inst.problem)
    f_star = inst.problem.objective(inst.x_star, ax=inst.problem.op.dense() @ inst.x_star)
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", str(prob_path), "--tol", "1e-3", "--fstar", f"{f_star:.17g}",
               "--trace-out", str(trace_path)])
    assert rc == 0 and "status=converged" in capsys.readouterr().out
    # the solve ends at the first step within tol of f*
    accs = [(float(r["F"]) - f_star) / abs(f_star) for r in _read_csv(trace_path)]
    assert accs[-1] <= 1e-3 and all(a > 1e-3 for a in accs[:-1])


def test_solve_rejects_policy_the_solver_ignores(tmp_path, capsys):
    prob_path = tmp_path / "p.ql1p"
    write_problem(prob_path, QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0))
    rc = main(["solve", str(prob_path), "--algorithm", "fista", "--alpha-policy", "bb"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_fstar_prints_reference(tmp_path, capsys):
    prob_path = tmp_path / "p.ql1p"
    write_problem(prob_path, QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0))
    assert main(["fstar", str(prob_path)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(-2.25, abs=1e-10)


def _small_manifest(tmp_path):
    rows = []
    for i, seed in enumerate((1, 2)):
        inst = gen_strict_comp(12, 4, 40.0, 0.4, 0.5, seed=seed)
        path = tmp_path / f"m{i}.ql1p"
        write_problem(path, inst.problem)
    manifest_path = tmp_path / "manifest.csv"
    from ql1.fileio import ManifestRow

    rows = [
        ManifestRow(f"m{i}", "strict_comp", seed, "spd=1", str(tmp_path / f"m{i}.ql1p"))
        for i, seed in enumerate((1, 2))
    ]
    write_manifest(manifest_path, rows)
    return manifest_path


def test_bench_profile_pipeline(tmp_path):
    manifest_path = _small_manifest(tmp_path)
    bench_path = tmp_path / "bench.csv"
    rc = main(["bench", str(manifest_path), "--solvers", "iicg1,iicg2",
               "--tols", "1e-4,1e-8", "--budget", "5000", "--out", str(bench_path)])
    assert rc == 0
    rows = _read_csv(bench_path)
    assert list(rows[0].keys()) == ["problem", "solver", "tol", "mv", "seconds", "accuracy", "status"]
    assert len(rows) == 2 * 2 * 2

    profile_path = tmp_path / "profile.csv"
    assert main(["profile", str(bench_path), "--metric", "mv", "--out", str(profile_path)]) == 0
    prows = _read_csv(profile_path)
    assert list(prows[0].keys()) == ["solver", "log2_theta", "rho"]
    assert {r["solver"] for r in prows} == {"iicg1", "iicg2"}


def test_bench_rejects_unknown_solver(tmp_path):
    manifest_path = _small_manifest(tmp_path)
    assert main(["bench", str(manifest_path), "--solvers", "iicg9",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_bench_reports_row_errors(tmp_path):
    from ql1.fileio import ManifestRow

    manifest_path = tmp_path / "manifest.csv"
    write_manifest(manifest_path, [
        ManifestRow("ghost", "custom", 0, "", str(tmp_path / "missing.ql1p")),
    ])
    rc = main(["bench", str(manifest_path), "--solvers", "iicg2", "--tols", "1e-4",
               "--out", str(tmp_path / "bench.csv")])
    assert rc == 1


def test_pareto_command(tmp_path):
    prob_path = tmp_path / "p.ql1p"
    inst = gen_strict_comp(12, 4, 40.0, 0.4, 0.5, seed=5)
    write_problem(prob_path, inst.problem)
    trace_path = tmp_path / "trace.csv"
    main(["solve", str(prob_path), "--tol", "1e-10", "--trace-out", str(trace_path)])
    f_star = inst.problem.objective(inst.x_star, ax=inst.problem.op.dense() @ inst.x_star)
    out_path = tmp_path / "pareto.csv"
    assert main(["pareto", str(trace_path), "--fstar", f"{f_star:.17g}",
                 "--out", str(out_path)]) == 0
    rows = _read_csv(out_path)
    assert list(rows[0].keys()) == ["accuracy", "nnz"]
    accs = [float(r["accuracy"]) for r in rows]
    nnzs = [int(r["nnz"]) for r in rows]
    assert all(a < b for a, b in zip(accs, accs[1:]))
    assert all(a > b for a, b in zip(nnzs, nnzs[1:]))


def test_sweep_command(tmp_path):
    manifest_path = _small_manifest(tmp_path)
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", str(manifest_path), "--factors", "1,10", "--budget", "5000",
               "--out", str(out_path)])
    assert rc == 0
    rows = _read_csv(out_path)
    assert list(rows[0].keys()) == ["factor", "mean_inflation"]
    assert float(rows[0]["mean_inflation"]) == 1.0


def test_sweep_missing_file_exits_one(tmp_path, capsys):
    from ql1.fileio import ManifestRow

    manifest_path = tmp_path / "manifest.csv"
    write_manifest(manifest_path, [
        ManifestRow("ghost", "custom", 0, "", str(tmp_path / "missing.ql1p")),
    ])
    assert main(["sweep", str(manifest_path), "--out", str(tmp_path / "sweep.csv")]) == 1
    assert "ghost" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 2


def test_gen_suite_writes_manifest(tmp_path):
    # probe the suite writer through a tiny direct call: the full suite
    # is exercised by the acceptance tests; here only the CLI wiring
    out = tmp_path / "suite"
    rc = main(["gen", "--family", "suite", "--out", str(out)])
    assert rc == 0
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == 48
    for row in rows[:3]:
        read_problem(row.path)


def test_solve_indefinite_exits_one(tmp_path, capsys):
    prob_path = tmp_path / "indef.ql1p"
    write_problem(prob_path, QuadraticProblem(DenseOperator(np.diag([1.0, -1.0, 2.0])),
                                              np.ones(3), 0.1))
    assert main(["solve", str(prob_path)]) == 1
    assert "status=unbounded" in capsys.readouterr().out
