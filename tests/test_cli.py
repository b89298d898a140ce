import csv

import numpy as np
import pytest

from ql1.cli import main
from ql1.drivers import SolverConfig, solve
from ql1.fileio import read_manifest, read_problem, write_manifest, write_problem
from ql1.probgen import gen_elastic_net, gen_strict_comp
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


def test_solve_and_fstar_on_an_empty_problem(tmp_path, capsys):
    prob_path = tmp_path / "p.ql1p"
    write_problem(prob_path, QuadraticProblem(DenseOperator(np.zeros((0, 0))), np.zeros(0), 0.5))
    assert main(["solve", str(prob_path)]) == 0
    assert capsys.readouterr().out.startswith("status=converged mv=0 steps=0 ")
    assert main(["fstar", str(prob_path)]) == 0
    assert float(capsys.readouterr().out) == 0.0


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


def test_bench_rejects_unknown_solver(tmp_path, capsys):
    manifest_path = _small_manifest(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        main(["bench", str(manifest_path), "--solvers", "iicg9",
              "--out", str(tmp_path / "x.csv")])
    assert exc_info.value.code == 2
    assert "unknown solver 'iicg9'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, option, value", [
    ("bench", "--solvers", ","),
    ("bench", "--solvers", "iicg2,bogus"),
    ("bench", "--tols", ","),
    ("bench", "--tols", "1e-4,abc"),
    ("sweep", "--factors", ","),
    ("sweep", "--factors", "1,x"),
])
def test_bad_comma_list_is_a_usage_error(tmp_path, capsys, command, option, value):
    manifest_path = _small_manifest(tmp_path)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc_info:
        main([command, str(manifest_path), option, value, "--out", str(out)])
    assert exc_info.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("bench", "--tols", "1e-4,-1"),
    ("bench", "--tols", "nan"),
    ("sweep", "--factors", "1,0.5"),
    ("sweep", "--factors", "10,100"),
])
def test_comma_list_out_of_range_exits_one(tmp_path, capsys, command, option, value):
    # the list parses; SolverConfig or the sweep rejects a value in it
    manifest_path = _small_manifest(tmp_path)
    out = tmp_path / "out.csv"
    assert main([command, str(manifest_path), option, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


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


def test_solve_rejects_nan_tol(tmp_path, capsys):
    prob_path = tmp_path / "p.ql1p"
    write_problem(prob_path, QuadraticProblem(DenseOperator([[2.0]]), np.array([4.0]), 1.0))
    assert main(["solve", str(prob_path), "--tol", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: tol must be")


def test_solve_prints_f_and_nnz_of_the_same_point(tmp_path, capsys):
    # a budget stop: final_x is the best point, not the last one; the
    # budget is the first past the solve's own set-up at which they differ
    problem = gen_elastic_net(50, 100, 10.0, 0.0, 1.0, seed=3).problem
    prob_path = tmp_path / "p.ql1p"
    write_problem(prob_path, problem)
    setup = solve(problem, SolverConfig(algorithm="istabb", mv_budget=1)).mv_setup
    for budget in range(setup + 1, setup + 100):
        trace = solve(problem, SolverConfig(algorithm="istabb", tol=1e-14, mv_budget=budget))
        if trace.f_final != pytest.approx(trace.f_best, rel=1e-6):
            break
    assert trace.status == "budget" and trace.f_final > trace.f_best, budget
    args = ["--algorithm", "istabb", "--tol", "1e-14", "--budget", str(budget)]
    assert main(["solve", str(prob_path), *args]) == 1
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    assert trace.status == fields["status"] == "budget"
    f_final_x = problem.objective(trace.final_x)
    assert trace.f_final != pytest.approx(f_final_x, rel=1e-6)
    assert float(fields["F"]) == pytest.approx(f_final_x, rel=1e-11)
    assert int(fields["nnz"]) == np.count_nonzero(trace.final_x)


_GOOD_CSV = {
    "pareto": "mv,k,F,nnz,step\n1,1,-2.0,1,ISTA\n2,2,-2.25,1,CG\n",
    "profile": "problem,solver,tol,mv,seconds,accuracy,status\n"
               "p1,iicg2,0.0001,5,0.001,1e-05,converged\n"
               "p1,fista,0.0001,-,0.002,1e-03,budget\n",
    "bench": "problem,family,seed,params,path\nm0,custom,0,spd=1,m0.ql1p\nm1,custom,1,spd=1,m1.ql1p\n",
}
_GOOD_CSV["sweep"] = _GOOD_CSV["bench"]
_MISSING = {"pareto": "mv", "profile": "mv", "bench": "params", "sweep": "params"}
_CONVERTED = {"pareto": "mv", "profile": "mv", "bench": "seed", "sweep": "seed"}


def _drop_column(text, name):
    lines = [line.split(",") for line in text.splitlines()]
    j = lines[0].index(name)
    return "".join(",".join(f for i, f in enumerate(line) if i != j) + "\n" for line in lines)


def _short_last_row(text):
    lines = text.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


def _bad_last_value(text, name):
    lines = [line.split(",") for line in text.splitlines()]
    lines[-1][lines[0].index(name)] = "x"
    return "".join(",".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("fault", ["missing-column", "short-row", "bad-value"])
@pytest.mark.parametrize("command", ["pareto", "profile", "bench", "sweep"])
def test_malformed_csv_exits_one(tmp_path, capsys, command, fault):
    text = _GOOD_CSV[command]
    if fault == "missing-column":
        text, line = _drop_column(text, _MISSING[command]), 1
    elif fault == "short-row":
        text, line = _short_last_row(text), 3
    else:
        text, line = _bad_last_value(text, _CONVERTED[command]), 3
    path = tmp_path / "in.csv"
    path.write_text(text)
    extra = ["--fstar", "-2.25"] if command == "pareto" else []
    assert main([command, str(path), *extra, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{path}, line {line}:" in err
    if fault == "missing-column":
        assert _MISSING[command] in err
    if fault == "bad-value":
        assert "'x'" in err
