import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(seed, wall, mv, correct=True, sha=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "mv_total": {"value": mv, "unit": "count"}}
    info = {"workload": "w", "trace": 0, "mv_total": mv}
    if sha is not None:
        info["trace_sha256"] = sha
    return {"seed": seed, "info": info,
            "result": {"correct": correct, "failed": 0 if correct else 1, "metrics": metrics}}


def test_quartiles_interpolate_linearly():
    assert bench_record.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_record.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_compare_pairs_runs_by_seed():
    a = [_run(1, 10.0, 100), _run(2, 11.0, 100), _run(3, 12.0, 100), _run(9, 1.0, 100)]
    b = [_run(3, 13.0, 101), _run(1, 9.0, 100), _run(2, 10.0, 100)]
    lines = bench_record.compare_workload("w", a, b, {"wall_s": "lower", "mv_total": "lower"})
    assert lines[0] == "w: 3 pairs, seeds 1 2 3"
    wall = next(line for line in lines if line.lstrip().startswith("wall_s"))
    # medians 11 -> 10, B lower at seeds 1 and 2
    assert "11 [10.5-11.5]" in wall and "10 [9.5-11.5]" in wall
    assert wall.endswith("2/3") and " 0.909 " in wall
    mv = next(line for line in lines if line.lstrip().startswith("mv_total"))
    assert mv.endswith("0/3")
    assert lines[-1] == "  seed 3: mv_total 100 -> 101 (+1.000%)"


def test_compare_reports_trace_hashes_by_seed():
    # seed 4 has no hash on one side and is skipped
    a = [_run(1, 1.0, 5, sha="a" * 64), _run(2, 1.0, 5, sha="b" * 64), _run(4, 1.0, 5)]
    b = [_run(1, 1.0, 5, sha="a" * 64), _run(2, 1.0, 5, sha="c" * 64),
         _run(4, 1.0, 5, sha="d" * 64)]
    lines = bench_record.compare_workload("w", a, b, {})
    assert lines[-1] == "  seed 2: trace_sha256 bbbbbbbb -> cccccccc"
    assert not any("equal" in line or "seed 1:" in line for line in lines)
    b[1] = _run(2, 1.0, 5, sha="b" * 64)
    lines = bench_record.compare_workload("w", a, b, {})
    assert lines[-1] == "  trace_sha256 equal at all 2 seeds"


def test_failures_name_each_failed_run():
    rec = {"runs": {"w": [_run(1, 1.0, 1), _run(2, 1.0, 1, correct=False)]}, "traced": {}}
    assert bench_record.failures(rec) == ["w seed 2 trace 0: 1 checks failed"]


def test_record_name_counts_commits_and_marks_changes(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "f").write_text("1")
    git("add", "f")
    git("commit", "-q", "-m", "one")
    name, state = bench_record.record_name(tmp_path)
    assert name == f"BENCH_1_{state['head'][:7]}.json" and not state["dirty"]
    (tmp_path / "untracked").write_text("x")
    assert bench_record.record_name(tmp_path)[0] == name
    (tmp_path / "f").write_text("2")
    name, state = bench_record.record_name(tmp_path)
    assert name == f"BENCH_2_{state['head'][:7]}-dirty.json" and state["dirty"]


def test_record_refuses_to_mix_checkouts(tmp_path, capsys):
    out = tmp_path / "rec.json"
    out.write_text('{"git": {"head": "0", "dirty": false}, "size": "tiny", "seconds": 0.0}')
    args = bench_record.parse_args(["record", "--size", "tiny", "--seconds", "0",
                                    "--out", str(out)])
    assert bench_record.record(args) == 2
    assert "another checkout" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["record", "--size", "huge"], ["compare", "a"]])
def test_bad_arguments_exit(argv):
    with pytest.raises(SystemExit):
        bench_record.parse_args(argv)
