import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ql1.drivers import STATUS_CONVERGED, SolverConfig, solve
from ql1.fileio import ProblemFormatError, read_problem, write_problem
from ql1.probgen import gen_elastic_net, gen_sigrec, gen_strict_comp
from ql1.problem import FactoredOperator
from ql1.subgrad import min_norm_subgrad


def test_elastic_net_shapes_and_canonical_form():
    inst = gen_elastic_net(8, 20, 3.0, 0.25, 1.5, seed=1)
    op = inst.problem.op
    assert isinstance(op, FactoredOperator)
    assert op.b_mat.shape == (8, 20)
    assert op.gamma == 0.25
    assert inst.problem.tau == 1.5
    assert inst.problem.n == 20
    # b must be B'y for the y drawn after B; replay the stream to check
    from ql1.rng import Rng

    rng = Rng(1)
    b_mat = rng.normals(8 * 20).reshape(8, 20)
    y = 3.0 * rng.normals(8)
    assert np.array_equal(op.b_mat, b_mat)
    assert np.array_equal(inst.problem.b, b_mat.T @ y)


def test_elastic_net_myrand_shape_params():
    inst = gen_elastic_net(10, 20, 20.0, 0.001, 100.0, seed=2)
    assert inst.params == {"m": 10, "n": 20, "scale": 20.0, "gamma": 0.001, "tau": 100.0}


def test_elastic_net_full_family_size():
    # the full-size random family: 1000x2000 design, observation scale
    # 2000, with a (gamma, tau) pair from the published parameter grid
    inst = gen_elastic_net(1000, 2000, 2000.0, 0.001, 100.0, seed=0)
    assert inst.problem.op.b_mat.shape == (1000, 2000)
    assert inst.problem.n == 2000
    assert inst.problem.op.gamma == 0.001
    assert inst.problem.tau == 100.0
    # rough scale check on the observation vector through b = B'y
    assert np.abs(inst.problem.b).max() > 1e4


def test_generators_are_deterministic(tmp_path):
    for make in (
        lambda: gen_elastic_net(6, 10, 2.0, 0.1, 0.5, seed=9),
        lambda: gen_sigrec(6, 12, 3, 0.05, 0.01, 0.2, seed=9),
        lambda: gen_strict_comp(12, 4, 50.0, 0.3, 0.5, seed=9),
    ):
        p1, p2 = tmp_path / "a.ql1p", tmp_path / "b.ql1p"
        write_problem(p1, make().problem)
        write_problem(p2, make().problem)
        assert p1.read_bytes() == p2.read_bytes()


def test_sigrec_signal_structure():
    inst = gen_sigrec(16, 64, 5, 0.1, 0.01, 0.2, seed=4)
    s = inst.params["signal"]
    assert np.count_nonzero(s) == 5
    assert set(np.unique(s[s != 0])) <= {-1.0, 1.0}
    assert isinstance(inst.problem.op, FactoredOperator)
    assert inst.problem.op.b_mat.shape == (16, 64)


def test_sigrec_zero_signal_zero_solution():
    # no spikes: b is pure noise; tau above ||b||_inf makes 0 optimal
    inst = gen_sigrec(8, 16, 0, 0.1, 0.0, 0.0, seed=5)
    tau = float(np.abs(inst.problem.b).max()) + 1e-6
    v = min_norm_subgrad(np.zeros(16), -inst.problem.b, tau)
    assert np.array_equal(v, np.zeros(16))


def test_sigrec_noiseless_recovery():
    # small penalty, vanishing ridge: the solve reproduces the spike
    # values on the support to 1e-4
    inst = gen_sigrec(64, 256, 6, 0.0, 1e-10, 2e-5, seed=21)
    s = inst.params["signal"]
    tr = solve(inst.problem, SolverConfig(algorithm="iicg2", tol=1e-12, mv_budget=100000))
    assert tr.status == STATUS_CONVERGED
    support = s != 0
    assert np.abs(tr.final_x - s)[support].max() <= 1e-4


def test_sigrec_argument_errors():
    with pytest.raises(ValueError):
        gen_sigrec(8, 4, 1, 0.1, 0.0, 0.1, seed=0)  # m > n
    with pytest.raises(ValueError):
        gen_sigrec(4, 8, 9, 0.1, 0.0, 0.1, seed=0)  # too many spikes


def test_strict_comp_kkt_construction():
    for seed in range(5):
        inst = gen_strict_comp(30, 8, 100.0, 0.7, 0.4, seed=seed)
        p = inst.problem
        g = p.op.dense() @ inst.x_star - p.b
        v = min_norm_subgrad(inst.x_star, g, p.tau)
        assert np.abs(v).max() <= 1e-12
        assert np.count_nonzero(inst.x_star) == 8
        # complementarity margin on the zero coordinates
        zero = inst.x_star == 0.0
        assert (p.tau - np.abs(g[zero])).min() >= 0.4 * p.tau - 1e-12


def test_strict_comp_invariants_over_seeds():
    # construction invariants hold across 100 seeds
    for seed in range(100):
        inst = gen_strict_comp(15, 5, 40.0, 0.5, 0.5, seed=seed)
        g = inst.problem.op.dense() @ inst.x_star - inst.problem.b
        v = min_norm_subgrad(inst.x_star, g, inst.problem.tau)
        assert np.abs(v).max() <= 1e-10
        zero = inst.x_star == 0.0
        margin = (inst.problem.tau - np.abs(g[zero])).min() if zero.any() else np.inf
        assert margin >= 0.1 * inst.problem.tau


def test_strict_comp_spectrum_and_conditioning():
    inst = gen_strict_comp(25, 6, 200.0, 0.5, 0.5, seed=3)
    eigs = np.linalg.eigvalsh(inst.problem.op.dense())
    assert eigs[0] > 0
    assert eigs[-1] <= 1.0 + 1e-9
    assert eigs[-1] / eigs[0] <= 200.0 + 1e-6


def test_strict_comp_full_support():
    inst = gen_strict_comp(10, 10, 50.0, 0.5, 0.5, seed=6)
    assert np.count_nonzero(inst.x_star) == 10
    tr = solve(inst.problem, SolverConfig(algorithm="iicg2", tol=1e-11))
    assert tr.status == STATUS_CONVERGED
    assert np.abs(tr.final_x - inst.x_star).max() <= 1e-7


def test_strict_comp_empty_support():
    inst = gen_strict_comp(10, 0, 50.0, 0.5, 0.3, seed=7)
    assert np.array_equal(inst.x_star, np.zeros(10))
    assert np.abs(inst.problem.b).max() <= (1 - 0.3) * inst.problem.tau + 1e-15


def test_strict_comp_argument_errors():
    with pytest.raises(ValueError):
        gen_strict_comp(10, 11, 50.0, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_strict_comp(10, 2, 50.0, 0.5, 1.5, seed=0)
    with pytest.raises(ValueError):
        gen_strict_comp(10, 2, 50.0, 0.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_strict_comp(10, 2, 0.5, 0.5, 0.5, seed=0)


def test_oversized_dimensions_rejected():
    with pytest.raises(ValueError):
        gen_elastic_net(100_000, 100_000, 1.0, 0.0, 0.0, seed=0)


def test_roundtrip_bit_exact_all_kinds(tmp_path):
    instances = [
        gen_elastic_net(5, 9, 2.0, 0.3, 0.7, seed=11).problem,
        gen_strict_comp(9, 3, 30.0, 0.4, 0.5, seed=11).problem,
    ]
    for i, problem in enumerate(instances):
        path = tmp_path / f"p{i}.ql1p"
        write_problem(path, problem)
        back = read_problem(path)
        path2 = tmp_path / f"p{i}_again.ql1p"
        write_problem(path2, back)
        assert path.read_bytes() == path2.read_bytes()
        assert back.tau == problem.tau
        assert np.array_equal(back.b, problem.b)
        assert np.array_equal(back.op.dense(), problem.op.dense())
        # read arrays are private copies, not views of the file's bytes
        matrix = back.op.b_mat if isinstance(back.op, FactoredOperator) else back.op.a
        assert matrix.flags.writeable and back.b.flags.writeable


def test_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ql1p"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ProblemFormatError):
        read_problem(path)


def test_read_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.ql1p"
    path.write_bytes(b"QL1P" + (99).to_bytes(4, "little") + b"\x00" * 32)
    with pytest.raises(ProblemFormatError):
        read_problem(path)


def test_read_reports_truncation_with_lengths(tmp_path):
    good = tmp_path / "good.ql1p"
    write_problem(good, gen_elastic_net(4, 6, 1.0, 0.1, 0.2, seed=1).problem)
    data = good.read_bytes()
    bad = tmp_path / "trunc.ql1p"
    bad.write_bytes(data[: len(data) // 2])
    with pytest.raises(ProblemFormatError) as exc_info:
        read_problem(bad)
    message = str(exc_info.value)
    assert "need" in message and "have" in message and "offset" in message


def test_read_detects_a_file_that_shrinks_while_open(tmp_path):
    # sizes are checked against the size at open; a short read of an
    # array must fail rather than leave uninitialised values
    from ql1.fileio import _parse, _Reader

    path = tmp_path / "shrinks.ql1p"
    write_problem(path, gen_elastic_net(4, 6, 1.0, 0.1, 0.2, seed=1).problem)
    with open(path, "rb") as fh:
        rd = _Reader(fh)
        with open(path, "r+b") as other:
            other.truncate(25 + 8)  # header plus one matrix entry
        with pytest.raises(ProblemFormatError, match="shrank"):
            _parse(rd)


def test_read_rejects_non_finite_values(tmp_path):
    # a NaN or inf in any field is reported at the byte where that field starts
    factored = gen_elastic_net(4, 6, 1.0, 0.1, 0.2, seed=1).problem   # m=4, n=6
    dense = gen_strict_comp(6, 2, 10.0, 0.2, 0.5, seed=1).problem
    fields = {
        "factored": {"matrix": (25, 25 + 8 * 7), "gamma": (217, 217),
                     "b": (225, 225 + 8 * 5), "tau": (273, 273)},
        "dense": {"matrix": (17, 17 + 8 * 35), "b": (305, 305 + 8 * 5), "tau": (353, 353)},
    }
    for kind, problem in (("factored", factored), ("dense", dense)):
        good = tmp_path / f"{kind}.ql1p"
        write_problem(good, problem)
        data = good.read_bytes()
        for field, (start, where) in fields[kind].items():
            for value in (float("nan"), float("-inf")):
                bad = tmp_path / "bad.ql1p"
                bad.write_bytes(data[:where] + struct.pack("<d", value) + data[where + 8:])
                with pytest.raises(ProblemFormatError, match="finite") as exc_info:
                    read_problem(bad)
                assert exc_info.value.offset == start, (kind, field)
                assert isinstance(exc_info.value, ValueError)


def test_read_rejects_trailing_bytes(tmp_path):
    good = tmp_path / "good.ql1p"
    write_problem(good, gen_elastic_net(4, 6, 1.0, 0.1, 0.2, seed=1).problem)
    bad = tmp_path / "extra.ql1p"
    bad.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(ProblemFormatError):
        read_problem(bad)


def test_desk_suite_rows_equal_fresh_generator_calls(desk_manifest, tmp_path):
    # the suite builds each factored instance from its tau-free probe;
    # the file must equal a direct call at the row's seed and the file's tau
    make = {
        "en": lambda gamma, tau, seed: gen_elastic_net(250, 500, 500.0, gamma, tau, seed),
        "pn": lambda gamma, tau, seed: gen_elastic_net(125, 500, 1.0, gamma, tau, seed),
        "sg": lambda gamma, tau, seed: gen_sigrec(256, 1024, 32, 0.01, gamma, tau, seed),
    }
    rows = {row.problem: row for row in desk_manifest}
    for name in ("eni2", "pnm3", "sgs4"):
        row = rows[name]
        stored = read_problem(row.path)
        fresh = make[name[:2]](stored.op.gamma, stored.tau, row.seed)
        path = tmp_path / f"{name}.ql1p"
        write_problem(path, fresh.problem)
        assert path.read_bytes() == Path(row.path).read_bytes(), name
        assert f"tau={stored.tau:.12g}" in row.params.split(";")


def test_factored_generators_need_about_the_instance_size():
    # draws fill their output in chunks and B is scaled in place, so no
    # full-size temporary is made beside the matrix
    for make in (
        lambda: gen_elastic_net(250, 500, 500.0, 0.0, 0.1, seed=1),
        lambda: gen_sigrec(250, 500, 32, 0.01, 0.0, 0.1, seed=1),
    ):
        tracemalloc.start()
        try:
            make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 250 * 500 * 8


def test_strict_comp_builds_its_matrix_in_place():
    # after QR the sign fix, the scaling and the symmetrisation reuse their
    # arrays, so QR's own workspace is the peak
    n = 500
    tracemalloc.start()
    try:
        gen_strict_comp(n, 15, 1e3, 1.0, 0.5, seed=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * n * n * 8
