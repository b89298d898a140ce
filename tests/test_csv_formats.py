"""The bytes of every CSV file ql1 writes, pinned on small fixed inputs.

Each format is written through csv's defaults: CRLF line ends, and quotes
only around fields that hold a comma or a quote (doubled inside). F and
the Pareto accuracy use ``.17g``, the bench accuracy ``.6e`` and its
seconds ``.6f``, a failed bench ``mv`` is ``-``, and the profile and
sweep values use ``.10g``.
"""

import numpy as np
import pytest

from ql1.bench import (
    BenchResult,
    ProfilePoint,
    write_bench_csv,
    write_pareto_csv,
    write_profile_csv,
    write_sweep_csv,
)
from ql1.drivers import RunTrace, TraceRecord, write_trace_csv
from ql1.fileio import ManifestRow, write_manifest

_TRACE = RunTrace(
    records=[TraceRecord(3, 1, -1.25, 2, "ISTA"), TraceRecord(5, 2, 0.1, 1, "CUTBACK")],
    final_x=np.zeros(2), status="converged", mv_setup=2, f0=0.0, v0_norm=1.0, l_est=1.0,
    mv_total=5,
)

_CASES = {
    "trace": (
        lambda path: write_trace_csv(_TRACE, path),
        b"mv,k,F,nnz,step\r\n3,1,-1.25,2,ISTA\r\n5,2,0.10000000000000001,1,CUTBACK\r\n",
    ),
    "manifest": (
        lambda path: write_manifest(path, [
            ManifestRow("en1", "elastic-net", 3, "m=6;n=10", "s/en1.ql1p"),
            ManifestRow("x,y", "sigrec", 0, "", 'a "b".ql1p'),
        ]),
        b"problem,family,seed,params,path\r\n"
        b"en1,elastic-net,3,m=6;n=10,s/en1.ql1p\r\n"
        b'"x,y",sigrec,0,,"a ""b"".ql1p"\r\n',
    ),
    "bench": (
        lambda path: write_bench_csv(path, [
            BenchResult("en1", "iicg2", 1e-4, 17, 0.5, 1.5e-5, "converged"),
            BenchResult("en1", "fista", 1e-10, None, 1.0 / 3.0, 2.0 / 3.0, "budget"),
            BenchResult("gone", "istabb", 1e-4, None, 0.0, float("inf"), "error: no file, here"),
        ]),
        b"problem,solver,tol,mv,seconds,accuracy,status\r\n"
        b"en1,iicg2,0.0001,17,0.500000,1.500000e-05,converged\r\n"
        b"en1,fista,1e-10,-,0.333333,6.666667e-01,budget\r\n"
        b'gone,istabb,0.0001,-,0.000000,inf,"error: no file, here"\r\n',
    ),
    "profile": (
        lambda path: write_profile_csv(path, [
            ProfilePoint("fista", 0.5849625007211562, 0.5),
            ProfilePoint("iicg2", 0.0, 1.0 / 3.0),
        ]),
        b"solver,log2_theta,rho\r\nfista,0.5849625007,0.5\r\niicg2,0,0.3333333333\r\n",
    ),
    "pareto": (
        lambda path: write_pareto_csv(path, [(0.0015, 4), (0.1, 2)]),
        b"accuracy,nnz\r\n0.0015,4\r\n0.10000000000000001,2\r\n",
    ),
    "sweep": (
        lambda path: write_sweep_csv(path, [(1.0, 1.0), (10.0, 1.2345678901234),
                                            (100.0, float("nan"))]),
        b"factor,mean_inflation\r\n1,1\r\n10,1.23456789\r\n100,nan\r\n",
    ),
}


@pytest.mark.parametrize("fmt", list(_CASES))
def test_csv_bytes(fmt, tmp_path):
    write, expected = _CASES[fmt]
    path = tmp_path / f"{fmt}.csv"
    write(path)
    assert path.read_bytes() == expected
