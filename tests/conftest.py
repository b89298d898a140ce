from concurrent.futures import Future

import numpy as np
import pytest

import ql1.drivers
from ql1.drivers import reference_objective
from ql1.fileio import read_problem
from ql1.probgen import desk_suite


class PoolSpy:
    """Stands in for ``ql1.problem._pool`` and counts the tasks submitted.

    It passes each task to ``pool`` if one is given. Otherwise the task runs
    at once on the submitting thread, so a test sees the chunked product's
    bits without depending on thread timing.
    """

    def __init__(self, pool=None):
        self.pool = pool
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.pool is not None:
            return self.pool.submit(fn, *args)
        future = Future()
        future.set_result(fn(*args))
        return future


def diag_l1_solution(diag, b, tau):
    """Per-coordinate closed form for diagonal A: x_i = soft(b_i, tau)/a_ii."""
    shrunk = np.sign(b) * np.maximum(np.abs(b) - tau, 0.0)
    return shrunk / diag


def solve_with_iterates(problem, cfg, x0=None):
    """``solve``, and the points it accepted: the start, then one per record.

    A solve builds one subgradient split per accepted point, the start
    first, through ``ql1.drivers.split_subgradient``; the points it passes
    are the recorded iterates themselves.
    """
    split = ql1.drivers.split_subgradient
    seen = []

    def spy(x, *args):
        seen.append(x)
        return split(x, *args)

    ql1.drivers.split_subgradient = spy
    try:
        trace = ql1.drivers.solve(problem, cfg, x0=x0)
    finally:
        ql1.drivers.split_subgradient = split
    assert len(seen) == len(trace.records) + 1
    assert [int(np.count_nonzero(x)) for x in seen[1:]] == [r.nnz for r in trace.records]
    return trace, seen


@pytest.fixture(scope="session")
def desk_manifest(tmp_path_factory):
    """The default 48-instance suite, generated once per session."""
    outdir = tmp_path_factory.mktemp("desk_suite")
    return desk_suite(outdir)


@pytest.fixture(scope="session")
def desk_fstars(desk_manifest):
    """High-accuracy reference objectives for the desk suite."""
    return {
        row.problem: reference_objective(read_problem(row.path))
        for row in desk_manifest
    }
