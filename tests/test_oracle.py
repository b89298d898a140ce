"""Every solver against an exact oracle on tiny SPD problems.

The oracle enumerates the 3^n sign patterns s of a problem with n <= 6,
solves A_SS x_S = b_S - tau*s_S on each pattern's support S, and keeps
the least F among the points that satisfy the optimality conditions:
sign(x_S) agrees with s_S and |(Ax - b)_i| <= tau off S. A is positive
definite, so the minimizer is one of these points.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ql1.drivers import (
    ALGORITHMS,
    STATUS_CONVERGED,
    STATUS_STALLED,
    SolverConfig,
    accuracy,
    solve,
)
from ql1.problem import DenseOperator, QuadraticProblem

TOL = 1e-10
_entries = st.floats(-2.0, 2.0, allow_subnormal=False)


def _f(a, b, tau, x):
    return 0.5 * float(x @ a @ x) - float(b @ x) + tau * float(np.abs(x).sum())


def oracle_objective(a, b, tau) -> float:
    """Least F over the sign patterns whose reduced solve passes the KKT test."""
    n = b.size
    best = np.inf
    for pattern in product((-1.0, 0.0, 1.0), repeat=n):
        s = np.array(pattern)
        free = s != 0.0
        x = np.zeros(n)
        if free.any():
            x[free] = np.linalg.solve(a[np.ix_(free, free)], b[free] - tau * s[free])
        if np.any(x[free] * s[free] < 0.0):
            continue
        g = a @ x - b
        slack = 1e-9 * (1.0 + np.abs(b).max() + np.abs(a).sum(axis=1).max() * np.abs(x).max())
        if np.any(np.abs(g[~free]) > tau + slack):
            continue
        # any passing point is a point, so its F is at least the minimum
        best = min(best, _f(a, b, tau, x))
    return best


@st.composite
def _spd_problem(draw):
    n = draw(st.integers(1, 6))
    raw = draw(hnp.arrays(np.float64, (n, n), elements=_entries))
    a = raw @ raw.T + np.eye(n)
    a = 0.5 * (a + a.T)
    b = draw(hnp.arrays(np.float64, n, elements=_entries))
    tau = draw(st.floats(0.0, 1.0))
    return a, b, tau


@settings(max_examples=100, deadline=None)
@given(_spd_problem())
def test_solvers_agree_with_sign_pattern_oracle(data):
    a, b, tau = data
    f_star = oracle_objective(a, b, tau)
    assert np.isfinite(f_star)
    p = QuadraticProblem(DenseOperator(a), b, tau)
    for algo in ALGORITHMS:
        cfg = SolverConfig(algorithm=algo, tol=TOL)
        mv0 = p.op.mv_count
        trace = solve(p, cfg)
        # F cannot always resolve the last digits of vnorm: stalled is an answer
        assert trace.status in (STATUS_CONVERGED, STATUS_STALLED), algo
        assert trace.mv_total == p.op.mv_count - mv0
        f = _f(a, b, tau, trace.final_x)
        assert abs(f - f_star) <= 1e-9 * max(1.0, abs(f_star)), (algo, f, f_star)
        again = solve(p, cfg)
        assert again.records == trace.records and again.status == trace.status
        assert again.final_x.tobytes() == trace.final_x.tobytes()

        stopped = solve(p, SolverConfig(algorithm=algo, tol=TOL, f_star=f_star))
        if stopped.status == STATUS_CONVERGED:
            assert accuracy(stopped.f_final, f_star) <= TOL
        # no recorded F lies below the optimum by more than rounding
        assert stopped.f_best >= f_star - 1e-9 * max(1.0, abs(f_star))
