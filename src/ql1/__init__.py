"""Matrix-free solvers for quadratic l1-regularized problems.

Minimizes F(x) = 1/2 x'Ax - b'x + tau*||x||_1 for symmetric positive
semidefinite A, with interleaved first-order / subspace-CG solvers,
baseline solvers (FISTA, BB line-search ISTA), seeded problem
generators, and a benchmark harness whose work metric is the number of
operator applications (matrix-vector products). The building blocks of
the solvers stay importable from their own modules (``ql1.subgrad``,
``ql1.first_order``, ``ql1.cg``, ``ql1.drivers``).
"""

from ql1.problem import (
    CountingOperator,
    DenseOperator,
    FactoredOperator,
    QuadraticProblem,
)
from ql1.drivers import RunTrace, SolverConfig, reference_objective, solve
from ql1.probgen import (
    GeneratedInstance,
    gen_elastic_net,
    gen_sigrec,
    gen_strict_comp,
)
from ql1.fileio import ProblemFormatError, read_problem, write_problem

__version__ = "0.1.0"

__all__ = [
    "CountingOperator",
    "DenseOperator",
    "FactoredOperator",
    "GeneratedInstance",
    "ProblemFormatError",
    "QuadraticProblem",
    "RunTrace",
    "SolverConfig",
    "gen_elastic_net",
    "gen_sigrec",
    "gen_strict_comp",
    "read_problem",
    "reference_objective",
    "solve",
    "write_problem",
]
