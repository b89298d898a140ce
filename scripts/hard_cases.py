"""Solve the hard cases that the desk suite does not reach, and print a table.

Run from the repository root:

    python3 scripts/hard_cases.py

It takes no options and prints two tables:

- the large-support family ``gen_strict_comp(200, 180, cond, 1.0, 0.5, 7)``
  at cond 1e4, 1e6, 1e8 and 1e10, solved by iicg1 and iicg2 with the
  subgradient-norm stop at 1e-8: the products each solve charged and its
  status;
- the badly scaled ``A = diag(1e-8, 1, 1e8)``, tau = 0, b = 1, whose optimum
  is F = -5e7, solved by iicg1 and iicg2 at the default budget of 50,000
  products: the products, the status and the best F.

Every number is deterministic, so two checkouts compare line by line:

    PYTHONPATH=../parent/src python3 scripts/hard_cases.py
"""

from __future__ import annotations

import numpy as np

from ql1.drivers import SolverConfig, solve
from ql1.probgen import gen_strict_comp
from ql1.problem import DenseOperator, QuadraticProblem

SOLVERS = ("iicg1", "iicg2")
CONDS = (1e4, 1e6, 1e8, 1e10)


def main() -> int:
    print("gen_strict_comp(200, 180, cond, 1.0, 0.5, 7), vnorm 1e-8: products and status")
    print(f"{'cond':>6} " + " ".join(f"{alg:>20}" for alg in SOLVERS))
    for cond in CONDS:
        problem = gen_strict_comp(200, 180, cond, 1.0, 0.5, 7).problem
        cells = []
        for alg in SOLVERS:
            tr = solve(problem, SolverConfig(algorithm=alg, tol=1e-8))
            cells.append(f"{tr.mv_total:>8} {tr.status:>11}")
        print(f"{cond:>6g} " + " ".join(cells))
    print()
    print("diag(1e-8, 1, 1e8), tau 0, b 1, budget 50000 (optimum F -5e7):"
          " products, status and best F")
    problem = QuadraticProblem(DenseOperator(np.diag([1e-8, 1.0, 1e8])), np.ones(3), 0.0)
    for alg in SOLVERS:
        tr = solve(problem, SolverConfig(algorithm=alg, tol=1e-8))
        print(f"{alg:>6} {tr.mv_total:>8} {tr.status:>11} {tr.f_best:>12.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
