"""Full solver loops, termination policies, and trace recording.

Two loops run the four solvers. The interleaved loop runs ``iicg1``,
``iicg2`` and, with no CG cycle, ``istabb``: one step per accepted point,
CG or first-order, chosen from the point's split. FISTA has its own
momentum loop. All four share one work metric: every record in a trace
corresponds to one accepted constitutive step, and its ``mv`` field is
the running matrix-vector-product count (including
spectral-norm estimation and rejected line-search trials, which consume
products without producing records). For the interleaved solvers the
residual recurrence of the CG cycle supplies gradients and objective
values for free, so each CG step and each line-search trial costs
exactly one product.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from ql1.cg import (
    NEG_CURV,
    CurvatureBreak,
    cg_step,
    cutback,
    cutback_alpha,
    init_cg_cycle,
    sufficient_decrease,
)
from ql1.fileio import read_csv, write_csv
from ql1.first_order import (LS_MAX_HALVINGS, bb_ls_step, bb_stepsize, ista_step, ls_window,
                             step_curvature, subspace_ista_step)
from ql1.problem import CountingOperator, QuadraticProblem
from ql1.rng import Rng
# The five split helpers stay importable here for the benchmark's tracer.
from ql1.subgrad import (  # noqa: F401
    SubgradientSplit,
    gradient_balance,
    min_norm_subgrad,
    release_grad,
    split_subgradient,
    support_grad,
    support_grad_map,
)

# The step policies each algorithm runs; the first entry is its default.
_POLICIES = {
    "iicg1": ("bb", "constant"),
    "iicg2": ("bb", "constant"),
    "fista": ("constant",),
    "istabb": ("bb",),
}
ALGORITHMS = tuple(_POLICIES)

STEP_ISTA = "ISTA"
STEP_SUBISTA = "SUBISTA"
STEP_CG = "CG"
STEP_CUTBACK = "CUTBACK"
STEP_LSFALLBACK = "LSFALLBACK"

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "budget"
STATUS_STALLED = "stalled"
STATUS_UNBOUNDED = "unbounded"

_STALL_EPS = 1e-16
_STALL_MV = 1000

# Lanczos estimates of the largest eigenvalue: the product cap of the safe
# estimate and of the short one that BB-policy solves take, the relative
# Ritz-value change that stops either, and the beta (relative to the Ritz
# value) below which the Krylov space counts as invariant.
_EIG_MAX_PRODUCTS = 200
EIG_SHORT_PRODUCTS = 5
_EIG_RTOL = 1e-5
_EIG_INVARIANT = 1e-14

# A step reads the products its budget has left only through the line
# search's trial cap and the safe estimate's cap. So a record more than this
# many products below the budget lies on the trajectory of the same solve
# under any larger budget.
BUDGET_REACH = _EIG_MAX_PRODUCTS + LS_MAX_HALVINGS


@dataclass
class SolverConfig:
    """Solver selection and tolerances.

    A set ``f_star`` stops the solve when the accuracy ratio against it
    is at most tol; None stops it when the inf-norm of the minimum-norm
    subgradient falls below tol * max(1, its value at x0). ``alpha_policy`` picks
    the first-order steplength: "bb" (BB nonmonotone line search) or
    "constant" (1/L). ``iicg1`` and ``iicg2`` accept both and default to
    "bb"; ``fista`` accepts only "constant" and ``istabb`` only "bb".
    None is replaced by the default, and any other value raises ValueError.
    The balance test of ``iicg2`` uses the steplength
    1/(``bal_factor`` * L). L is the safe Lanczos bound on the largest
    eigenvalue for "constant" (and FISTA), and a short estimate of
    ``EIG_SHORT_PRODUCTS`` products for "bb", whose steps need no bound;
    a "bb" solve pays for the bound only on its first line-search
    fallback. ``l_value`` injects an exact largest eigenvalue and skips
    both estimates (theory-check runs). ``mv_budget``, an integer of at
    least 1, is a hard cap: no operator product is started past it once
    the set-up is paid.
    """

    algorithm: str = "iicg2"
    tol: float = 1e-6
    f_star: float | None = None
    c: float = 1e-4
    alpha_policy: str | None = None
    bal_factor: float = 1.0
    mv_budget: int = 50000
    l_value: float | None = None

    def __post_init__(self):
        if self.algorithm not in _POLICIES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        allowed = _POLICIES[self.algorithm]
        if self.alpha_policy is None:
            self.alpha_policy = allowed[0]
        if self.alpha_policy not in allowed:
            raise ValueError(
                f"{self.algorithm} does not run alpha_policy {self.alpha_policy!r}; "
                f"choose from {', '.join(allowed)}"
            )
        # comparisons with NaN are False, so NaN fails every rule
        for name, ok, rule in (
            ("tol", self.tol > 0, "a positive number"),
            ("f_star", self.f_star is None or math.isfinite(self.f_star), "finite"),
            ("bal_factor", 0 < self.bal_factor < math.inf, "finite and positive"),
            ("l_value", self.l_value is None or 0 < self.l_value < math.inf, "finite and positive"),
            ("c", 0 <= self.c < math.inf, "finite and nonnegative"),
            ("mv_budget", isinstance(self.mv_budget, numbers.Integral)
             and not isinstance(self.mv_budget, bool) and self.mv_budget >= 1,
             "an integer of at least 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class TraceRecord:
    mv: int
    k: int
    f: float
    nnz: int
    step: str
    t: float = field(default=0.0, compare=False)  # perf_counter seconds since the solve began


@dataclass
class RunTrace:
    """Per-step history of one solve plus its outcome.

    ``f_best`` is F at the best point seen, the start included: the F of
    ``final_x`` unless the solve converged. ``t_setup`` is the seconds from
    the solve's beginning to its start's stop test, as a record's ``t`` is
    to the record's.
    """

    records: list[TraceRecord]
    final_x: np.ndarray
    status: str
    mv_setup: int
    f0: float
    v0_norm: float
    l_est: float        # the L it stepped at: a bound, except for a "bb" solve's short estimate
    mv_total: int       # products the solve charged, unrecorded ones included
    f_best: float
    t_setup: float = 0.0

    @property
    def f_final(self) -> float:
        return self.records[-1].f if self.records else self.f0


def accuracy(f_k: float, f_star: float) -> float:
    """(f_k - f_star) / max(|f_star|, 1e-12)."""
    return (f_k - f_star) / max(abs(f_star), 1e-12)


def estimate_max_eig(op: CountingOperator, max_products: int = _EIG_MAX_PRODUCTS) -> float:
    """Largest-eigenvalue estimate by Lanczos, times a 1.01 safety factor.

    Runs the three-term recurrence beta_j v_{j+1} = A v_j - alpha_j v_j
    - beta_{j-1} v_{j-1} from a seeded random unit vector, without
    reorthogonalisation, and after each product takes the largest
    eigenvalue (Ritz value) of the leading j-by-j block of the
    tridiagonal T = tridiag(beta, alpha, beta). Ritz values approach
    the largest eigenvalue from below, faster than power iteration's
    Rayleigh quotient from the same start. The loop stops when the Ritz
    value's relative change is at most 1e-5, when beta_j is zero (the
    Krylov space is invariant and the value is exact), or after
    ``max_products`` products. Every product is charged to the operator's
    counter. A zero operator, or any nonpositive estimate, yields 1.0
    (any steplength is then valid); so does an operator on n = 0
    coordinates, which is a zero operator, at no product.

    It serves two uses. At the default cap of 200 it is the safe
    estimate, a bound on the largest eigenvalue, at which FISTA and the
    constant policy step. Capped at ``EIG_SHORT_PRODUCTS`` it is the
    short estimate of a BB-policy solve, which lies below the largest
    eigenvalue in general. A capped run takes the same first products
    and Ritz values as an uncapped one.
    """
    if op.n < 1:
        return 1.0
    v = Rng(0).normals(op.n)  # nonzero: its first entry is -0.45
    v /= float(np.linalg.norm(v))
    v_prev = None
    tri = np.zeros((max_products + 1, max_products + 1))
    ritz = 0.0
    for j in range(max_products):
        w = op.apply(v)
        alpha = float(v @ w)
        w -= alpha * v
        if v_prev is not None:
            w -= tri[j, j - 1] * v_prev
        tri[j, j] = alpha
        ritz_prev = ritz
        ritz = float(np.linalg.eigvalsh(tri[: j + 1, : j + 1])[-1])
        beta = float(np.linalg.norm(w))
        if beta <= _EIG_INVARIANT * abs(ritz):
            break
        if j > 0 and abs(ritz - ritz_prev) <= _EIG_RTOL * abs(ritz):
            break
        tri[j + 1, j] = tri[j, j + 1] = beta
        v_prev, v = v, w / beta
    if ritz <= 0.0:
        return 1.0
    return 1.01 * ritz


class _BoundUnpaid(Exception):
    """The budget cannot pay for the safe estimate of L and one more trial."""


class _Run:
    """A solve's bookkeeping: its start, L, records, stop tests and best point.

    The start is x0 = 0, with F(0) = 0 and g(0) = -b at no product, or a
    warm start ``x0``, which pays one product; a warm start that is not a
    finite vector of length n raises ValueError before any product. L is
    ``cfg.l_value`` if set, else the short estimate for the "bb" policy
    and the safe one for "constant", and the balance steplength is
    1/(``bal_factor`` * L). Both are paid before ``mv_setup`` is taken.
    ``start`` holds the start's x, g, F and split, to which the stop rules
    have been applied. Every accepted point goes through :meth:`record`,
    which builds the point's split: the only one the solve builds for it.

    It keeps the recorded iterates themselves, not copies: the loops never
    write to an iterate once it is recorded.
    """

    def __init__(self, problem: QuadraticProblem, cfg: SolverConfig, x0):
        self.t_begin = time.perf_counter()
        op = problem.op
        self.problem = problem
        self.cfg = cfg
        self.mv_start = op.mv_count
        if x0 is None:
            x, g, f = np.zeros(problem.n), -problem.b.copy(), 0.0
        else:
            try:
                x = np.array(x0, dtype=np.float64)
                if x.shape != (problem.n,) or not np.isfinite(x).all():
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"x0 must be a finite vector of length {problem.n}") from None
            ax = op.apply(x)
            g, f = ax - problem.b, problem.objective(x, ax=ax)
        if cfg.l_value is not None:
            self.l_est = self.l_bound = cfg.l_value
        elif cfg.alpha_policy == "bb":
            self.l_est, self.l_bound = estimate_max_eig(op, EIG_SHORT_PRODUCTS), None
        else:
            self.l_est = self.l_bound = estimate_max_eig(op)
        self.alpha_bal = 1.0 / (cfg.bal_factor * self.l_est)
        self.mv_setup = self.mv
        self.records: list[TraceRecord] = []
        self.status: str | None = None
        self.f0 = self.best_f = self._stall_f = f
        self.best_x = self.last_x = x
        self._stall_mv = self.mv_setup
        self.start = (x, g, f, self.record(x, g, f, None))

    @property
    def mv(self) -> int:
        return self.problem.op.mv_count - self.mv_start

    def bound_alpha(self) -> float:
        """1/L for the line search's untested fallback, with L a bound.

        A BB solve's L is a short estimate, so its first fallback pays for
        the safe estimate, spending at most the products the budget has
        left, rejected trials already counted. If it spends them all, none
        is left for the trial, and :class:`_BoundUnpaid` ends the solve.
        """
        if self.l_bound is None:
            op = self.problem.op
            mv0 = op.mv_count
            mv_left = self.cfg.mv_budget - self.mv
            l_bound = estimate_max_eig(op, min(_EIG_MAX_PRODUCTS, mv_left))
            if op.mv_count - mv0 >= mv_left:
                raise _BoundUnpaid
            self.l_bound = l_bound
        return 1.0 / self.l_bound

    def converged(self, f: float, split: SubgradientSplit) -> bool:
        cfg = self.cfg
        if cfg.f_star is not None:
            return accuracy(f, cfg.f_star) <= cfg.tol
        return split.vnorm <= cfg.tol * max(1.0, self.v0_norm)

    def record(self, x: np.ndarray, g: np.ndarray, f: float, step: str | None) -> SubgradientSplit:
        """Records an accepted point (None: the start, which gets no record),
        updates the status (set: the solve is over), and returns the point's split."""
        t = time.perf_counter() - self.t_begin
        split = split_subgradient(x, g, self.problem.tau, self.alpha_bal)
        if step is None:
            self.v0_norm, self.t_setup = split.vnorm, t
        else:
            self.records.append(TraceRecord(mv=self.mv, k=len(self.records) + 1, f=f,
                                            nnz=int(np.count_nonzero(x)), step=step, t=t))
            if f < self.best_f:
                self.best_f = f
                self.best_x = x
            self.last_x = x
        if not np.isfinite(f):
            self.status = STATUS_UNBOUNDED
        elif self.converged(f, split):
            self.status = STATUS_CONVERGED
        elif abs(f - self._stall_f) >= _STALL_EPS * max(1.0, abs(self._stall_f)):
            self._stall_f = f
            self._stall_mv = self.mv
        elif split.vnorm == 0.0 or self.mv - self._stall_mv >= _STALL_MV:
            self.status = STATUS_STALLED
        if self.status is None and self.mv >= self.cfg.mv_budget:
            self.status = STATUS_BUDGET
        return split

    def finish(self) -> RunTrace:
        if self.status == STATUS_CONVERGED:
            final_x = self.last_x
        else:
            final_x = self.best_x
        return RunTrace(
            records=self.records,
            final_x=np.asarray(final_x, dtype=np.float64).copy(),
            status=self.status,
            mv_setup=self.mv_setup,
            f0=self.f0,
            v0_norm=self.v0_norm,
            l_est=self.l_est,
            mv_total=self.mv,
            f_best=self.best_f,
            t_setup=self.t_setup,
        )


def _solve_iicg(problem: QuadraticProblem, cfg: SolverConfig, x0=None) -> RunTrace:
    """The interleaved loop: one CG or first-order step per accepted point.

    A CG cycle starts from the split of a first-order step's point. It
    ends at a cutback, a curvature break or an accepted step that left the
    anchor's orthant, or when its test fails; the next step is then a
    first-order one. Its "bb" line search starts from the BB steplength of
    the last first-order step's own start and end point (1/L at the first).
    """
    op, b, tau = problem.op, problem.b, problem.tau
    run = _Run(problem, cfg, x0)
    # sp, the split at the accepted iterate (x, g), serves iiCG-2's choice
    # of prox step and the CG cycle's tests
    x, g, f, sp = run.start
    alpha_const = 1.0 / run.l_est
    curv_tol = 1e-14 * run.l_est
    rho_tol = 1e-14 * (1.0 + float(np.linalg.norm(b)))

    window = ls_window(f)
    alpha_bb = alpha_const  # the next line search's first steplength
    st = None               # the open CG cycle
    anchor = False          # a first-order step anchors a cycle (not istabb's)

    while run.status is None:
        # An unrecorded product (a curvature break) can use up the budget.
        mv_left = cfg.mv_budget - run.mv
        if mv_left < 1:
            run.status = STATUS_BUDGET
            break
        if anchor:
            st, anchor = init_cg_cycle(sp), False
        # CG while a cycle is open and its test holds (rho_dot is read before the
        # lazy sp.balanced)
        if st is not None and math.sqrt(st.rho_dot) > rho_tol and sp.balanced:
            try:
                st_new, ad, crossed = cg_step(st, op, curv_tol)
            except CurvatureBreak as brk:
                if brk.curvature < -NEG_CURV * run.l_est:
                    run.status = STATUS_UNBOUNDED
                st = None
                continue
            f_new = st_new.objective(b, tau)
            if crossed and not sufficient_decrease(f_new, f, sp.min_norm, cfg.c):
                st_new = cutback(st, ad, cutback_alpha(st.x, st.anchor.sign, st.d))
                f_new, step_name, st = st_new.objective(b, tau), STEP_CUTBACK, None
            else:
                st, step_name = None if crossed else st_new, STEP_CG
            x_new, g_new = st_new.x, st_new.smooth_grad()
        else:
            # iiCG-2 refines the current support when the balance condition
            # holds and releases variables otherwise; the others always take
            # the full step.
            if cfg.algorithm == "iicg2" and sp.balanced:
                stepper, step_name = subspace_ista_step, STEP_SUBISTA
            else:
                stepper, step_name = ista_step, STEP_ISTA
            if cfg.alpha_policy == "bb":
                try:
                    res = bb_ls_step(problem, x, g, alpha_bb, stepper, window, mv_left,
                                     run.bound_alpha)
                    alpha_bb = bb_stepsize(res.x, x, res.g, g, alpha_const)
                except CurvatureBreak:
                    run.status = STATUS_UNBOUNDED
                    break
                except _BoundUnpaid:
                    run.status = STATUS_BUDGET
                    break
                x_new, g_new, f_new = res.x, res.g, res.f
                if res.fallback:
                    step_name = STEP_LSFALLBACK
            else:
                x_new = stepper(x, g, tau, alpha_const)
                ax = op.apply(x_new)
                f_new, g_new = problem.objective(x_new, ax=ax), ax - b
            st, anchor = None, cfg.algorithm != "istabb"
        x, g, f = x_new, g_new, f_new
        sp = run.record(x, g, f, step_name)
    return run.finish()


def _solve_fista(problem: QuadraticProblem, cfg: SolverConfig, x0=None) -> RunTrace:
    op, b, tau = problem.op, problem.b, problem.tau
    run = _Run(problem, cfg, x0)
    x, g, _, _ = run.start
    alpha = 1.0 / run.l_est

    # A y is carried through the momentum recurrence, so each iteration
    # costs the single product A x_new, which also gives the curvature
    # of the step s = x_new - x.
    ax = g + b
    y = x.copy()
    y_ax = ax.copy()
    t = 1.0
    while run.status is None:
        g_y = y_ax - b
        x_new = ista_step(y, g_y, tau, alpha)
        ax_new = op.apply(x_new)
        f_new = problem.objective(x_new, ax=ax_new)
        s = x_new - x
        g = ax_new - b
        try:
            step_curvature(s, ax_new - ax, x_new, g, alpha)
        except CurvatureBreak:
            run.status = STATUS_UNBOUNDED
            break
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        theta = (t - 1.0) / t_new
        y = x_new + theta * s
        y_ax = (1.0 + theta) * ax_new - theta * ax
        x, ax, t = x_new, ax_new, t_new
        run.record(x, g, f_new, STEP_ISTA)
    return run.finish()


def solve(problem: QuadraticProblem, cfg: SolverConfig, x0=None) -> RunTrace:
    """Run the configured solver from x0 (default: the zero vector).

    A warm start ``x0`` pays one product, and one that is not a finite
    vector of length n raises ValueError before any product.
    """
    if cfg.algorithm == "fista":
        return _solve_fista(problem, cfg, x0=x0)
    return _solve_iicg(problem, cfg, x0=x0)


def reference_config(mv_budget: int = 50000) -> SolverConfig:
    """The reference solve's config: iiCG-2 with subgradient-norm termination
    at tol 1e-13 and four times the given budget."""
    return SolverConfig(algorithm="iicg2", tol=1e-13, mv_budget=4 * mv_budget)


def reference_objective(problem: QuadraticProblem, mv_budget: int = 50000, *,
                        trace_out: list | None = None) -> float:
    """Best-known objective from a high-accuracy reference solve.

    Solves from the zero vector at :func:`reference_config` and returns the
    best objective seen. The solve's RunTrace is appended to ``trace_out``
    when it is given.
    """
    trace = solve(problem, reference_config(mv_budget))
    if trace_out is not None:
        trace_out.append(trace)
    return trace.f_best


def write_trace_csv(trace: RunTrace, path) -> None:
    write_csv(path, ["mv", "k", "F", "nnz", "step"],
              ([rec.mv, rec.k, f"{rec.f:.17g}", rec.nnz, rec.step] for rec in trace.records))


def read_trace_records(path) -> list[TraceRecord]:
    columns = {"mv": int, "k": int, "F": float, "nnz": int, "step": str}
    return [TraceRecord(r["mv"], r["k"], r["F"], r["nnz"], r["step"])
            for r in read_csv(path, columns)]
