"""Full solver loops, termination policies, and trace recording.

Two loops run the four solvers: the interleaved loop runs ``iicg1``,
``iicg2`` and, with its CG cycle switched off, ``istabb``; FISTA has its
own momentum loop. All four share one work metric: every record in a
trace corresponds to one accepted constitutive step, and its ``mv``
field is the running matrix-vector-product count (including
spectral-norm estimation and rejected line-search trials, which consume
products without producing records). For the interleaved solvers the
residual recurrence of the CG cycle supplies gradients and objective
values for free, so each CG step and each line-search trial costs
exactly one product.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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
from ql1.first_order import LineSearchMemory, bb_ls_step, ista_step, subspace_ista_step
from ql1.first_order import step_curvature
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

# Lanczos estimate of the largest eigenvalue: product cap, relative
# Ritz-value change that stops it, and the beta (relative to the Ritz
# value) below which the Krylov space counts as invariant.
_EIG_MAX_PRODUCTS = 200
_EIG_RTOL = 1e-5
_EIG_INVARIANT = 1e-14


@dataclass
class SolverConfig:
    """Solver selection and tolerances.

    A set ``f_star`` stops the solve when the accuracy ratio against it
    is at most tol; None stops it when the inf-norm of the minimum-norm
    subgradient falls below tol * max(1, its value at x0). ``alpha_policy`` picks
    the first-order steplength: "bb" (BB nonmonotone line search) or
    "constant" (1/L). ``iicg1`` and ``iicg2`` accept both and default to
    "bb"; ``fista`` accepts only "constant" and ``istabb`` only "bb".
    None selects the default, and any other value raises ValueError.
    The balance test of ``iicg2`` uses the steplength
    1/(``bal_factor`` * L). ``l_value`` injects an exact largest
    eigenvalue and skips the Lanczos estimate (theory-check runs).
    No operator product is started past ``mv_budget`` once the set-up
    is paid.
    """

    algorithm: str = "iicg2"
    tol: float = 1e-6
    f_star: float | None = None
    c: float = 1e-4
    alpha_policy: str | None = None
    bal_factor: float = 1.0
    mv_budget: int = 50000
    theory_checks: bool = False
    l_value: float | None = None

    def __post_init__(self):
        if self.algorithm not in _POLICIES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        allowed = _POLICIES[self.algorithm]
        if self.alpha_policy is not None and self.alpha_policy not in allowed:
            raise ValueError(
                f"{self.algorithm} does not run alpha_policy {self.alpha_policy!r}; "
                f"choose from {', '.join(allowed)}"
            )
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.mv_budget < 1:
            raise ValueError("mv_budget must be at least 1")

    def policy(self) -> str:
        return self.alpha_policy or _POLICIES[self.algorithm][0]


@dataclass
class TraceRecord:
    mv: int
    k: int
    f: float
    nnz: int
    step: str


@dataclass
class RunTrace:
    """Per-step history of one solve plus its outcome."""

    records: list[TraceRecord]
    final_x: np.ndarray
    status: str
    mv_setup: int
    f0: float
    v0_norm: float
    l_est: float
    mv_total: int       # products the solve charged, unrecorded ones included
    xs: list[np.ndarray] | None = None

    @property
    def f_final(self) -> float:
        return self.records[-1].f if self.records else self.f0

    @property
    def f_best(self) -> float:
        return min((r.f for r in self.records), default=self.f0)


def accuracy(f_k: float, f_star: float) -> float:
    """(f_k - f_star) / max(|f_star|, 1e-12)."""
    return (f_k - f_star) / max(abs(f_star), 1e-12)


def estimate_max_eig(op: CountingOperator) -> float:
    """Largest-eigenvalue estimate by Lanczos, times a 1.01 safety factor.

    Runs the three-term recurrence beta_j v_{j+1} = A v_j - alpha_j v_j
    - beta_{j-1} v_{j-1} from a seeded random unit vector, without
    reorthogonalisation, and after each product takes the largest
    eigenvalue (Ritz value) of the leading j-by-j block of the
    tridiagonal T = tridiag(beta, alpha, beta). Ritz values approach
    the largest eigenvalue from below, faster than power iteration's
    Rayleigh quotient from the same start. The loop stops when the Ritz
    value's relative change is at most 1e-5, when beta_j is zero (the
    Krylov space is invariant and the value is exact), or after 200
    products. Every product is charged to the operator's counter. A zero
    operator, or any nonpositive estimate, yields 1.0 (any steplength is
    then valid).
    """
    if op.n < 1:
        raise ValueError("operator dimension must be at least 1")
    v = Rng(0).normals(op.n)  # nonzero: its first entry is -0.45
    v /= float(np.linalg.norm(v))
    v_prev = None
    tri = np.zeros((_EIG_MAX_PRODUCTS + 1, _EIG_MAX_PRODUCTS + 1))
    ritz = 0.0
    for j in range(_EIG_MAX_PRODUCTS):
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


class _Run:
    """Bookkeeping shared by the solver loops: records, stop tests, best point."""

    def __init__(self, problem: QuadraticProblem, cfg: SolverConfig):
        self.problem = problem
        self.cfg = cfg
        self.mv_start = problem.op.mv_count
        self.records: list[TraceRecord] = []
        self.xs: list[np.ndarray] | None = [] if cfg.theory_checks else None
        self.k = 0
        self.status: str | None = None
        self.mv_setup = 0
        self.f0 = 0.0
        self.v0_norm = 0.0
        self.l_est = 1.0
        self.best_f = np.inf
        self.best_x: np.ndarray | None = None
        self.last_x: np.ndarray | None = None
        self._stall_f = 0.0
        self._stall_mv = 0

    @property
    def mv(self) -> int:
        return self.problem.op.mv_count - self.mv_start

    def begin(self, x0: np.ndarray, f0: float, split: SubgradientSplit) -> None:
        """Takes the start point and its split, and applies the stop rules to it."""
        self.mv_setup = self.mv
        self.f0 = f0
        self.v0_norm = split.vnorm
        self.best_f = f0
        self.best_x = x0.copy()
        self.last_x = x0.copy()
        self._stall_f = f0
        self._stall_mv = self.mv
        self.record(x0, f0, None, split)

    def converged(self, f: float, split: SubgradientSplit) -> bool:
        cfg = self.cfg
        if cfg.f_star is not None:
            return accuracy(f, cfg.f_star) <= cfg.tol
        return split.vnorm <= cfg.tol * max(1.0, self.v0_norm)

    def record(self, x: np.ndarray, f: float, step: str | None, split: SubgradientSplit) -> bool:
        """Records an accepted step (None: the start point, which gets no
        record) and updates the status; True means the solve is over."""
        if step is not None:
            self.k += 1
            self.records.append(
                TraceRecord(mv=self.mv, k=self.k, f=f, nnz=int(np.count_nonzero(x)), step=step)
            )
            if self.xs is not None:
                self.xs.append(x.copy())
            if f < self.best_f:
                self.best_f = f
                self.best_x = x.copy()
            self.last_x = x
        if not np.isfinite(f):
            self.status = STATUS_UNBOUNDED
        elif self.converged(f, split):
            self.status = STATUS_CONVERGED
        elif abs(f - self._stall_f) >= _STALL_EPS * max(1.0, abs(self._stall_f)):
            self._stall_f = f
            self._stall_mv = self.mv
        elif self.mv - self._stall_mv >= _STALL_MV:
            self.status = STATUS_STALLED
        if self.status is None and self.mv >= self.cfg.mv_budget:
            self.status = STATUS_BUDGET
        return self.status is not None

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
            xs=self.xs,
        )


def _setup(problem: QuadraticProblem, cfg: SolverConfig, x0):
    """A run with its L estimate, and the start point with its gradient and F.

    The default start x0 = 0 has F(0) = 0 and g(0) = -b with no operator
    application; an explicit warm start pays one product.
    """
    run = _Run(problem, cfg)
    if x0 is None:
        x, g, f = np.zeros(problem.n), -problem.b.copy(), 0.0
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        ax = problem.op.apply(x)
        g, f = ax - problem.b, problem.objective(x, ax=ax)
    run.l_est = cfg.l_value if cfg.l_value is not None else estimate_max_eig(problem.op)
    return run, x, g, f, run.l_est


def _solve_iicg(problem: QuadraticProblem, cfg: SolverConfig, x0=None) -> RunTrace:
    """The interleaved loop; ``istabb`` runs it with the CG cycle switched off."""
    op, b, tau = problem.op, problem.b, problem.tau
    run, x, g, f, l_est = _setup(problem, cfg, x0)
    alpha_const = 1.0 / l_est
    alpha_bal = 1.0 / (cfg.bal_factor * l_est)
    curv_tol = 1e-14 * l_est
    rho_tol = 1e-14 * (1.0 + float(np.linalg.norm(b)))
    # sp, the split at the accepted iterate (x, g), serves the stop test,
    # iiCG-2's choice of mode and the CG cycle's tests
    sp = split_subgradient(x, g, tau, alpha_bal)
    run.begin(x, f, sp)

    mem = LineSearchMemory()
    mem.seed(f)
    use_bb = cfg.policy() == "bb"
    x_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None

    while run.status is None:
        # An unrecorded product (a curvature break) can use up the budget.
        mv_left = cfg.mv_budget - run.mv
        if mv_left < 1:
            run.status = STATUS_BUDGET
            break
        # First-order phase. iiCG-2 refines the current support when
        # the balance condition holds and releases variables otherwise;
        # the others always take the full step.
        mode = "subspace" if cfg.algorithm == "iicg2" and sp.balanced else "full"
        step_name = STEP_SUBISTA if mode == "subspace" else STEP_ISTA
        if use_bb:
            try:
                res = bb_ls_step(problem, x, g, x_prev, g_prev, mode, mem, alpha_const, mv_left)
            except CurvatureBreak:
                run.status = STATUS_UNBOUNDED
                break
            x_prev, g_prev = x, g
            x, g, f = res.x, res.g, res.f
            if res.fallback:
                step_name = STEP_LSFALLBACK
        else:
            stepper = subspace_ista_step if mode == "subspace" else ista_step
            x_new = stepper(x, g, tau, alpha_const)
            ax_new = op.apply(x_new)
            x_prev, g_prev = x, g
            f = problem.objective(x_new, ax=ax_new)
            g = ax_new - b
            x = x_new
        sp = split_subgradient(x, g, tau, alpha_bal)
        if run.record(x, f, step_name, sp) or cfg.algorithm == "istabb":
            continue

        # Subspace CG cycle anchored at the fresh first-order point. The
        # cycle's gradient r - tau*sign(x) can differ from g in the last
        # bit, so the anchor gets a split of its own.
        st = init_cg_cycle(x, g, tau)
        cur = split_subgradient(st.x, st.smooth_grad(), tau, alpha_bal)
        while cur.balanced and math.sqrt(st.rho_dot) > rho_tol:
            try:
                st_new, crossed = cg_step(st, op, curv_tol)
            except CurvatureBreak as brk:
                if brk.curvature < -NEG_CURV * l_est:
                    run.status = STATUS_UNBOUNDED
                break
            f_new = st_new.objective(b, tau)
            x_prev, g_prev = x, g
            if crossed and not sufficient_decrease(f_new, f, cur.min_norm, cfg.c):
                st = cutback(st, st_new.last_ad, cutback_alpha(st.x, st.anchor, st.d))
                f_new, step_name = st.objective(b, tau), STEP_CUTBACK
            else:
                st, step_name = st_new, STEP_CG
            x, g, f = st.x, st.smooth_grad(), f_new
            sp = cur = split_subgradient(x, g, tau, alpha_bal)
            if run.record(x, f, step_name, sp) or step_name == STEP_CUTBACK:
                break

    return run.finish()


def _solve_fista(problem: QuadraticProblem, cfg: SolverConfig, x0=None) -> RunTrace:
    op, b, tau = problem.op, problem.b, problem.tau
    run, x, g, f, l_est = _setup(problem, cfg, x0)
    alpha = 1.0 / l_est
    run.begin(x, f, split_subgradient(x, g, tau, alpha))

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
        run.record(x, f_new, STEP_ISTA, split_subgradient(x, g, tau, alpha))
    return run.finish()


def solve(problem: QuadraticProblem, cfg: SolverConfig, x0=None) -> RunTrace:
    """Run the configured solver from x0 (default: the zero vector)."""
    if cfg.algorithm == "fista":
        return _solve_fista(problem, cfg, x0=x0)
    return _solve_iicg(problem, cfg, x0=x0)


def reference_objective(problem: QuadraticProblem, mv_budget: int = 50000) -> float:
    """Best-known objective from a high-accuracy reference solve.

    Runs iiCG-2 with subgradient-norm termination at tol 1e-13 and four
    times the given budget, and returns the best objective seen.
    """
    cfg = SolverConfig(algorithm="iicg2", tol=1e-13, mv_budget=4 * mv_budget)
    return solve(problem, cfg).f_best


def write_trace_csv(trace: RunTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mv", "k", "F", "nnz", "step"])
        for rec in trace.records:
            writer.writerow([rec.mv, rec.k, f"{rec.f:.17g}", rec.nnz, rec.step])


def read_trace_records(path) -> list[TraceRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                TraceRecord(
                    mv=int(row["mv"]),
                    k=int(row["k"]),
                    f=float(row["F"]),
                    nnz=int(row["nnz"]),
                    step=row["step"],
                )
            )
    return records
