"""First-order steps: full ISTA, subspace ISTA, and the BB line-search step.

The Barzilai-Borwein step reuses cached gradient differences for its
curvature term (A(x - x_prev) = g - g_prev), so computing the BB
coefficient is free in matrix-vector products; each line-search trial
costs exactly one product, which evaluates the trial objective and the
new gradient together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ql1.cg import NEG_CURV, CurvatureBreak
from ql1.problem import QuadraticProblem
from ql1.subgrad import soft_threshold


def ista_step(x, g, tau: float, alpha: float) -> np.ndarray:
    """Proximal gradient step: soft_threshold(x - alpha*g, alpha*tau).

    Equals x - alpha*(release + support_map) of ``split_subgradient``: the
    minimizer of the separable quadratic-plus-l1 model at x.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return soft_threshold(x - alpha * g, alpha * tau)


def subspace_ista_step(x, g, tau: float, alpha: float) -> np.ndarray:
    """ISTA step restricted to the nonzero coordinates; zeros stay exactly 0."""
    x = np.asarray(x, dtype=np.float64)
    full = ista_step(x, g, tau, alpha)
    return np.where(x == 0.0, 0.0, full)


@dataclass
class LineSearchMemory:
    """Nonmonotone reference window for the BB line search.

    ``window`` always holds exactly ``m`` finite objective values; it is
    seeded with F(x0) and shifts in each accepted value, newest first.
    """

    m: int = 5
    xi: float = 0.005
    max_halvings: int = 60
    window: list[float] = field(default_factory=list)

    def seed(self, f0: float) -> None:
        self.window = [float(f0)] * self.m

    def push(self, f_new: float) -> None:
        self.window = [float(f_new)] + self.window[: self.m - 1]

    @property
    def reference(self) -> float:
        return max(self.window)


@dataclass
class BBStepResult:
    x: np.ndarray
    g: np.ndarray
    f: float
    mv_used: int
    alpha_used: float
    fallback: bool
    trials: int


def step_curvature(s, dg, x, g, alpha: float) -> tuple[float, float]:
    """(s'dg, s's) for a step s to x (gradient g) with dg = As (zero products).

    Raises :class:`CurvatureBreak` when s'dg is below both -NEG_CURV*L*s's
    (L = 1/alpha) and its rounding error 1e-12*||s||*(L||x|| + ||g||):
    near convergence s can be a rounding step of x, with curvature noise.
    """
    curv = float(s @ dg)
    ss = float(s @ s)
    if ss > 0.0 and curv < -NEG_CURV * ss / alpha:
        noise = 1e-12 * np.sqrt(ss) * (np.linalg.norm(x) / alpha + np.linalg.norm(g))
        if curv < -noise:
            raise CurvatureBreak(curv / ss)
    return curv, ss


def bb_stepsize(x, x_prev, g, g_prev, fallback_alpha: float) -> float:
    """(s's) / (s'As) with s = x - x_prev and As = g - g_prev (zero products).

    Returns ``fallback_alpha`` (= 1/L) on the first iteration (no previous
    pair) or on a nonpositive curvature that :func:`step_curvature` lets pass.
    """
    if x_prev is None or g_prev is None:
        return fallback_alpha
    curv, ss = step_curvature(x - x_prev, g - g_prev, x, g, fallback_alpha)
    if ss == 0.0 or curv <= 0.0:
        return fallback_alpha
    return ss / curv


def bb_ls_step(
    problem: QuadraticProblem,
    x: np.ndarray,
    g: np.ndarray,
    x_prev: np.ndarray | None,
    g_prev: np.ndarray | None,
    mode: str,
    mem: LineSearchMemory,
    fallback_alpha: float,
    mv_left: int | None = None,
) -> BBStepResult:
    """One BB step with nonmonotone halving line search.

    ``mode`` is "full" (proximal step over all coordinates) or
    "subspace" (zero coordinates frozen; the support displacement is
    recomputed at every trial steplength). A trial at steplength a is
    accepted when

        F(x_trial) <= max(window) - (a/2) * xi * ||x - x_trial||^2,

    the halved steplength appearing because the halving precedes the
    test. If ``max_halvings`` trials all fail, the step falls back to
    ``fallback_alpha`` and is accepted unconditionally (flagged).
    ``mv_left`` (at least 1) caps the number of trials: when it is used
    up, the last trial is returned although the test rejected it. A
    :class:`CurvatureBreak` from :func:`bb_stepsize` comes before any trial.
    """
    if mode not in ("full", "subspace"):
        raise ValueError(f"unknown mode {mode!r}")
    if mv_left is not None and mv_left < 1:
        raise ValueError(f"mv_left must be at least 1, got {mv_left}")
    tau = problem.tau
    reference = mem.reference
    alpha = bb_stepsize(x, x_prev, g, g_prev, fallback_alpha)
    mv_used = 0
    fallback = False
    trials = 0
    while True:
        trials += 1
        if trials > mem.max_halvings:
            alpha = fallback_alpha
            fallback = True
        if mode == "full":
            x_trial = ista_step(x, g, tau, alpha)
        else:
            x_trial = subspace_ista_step(x, g, tau, alpha)
        ax_trial = problem.op.apply(x_trial)
        mv_used += 1
        f_trial = problem.objective(x_trial, ax=ax_trial)
        if fallback:
            break
        diff = x - x_trial
        if f_trial <= reference - (alpha / 2.0) * mem.xi * float(diff @ diff):
            break
        if mv_used == mv_left:
            break
        alpha /= 2.0
    mem.push(f_trial)
    return BBStepResult(
        x=x_trial,
        g=ax_trial - problem.b,
        f=f_trial,
        mv_used=mv_used,
        alpha_used=alpha,
        fallback=fallback,
        trials=trials,
    )
