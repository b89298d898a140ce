"""First-order steps: full ISTA, subspace ISTA, and the BB line-search step.

The Barzilai-Borwein step reuses cached gradient differences for its
curvature term (A(x - x_prev) = g - g_prev), so computing the BB
coefficient is free in matrix-vector products; each line-search trial
costs exactly one product, which evaluates the trial objective and the
new gradient together.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ql1.cg import NEG_CURV, CurvatureBreak
from ql1.problem import QuadraticProblem
from ql1.subgrad import checked_pair, soft_threshold


def ista_step(x, g, tau: float, alpha: float) -> np.ndarray:
    """Proximal gradient step: soft_threshold(x - alpha*g, alpha*tau).

    Equals x - alpha*(release + support_map) of ``split_subgradient``: the
    minimizer of the separable quadratic-plus-l1 model at x.
    """
    x, g = checked_pair(x, g, alpha)
    return soft_threshold(x - alpha * g, alpha * tau)


def subspace_ista_step(x, g, tau: float, alpha: float) -> np.ndarray:
    """ISTA step restricted to the nonzero coordinates; zeros stay exactly 0."""
    x = np.asarray(x, dtype=np.float64)
    full = ista_step(x, g, tau, alpha)
    return np.where(x == 0.0, 0.0, full)


# The BB line search's reference is the largest of the last LS_WINDOW
# accepted F values; LS_XI and LS_MAX_HALVINGS enter its acceptance rule.
LS_WINDOW = 5
LS_XI = 0.005
LS_MAX_HALVINGS = 60


def ls_window(f0: float) -> deque:
    """The line search's reference window, seeded with F(x0)."""
    return deque([float(f0)] * LS_WINDOW, maxlen=LS_WINDOW)


@dataclass
class BBStepResult:
    x: np.ndarray
    g: np.ndarray
    f: float
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

    Returns ``fallback_alpha`` (= 1/L) when s is zero or on a nonpositive
    curvature that :func:`step_curvature` lets pass.
    """
    curv, ss = step_curvature(x - x_prev, g - g_prev, x, g, fallback_alpha)
    if ss == 0.0 or curv <= 0.0:
        return fallback_alpha
    return ss / curv


def bb_ls_step(
    problem: QuadraticProblem,
    x: np.ndarray,
    g: np.ndarray,
    alpha: float,
    step: Callable[[np.ndarray, np.ndarray, float, float], np.ndarray],
    window: deque,
    mv_left: int,
    bound_alpha: Callable[[], float],
) -> BBStepResult:
    """One nonmonotone halving line search from the steplength ``alpha``.

    ``step(x, g, tau, alpha)`` is the proximal step the caller chose:
    :func:`ista_step` over all coordinates, or :func:`subspace_ista_step`
    with the zero coordinates frozen. A trial at steplength a is accepted
    when

        F(x_trial) <= max(window) - (a/2) * LS_XI * ||x - x_trial||^2,

    the halved steplength appearing because the halving precedes the
    test. The caller picks the first trial's steplength ``alpha``, a BB
    steplength as :func:`bb_stepsize` gives it. If LS_MAX_HALVINGS trials
    all fail, the step falls back to the steplength ``bound_alpha()``,
    which may spend products but leaves one for the trial, and is
    accepted unconditionally (flagged). The accepted F enters the front of
    ``window`` (see :func:`ls_window`).
    ``mv_left`` (at least 1) caps the number of trials: when it is used
    up, the last trial is returned although the test rejected it.
    """
    if mv_left < 1:
        raise ValueError(f"mv_left must be at least 1, got {mv_left}")
    reference = max(window)
    fallback = False
    trials = 0
    while True:
        trials += 1
        if trials > LS_MAX_HALVINGS:
            alpha = bound_alpha()
            fallback = True
        x_trial = step(x, g, problem.tau, alpha)
        ax_trial = problem.op.apply(x_trial)
        f_trial = problem.objective(x_trial, ax=ax_trial)
        if fallback:
            break
        diff = x - x_trial
        if f_trial <= reference - (alpha / 2.0) * LS_XI * float(diff @ diff):
            break
        if trials == mv_left:
            break
        alpha /= 2.0
    window.appendleft(f_trial)
    return BBStepResult(
        x=x_trial,
        g=ax_trial - problem.b,
        f=f_trial,
        fallback=fallback,
        trials=trials,
    )
