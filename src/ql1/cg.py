"""Projected conjugate gradient on the orthant model over the free subspace.

A cycle is anchored at the point where it starts: the anchor's sign
vector defines a smooth quadratic model that agrees with the objective
everywhere on the anchor's orthant, and the anchor's zero coordinates
define the subspace the iteration is projected onto. The residual
recurrence keeps the model gradient available at every iterate, so
objective values, subgradients, and the gradient handed back to the
first-order phase all cost zero extra matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ql1.problem import CountingOperator, objective_from_ax


# Curvature u'Au/u'u below -NEG_CURV * L proves A indefinite; the guard
# that merely ends a CG cycle sits at +1e-14 * L, inside roundoff.
NEG_CURV = 1e-8


class CurvatureBreak(Exception):
    """Raised when d'Ad is numerically nonpositive; the cycle must end.

    ``curvature`` is d'Ad / d'd (0.0 for a zero direction), which lets the
    caller tell roundoff on a singular A from negative curvature.
    """

    def __init__(self, curvature: float):
        super().__init__(f"d'Ad/d'd = {curvature:.3e} below curvature guard")
        self.curvature = curvature


@dataclass
class CGState:
    x: np.ndarray          # current iterate; zero wherever the anchor is zero
    r: np.ndarray          # Ax - b + tau*sign(anchor), maintained by recurrence
    d: np.ndarray          # search direction, supported on the free subspace
    anchor_sign: np.ndarray  # sign of the point where the cycle started
    free: np.ndarray       # anchor != 0: the subspace the cycle moves in
    shift: np.ndarray      # tau*sign(anchor), so that r = Ax - b + shift
    rho_dot: float         # ||rho||^2 for rho, r projected onto the free subspace;
                           # 0.0 after a cutback, which cg_step refuses

    def smooth_grad(self) -> np.ndarray:
        """Gradient Ax - b at the current iterate, from the cached residual."""
        return self.r - self.shift

    def objective(self, b: np.ndarray, tau: float) -> float:
        """F at the current iterate with zero extra matrix-vector products."""
        return objective_from_ax(self.x, self.r + b - self.shift, b, tau)


def init_cg_cycle(x, g, tau: float) -> CGState:
    """Start a cycle at x with smooth gradient g = Ax - b already known.

    The state holds x itself, not a copy: no step writes to an iterate.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    sign = np.sign(x)
    shift = tau * sign
    free = x != 0.0
    r = g + shift
    rho = np.where(free, r, 0.0)
    return CGState(
        x=x,
        r=r,
        d=-rho,
        anchor_sign=sign,
        free=free,
        shift=shift,
        rho_dot=float(rho @ rho),
    )


def cg_step(s: CGState, op: CountingOperator, curv_tol: float = 0.0):
    """One projected CG step; costs exactly one matrix-vector product.

    Returns ``(s_next, ad, crossed)``: ``ad`` is the product A d the step
    paid for, and ``crossed`` is True when the new iterate's sign pattern
    differs from the anchor's anywhere (a coordinate landing exactly at
    zero counts as a sign change).
    Raises :class:`CurvatureBreak` when d'Ad <= curv_tol * ||d||^2, and
    ValueError for a state whose cycle has ended (rho_dot 0.0, as after a
    cutback), before any product is paid for.
    """
    if s.rho_dot == 0.0:
        raise ValueError("the cycle has ended: rho_dot is 0.0")
    ad = op.apply(s.d)
    dad = float(s.d @ ad)
    dd = float(s.d @ s.d)
    if dad <= curv_tol * dd:
        raise CurvatureBreak(dad / dd if dd > 0.0 else 0.0)
    alpha = s.rho_dot / dad
    x_new = s.x + alpha * s.d
    r_new = s.r + alpha * ad
    rho_new = np.where(s.free, r_new, 0.0)
    rho_dot_new = float(r_new @ rho_new)
    beta = rho_dot_new / s.rho_dot
    d_new = -rho_new + beta * s.d
    crossed = bool(np.any(np.sign(x_new) != s.anchor_sign))
    s_next = CGState(x=x_new, r=r_new, d=d_new, anchor_sign=s.anchor_sign,
                     free=s.free, shift=s.shift, rho_dot=rho_dot_new)
    return s_next, ad, crossed


def cutback_alpha(x_k, anchor_sign, d) -> tuple[float, np.ndarray, bool]:
    """Largest steplength along d that keeps x_k on the anchor's closed orthant.

    Returns ``(alpha_b, snap_mask, moved)``. ``moved`` is False when x_k
    has already left the anchor's orthant, in which case the point is
    kept unchanged. ``snap_mask`` marks the coordinates that reach the
    orthant boundary at alpha_b and must land at exactly 0.0. With no
    boundary-bound coordinate the full step alpha_b = 1 is returned.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    anchor_sign = np.asarray(anchor_sign, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if np.any(np.sign(x_k) != anchor_sign):
        return 0.0, np.zeros(x_k.shape, dtype=bool), False
    # x_k has the anchor's signs here, so d against a sign is a crossing
    # (x_k * d < 0 would miss products that underflow to -0.0)
    crossing = (anchor_sign != 0.0) & (np.sign(d) == -anchor_sign)
    if not np.any(crossing):
        return 1.0, np.zeros(x_k.shape, dtype=bool), True
    ratios = np.full(x_k.shape, np.inf)
    ratios[crossing] = -x_k[crossing] / d[crossing]
    alpha_b = float(ratios[crossing].min())
    snap = crossing & (ratios <= alpha_b * (1.0 + 1e-12))
    return alpha_b, snap, True


def cutback(s: CGState, ad: np.ndarray, cut: tuple[float, np.ndarray, bool]) -> CGState:
    """Truncate a rejected crossing step to the anchor orthant's boundary.

    ``s`` is the state the step started from, ``ad`` its product A d and
    ``cut`` the result of :func:`cutback_alpha`. If s.x lies on the
    anchor's orthant, the new point is s.x + alpha_b*d with the
    boundary-hitting coordinates snapped to exactly 0.0; otherwise the
    state holds s.x itself. The residual becomes s.r + alpha_b*ad, so the
    returned state's ``smooth_grad`` and ``objective`` cost no further
    products. Its ``rho_dot`` is 0.0, and :func:`cg_step` refuses such a state.
    """
    alpha_b, snap, moved = cut
    if moved:
        x = s.x + alpha_b * s.d
        x[snap] = 0.0
    else:
        x = s.x
    return CGState(x=x, r=s.r + alpha_b * ad, d=s.d, anchor_sign=s.anchor_sign,
                   free=s.free, shift=s.shift, rho_dot=0.0)


def sufficient_decrease(f_next: float, f_curr: float, v_curr, c: float) -> bool:
    """True iff f_next <= f_curr - c * ||v_curr||^2."""
    v_curr = np.asarray(v_curr, dtype=np.float64)
    return f_next <= f_curr - c * float(v_curr @ v_curr)
