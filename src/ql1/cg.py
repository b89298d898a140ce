"""Projected conjugate gradient on the orthant model over the free subspace.

A cycle is anchored at the point where it starts and keeps its split: the
anchor's signs define a smooth quadratic model that agrees with the
objective everywhere on the anchor's orthant, and the anchor's zero
coordinates define the subspace the iteration is projected onto. The residual
recurrence keeps the model gradient available at every iterate, so
objective values, subgradients, and the gradient handed back to the
first-order phase all cost zero extra matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ql1.problem import CountingOperator, objective_from_ax
from ql1.subgrad import SubgradientSplit


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
    """One iterate of a cycle; every step reads the anchor's ``sign``, ``zero`` and ``shift``."""

    x: np.ndarray          # current iterate; zero wherever the anchor is zero
    r: np.ndarray          # Ax - b + anchor.shift, maintained by recurrence
    d: np.ndarray          # search direction, supported on the free subspace
    anchor: SubgradientSplit  # the split of the point where the cycle started
    rho_dot: float         # ||rho||^2 for rho, r projected onto the free subspace;
                           # 0.0 after a cutback, which cg_step refuses

    def smooth_grad(self) -> np.ndarray:
        """Gradient Ax - b at the current iterate, from the cached residual."""
        return self.r - self.anchor.shift

    def objective(self, b: np.ndarray, tau: float) -> float:
        """F at the current iterate with zero extra matrix-vector products."""
        return objective_from_ax(self.x, self.r + b - self.anchor.shift, b, tau)


def init_cg_cycle(sp: SubgradientSplit) -> CGState:
    """Start a cycle at the point of the split ``sp``: r = ``sp.orthant_grad``, d = -``sp.support``.

    The state holds the split's arrays, not copies: no step writes to them.
    """
    rho = sp.support
    return CGState(x=sp.x, r=sp.orthant_grad, d=-rho, anchor=sp, rho_dot=float(rho @ rho))


def cg_step(s: CGState, op: CountingOperator, curv_tol: float = 0.0):
    """One projected CG step; costs exactly one matrix-vector product.

    Returns ``(s_next, ad, crossed)``: ``ad`` is the product A d the step
    paid for, and ``crossed`` is True when the new iterate's sign pattern
    differs from the anchor's anywhere (a coordinate landing exactly at
    zero counts as a sign change). A crossing step is its cycle's last:
    the model agrees with F only on the anchor's orthant, so the caller
    either cuts the step back or accepts it and closes the cycle.
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
    rho_new = np.where(s.anchor.zero, 0.0, r_new)
    rho_dot_new = float(r_new @ rho_new)
    beta = rho_dot_new / s.rho_dot
    d_new = -rho_new + beta * s.d
    crossed = bool(np.any(np.sign(x_new) != s.anchor.sign))
    s_next = CGState(x=x_new, r=r_new, d=d_new, anchor=s.anchor, rho_dot=rho_dot_new)
    return s_next, ad, crossed


def cutback_alpha(x_k, anchor_sign, d) -> tuple[float, np.ndarray]:
    """Largest steplength along d that keeps x_k on the anchor's closed orthant.

    Returns ``(alpha_b, snap_mask)``. ``snap_mask`` marks the coordinates
    that reach the orthant boundary at alpha_b and must land at exactly
    0.0. With no boundary-bound coordinate the full step alpha_b = 1 is
    returned. Raises ValueError for an x_k off the anchor's orthant: a
    cycle ends at its first accepted crossing step, so every step it cuts
    back starts on that orthant.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    anchor_sign = np.asarray(anchor_sign, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if np.any(np.sign(x_k) != anchor_sign):
        raise ValueError("x_k is off the anchor's orthant")
    # x_k has the anchor's signs here, so d against a sign is a crossing
    # (x_k * d < 0 would miss products that underflow to -0.0)
    crossing = (anchor_sign != 0.0) & (np.sign(d) == -anchor_sign)
    if not np.any(crossing):
        return 1.0, np.zeros(x_k.shape, dtype=bool)
    ratios = np.full(x_k.shape, np.inf)
    ratios[crossing] = -x_k[crossing] / d[crossing]
    alpha_b = float(ratios[crossing].min())
    snap = crossing & (ratios <= alpha_b * (1.0 + 1e-12))
    return alpha_b, snap


def cutback(s: CGState, ad: np.ndarray, cut: tuple[float, np.ndarray]) -> CGState:
    """Truncate a rejected crossing step to the anchor orthant's boundary.

    ``s`` is the state the step started from, on the anchor's orthant,
    ``ad`` its product A d and ``cut`` the result of :func:`cutback_alpha`.
    The new point is s.x + alpha_b*d with the boundary-hitting coordinates
    snapped to exactly 0.0, and the residual s.r + alpha_b*ad, so the
    returned state's ``smooth_grad`` and ``objective`` cost no further
    products. Its ``rho_dot`` is 0.0, and :func:`cg_step` refuses such a state.
    """
    alpha_b, snap = cut
    x = s.x + alpha_b * s.d
    x[snap] = 0.0
    return CGState(x=x, r=s.r + alpha_b * ad, d=s.d, anchor=s.anchor, rho_dot=0.0)


def sufficient_decrease(f_next: float, f_curr: float, v_curr, c: float) -> bool:
    """True iff f_next <= f_curr - c * ||v_curr||^2."""
    v_curr = np.asarray(v_curr, dtype=np.float64)
    return f_next <= f_curr - c * float(v_curr @ v_curr)
