"""Minimum-norm subgradient decomposition and the gradient balance test.

For F(x) = f(x) + tau*||x||_1 with smooth gradient g = Ax - b, the
minimum-norm subgradient v splits into a part living on the zero
coordinates (``release_grad``: the first-order pressure to release
variables from zero) and a part on the support (``support_grad``). A
third vector, ``support_grad_map``, is the steplength-scaled proximal
displacement of the nonzero coordinates; comparing its norm against the
release part's norm decides whether a solver should free variables or
keep optimizing over the current support.

Zero classification is by numeric equality with 0.0 throughout, so the
IEEE sign of a zero never changes any output.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


def soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    """Componentwise sign(z) * max(|z| - t, 0)."""
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def release_grad(x: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Subgradient components on the zero coordinates.

    Component i is 0 when x_i != 0, 0 when x_i = 0 and |g_i| <= tau,
    and g_i - tau*sign(g_i) otherwise. Independent of any steplength.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    out = soft_threshold(g, tau)
    out[x != 0.0] = 0.0
    return out


def support_grad_map(x: np.ndarray, g: np.ndarray, tau: float, alpha: float) -> np.ndarray:
    """Scaled proximal displacement of the nonzero coordinates.

    Component i is (x_i - soft_threshold(x_i - alpha*g_i, alpha*tau)) / alpha
    when x_i != 0, and 0 otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    target = soft_threshold(x - alpha * g, alpha * tau)
    out = (x - target) / alpha
    out[x == 0.0] = 0.0
    return out


def support_grad(x: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """g_i + tau*sign(x_i) on the nonzero coordinates, 0 elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    out = g + tau * np.sign(x)
    out[x == 0.0] = 0.0
    return out


def min_norm_subgrad(x: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Minimum-norm subgradient of F at x; zero exactly at a minimizer."""
    return release_grad(x, g, tau) + support_grad(x, g, tau)


def gradient_balance(release: np.ndarray, support_map: np.ndarray) -> bool:
    """True iff ||release||^2 <= ||support_map||^2 (ties count as balanced)."""
    release = np.asarray(release, dtype=np.float64)
    support_map = np.asarray(support_map, dtype=np.float64)
    if release.shape != support_map.shape:
        raise ValueError(f"shape mismatch: {release.shape} vs {support_map.shape}")
    return float(release @ release) <= float(support_map @ support_map)


class SubgradientSplit:
    """The decomposition at one point, each part computed on first use.

    The solvers' path: x and g are unchecked float64 vectors of one shape.
    Each part equals the function of the same name bit for bit. The parts
    on the zeros and on the support are disjoint, so ``min_norm`` is
    ``release + support`` exactly and ``vnorm`` is its inf-norm.
    """

    def __init__(self, x: np.ndarray, g: np.ndarray, tau: float, alpha: float):
        self.x, self.g, self.tau, self.alpha = x, g, tau, alpha

    @cached_property
    def zero(self) -> np.ndarray:
        return self.x == 0.0

    @cached_property
    def release(self) -> np.ndarray:
        out = soft_threshold(self.g, self.tau)
        out[~self.zero] = 0.0
        return out

    @cached_property
    def support(self) -> np.ndarray:
        out = self.g + self.tau * np.sign(self.x)
        out[self.zero] = 0.0
        return out

    @cached_property
    def support_map(self) -> np.ndarray:
        alpha = self.alpha
        out = (self.x - soft_threshold(self.x - alpha * self.g, alpha * self.tau)) / alpha
        out[self.zero] = 0.0
        return out

    @cached_property
    def min_norm(self) -> np.ndarray:
        return self.release + self.support

    @cached_property
    def balanced(self) -> bool:
        return float(self.release @ self.release) <= float(self.support_map @ self.support_map)

    @cached_property
    def vnorm(self) -> float:
        return float(np.maximum(np.abs(self.release).max(initial=0.0),
                                np.abs(self.support).max(initial=0.0)))


def split_subgradient(x, g, tau: float, alpha: float) -> SubgradientSplit:
    """The split of the minimum-norm subgradient at x, with steplength alpha."""
    return SubgradientSplit(x, g, tau, alpha)
