"""Minimum-norm subgradient decomposition and the gradient balance test.

For F(x) = f(x) + tau*||x||_1 with smooth gradient g = Ax - b, the
minimum-norm subgradient v splits into a part living on the zero
coordinates (``release``: the first-order pressure to release
variables from zero) and a part on the support (``support``). A third
vector, ``support_map``, is the steplength-scaled proximal displacement
of the nonzero coordinates; comparing its norm against the release
part's norm decides whether a solver should free variables or keep
optimizing over the current support.

:class:`SubgradientSplit` computes each part, and is what the solvers
run. The functions ``release_grad``, ``support_grad``,
``support_grad_map`` and ``min_norm_subgrad`` are checked views of it:
they convert and check their arguments with :func:`checked_pair`, then
return the part of a fresh split, an array the caller owns.

Zero classification is by numeric equality with 0.0 throughout, so the
IEEE sign of a zero never changes any output.
"""

from __future__ import annotations

import numpy as np


def soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    """Componentwise sign(z) * max(|z| - t, 0)."""
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def _balance(release: np.ndarray, support_map: np.ndarray) -> bool:
    return float(release @ release) <= float(support_map @ support_map)


class _once:
    """A part computed on first access and stored on the instance.

    Like ``functools.cached_property``, without the lock that Python 3.11's
    takes on every first access.
    """

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class SubgradientSplit:
    """The decomposition at one point, each part computed on first use.

    The solvers' path: x and g are unchecked float64 vectors of one shape.
    x's orthant gives ``sign`` = sign(x), ``shift`` = tau*sign and
    ``orthant_grad`` = g + shift, the gradient of the smooth model that equals
    F on that orthant; a CG cycle anchored at x reads all three. On the
    zeros, ``release`` is 0 where |g_i| <= tau and g_i - tau*sign(g_i)
    otherwise; it is 0 on the support. On the support, ``support`` is
    ``orthant_grad`` and ``support_map`` is
    (x_i - soft_threshold(x_i - alpha*g_i, alpha*tau)) / alpha; both are 0
    on the zeros. The two sides are disjoint, so ``min_norm`` is
    ``release + support`` exactly and ``vnorm`` is its inf-norm. ``balanced``
    is ||release||^2 <= ||support_map||^2, ties included.
    """

    def __init__(self, x: np.ndarray, g: np.ndarray, tau: float, alpha: float):
        self.x, self.g, self.tau, self.alpha = x, g, tau, alpha

    @_once
    def zero(self) -> np.ndarray:
        return self.x == 0.0

    @_once
    def release(self) -> np.ndarray:
        out = soft_threshold(self.g, self.tau)
        out[~self.zero] = 0.0
        return out

    @_once
    def sign(self) -> np.ndarray:
        return np.sign(self.x)

    @_once
    def shift(self) -> np.ndarray:
        return self.tau * self.sign

    @_once
    def orthant_grad(self) -> np.ndarray:
        return self.g + self.shift

    @_once
    def support(self) -> np.ndarray:
        return np.where(self.zero, 0.0, self.orthant_grad)

    @_once
    def support_map(self) -> np.ndarray:
        alpha = self.alpha
        out = (self.x - soft_threshold(self.x - alpha * self.g, alpha * self.tau)) / alpha
        out[self.zero] = 0.0
        return out

    @_once
    def min_norm(self) -> np.ndarray:
        return self.release + self.support

    @_once
    def balanced(self) -> bool:
        return _balance(self.release, self.support_map)

    @_once
    def vnorm(self) -> float:
        # sign(x) is 0 on the zeros, so there the orthant gradient is g
        mag = np.abs(self.orthant_grad)
        return float(np.where(self.zero, mag - self.tau, mag).max(initial=0.0))


def split_subgradient(x, g, tau: float, alpha: float) -> SubgradientSplit:
    """The split of the minimum-norm subgradient at x, with steplength alpha."""
    return SubgradientSplit(x, g, tau, alpha)


def checked_pair(x, g, alpha: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """x and g as float64 arrays; ValueError unless their shapes agree and alpha > 0."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return x, g


def _checked_split(x, g, tau: float, alpha: float = 1.0) -> SubgradientSplit:
    return split_subgradient(*checked_pair(x, g, alpha), tau, alpha)


def release_grad(x: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Subgradient components on the zero coordinates; independent of any steplength."""
    return _checked_split(x, g, tau).release


def support_grad_map(x: np.ndarray, g: np.ndarray, tau: float, alpha: float) -> np.ndarray:
    """Scaled proximal displacement of the nonzero coordinates."""
    return _checked_split(x, g, tau, alpha).support_map


def support_grad(x: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """g_i + tau*sign(x_i) on the nonzero coordinates, 0 elsewhere."""
    return _checked_split(x, g, tau).support


def min_norm_subgrad(x: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Minimum-norm subgradient of F at x; zero exactly at a minimizer."""
    return _checked_split(x, g, tau).min_norm


def gradient_balance(release: np.ndarray, support_map: np.ndarray) -> bool:
    """True iff ||release||^2 <= ||support_map||^2 (ties count as balanced)."""
    return _balance(*checked_pair(release, support_map))
