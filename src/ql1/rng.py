"""Deterministic random stream for cross-implementation-reproducible suites.

SplitMix64 drives everything: the state advances by a fixed odd
constant per draw, so the k-th output is a pure function of
(seed, k) and bulk generation can be vectorized without changing the
stream. Uniforms take the top 53 bits; normals are Box-Muller cosine
variates, one fresh (u1, u2) pair per draw with the sine partner
discarded.

Bulk draws run in cache-sized chunks of ``_CHUNK`` values through
reused work buffers, so their peak memory is the output plus O(chunk).
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_CHUNK = 8192  # values per bulk step; its 64 KiB work buffers stay in L2


def _unit_from(z: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> None:
    """SplitMix64 finaliser of states z (clobbered) into uniforms in out."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    z >>= np.uint64(11)
    np.multiply(z, 2.0**-53, out=out)


class Rng:
    """SplitMix64 generator with uniform and normal draws."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; u1 is redrawn if it is exactly 0."""
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def _base(self, pos: int) -> np.uint64:
        return np.uint64((self.state + pos * _GAMMA) & _MASK)

    def uniforms(self, count: int) -> np.ndarray:
        """Vectorized ``uniform``; identical stream to repeated scalar calls."""
        out = np.empty(count)
        step = np.arange(1, min(count, _CHUNK) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z, tmp = np.empty_like(step), np.empty_like(step)
        for lo in range(0, count, _CHUNK):
            c = min(_CHUNK, count - lo)
            np.add(step[:c], self._base(lo), out=z[:c])
            _unit_from(z[:c], tmp[:c], out[lo : lo + c])
        self.state = (self.state + count * _GAMMA) & _MASK
        return out

    def normals(self, count: int) -> np.ndarray:
        """Vectorized ``normal``; identical stream to repeated scalar calls.

        Draws run in chunks of ``_CHUNK`` normals, so the peak memory is
        the output plus O(chunk). Normal i takes u1 from stream position
        2i+1 and u2 from 2i+2. The fast path assumes no u1 draw is
        exactly zero (probability 2^-53 per draw); if one is, it falls
        back to the scalar loop from the starting state so redraw
        semantics stay exact.
        """
        out = np.empty(count)
        c0 = min(count, _CHUNK)
        odd = np.arange(1, 2 * c0, 2, dtype=np.uint64) * np.uint64(_GAMMA)
        even = odd + np.uint64(_GAMMA)
        z, tmp = np.empty_like(odd), np.empty_like(odd)
        u2 = np.empty(c0)
        for lo in range(0, count, _CHUNK):
            c = min(_CHUNK, count - lo)
            r, theta = out[lo : lo + c], u2[:c]
            base = self._base(2 * lo)
            np.add(odd[:c], base, out=z[:c])
            _unit_from(z[:c], tmp[:c], r)
            if not r.all():  # a zero u1 is redrawn, which shifts the stream
                return np.array([self.normal() for _ in range(count)])
            np.add(even[:c], base, out=z[:c])
            _unit_from(z[:c], tmp[:c], theta)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta *= 2.0 * math.pi
            np.cos(theta, out=theta)
            r *= theta
        self.state = (self.state + 2 * count * _GAMMA) & _MASK
        return out
