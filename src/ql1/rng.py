"""Deterministic random stream for cross-implementation-reproducible suites.

SplitMix64 drives everything: the state advances by a fixed odd
constant per draw, so the k-th output is a pure function of
(seed, k) and bulk generation can be vectorized without changing the
stream. Uniforms take the top 53 bits; normals are Box-Muller cosine
variates, one fresh (u1, u2) pair per draw with the sine partner
discarded.

Bulk draws run in cache-sized chunks of ``_CHUNK`` values through
reused work buffers, so their peak memory is the output plus O(chunk).
``ql1.problem.spread`` cuts a normals draw into ranges of ``_SPLIT // 2``
values or more, so draws of ``_SPLIT`` or more (a 1000-by-2000 design
matrix is 2,000,000) are split, in chunks of ``_WIDE_CHUNK``, since at
``_CHUNK`` the threads spend their time waiting for the interpreter lock.
Each range draws its own stream positions, so the bits and the final
state do not depend on the CPU count. A range needs two 192 KiB work
buffers and the draw one shared: 960 KiB beyond the output at 2^20 values.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ql1 import problem

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_CHUNK = 8192  # values per bulk step; its 64 KiB work buffers stay in L2
_SPLIT = 1 << 20  # normals draws this large are split, in ranges of half as many
# values per bulk step of a split draw; 4 * _CHUNK drew 10% faster on two
# CPUs but added 1.4 MB to large-lasso's peak RSS, its draws' work buffers
# being live at the peak
_WIDE_CHUNK = 3 * _CHUNK


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
        the output plus O(chunk). A draw of ``_SPLIT`` normals or more is
        filled in chunks of ``_WIDE_CHUNK`` over the ranges that ``spread``
        gives it, each with two work buffers of a chunk; the bits and the
        final state are those of the one-thread draw on any CPU count.
        Normal i takes u1 from stream position 2i+1 and u2 from 2i+2. The
        fast path assumes no u1 draw is exactly zero (probability 2^-53 per
        draw); if one is, in any range, it falls back to the scalar loop
        from the starting state so redraw semantics stay exact.
        """
        out = np.empty(count)
        chunk = _WIDE_CHUNK if count >= _SPLIT else _CHUNK
        odd = np.arange(1, 2 * min(count, chunk), 2, dtype=np.uint64) * np.uint64(_GAMMA)
        fill = functools.partial(self._fill_normals, out, odd)
        filled = problem.spread(fill, count, _SPLIT // 2)
        if not all(filled):  # a zero u1 is redrawn, which shifts the stream
            return np.array([self.normal() for _ in range(count)])
        self.state = (self.state + 2 * count * _GAMMA) & _MASK
        return out

    def _fill_normals(self, out: np.ndarray, odd: np.ndarray, lo: int, hi: int) -> bool:
        """Normals lo to hi - 1 into out[lo:hi], in chunks of len(odd).

        ``odd`` holds (2j + 1) * GAMMA for each j in a chunk. Returns False,
        leaving the range unfinished, at the first u1 that is exactly 0.
        """
        chunk = max(1, len(odd))  # odd is empty for an empty draw
        z = np.empty(min(chunk, hi - lo), dtype=np.uint64)
        tmp = np.empty_like(z)
        for start in range(lo, hi, chunk):
            c = min(chunk, hi - start)
            # u1 is finalised with r's own memory as scratch, u2 into tmp's
            r, theta = out[start : start + c], tmp[:c].view(np.float64)
            np.add(odd[:c], self._base(2 * start), out=z[:c])
            _unit_from(z[:c], r.view(np.uint64), r)
            if not r.all():
                return False
            np.add(odd[:c], self._base(2 * start + 1), out=z[:c])
            _unit_from(z[:c], tmp[:c], theta)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta *= 2.0 * math.pi
            np.cos(theta, out=theta)
            r *= theta
        return True
