import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from ql1 import problem as problem_mod
from ql1.rng import _CHUNK, _GAMMA, _MASK, _SPLIT, Rng

# First four outputs of the published SplitMix64 algorithm, computed
# with an independent transcription and cross-checked against the
# public seed-0 test vector 0xE220A8397B1DCDAF.
REFERENCE = {
    0: [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ],
    1: [
        0x910A2DEC89025CC1,
        0xBEEB8DA1658EEC67,
        0xF893A2EEFB32555E,
        0x71C18690EE42C90B,
    ],
    0xDEADBEEF: [
        0x4ADFB90F68C9EB9B,
        0xDE586A3141A10922,
        0x021FBC2F8E1CFC1D,
        0x7466CE737BE16790,
    ],
}


def _reference_stream(seed, count):
    # Independent transcription of the published algorithm.
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_matches_published_vectors():
    for seed, expected in REFERENCE.items():
        rng = Rng(seed)
        assert [rng.next_u64() for _ in range(4)] == expected


def test_matches_reference_transcription_long():
    for seed in (0, 1, 0xDEADBEEF, 123456789):
        rng = Rng(seed)
        assert [rng.next_u64() for _ in range(200)] == _reference_stream(seed, 200)


def test_uniform_formula_and_range():
    rng = Rng(0)
    ref = _reference_stream(0, 100)
    for z in ref:
        u = rng.uniform()
        assert u == (z >> 11) * 2.0**-53
        assert 0.0 <= u < 1.0


def test_normal_consumes_pairs_in_order():
    # each normal draws (u1, u2); with no zero u1 the stream position
    # after k normals is 2k
    rng_a = Rng(9)
    vals = [rng_a.normal() for _ in range(10)]
    rng_b = Rng(9)
    stream = [rng_b.uniform() for _ in range(20)]
    for i, v in enumerate(vals):
        u1, u2 = stream[2 * i], stream[2 * i + 1]
        expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        assert v == expected


def test_vectorized_uniforms_match_scalar():
    rng_a = Rng(77)
    rng_b = Rng(77)
    batch = rng_a.uniforms(500)
    scalar = np.array([rng_b.uniform() for _ in range(500)])
    assert np.array_equal(batch, scalar)
    assert rng_a.state == rng_b.state


def _assert_normals_match_scalar(seed, count):
    """Rng.normals against the scalar normal() loop.

    numpy's vector log/cos and libm's may differ in the last bit (13 of
    the first 8,191 normals at seed 2024 do), so the bit check applies
    the whole-array formula to the scalar stream's (u1, u2) pairs, and
    the loop gets a relative 1e-14 and an exact final state.
    """
    rng_a = Rng(seed)
    rng_b = Rng(seed)
    batch = rng_a.normals(count)
    loop = np.array([rng_b.normal() for _ in range(count)])
    assert batch.shape == (count,)
    assert rng_a.state == rng_b.state
    stream = Rng(seed)
    u = np.array([stream.uniform() for _ in range(2 * count)])
    u1, u2 = u[0::2], u[1::2]
    whole = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    assert batch.tobytes() == whole.tobytes()
    assert np.allclose(batch, loop, rtol=1e-14, atol=1e-15)


def test_vectorized_normals_match_scalar():
    _assert_normals_match_scalar(31337, 301)


def test_determinism_and_independence():
    assert [Rng(5).next_u64() for _ in range(8)] == [Rng(5).next_u64() for _ in range(8)]
    assert Rng(5).next_u64() != Rng(6).next_u64()


def test_normal_moments_sane():
    vals = Rng(2).normals(200_000)
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 1.0) < 0.01


CHUNK_COUNTS = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)


@pytest.mark.parametrize("count", CHUNK_COUNTS)
def test_chunked_draws_match_scalar_across_chunk_boundaries(count):
    rng_a = Rng(2024)
    rng_b = Rng(2024)
    batch = rng_a.uniforms(count)
    loop = np.array([rng_b.uniform() for _ in range(count)])
    assert batch.tobytes() == loop.tobytes()
    assert rng_a.state == rng_b.state

    _assert_normals_match_scalar(2024, count)


class _CountingPool:
    """Passes tasks to the real block pool and counts them."""

    def __init__(self, pool):
        self.pool = pool
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        return self.pool.submit(fn, *args)


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("count", [62_500, 262_144, _SPLIT - 1, _SPLIT, _SPLIT + 1, 2_000_000])
def test_split_normals_have_the_serial_bits(count, cpus, monkeypatch):
    # Vectorized uniforms are bit-tested against the scalar stream above, so
    # their pairs stand in for it here. A draw gets one range per CPU, of
    # _SPLIT // 2 values or more, and the pool every range after the first.
    # 62,500 and 262,144 values are the desk suite's smallest and largest
    # matrix draws, and 2,000,000 large-lasso's.
    spy = _CountingPool(problem_mod._block_pool())
    monkeypatch.setattr(problem_mod, "_cpus", lambda: cpus)
    monkeypatch.setattr(problem_mod, "_block_pool", lambda: spy)
    seed = 2024
    rng = Rng(seed)
    batch = rng.normals(count)
    u = Rng(seed).uniforms(2 * count)
    whole = np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
    assert batch.tobytes() == whole.tobytes()
    assert rng.state == (seed + 2 * count * _GAMMA) & _MASK
    ranges = {62_500: 1, 262_144: 1, _SPLIT - 1: 1, _SPLIT: 2, _SPLIT + 1: 2, 2_000_000: 3}[count]
    assert spy.submits == min(cpus, ranges) - 1


@pytest.mark.parametrize("i, count, cpus", [
    pytest.param(_CHUNK + 5, 2 * _CHUNK + 3, None, id="later-chunk"),
    pytest.param(_SPLIT // 2 + 5, _SPLIT, 2, id="pool-range"),  # not the caller's range
])
def test_zero_u1_in_a_later_chunk_falls_back_to_scalar(i, count, cpus, monkeypatch):
    # this seed puts stream position 2i+1 at state 0, whose output is 0,
    # so normal i has u1 exactly 0.0 and is redrawn
    if cpus is not None:
        monkeypatch.setattr(problem_mod, "_cpus", lambda: cpus)
    seed = (-(2 * i + 1) * _GAMMA) & _MASK
    probe = Rng(seed)
    probe.state = (seed + 2 * i * _GAMMA) & _MASK
    assert probe.uniform() == 0.0
    rng = Rng(seed)
    batch = rng.normals(count)
    assert rng.state == (seed + (2 * count + 1) * _GAMMA) & _MASK  # one extra draw
    # The scalar loop, with its libm log and cos, on the stream without the
    # zero: a second loop of normal() would double this test's time.
    u = Rng(seed).uniforms(2 * count + 1).tolist()
    del u[2 * i]
    loop = np.array([math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                     for u1, u2 in zip(u[0::2], u[1::2])])
    assert batch.tobytes() == loop.tobytes()


def test_normals_peak_memory_is_about_the_output():
    count = 10**6
    tracemalloc.start()
    try:
        Rng(0).normals(count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * count


def test_split_normals_peak_memory_is_about_the_output(monkeypatch):
    # On 16 CPUs, with a pool made for them, a draw still gets one range per
    # _SPLIT // 2 values, each with two work buffers of _WIDE_CHUNK values.
    monkeypatch.setattr(problem_mod, "_cpus", lambda: 16)
    monkeypatch.setattr(problem_mod, "_pool", None)  # the process's pool comes back after
    try:
        for count in (_SPLIT, 2_000_000):
            tracemalloc.start()
            try:
                Rng(0).normals(count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 8 * count, count
    finally:
        if problem_mod._pool is not None:
            problem_mod._pool.shutdown()


@pytest.mark.parametrize(
    "seed, digest, state",
    [
        (0, "69ae64e2f4bace4d83a281dca973ab4902e62efe96b8a5b2ee5721784c0919a9", 0xE4BAF05B6AFC4C69),
        (12345, "03b401959c252516a06dc6faeaef1ec74647c9ed1954426aa39e5675c290a772", 0xE4BAF05B6AFC7CA2),
    ],
)
def test_uniforms_golden_digest(seed, digest, state):
    # integer-only path, so the bits are the same on every platform;
    # 24581 draws span three chunks and a partial fourth
    rng = Rng(seed)
    assert hashlib.sha256(rng.uniforms(24581).tobytes()).hexdigest() == digest
    assert rng.state == state
