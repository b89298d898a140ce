import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ql1.subgrad import (
    gradient_balance,
    min_norm_subgrad,
    release_grad,
    soft_threshold,
    split_subgradient,
    support_grad,
    support_grad_map,
)


# Independent formulas for the split's parts, the oracle that the split
# and its checked helpers must equal bit for bit.
def ref_release_grad(x, g, tau):
    out = soft_threshold(g, tau)
    out[x != 0.0] = 0.0
    return out


def ref_support_grad_map(x, g, tau, alpha):
    target = soft_threshold(x - alpha * g, alpha * tau)
    out = (x - target) / alpha
    out[x == 0.0] = 0.0
    return out


def ref_support_grad(x, g, tau):
    out = g + tau * np.sign(x)
    out[x == 0.0] = 0.0
    return out


def ref_min_norm_subgrad(x, g, tau):
    return ref_release_grad(x, g, tau) + ref_support_grad(x, g, tau)


def ref_gradient_balance(release, support_map):
    return float(release @ release) <= float(support_map @ support_map)


def model_grid_argmin(x, g, tau, alpha, npts=100_001):
    """Brute-force 1-D oracle: minimize the separable step model on a grid.

    m(y) = g*(y - x) + (y - x)^2 / (2*alpha) + tau*|y|, constant dropped.
    """
    span = 10.0 * alpha * (abs(g) + tau)
    ys = np.linspace(x - span, x + span, npts)
    m = g * (ys - x) + (ys - x) ** 2 / (2.0 * alpha) + tau * np.abs(ys)
    return float(ys[np.argmin(m)]), 2.0 * span / (npts - 1)


def test_release_grad_cases():
    # nonzero coordinate -> 0, regardless of gradient
    assert release_grad(np.array([1.0]), np.array([9.0]), 2.0)[0] == 0.0
    # zero coordinate with |g| <= tau -> 0
    assert release_grad(np.array([0.0]), np.array([1.0]), 2.0)[0] == 0.0
    # zero coordinate with |g| > tau -> g - tau*sign(g)
    assert release_grad(np.array([0.0]), np.array([5.0]), 2.0)[0] == 3.0
    assert release_grad(np.array([0.0]), np.array([-5.0]), 2.0)[0] == -3.0


def test_release_grad_matches_grid_oracle():
    # the prox displacement of a zero coordinate is alpha-independent
    for alpha in (1.0, 0.3):
        y_star, res = model_grid_argmin(0.0, 5.0, 2.0, alpha)
        assert abs((0.0 - y_star) / alpha - 3.0) <= 2 * res / alpha


def test_support_grad_map_cases():
    assert support_grad_map(np.array([0.0]), np.array([7.0]), 1.0, 1.0)[0] == 0.0
    assert support_grad_map(np.array([1.0]), np.array([0.0]), 0.5, 1.0)[0] == pytest.approx(0.5)
    assert support_grad_map(np.array([2.0]), np.array([1.0]), 0.5, 1.0)[0] == pytest.approx(1.5)


def test_support_grad_map_matches_grid_oracle():
    for x, g, tau, alpha in [(1.0, 0.0, 0.5, 1.0), (2.0, 1.0, 0.5, 1.0), (-1.5, 2.0, 0.7, 0.4)]:
        y_star, res = model_grid_argmin(x, g, tau, alpha)
        got = support_grad_map(np.array([x]), np.array([g]), tau, alpha)[0]
        assert abs((x - y_star) / alpha - got) <= 2 * res / alpha


def test_support_grad_cases():
    assert support_grad(np.array([0.0]), np.array([4.0]), 0.5)[0] == 0.0
    assert support_grad(np.array([1.0]), np.array([2.0]), 0.5)[0] == 2.5
    assert support_grad(np.array([-1.0]), np.array([2.0]), 0.5)[0] == 1.5


def test_min_norm_subgrad_at_1d_solution():
    # closed form: for A=[a], b>tau>0 the minimizer is (b - tau)/a
    a, b, tau = 2.0, 4.0, 1.0
    x_star = (b - tau) / a
    g = a * x_star - b
    assert min_norm_subgrad(np.array([x_star]), np.array([g]), tau)[0] == 0.0


def test_min_norm_subgrad_cases():
    assert min_norm_subgrad(np.array([0.0]), np.array([5.0]), 2.0)[0] == 3.0
    # zero vector optimal when |g| <= tau everywhere
    v = min_norm_subgrad(np.zeros(4), np.array([0.5, -1.0, 0.2, 1.0]), 1.0)
    assert np.array_equal(v, np.zeros(4))


def test_gradient_balance_cases():
    assert gradient_balance(np.zeros(3), np.array([0.0, 0.1, 0.0]))
    assert gradient_balance(np.array([3.0, 0.0]), np.array([0.0, 3.0]))  # tie
    assert not gradient_balance(np.array([3.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))


def _random_tuples(count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = rng.integers(1, 12)
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.4] = 0.0
        g = rng.standard_normal(n) * 3.0
        tau = float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.05, 2.0))
        yield x, g, tau, alpha


def test_disjoint_supports_and_exact_sum():
    for x, g, tau, alpha in _random_tuples(2000, seed=1):
        parts = split_subgradient(x, g, tau, alpha)
        assert float(parts.release @ parts.support_map) == 0.0
        assert np.array_equal(parts.min_norm, parts.release + parts.support)
        assert np.all(parts.release[x != 0.0] == 0.0)
        assert np.all(parts.support_map[x == 0.0] == 0.0)
        assert np.all(parts.support[x == 0.0] == 0.0)


def test_support_map_never_exceeds_support_grad():
    # ||psi|| <= ||phi|| over 10,000 randomized tuples
    for x, g, tau, alpha in _random_tuples(10_000, seed=2):
        parts = split_subgradient(x, g, tau, alpha)
        assert np.linalg.norm(parts.support_map) <= np.linalg.norm(parts.support) + 1e-12


def test_prox_optimality_per_coordinate_grid():
    # x - alpha*(release + support_map) minimizes the separable model
    for idx, (x, g, tau, alpha) in enumerate(_random_tuples(150, seed=3)):
        parts = split_subgradient(x, g, tau, alpha)
        step = x - alpha * (parts.release + parts.support_map)
        for i in range(len(x)):
            y_star, res = model_grid_argmin(x[i], g[i], tau, alpha)
            assert abs(step[i] - y_star) <= res + 1e-12


def test_signed_zero_is_ignored():
    x = np.array([0.0, 1.0, 0.0])
    x_neg = np.array([-0.0, 1.0, -0.0])
    g = np.array([5.0, 2.0, -0.3])
    for tau, alpha in [(2.0, 1.0), (0.1, 0.5)]:
        a = split_subgradient(x, g, tau, alpha)
        b = split_subgradient(x_neg, g, tau, alpha)
        assert np.array_equal(a.release, b.release)
        assert np.array_equal(a.support_map, b.support_map)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.min_norm, b.min_norm)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        release_grad(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        support_grad(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        min_norm_subgrad(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        support_grad_map(np.zeros(3), np.zeros(4), 1.0, 1.0)
    with pytest.raises(ValueError):
        support_grad_map(np.zeros(3), np.zeros(3), 1.0, 0.0)
    with pytest.raises(ValueError):
        gradient_balance(np.zeros(3), np.zeros(4))


@st.composite
def _split_inputs(draw):
    n = draw(st.integers(1, 12))
    x = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))))
    tau = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    # ties |g_i| = tau sit on the release threshold
    g = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([tau, -tau]), st.floats(-10.0, 10.0))))
    alpha = draw(st.floats(1e-6, 1e3))
    return x, g, tau, alpha


@settings(max_examples=300, deadline=None)
@given(_split_inputs())
def test_split_equals_the_reference_helpers_bit_for_bit(inputs):
    x, g, tau, alpha = inputs
    parts = split_subgradient(x, g, tau, alpha)
    release = ref_release_grad(x, g, tau)
    support = ref_support_grad(x, g, tau)
    support_map = ref_support_grad_map(x, g, tau, alpha)
    v = ref_min_norm_subgrad(x, g, tau)
    for got, want in ((parts.release, release), (parts.support, support),
                      (parts.support_map, support_map), (parts.min_norm, v)):
        assert got.tobytes() == want.tobytes()
    assert parts.balanced == ref_gradient_balance(release, support_map)
    assert parts.vnorm == float(np.abs(v).max())
    # the checked helpers return the same bits, from lists as well as arrays
    xl, gl = list(x), list(g)
    for got, want in ((release_grad(xl, gl, tau), release), (support_grad(xl, gl, tau), support),
                      (support_grad_map(xl, gl, tau, alpha), support_map),
                      (min_norm_subgrad(xl, gl, tau), v)):
        assert got.tobytes() == want.tobytes()
    assert gradient_balance(list(release), list(support_map)) == parts.balanced


def test_helpers_return_arrays_the_caller_owns():
    x, g = np.array([0.0, 1.0, -2.0]), np.array([3.0, 0.5, -1.0])
    before = (x.copy(), g.copy())
    for out in (release_grad(x, g, 1.0), support_grad(x, g, 1.0),
                support_grad_map(x, g, 1.0, 0.5), min_norm_subgrad(x, g, 1.0)):
        assert out.flags.owndata and out.flags.writeable
        assert not np.shares_memory(out, x) and not np.shares_memory(out, g)
        out[:] = 7.0
    assert np.array_equal(x, before[0]) and np.array_equal(g, before[1])
