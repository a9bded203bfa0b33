import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcurv.symfunc import cone_margin, in_gamma_cone, sigma, sigma_all, sigma_partial


def brute_sigma(lam, k):
    """Independent oracle: direct subset enumeration."""
    return sum(math.prod(c) for c in itertools.combinations(lam, k))


def test_sigma_examples():
    assert sigma([1.0, 1.0, 1.0], 2) == pytest.approx(3.0, abs=0)
    # brute force over pairs: 6 + 8 + 12 = 26
    assert sigma([2.0, 3.0, 4.0], 2) == pytest.approx(26.0, abs=1e-12)
    assert sigma([1.0, 2.0, 3.0], 3) == pytest.approx(6.0, abs=1e-12)


def test_sigma_partial_examples():
    np.testing.assert_allclose(sigma_partial([2.0, 3.0, 4.0], 2), [7.0, 6.0, 5.0], atol=1e-12)
    np.testing.assert_allclose(sigma_partial([1.0, 1.0, 1.0], 2), [2.0, 2.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(sigma_partial([5.0], 1), [1.0], atol=0)


def test_gamma_cone_examples():
    assert in_gamma_cone([1.0, 1.0, 1.0], 1)
    assert in_gamma_cone([1.0, 1.0, 1.0], 2)
    assert in_gamma_cone([1.0, 1.0, 1.0], 3)
    # sigma_2 = 0 is the boundary, counts as outside
    assert not in_gamma_cone([1.0, 1.0, -0.5], 2)
    assert not in_gamma_cone([3.0, -1.0], 2)
    assert in_gamma_cone([3.0, -1.0], 1)


def test_degree_bounds():
    with pytest.raises(ValueError):
        sigma([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        sigma([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        sigma_partial([1.0, 2.0], 5)


def test_sigma_matches_brute_force_randoms():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        lam = rng.uniform(-2.0, 2.0, size=n)
        expected = brute_sigma(lam.tolist(), k)
        assert sigma(lam, k) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_sum_rule_and_euler_relation_randoms():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        lam = rng.uniform(-2.0, 2.0, size=n)
        grad = sigma_partial(lam, k)
        lower = brute_sigma(lam.tolist(), k - 1) if k > 1 else float(n) / (n - k + 1)
        if k > 1:
            assert grad.sum() == pytest.approx((n - k + 1) * lower, rel=1e-12, abs=1e-12)
        else:
            assert grad.sum() == pytest.approx(n, abs=0)
        assert (lam * grad).sum() == pytest.approx(k * sigma(lam, k), rel=1e-12, abs=1e-12)


def test_sigma_partial_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        lam = rng.uniform(-2.0, 2.0, size=n)
        grad = sigma_partial(lam, k)
        h = 1e-6
        for i in range(n):
            lp, lm = lam.copy(), lam.copy()
            lp[i] += h
            lm[i] -= h
            fd = (sigma(lp, k) - sigma(lm, k)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_gamma_cone_nesting():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, n + 1))
        lam = rng.uniform(-1.0, 2.0, size=n)
        if in_gamma_cone(lam, k):
            for j in range(1, k):
                assert in_gamma_cone(lam, j)


def test_cone_margin_sign_convention():
    assert cone_margin([2.0, 3.0], 2) == pytest.approx(5.0, abs=0)  # min(5, 6)
    assert cone_margin([1.0, -0.5], 2) == pytest.approx(-0.5, abs=0)


def test_vectorized_sigma_matches_scalar_loop():
    rng = np.random.default_rng(11)
    lam = rng.uniform(-1.0, 1.0, size=(5, 7, 3))
    vec = sigma(lam, 2)
    for idx in np.ndindex(5, 7):
        assert vec[idx] == pytest.approx(brute_sigma(lam[idx].tolist(), 2), rel=1e-12, abs=1e-13)
    alls = sigma_all(lam, 3)
    assert alls.shape == (5, 7, 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=8),
       st.data())
def test_hypothesis_algebraic_identities(lam, data):
    n = len(lam)
    k = data.draw(st.integers(min_value=1, max_value=n))
    lam = np.asarray(lam)
    grad = sigma_partial(lam, k)
    scale = 1.0 + np.abs(grad).sum()
    lower = brute_sigma(lam.tolist(), k - 1) if k > 1 else 1.0
    assert abs(grad.sum() - (n - k + 1) * lower) < 1e-11 * scale
    assert abs((lam * grad).sum() - k * sigma(lam, k)) < 1e-11 * scale
