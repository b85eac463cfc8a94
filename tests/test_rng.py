"""Distributional and determinism checks for the random toolkit.

The samplers are validated against closed-form pmfs (chi-square
goodness of fit, scipy) and against naive rejection oracles implemented
inline, so a regression in the inverse-CDF tables cannot hide.
"""

import math
import random

import pytest
from scipy import stats

from blockbench.rng import RandomSource


def binom_pmf(n, p, k):
    return math.comb(n, k) * p ** k * (1 - p) ** (n - k)


def test_determinism_same_seed():
    a = RandomSource(12345)
    b = RandomSource(12345)
    assert [a.getrandbits(16) for _ in range(50)] == [b.getrandbits(16) for _ in range(50)]
    assert a.random() == b.random()


def test_derive_is_pure_and_decorrelated():
    root = RandomSource(99)
    s1 = root.derive(0)
    s2 = root.derive(0)
    assert [s1.getrandbits(32) for _ in range(20)] == [s2.getrandbits(32) for _ in range(20)]
    s3 = root.derive(1)
    assert [root.derive(0).getrandbits(32) for _ in range(20)] != \
        [s3.getrandbits(32) for _ in range(20)]
    # deriving must not consume from the parent stream
    fresh = RandomSource(99)
    fresh.derive(7)
    assert fresh.getrandbits(32) == RandomSource(99).getrandbits(32)


def test_index_below_bounds_and_uniformity():
    rng = RandomSource(5)
    assert rng.index_below(1) == 0
    counts = [0] * 7
    for _ in range(70_000):
        counts[rng.index_below(7)] += 1
    res = stats.chisquare(counts)
    assert res.pvalue > 0.001


def test_positions_mask_popcount():
    rng = RandomSource(11)
    for n, k in [(10, 0), (10, 1), (10, 5), (10, 9), (10, 10), (64, 33), (40, 20)]:
        for _ in range(50):
            mask = rng.positions_mask(n, k)
            assert mask.bit_count() == k
            assert mask < (1 << n)


def test_positions_mask_uniform_over_singletons():
    rng = RandomSource(13)
    counts = [0] * 8
    for _ in range(80_000):
        counts[rng.positions_mask(8, 1).bit_length() - 1] += 1
    assert stats.chisquare(counts).pvalue > 0.001


@pytest.mark.parametrize("n,p", [(10, 0.1), (40, 0.025), (40, 0.5)])
def test_binomial_positive_matches_conditional_pmf(n, p):
    rng = RandomSource(hash((n, p)) & 0xFFFF)
    draws = 200_000
    counts = {}
    for _ in range(draws):
        k = rng.binomial_positive(n, p)
        assert 1 <= k <= n
        counts[k] = counts.get(k, 0) + 1
    p0 = binom_pmf(n, p, 0)
    support = [k for k in range(1, n + 1)
               if draws * binom_pmf(n, p, k) / (1 - p0) >= 5]
    tail = [k for k in range(1, n + 1) if k not in support]
    observed = [counts.get(k, 0) for k in support]
    expected = [draws * binom_pmf(n, p, k) / (1 - p0) for k in support]
    observed.append(sum(counts.get(k, 0) for k in tail))
    expected.append(sum(draws * binom_pmf(n, p, k) / (1 - p0) for k in tail))
    res = stats.chisquare(observed, f_exp=expected)
    assert res.pvalue > 0.001


def test_binomial_positive_point_probability():
    # P(X=1 | X>0) for Bin(10, 0.1) is about 0.5948
    n, p = 10, 0.1
    want = binom_pmf(n, p, 1) / (1 - binom_pmf(n, p, 0))
    rng = RandomSource(21)
    draws = 300_000
    got = sum(rng.binomial_positive(n, p) == 1 for _ in range(draws)) / draws
    assert abs(got - want) < 0.01


def test_binomial_unconditioned():
    rng = RandomSource(31)
    draws = 200_000
    n, p = 12, 0.3
    counts = [0] * (n + 1)
    for _ in range(draws):
        counts[rng.binomial(n, p)] += 1
    support = [k for k in range(n + 1) if draws * binom_pmf(n, p, k) >= 5]
    obs = [counts[k] for k in support]
    exp = [draws * binom_pmf(n, p, k) for k in support]
    obs.append(draws - sum(obs))
    exp.append(draws - sum(exp))
    assert stats.chisquare(obs, f_exp=exp).pvalue > 0.001


@pytest.mark.parametrize("n_max", [10, 20])
def test_power_law_frequencies(n_max):
    beta = 1.5
    z = sum(k ** -beta for k in range(1, n_max + 1))
    rng = RandomSource(n_max)
    draws = 400_000
    counts = [0] * (n_max + 1)
    for _ in range(draws):
        k = rng.power_law(n_max, beta)
        assert 1 <= k <= n_max
        counts[k] += 1
    for k in range(1, n_max + 1):
        want = k ** -beta / z
        assert abs(counts[k] / draws - want) < 0.01


def test_power_law_two_point():
    # n_max=2: P(1) = 1 / (1 + 2^-1.5)
    want = 1.0 / (1.0 + 2 ** -1.5)
    rng = RandomSource(77)
    draws = 200_000
    got = sum(rng.power_law(2, 1.5) == 1 for _ in range(draws)) / draws
    assert abs(got - want) < 0.01


def _oracle_positive_normal(py_rng, mean, var, cap, draws):
    """Rejection sampler: round a gaussian half away from zero, retry
    until >= 1, clamp to cap."""
    sd = math.sqrt(var)
    out = {}
    for _ in range(draws):
        while True:
            g = py_rng.gauss(mean, sd)
            k = math.floor(abs(g) + 0.5)
            if g < 0:
                k = -k
            if k >= 1:
                break
        k = min(k, cap)
        out[k] = out.get(k, 0) + 1
    return out


@pytest.mark.parametrize("mean,var,cap", [(3.0, 4.0, 12), (1.2, 0.8, 6)])
def test_positive_normal_int_total_variation(mean, var, cap):
    draws = 120_000
    rng = RandomSource(404)
    got = {}
    for _ in range(draws):
        k = rng.positive_normal_int(mean, var, cap)
        assert 1 <= k <= cap
        got[k] = got.get(k, 0) + 1
    want = _oracle_positive_normal(random.Random(505), mean, var, cap, draws)
    keys = set(got) | set(want)
    tv = 0.5 * sum(abs(got.get(k, 0) - want.get(k, 0)) / draws for k in keys)
    assert tv < 0.02


def test_positive_normal_int_degenerate_variance():
    rng = RandomSource(1)
    assert rng.positive_normal_int(5.0, 0.0, 10) == 5
    assert rng.positive_normal_int(0.2, 0.0, 10) == 1
    assert rng.positive_normal_int(99.0, 0.0, 10) == 10


def test_random_unit_interval():
    rng = RandomSource(2)
    xs = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02
