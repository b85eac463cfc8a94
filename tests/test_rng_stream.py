"""The random stream of the variation samplers, pinned draw for draw.

Every artifact digest rests on these draws, so each case fixes the
first eight results of one sampler on one seed and then the next 64
Twister bits: a change that returns the same values but consumes a
different number of words moves that tail. Values wider than 64 bits
are pinned by a sha256 prefix of their decimal form.

The prepared mask samplers are checked against the two calls they
stand for, and the binomial table search against the CDF walk it
replaced, which stays here as the reference wherever the mass at 0 is
nonzero. Where it underflows the walk returned n on every draw; there
the draws are checked against the law's mean instead.
"""

import hashlib
import math
import random
import sys
from bisect import bisect_left

import pytest

from blockbench.rng import (RandomSource, _binomial_table, _BinomialTable,
                           _power_law_cdf)


def _pin(v: int):
    if v.bit_length() <= 64:
        return v
    return "sha256:" + hashlib.sha256(str(v).encode()).hexdigest()[:16]


# (sampler, args, seed, first eight draws, getrandbits(64) after them)
PINS = [
    ("binomial", (40, 1 / 40), 101, [1, 0, 3, 3, 1, 1, 0, 0], 0x7c47571849dc9b34),
    ("binomial", (12, 0.3), 102, [2, 4, 2, 4, 4, 3, 4, 4], 0xb96ba8860b109d1b),
    # n = 0 still consumes one random() per call
    ("binomial", (0, 0.3), 103, [0] * 8, 0x760f170861d99ac1),
    # p = 1.0 and p = 0.0 consume nothing
    ("binomial", (5, 1.0), 104, [5] * 8, 0x5002635f5bffffb),
    ("binomial", (5, 0.0), 105, [0] * 8, 0x97611f4ee0cb1e6b),
    ("binomial", (1, 0.5), 106, [1, 1, 0, 1, 1, 0, 1, 1], 0xcf49795d300da1d1),
    ("binomial", (4000, 1 / 4000), 107, [0, 1, 3, 1, 1, 0, 0, 5], 0x1fb9b808c11bc1bf),
    # 0.5 ** 4000 underflows to 0.0: the table starts at the first
    # normal mass, and the draws sit near the mean, 2000
    ("binomial", (4000, 0.5), 108, [1964, 2028, 2037, 1991, 1981, 1973, 1956, 1975], 0xb6100e5a33b6f994),
    ("binomial_positive", (40, 1 / 40), 201, [1, 1, 1, 1, 2, 2, 1, 2], 0x7b71191573762fca),
    ("binomial_positive", (10, 0.1), 202, [2, 2, 1, 1, 2, 3, 1, 2], 0xe62db17f093c6d79),
    ("binomial_positive", (40, 0.5), 203, [16, 23, 21, 17, 22, 21, 23, 21], 0x5ae2c94b927cc6b),
    # n = 1 consumes one random() per call; p = 1.0 consumes nothing
    ("binomial_positive", (1, 0.5), 204, [1] * 8, 0x69be4ba7f7a178ec),
    ("binomial_positive", (5, 1.0), 205, [5] * 8, 0x7b5568426f35f0bb),
    ("binomial_positive", (4000, 1 / 4000), 206, [1, 1, 2, 2, 3, 4, 1, 1], 0x2209323886ed4999),
    ("binomial_positive", (4000, 0.5), 207, [2000, 2014, 2033, 1976, 1969, 2014, 1988, 2016], 0x15c97960d9420435),
    ("positions_mask", (40, 0), 301, [0] * 8, 0xa04459fe661380f3),
    ("positions_mask", (40, 40), 302, [(1 << 40) - 1] * 8, 0x8eb7ae2ff7179bf4),
    ("positions_mask", (40, 1), 303,
     [4, 32768, 4096, 32, 68719476736, 549755813888, 65536, 68719476736],
     0xfc83ab74842a0944),
    ("positions_mask", (40, 3), 304,
     [134226176, 4563402760, 573440, 137438969864, 327688, 17301536, 16779520,
      69264736256],
     0x9a40304df4533acd),
    # 2k > n: the complement of an (n - k)-mask
    ("positions_mask", (40, 30), 305,
     [471338312703, 547071211510, 1010923568379, 916974197231, 1008243473711,
      790206732383, 1090110553022, 703300760827],
     0xaba30a60d958404c),
    ("positions_mask", (1, 0), 306, [0] * 8, 0xeaabef5c6e09ff05),
    ("positions_mask", (1, 1), 307, [1] * 8, 0x82be5d12a34268c7),
    ("positions_mask", (2, 1), 308, [1, 1, 2, 1, 1, 1, 2, 2], 0x2d172c7f448dc61a),
    ("positions_mask", (64, 33), 309,
     [13588544367843739236, 16628193608858481484, 12233286090593040273,
      11308512920264283160, 13173975149003488326, 1076669984223858438,
      15036800269511183154, 11373176137935644206],
     0x44485f7662016481),
    ("positions_mask", (4000, 3), 310,
     ["sha256:76e3e7b173796881", "sha256:2dfe00e42a5d9d60",
      "sha256:523777161019a55c", "sha256:d1c820b8805f4939",
      "sha256:3a3e037b873a84de", "sha256:ee68f8ed72933b3d",
      "sha256:96afd9670ad1d804", "sha256:9019f77d7d19bf33"],
     0x97a3d0e3294210af),
    ("positions_mask", (4000, 2500), 311,
     ["sha256:192cc356758062b1", "sha256:2c043907705d9b97",
      "sha256:b2b42628a34ad8b3", "sha256:01b41b768aeec6e7",
      "sha256:8ee28a9a8071bca1", "sha256:a1e39044e40494e4",
      "sha256:24f03c53ff6a4b12", "sha256:e6552d894680520d"],
     0xec4c906ac0b92770),
    ("power_law", (20, 1.5), 401, [2, 1, 6, 5, 5, 1, 14, 1], 0xeec9ec12ca916318),
    # n_max = 1 consumes nothing
    ("power_law", (1, 1.5), 402, [1] * 8, 0x7d5a4845d2687d0a),
    ("power_law", (2, 1.5), 403, [1, 1, 2, 2, 2, 1, 1, 2], 0x8daa7284e0f0ced2),
    ("power_law", (10, 3.0), 404, [1] * 8, 0xa7f46219e1eae307),
    ("power_law", (2000, 1.5), 405, [1, 242, 7, 18, 19, 4, 5, 1], 0xf4408d1f67dbac9c),
]


@pytest.mark.parametrize("name,args,seed,draws,tail", PINS,
                         ids=[f"{p[0]}{p[1]}" for p in PINS])
def test_sampler_stream_is_pinned(name, args, seed, draws, tail):
    src = RandomSource(seed)
    fn = getattr(src, name)
    assert [_pin(fn(*args)) for _ in range(8)] == draws
    assert src.getrandbits(64) == tail


# (law, mask n, law params): the table path, each early exit and the
# laws drawn by the two calls themselves
PREPARED = [
    ("binomial_positive", 40, (40, 1 / 40)),
    ("binomial_positive", 40, (40, 0.3)),
    ("binomial_positive", 2, (2, 0.5)),
    ("binomial_positive", 1, (1, 0.5)),
    ("binomial_positive", 40, (40, 1.0)),
    ("binomial_positive", 4000, (4000, 1 / 4000)),
    ("binomial_positive", 4000, (4000, 0.5)),
    ("binomial", 40, (40, 1 / 40)),
    ("binomial", 12, (12, 0.3)),
    ("binomial", 2, (2, 0.5)),
    ("binomial", 1, (1, 0.5)),
    ("binomial", 40, (40, 0.0)),
    ("binomial", 40, (40, 1.0)),
    ("binomial", 40, (0, 0.3)),
    ("binomial", 4000, (4000, 1 / 4000)),
    ("binomial", 4000, (4000, 0.5)),
    ("power_law", 40, (20, 1.5)),
    ("power_law", 40, (1, 1.5)),
    ("power_law", 2, (1, 1.5)),
    ("power_law", 2, (2, 1.5)),
    ("power_law", 40, (10, 3.0)),
    ("power_law", 4000, (2000, 1.5)),
]


@pytest.mark.parametrize("law,n,params", PREPARED,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in PREPARED])
def test_prepared_draw_equals_the_two_calls(law, n, params):
    a, b = RandomSource(2718), RandomSource(2718)
    draw = a.mask_sampler(n, law, *params)
    count = getattr(b, law)
    for _ in range(300):
        assert draw() == b.positions_mask(n, count(*params))
        assert a.getrandbits(5) == b.getrandbits(5)  # same position
    assert a.getrandbits(64) == b.getrandbits(64)


def test_prepared_draw_rejects_what_the_two_calls_reject():
    src = RandomSource(3)
    with pytest.raises(ValueError, match="unknown mask law"):
        src.mask_sampler(40, "gaussian", 40, 0.5)
    for law, n, params in [("binomial_positive", 40, (40, 0.0)),
                           ("binomial_positive", 40, (0, 0.5)),
                           ("power_law", 40, (0, 1.5))]:
        draw = src.mask_sampler(n, law, *params)
        with pytest.raises(ValueError):
            draw()
    # a count above the mask length fails in positions_mask, as it would
    draw = src.mask_sampler(3, "binomial_positive", 10, 0.9)
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        draw()


# -- the table search against the inversion walk it replaced ---------------


def walk_binomial(n, p, u):
    """The first k with u <= P(X <= k), walking the CDF from 0; n if none
    below n. This is the walk RandomSource.binomial used before its
    table, kept as the reference."""
    q = 1.0 - p
    ratio = p / q
    pmf = q ** n
    cdf = pmf
    k = 0
    while u > cdf and k < n:
        k += 1
        pmf *= ratio * (n - k + 1) / k
        cdf += pmf
    return k


def walk_binomial_positive(n, p, u):
    """The same walk from k = 1, as binomial_positive used it."""
    q = 1.0 - p
    ratio = p / q
    pmf = q ** n
    cdf = pmf
    k = 0
    while k < n - 1:
        k += 1
        pmf *= ratio * (n - k + 1) / k
        cdf += pmf
        if u <= cdf:
            return k
    return n


def _rates(r: random.Random):
    yield 1 / r.randint(1, 300)
    yield r.random()
    yield r.choice([1e-9, 0.5, 0.9, 1 - 1e-9])


def test_table_search_equals_the_walk():
    r = random.Random(8)
    for _ in range(150):
        n = r.choice([1, 2, 3, r.randint(4, 60), r.randint(61, 700)])
        for p in _rates(r):
            if not 0.0 < p < 1.0 or (1.0 - p) ** n == 0.0:
                continue  # underflow: see test_underflowing_table_*
            full = _BinomialTable(n, p)
            full.grow(2.0)
            c = full.c
            assert len(c) == n
            us = [r.random() for _ in range(20)] + [0.0, 1.0]
            for k in range(0, n, max(1, n // 50)):
                # u on and beside each entry: the search is u <= c[k],
                # and equal entries resolve to the first k
                us += [c[k], math.nextafter(c[k], 0.0),
                       math.nextafter(c[k], 2.0)]
            shared = _BinomialTable(n, p)  # grown by the draws in turn
            for u in us:
                want = walk_binomial(n, p, u)
                assert shared.count(u, 0) == want, (n, p, u)
                assert _BinomialTable(n, p).count(u, 0) == want, (n, p, u)
                assert bisect_left(c, u) == want, (n, p, u)
                want = walk_binomial_positive(n, p, u)
                assert shared.count(u, 1) == want, (n, p, u)
                assert _BinomialTable(n, p).count(u, 1) == want, (n, p, u)


# z bound fixed before looking at the draws: |z| > 4 has probability
# about 6e-5 under the law
Z_BOUND = 4.0


@pytest.mark.parametrize("law", ["binomial", "binomial_positive"])
@pytest.mark.parametrize("n,p", [(4000, 0.5), (1100, 0.5), (2000, 0.45)])
def test_underflowing_table_draws_have_the_law_mean(law, n, p):
    assert (1.0 - p) ** n == 0.0
    src = RandomSource(19)
    draws = 2000
    total = sum(getattr(src, law)(n, p) for _ in range(draws))
    # the mass at 0 is below 1e-300, so conditioning on X > 0 moves
    # neither the mean nor the variance
    z = (total / draws - n * p) / math.sqrt(n * p * (1 - p) / draws)
    assert abs(z) < Z_BOUND, z
    draw = src.mask_sampler(n, law, n, p)
    total = sum(draw().bit_count() for _ in range(draws))
    z = (total / draws - n * p) / math.sqrt(n * p * (1 - p) / draws)
    assert abs(z) < Z_BOUND, z


def test_underflowing_table_starts_at_the_first_normal_mass():
    for n, p in [(4000, 0.5), (100, 1 - 1e-9), (5000, 0.9)]:
        t = _BinomialTable(n, p)
        t.grow(2.0)
        k0 = next(k for k, x in enumerate(t.c) if x)
        assert 0 < k0 < n and len(t.c) == n
        assert sys.float_info.min <= t.c[k0]
        log_mass = (math.lgamma(n + 1) - math.lgamma(k0) - math.lgamma(n - k0 + 2)
                    + (k0 - 1) * math.log(p) + (n - k0 + 1) * math.log1p(-p))
        assert log_mass < math.log(sys.float_info.min)  # k0 - 1 is below it
        # P(X <= n - 1) is 1 - p ** n
        assert t.c[-1] == pytest.approx(1 - p ** n, rel=1e-9, abs=1e-12)


def test_table_grows_only_as_far_as_a_draw_needs():
    n, p = 10 ** 6, 1e-6
    _binomial_table.cache_clear()
    src = RandomSource(4)
    k = src.binomial_positive(n, p)
    assert len(_binomial_table(n, p).c) <= 8 and k < 8
    src.mask_sampler(n, "binomial", n, p)()
    assert len(_binomial_table(n, p).c) <= 8


def _near(r: float) -> list[float]:
    """r and its three neighbouring floats on each side, inside [0, 1)."""
    out, lo, hi = [r], r, r
    for _ in range(3):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
        out += [lo, hi]
    return [x for x in out if 0.0 <= x < 1.0]


@pytest.mark.parametrize("law,params", [("binomial", (40, 1 / 40)),
                                        ("binomial_positive", (40, 1 / 40)),
                                        ("binomial_positive", (12, 0.3)),
                                        ("power_law", (20, 1.5))])
def test_prepared_draw_on_table_boundaries(law, params):
    # random() is stubbed on both twins with values that put u on and
    # beside the table entries, where u <= c[k] decides the count
    if law == "power_law":
        c = _power_law_cdf(*params)
        a, b = 0.0, c[-1]
    else:
        c = _BinomialTable(*params)
        c.grow(2.0)
        c = c.c
        a, b = (0.0, 1.0) if law == "binomial" else (c[0], 1.0 - c[0])
    rs = [r for k in range(min(len(c), 12)) for r in _near((c[k] - a) / b)]
    us = {a + b * r for r in rs}
    assert sum(c[k] in us for k in range(1, min(len(c), 12))) >= 5
    n = params[0] if law != "power_law" else 40
    twins = RandomSource(5), RandomSource(5)
    for src in twins:
        src.random = iter(rs).__next__
    draw = twins[0].mask_sampler(n, law, *params)
    count = getattr(twins[1], law)
    for _ in rs:
        assert draw() == twins[1].positions_mask(n, count(*params))
