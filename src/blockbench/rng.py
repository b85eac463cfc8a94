"""Seeded randomness and the samplers of the variation operators.

A :class:`RandomSource` wraps one Mersenne Twister stream and adds the
integer samplers the solvers need: binomials (plain and conditioned on
a positive outcome) and bounded power laws by inversion of cumulative
tables, rounded truncated gaussians, and distinct-position masks. Child
sources derived with :meth:`RandomSource.derive` get seeds from an
avalanche mix of the parent seed and the child index, so schedulers can
hand run i the child with index i and replay any single run in
isolation.

A binomial table holds the cumulative masses that walking the CDF from
0 would add up, in the walk's operation order, and is grown only as far
as a draw needs; a search returns the walk's k from the same single
random(). Where the mass at 0, q ** n, underflows to 0.0 the walk would
add up nothing, so such a table starts at the first mass that is a
normal double instead, and the masses below it count as 0.0.
:meth:`RandomSource.mask_sampler` prepares the solvers' mutation draw,
a flip mask of binomial or power-law size, once per law: each of its
draws returns what positions_mask(n, <law>(...)) returns and consumes
the same Twister words in the same order, so a solver that switches to
it keeps its stream and every artifact byte.

Integer-only streams (bits, masks, inversion samplers) depend only on
the Twister and are reproducible across platforms; the gaussian sampler
goes through libm, so its stream is reproducible per platform.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left
from collections.abc import Callable
from functools import lru_cache

__all__ = ["RandomSource"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """Avalanche finalizer over 64 bits (splitmix-style)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=256)
def _power_law_cdf(n_max: int, beta: float) -> tuple[float, ...]:
    # entry k: the unnormalized weights j^(-beta) summed over j = 1..k
    acc = 0.0
    out = [acc]
    for k in range(1, n_max + 1):
        acc += k ** -beta
        out.append(acc)
    return tuple(out)


class _BinomialTable:
    """The cumulative masses c[k] = P(X <= k), k < n, of Binomial(n, p).

    Entries come from the inversion recurrence, in its operation order,
    and only as far as a draw has needed them, so entry k is the same
    float however the table grew and a search returns the k that
    walking the CDF from 0 returns, in no more steps.
    """

    __slots__ = ("n", "c", "ratio", "pmf")

    def __init__(self, n: int, p: float) -> None:
        q = 1.0 - p
        self.n = n
        self.ratio = p / q
        self.pmf = q ** n
        self.c = [self.pmf]
        if not self.pmf:
            k, self.pmf = _first_normal_mass(n, p)
            self.c = [0.0] * k + [self.pmf]
        self.grow(0.0)

    def grow(self, u: float) -> None:
        """Extend c until c[-1] >= u, or to all n entries; c[1] is made
        at once, as a prepared draw compares u with it first."""
        c = self.c
        n = self.n
        ratio = self.ratio
        pmf = self.pmf
        cdf = c[-1]
        k = len(c) - 1
        while k < n - 1 and (cdf < u or k < 1):
            k += 1
            pmf *= ratio * (n - k + 1) / k
            cdf += pmf
            c.append(cdf)
        self.pmf = pmf

    def count(self, u: float, lo: int) -> int:
        """The first k >= lo with u <= c[k], else n."""
        if u > self.c[-1]:
            self.grow(u)
        return bisect_left(self.c, u, lo)


def _first_normal_mass(n: int, p: float) -> tuple[int, float]:
    """(k, P(X = k)) of Binomial(n, p) for the first k < n whose mass is
    at least the smallest normal double, by bisection on the rising side
    of the mass function; for tables whose mass at 0 underflows."""
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)

    def log_mass(k: int) -> float:
        return (log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * log_p + (n - k) * log_q)

    floor = math.log(sys.float_info.min)
    lo, hi = 0, min(n - 1, int((n + 1) * p))  # the mode, or n - 1
    while hi - lo > 1:  # log_mass(lo) < floor, and hi is the candidate
        mid = (lo + hi) // 2
        if log_mass(mid) < floor:
            lo = mid
        else:
            hi = mid
    return hi, math.exp(log_mass(hi))


# bounded: oll_ga asks for a new rate every generation
_binomial_table = lru_cache(maxsize=64)(_BinomialTable)

_MASK_LAWS = ("binomial", "binomial_positive", "power_law")


class RandomSource:
    """One seeded random stream plus derived-child bookkeeping.

    Attributes:
        seed: the 64-bit seed this source was built from.
    """

    __slots__ = ("seed", "_r", "random", "getrandbits", "_gauss")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        r = random.Random(self.seed)
        self._r = r
        # bound-method aliases keep attribute lookups out of hot loops
        self.random = r.random
        self.getrandbits = r.getrandbits
        self._gauss = r.gauss

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed:#018x})"

    def derive(self, index: int) -> "RandomSource":
        """Child source for the given index.

        Pure function of (seed, index): deriving child i never consumes
        from or depends on this source's stream position, and distinct
        indices give distinct, well-separated seeds.
        """
        if index < 0:
            raise ValueError("child index must be >= 0")
        return RandomSource(_mix64(self.seed + (index + 1) * _GOLDEN))

    # -- integer sampling ---------------------------------------------

    def index_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on getrandbits."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        bits = (bound - 1).bit_length()
        g = self.getrandbits
        while True:
            v = g(bits)
            if v < bound:
                return v

    def positions_mask(self, n: int, k: int) -> int:
        """OR-mask of k distinct positions drawn uniformly from [0, n)."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        if k == 0:
            return 0
        if k == n:
            return (1 << n) - 1
        if 2 * k > n:
            return ((1 << n) - 1) ^ self.positions_mask(n, n - k)
        bits = (n - 1).bit_length()
        g = self.getrandbits
        mask = 0
        left = k
        while left:
            v = g(bits)
            if v < n:
                b = 1 << v
                if not mask & b:
                    mask |= b
                    left -= 1
        return mask

    def binomial(self, n: int, p: float) -> int:
        """Binomial(n, p) by inversion of its cumulative table."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        u = self.random()
        return _binomial_table(n, p).count(u, 0) if n else 0

    def binomial_positive(self, n: int, p: float) -> int:
        """Binomial(n, p) conditioned on a strictly positive outcome.

        Inverts the conditional CDF directly, searching the Binomial(n,
        p) table from k = 1 with u drawn above its mass at 0: one
        random() per draw and no rejection loop, so p as small as 1/n
        stays cheap.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        if p == 1.0:
            return n
        table = _binomial_table(n, p)
        c0 = table.c[0]  # mass at 0, excluded below
        return table.count(c0 + (1.0 - c0) * self.random(), 1)

    def power_law(self, n_max: int, beta: float) -> int:
        """Integer in [1, n_max] with P(k) proportional to k^(-beta)."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if n_max == 1:
            return 1
        cdf = _power_law_cdf(n_max, beta)
        return bisect_left(cdf, self.random() * cdf[-1], 1)

    def mask_sampler(self, n: int, law: str, *params) -> Callable[[], int]:
        """A prepared draw() of positions_mask(n, <law>(*params)).

        law is "binomial", "binomial_positive" or "power_law" and params
        are that method's two arguments, (n, p) or (n_max, beta): the
        count's bound, then its shape. Every draw() returns what the two
        calls return and consumes the same Twister words in the same
        order; it skips their per-call validation and table lookup and
        draws a count of 1 inline. Laws without a table (p at 0 or 1, n
        or the count's bound below 2) are drawn by the two calls, so bad
        params raise at the first draw, as they do there.
        """
        if law not in _MASK_LAWS:
            raise ValueError(f"unknown mask law {law!r}; choose from {_MASK_LAWS}")
        pm = self.positions_mask
        count = getattr(self, law)
        k_max, x = params
        if n < 2 or k_max < 2 or (law != "power_law" and not 0.0 < x < 1.0):
            return lambda: pm(n, count(k_max, x))
        # u = a + b * random() is the u the law itself inverts, and the
        # count is the first k >= 1 with u <= c[k], or 0 when u <= z
        if law == "power_law":
            c = _power_law_cdf(k_max, x)
            grow = None  # c is complete and u never exceeds c[-1]
            a, b, z = 0.0, c[-1], -1.0
        else:
            table = _binomial_table(k_max, x)
            c, grow = table.c, table.grow
            if law == "binomial":
                a, b, z = 0.0, 1.0, c[0]
            else:
                a, b, z = c[0], 1.0 - c[0], -1.0
        c1 = c[1]
        random = self.random
        g = self.getrandbits
        bits = (n - 1).bit_length()

        def draw() -> int:
            u = a + b * random()
            if u > c1:
                if u > c[-1]:
                    grow(u)
                return pm(n, bisect_left(c, u, 2))
            if u <= z:
                return 0
            while True:  # positions_mask(n, 1)
                v = g(bits)
                if v < n:
                    return 1 << v

        return draw

    def positive_normal_int(self, mean: float, variance: float, cap: int) -> int:
        """Round-and-retry gaussian: smallest positive use, capped above.

        Draws Normal(mean, variance), rounds half away from zero, and
        retries until the result is >= 1; values above cap clamp to cap.
        A non-positive variance degenerates to the rounded mean clamped
        into [1, cap].
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        if variance <= 0.0:
            return max(1, min(cap, _round_half_away(mean)))
        sd = math.sqrt(variance)
        g = self._gauss
        while True:
            k = _round_half_away(g(mean, sd))
            if k >= 1:
                return min(k, cap)


def _round_half_away(x: float) -> int:
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))

