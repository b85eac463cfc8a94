"""Seeded randomness and the samplers of the variation operators.

A :class:`RandomSource` wraps one Mersenne Twister stream and adds the
integer samplers the solvers need: positive-conditioned binomials by CDF
inversion, bounded power laws by table inversion, rounded truncated
gaussians, and distinct-position masks. Child sources derived with
:meth:`RandomSource.derive` get seeds from an avalanche mix of the
parent seed and the child index, so schedulers can hand run i the child
with index i and replay any single run in isolation.

Integer-only streams (bits, masks, inversion samplers) depend only on
the Twister and are reproducible across platforms; the gaussian sampler
goes through libm, so its stream is reproducible per platform.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
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
    # cumulative unnormalized weights k^(-beta), k = 1..n_max
    acc = 0.0
    out = []
    for k in range(1, n_max + 1):
        acc += k ** -beta
        out.append(acc)
    return tuple(out)


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
        """Binomial(n, p) by CDF inversion (fast when n*p is small)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        q = 1.0 - p
        ratio = p / q
        pmf = q ** n
        u = self.random()
        cdf = pmf
        k = 0
        while u > cdf and k < n:
            k += 1
            pmf *= ratio * (n - k + 1) / k
            cdf += pmf
        return k

    def binomial_positive(self, n: int, p: float) -> int:
        """Binomial(n, p) conditioned on a strictly positive outcome.

        Inverts the conditional CDF directly: expected work is the
        conditional mean, with no rejection loop, so p as small as 1/n
        stays O(1) per draw.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        if p == 1.0:
            return n
        q = 1.0 - p
        ratio = p / q
        pmf = q ** n  # mass at 0, excluded below
        u = pmf + (1.0 - pmf) * self.random()
        cdf = pmf
        k = 0
        while k < n - 1:
            k += 1
            pmf *= ratio * (n - k + 1) / k
            cdf += pmf
            if u <= cdf:
                return k
        return n

    def power_law(self, n_max: int, beta: float) -> int:
        """Integer in [1, n_max] with P(k) proportional to k^(-beta)."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if n_max == 1:
            return 1
        cdf = _power_law_cdf(n_max, beta)
        u = self.random() * cdf[-1]
        return bisect_left(cdf, u) + 1

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

