"""Single-objective evolutionary algorithms.

Six elitist maximizers over fixed-length bit strings, all counting one
evaluation per objective call and stopping at the first of target hit
or budget exhaustion (the generation in flight is finished, and the
hitting evaluation index is recorded separately):

* run_ea: (1+lambda) EA, flip count ~ positive binomial(n, p).
* run_fga: (1+1) scheme with power-law flip counts on [1, n/2].
* run_two_rate: (1+lambda) EA whose rate r self-adjusts; half the
  offspring mutate at r/(2n), half at 2r/n.
* run_var_ea: (1+lambda) EA with normally distributed flip counts whose
  variance shrinks geometrically while the rate keeps hitting the same
  value.
* run_oll_ga: (1+(lambda,lambda)) GA; mutation phase shares one flip
  count, crossover phase pulls mutant bits back into the parent with
  bias 1/lambda, lambda self-adjusts by a fifth-rule-style update.
* run_mu_ga: (mu+1) GA with optional crossover and optional diversity
  preservation (the farthest pair is protected from removal).

Each run_<variant> is built by _runner from a private generator (_ea,
..., _mu_ga): _runner checks the config, compiles the instance and
exhausts the generator on a fresh _Recorder. The generator draws its
initial sample, yields its strategy state once per generation (r for
two_rate, r and c for var_ea, lam for oll_ga, else {}) and returns when
rec.done, so iterating it observes a run generation by generation.
Solvers work on raw backing integers; the best solution becomes a
BitString only in the returned RunResult.
"""

from __future__ import annotations

import math
from collections.abc import Container, Iterator
from dataclasses import dataclass, field
from functools import cache

from .bitstring import BitString
from .problems import InstanceSpec, compile_instance, known_optimum
from .rng import RandomSource

__all__ = [
    "SOConfig",
    "RunResult",
    "run_ea",
    "run_fga",
    "run_two_rate",
    "run_var_ea",
    "run_oll_ga",
    "run_mu_ga",
    "run_single",
    "SINGLE_RUNNERS",
    "max_distance_pair",
    "removal_index",
]

VARIANTS = ("ea", "fga", "two_rate", "var_ea", "oll_ga", "mu_ga")


@dataclass
class SOConfig:
    """Algorithm selection plus every tunable the suite exposes."""

    variant: str = "ea"
    lam: int = 10            # offspring per generation (also initial lambda of oll_ga)
    p: float | None = None   # per-bit mutation rate; None means 1/n
    beta: float = 1.5        # power-law exponent (fga)
    f_var: float = 0.98      # variance damping factor (var_ea)
    f_oll: float = 1.5       # lambda adaptation factor (oll_ga)
    mu: int = 8              # parent population size (mu_ga)
    p_c: float = 0.5         # crossover probability (mu_ga)
    diversity: bool = False  # protect the farthest pair (mu_ga)

    def check(self, n: int) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        if self.variant == "fga" and n < 2:
            raise ValueError("fga needs n >= 2 (flip counts live on [1, n/2])")
        if self.variant == "fga" and self.beta <= 1.0:
            raise ValueError("beta must be > 1")
        if self.variant == "two_rate" and self.lam % 2 != 0:
            raise ValueError("two_rate needs an even lam")
        if self.variant == "var_ea" and self.f_var <= 0:
            raise ValueError("f_var must be > 0")
        if self.variant == "oll_ga" and self.f_oll <= 0:
            raise ValueError("f_oll must be > 0")
        if self.variant == "mu_ga":
            if self.mu < 2:
                raise ValueError("mu must be >= 2")
            if not 0.0 <= self.p_c <= 1.0:
                raise ValueError("p_c must be in [0, 1]")


@dataclass
class RunResult:
    """Outcome of one run.

    trajectory holds one row per strict improvement of the best-so-far,
    as (evaluation index, best f, block values of the best); the first
    row is the initial sample, so the best-so-far step function can be
    reconstructed at any evaluation index.
    """

    evaluations_used: int
    best_f: float
    best_x: BitString
    hit_target: bool
    hit_index: int | None
    trajectory: list = field(repr=False)


class _Recorder:
    """Per-run bookkeeping: evaluates and counts every solution through
    breed(), tracks the incumbent, the trajectory and the hitting index."""

    __slots__ = ("n", "f", "values_of", "evals", "budget", "goal", "best_f",
                 "best_v", "traj", "hit_index", "last_improve")

    def __init__(self, comp, budget: int, target: float | None):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.n = comp.n
        self.f = comp.f
        self.values_of = comp.values_of
        self.evals = 0
        self.budget = budget
        self.goal = math.inf if target is None else target  # None: never hit
        self.best_f = -math.inf
        self.best_v = 0
        self.traj: list = []
        self.hit_index: int | None = None
        self.last_improve = 0

    def breed(self, k: int, make, best=-math.inf, winners=None):
        """Draw up to k offspring y = make(i), i = 0, 1, ..., stopping
        before the first one the budget cannot pay for; evaluate and
        count each. Returns the best f among best and the offspring, and
        the (y, i) pairs that reach it in draw order; winners seeds the
        pairs that already hold best (e.g. the parent as (x, -1))."""
        fitness = self.f
        evals = self.evals
        top = self.best_f
        goal = self.goal
        if winners is None:
            winners = []
        # the solvers' hot loop: recorder state stays in locals, and a
        # conditional expression stands in for the slower builtin min()
        left = self.budget - evals
        for i in range(k if k < left else left):
            y = make(i)
            f = fitness(y)
            evals += 1
            if f > top:
                top = f
                self.best_v = y
                self.traj.append((evals, float(f), self.values_of(y)))
                self.last_improve = evals
            if f >= goal and self.hit_index is None:
                self.hit_index = evals
            if f > best:
                best = f
                winners = [(y, i)]
            elif f == best:
                winners.append((y, i))
        self.evals = evals
        self.best_f = top
        return best, winners

    @property
    def done(self) -> bool:
        return self.evals >= self.budget or self.hit_index is not None

    def result(self) -> RunResult:
        return RunResult(
            evaluations_used=self.evals,
            best_f=float(self.best_f),
            best_x=BitString(self.n, self.best_v),
            hit_target=self.best_f >= self.goal,
            hit_index=self.hit_index,
            trajectory=self.traj,
        )


def _runner(steps):
    """The public run_<variant> of a generator: check cfg, compile the
    instance, exhaust steps(cfg, rec, rng) on a fresh _Recorder and
    return its result."""

    def run(cfg: SOConfig, problem: InstanceSpec, budget: int, target,
            rng: RandomSource) -> RunResult:
        cfg.check(problem.n)
        rec = _Recorder(compile_instance(problem), budget, target)
        for _ in steps(cfg, rec, rng):
            pass
        return rec.result()

    run.__name__ = run.__qualname__ = "run" + steps.__name__
    run.__doc__ = steps.__doc__
    return run


def _ea(cfg: SOConfig, rec: _Recorder, rng: RandomSource) -> Iterator[dict]:
    """(1+lambda) EA with a fixed mutation rate; the next parent is drawn
    uniformly from the argmax of {parent} + offspring."""
    n = rec.n
    p = cfg.p if cfg.p is not None else 1.0 / n
    flip_mask = rng.mask_sampler(n, "binomial_positive", n, p)
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))

    def mutate(i):
        return x ^ flip_mask()

    while not rec.done:
        fx, won = rec.breed(cfg.lam, mutate, fx, [(x, -1)])
        x = won[rng.index_below(len(won))][0]
        yield {}


def _fga(cfg: SOConfig, rec: _Recorder, rng: RandomSource) -> Iterator[dict]:
    """(1+1) EA with heavy-tailed flip counts on [1, n/2]; ties with the
    parent are broken uniformly."""
    n = rec.n
    flip_mask = rng.mask_sampler(n, "power_law", n // 2, cfg.beta)
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))

    def mutate(i):
        return x ^ flip_mask()

    # follows the (1+1) scheme regardless of cfg.lam
    while not rec.done:
        fx, won = rec.breed(1, mutate, fx, [(x, -1)])
        x = won[rng.index_below(len(won))][0]
        yield {}


def _two_rate(cfg: SOConfig, rec: _Recorder, rng: RandomSource) -> Iterator[dict]:
    """(1+lambda) EA with a self-adjusting rate split across two halves."""
    n = rec.n
    lam = cfg.lam
    half = lam // 2
    r_hi = max(2.0, n / 4)
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))
    r = 2.0
    # r only doubles and halves within [2, r_hi]: a few rates per run
    sampler = cache(lambda rate: rng.mask_sampler(n, "binomial_positive", n, rate))

    def mutate(i):
        return x ^ (low() if i < half else high())

    while not rec.done:
        low = sampler(r / (2 * n))
        high = sampler(min(1.0, 2 * r / n))
        best, won = rec.breed(lam, mutate)
        wy, wi = won[rng.index_below(len(won))]
        if best >= fx:
            x, fx = wy, best
        s = 0.75 if wi < half else 0.25
        if rng.random() <= s:
            r = max(r / 2, 2.0)
        else:
            r = min(2 * r, r_hi)
        yield {"r": r}


def _var_ea(cfg: SOConfig, rec: _Recorder, rng: RandomSource) -> Iterator[dict]:
    """(1+lambda) EA with gaussian flip counts and shrinking variance.

    The variance F^c * r * (1 - r/n) collapses while the winning flip
    count keeps confirming the current rate r; any deviation, or n
    evaluations without strict improvement, resets the counter c.
    """
    n = rec.n
    pm = rng.positions_mask
    pni = rng.positive_normal_int
    lam = cfg.lam
    fdamp = cfg.f_var
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))
    r = 2.0
    c = 0
    last_reset = 0
    flips = [0] * min(lam, rec.budget)  # flip count drawn for offspring i

    def mutate(i):
        flips[i] = l = pni(r, var, n)
        return x ^ pm(n, l)

    while not rec.done:
        var = (fdamp ** c) * r * (1.0 - r / n)
        best, won = rec.breed(lam, mutate)
        wy, wi = won[0]  # winner = first among maxima, no random tie-break
        c = c + 1 if flips[wi] == r else 0
        r = float(flips[wi])
        if best >= fx:
            x, fx = wy, best
        if rec.evals - max(rec.last_improve, last_reset) >= n:
            c = 0
            last_reset = rec.evals
        yield {"r": r, "c": c}


def _oll_ga(cfg: SOConfig, rec: _Recorder, rng: RandomSource) -> Iterator[dict]:
    """(1+(lambda,lambda)) GA with self-adjusting real-valued lambda."""
    n = rec.n
    pm = rng.positions_mask
    bp = rng.binomial_positive
    fstep = cfg.f_oll
    gain = fstep ** 0.25
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))
    lam = float(min(cfg.lam, n))

    def mutate(i):
        return x ^ pm(n, ell)

    def cross(i):
        mask = cross_mask()
        return (x & ~mask) | (xstar & mask)

    while not rec.done:
        k = math.ceil(lam)
        ell = bp(n, min(1.0, lam / n))
        _, mutants = rec.breed(k, mutate)
        xstar = mutants[rng.index_below(len(mutants))][0]
        cross_mask = rng.mask_sampler(n, "binomial_positive", n, 1.0 / lam)
        best_c, crossed = rec.breed(k, cross)
        if not crossed:  # the mutation phase spent the budget
            return
        ystar = crossed[rng.index_below(len(crossed))][0]
        if best_c > fx:
            x, fx = ystar, best_c
            lam = max(lam / fstep, 1.0)
        elif best_c == fx:
            x, fx = ystar, best_c
            lam = min(lam * gain, float(n))
        else:
            lam = min(lam * gain, float(n))
        yield {"lam": lam}


# -- (mu+1) GA ------------------------------------------------------------


def _far_pairs(xs: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """The maximum pairwise Hamming distance and its pairs, in (i, j) order."""
    best = -1
    pairs: list[tuple[int, int]] = []
    for i in range(len(xs)):
        xi = xs[i]
        for j in range(i + 1, len(xs)):
            d = (xi ^ xs[j]).bit_count()
            if d > best:
                best = d
                pairs = [(i, j)]
            elif d == best:
                pairs.append((i, j))
    return best, pairs


def max_distance_pair(xs: list[int], rng: RandomSource) -> tuple[int, int]:
    """Indices of a maximum-Hamming-distance pair; ties broken uniformly.

    Operates on raw backing integers.
    """
    pairs = _far_pairs(xs)[1]
    return pairs[rng.index_below(len(pairs))]


class _FarPairs:
    """_far_pairs of a population kept current as members come and go:
    O(mu) per insertion instead of a full O(mu^2) rescan."""

    __slots__ = ("far", "ties")

    def __init__(self, xs: list[int]):
        self.far, self.ties = _far_pairs(xs)

    def insert(self, xs: list[int], y: int) -> None:
        """Account for y, about to be appended to xs."""
        ds = [(y ^ x).bit_count() for x in xs]
        top = max(ds)
        if top >= self.far:
            k = len(xs)
            new = [(i, k) for i, d in enumerate(ds) if d == top]
            if top > self.far:
                self.far, self.ties = top, new
            else:
                self.ties = sorted(self.ties + new)

    def remove(self, r: int) -> None:
        """Account for member r leaving; later members shift down by one."""
        self.ties = [(i - (i > r), j - (j > r)) for i, j in self.ties
                     if i != r and j != r]


def removal_index(fs: list[float], protected: Container[int], rng: RandomSource) -> int:
    """Uniform choice among the worst-fitness members outside protected."""
    worst = None
    cand: list[int] = []
    for i, f in enumerate(fs):
        if i in protected:
            continue
        if worst is None or f < worst:
            worst = f
            cand = [i]
        elif f == worst:
            cand.append(i)
    return cand[rng.index_below(len(cand))]


def _mu_ga(cfg: SOConfig, rec: _Recorder, rng: RandomSource) -> Iterator[dict]:
    """(mu+1) GA: uniform parent choice, optional uniform crossover,
    per-bit mutation at 1/n, remove one worst (diversity variant first
    protects one farthest pair, ties uniform)."""
    n = rec.n
    g = rng.getrandbits
    p_c = cfg.p_c
    flip_mask = rng.mask_sampler(n, "binomial", n, 1.0 / n)
    xs: list[int] = []
    fs: list[float] = []
    for _ in range(cfg.mu):
        f, won = rec.breed(1, lambda i: g(n))
        if not won:
            break
        xs.append(won[0][0])
        fs.append(f)

    def offspring(_):
        i = rng.index_below(len(xs))
        base = xs[i]
        if rng.random() < p_c:
            j = rng.index_below(len(xs) - 1)
            if j >= i:
                j += 1
            mask = g(n)
            base = (base & ~mask) | (xs[j] & mask)
        return base ^ flip_mask()

    far = _FarPairs(xs) if cfg.diversity else None
    protected = ()
    while not rec.done and len(xs) >= 2:
        fy, [(y, _)] = rec.breed(1, offspring)
        if far is not None:
            far.insert(xs, y)
            protected = far.ties[rng.index_below(len(far.ties))]
        xs.append(y)
        fs.append(fy)
        ridx = removal_index(fs, protected, rng)
        del xs[ridx]
        del fs[ridx]
        if far is not None:
            far.remove(ridx)  # the protected pair stays, so far holds
        yield {}


SINGLE_RUNNERS = {steps.__name__[1:]: _runner(steps) for steps in
                  (_ea, _fga, _two_rate, _var_ea, _oll_ga, _mu_ga)}
run_ea, run_fga, run_two_rate, run_var_ea, run_oll_ga, run_mu_ga = (
    SINGLE_RUNNERS.values())


_OPTIMUM = object()  # run_single's default target: the known optimum


def run_single(cfg: SOConfig, problem: InstanceSpec, budget: int, rng: RandomSource,
               target: float | None = _OPTIMUM) -> RunResult:
    """Dispatch on cfg.variant. target defaults to the known optimum
    (computed here, per call); None means no target, and the run spends
    its whole budget."""
    if cfg.variant not in SINGLE_RUNNERS:
        raise ValueError(f"unknown variant {cfg.variant!r}; "
                         f"choose from {sorted(SINGLE_RUNNERS)}")
    if target is _OPTIMUM:
        target = known_optimum(problem)
    return SINGLE_RUNNERS[cfg.variant](cfg, problem, budget, target, rng)
