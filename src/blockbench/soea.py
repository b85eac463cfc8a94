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

Solvers work on raw backing integers internally and wrap the best
solution in a BitString only in the returned RunResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    __slots__ = ("n", "fv", "evals", "budget", "goal", "best_f", "best_v",
                 "traj", "hit_index", "last_improve")

    def __init__(self, comp, budget: int, target: float | None):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.n = comp.n
        self.fv = comp.fv
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
        fv = self.fv
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
            f, V = fv(y)
            evals += 1
            if f > top:
                top = f
                self.best_v = y
                self.traj.append((evals, float(f), V))
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


def run_ea(cfg: SOConfig, problem: InstanceSpec, budget: int, target, rng: RandomSource,
           trace=None) -> RunResult:
    """(1+lambda) EA with a fixed mutation rate; the next parent is drawn
    uniformly from the argmax of {parent} + offspring."""
    cfg.check(problem.n)
    comp = compile_instance(problem)
    n = comp.n
    p = cfg.p if cfg.p is not None else 1.0 / n
    pm = rng.positions_mask
    bp = rng.binomial_positive
    rec = _Recorder(comp, budget, target)
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))

    def mutate(i):
        return x ^ pm(n, bp(n, p))

    while not rec.done:
        fx, won = rec.breed(cfg.lam, mutate, fx, [(x, -1)])
        x = won[rng.index_below(len(won))][0]
    return rec.result()


def run_fga(cfg: SOConfig, problem: InstanceSpec, budget: int, target, rng: RandomSource,
            trace=None) -> RunResult:
    """(1+1) EA with heavy-tailed flip counts on [1, n/2]; ties with the
    parent are broken uniformly."""
    cfg.check(problem.n)
    comp = compile_instance(problem)
    n = comp.n
    half = n // 2
    beta = cfg.beta
    pm = rng.positions_mask
    pl = rng.power_law
    rec = _Recorder(comp, budget, target)
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))

    def mutate(i):
        return x ^ pm(n, pl(half, beta))

    # follows the (1+1) scheme regardless of cfg.lam
    while not rec.done:
        fx, won = rec.breed(1, mutate, fx, [(x, -1)])
        x = won[rng.index_below(len(won))][0]
    return rec.result()


def run_two_rate(cfg: SOConfig, problem: InstanceSpec, budget: int, target, rng: RandomSource,
                 trace=None) -> RunResult:
    """(1+lambda) EA with a self-adjusting rate split across two halves."""
    cfg.check(problem.n)
    comp = compile_instance(problem)
    n = comp.n
    pm = rng.positions_mask
    bp = rng.binomial_positive
    lam = cfg.lam
    half = lam // 2
    r_hi = max(2.0, n / 4)
    rec = _Recorder(comp, budget, target)
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))
    r = 2.0

    def mutate(i):
        rate = r / (2 * n) if i < half else min(1.0, 2 * r / n)
        return x ^ pm(n, bp(n, rate))

    while not rec.done:
        best, won = rec.breed(lam, mutate)
        wy, wi = won[rng.index_below(len(won))]
        if best >= fx:
            x, fx = wy, best
        s = 0.75 if wi < half else 0.25
        if rng.random() <= s:
            r = max(r / 2, 2.0)
        else:
            r = min(2 * r, r_hi)
        if trace is not None:
            trace.append({"r": r})
    return rec.result()


def run_var_ea(cfg: SOConfig, problem: InstanceSpec, budget: int, target, rng: RandomSource,
               trace=None) -> RunResult:
    """(1+lambda) EA with gaussian flip counts and shrinking variance.

    The variance F^c * r * (1 - r/n) collapses while the winning flip
    count keeps confirming the current rate r; any deviation, or n
    evaluations without strict improvement, resets the counter c.
    """
    cfg.check(problem.n)
    comp = compile_instance(problem)
    n = comp.n
    pm = rng.positions_mask
    pni = rng.positive_normal_int
    lam = cfg.lam
    fdamp = cfg.f_var
    rec = _Recorder(comp, budget, target)
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))
    r = 2.0
    c = 0
    last_reset = 0
    flips = [0] * lam  # flip count drawn for offspring i

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
        if trace is not None:
            trace.append({"r": r, "c": c})
    return rec.result()


def run_oll_ga(cfg: SOConfig, problem: InstanceSpec, budget: int, target, rng: RandomSource,
               trace=None) -> RunResult:
    """(1+(lambda,lambda)) GA with self-adjusting real-valued lambda."""
    cfg.check(problem.n)
    comp = compile_instance(problem)
    n = comp.n
    pm = rng.positions_mask
    bp = rng.binomial_positive
    fstep = cfg.f_oll
    gain = fstep ** 0.25
    rec = _Recorder(comp, budget, target)
    fx, [(x, _)] = rec.breed(1, lambda i: rng.getrandbits(n))
    lam = float(min(cfg.lam, n))

    def mutate(i):
        return x ^ pm(n, ell)

    def cross(i):
        mask = pm(n, bp(n, bias))
        return (x & ~mask) | (xstar & mask)

    while not rec.done:
        k = math.ceil(lam)
        ell = bp(n, min(1.0, lam / n))
        _, mutants = rec.breed(k, mutate)
        xstar = mutants[rng.index_below(len(mutants))][0]
        bias = 1.0 / lam
        best_c, crossed = rec.breed(k, cross)
        if not crossed:  # the mutation phase spent the budget
            break
        ystar = crossed[rng.index_below(len(crossed))][0]
        if best_c > fx:
            x, fx = ystar, best_c
            lam = max(lam / fstep, 1.0)
        elif best_c == fx:
            x, fx = ystar, best_c
            lam = min(lam * gain, float(n))
        else:
            lam = min(lam * gain, float(n))
        if trace is not None:
            trace.append({"lam": lam})
    return rec.result()


# -- (mu+1) GA ------------------------------------------------------------


def max_distance_pair(xs: list[int], rng: RandomSource) -> tuple[int, int]:
    """Indices of a maximum-Hamming-distance pair; ties broken uniformly.

    Operates on raw backing integers.
    """
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
    return pairs[rng.index_below(len(pairs))]


def removal_index(fs: list[float], protected: frozenset[int] | set[int], rng: RandomSource) -> int:
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


def run_mu_ga(cfg: SOConfig, problem: InstanceSpec, budget: int, target, rng: RandomSource,
              trace=None) -> RunResult:
    """(mu+1) GA: uniform parent choice, optional uniform crossover,
    per-bit mutation at 1/n, remove one worst (diversity variant first
    protects one farthest pair, ties uniform)."""
    cfg.check(problem.n)
    comp = compile_instance(problem)
    n = comp.n
    pm = rng.positions_mask
    g = rng.getrandbits
    p_c = cfg.p_c
    pbit = 1.0 / n
    rec = _Recorder(comp, budget, target)
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
        flips = rng.binomial(n, pbit)
        return base ^ pm(n, flips) if flips else base

    while not rec.done and len(xs) >= 2:
        fy, [(y, _)] = rec.breed(1, offspring)
        xs.append(y)
        fs.append(fy)
        if cfg.diversity:
            protected = frozenset(max_distance_pair(xs, rng))
        else:
            protected = frozenset()
        ridx = removal_index(fs, protected, rng)
        del xs[ridx]
        del fs[ridx]
    return rec.result()


SINGLE_RUNNERS = {
    "ea": run_ea,
    "fga": run_fga,
    "two_rate": run_two_rate,
    "var_ea": run_var_ea,
    "oll_ga": run_oll_ga,
    "mu_ga": run_mu_ga,
}


_OPTIMUM = object()  # run_single's default target: the known optimum


def run_single(cfg: SOConfig, problem: InstanceSpec, budget: int, rng: RandomSource,
               target: float | None = _OPTIMUM, trace=None) -> RunResult:
    """Dispatch on cfg.variant. target defaults to the known optimum
    (computed here, per call); None means no target, and the run spends
    its whole budget."""
    if cfg.variant not in SINGLE_RUNNERS:
        raise ValueError(f"unknown variant {cfg.variant!r}; "
                         f"choose from {sorted(SINGLE_RUNNERS)}")
    if target is _OPTIMUM:
        target = known_optimum(problem)
    return SINGLE_RUNNERS[cfg.variant](cfg, problem, budget, target, rng, trace=trace)
