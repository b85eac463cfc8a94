"""Multi-objective suite: archive-based local searchers and three
population algorithms, plus the comparison machinery they share.

Both objectives are maximized. Dominance is weak-Pareto: a dominates b
iff a is componentwise >= b and differs somewhere. Hypervolume is the
staircase area between the front and a fixed reference point (default
(0, 0)); points not strictly above the reference in both coordinates
contribute nothing and are filtered.

Runners return a ParetoArchive whose entries are mutually non-dominated
with one genotype per objective pair (first one found wins). Insertion
follows the strict rule: a candidate enters only if no archived point
weakly dominates it, and then evicts every archived point it weakly
dominates. NSGA-II and SMS-EMOA additionally keep their generational
populations; the returned archive still sees every evaluated point.
MOEA/D's archive holds offspring only, mirroring its external-archive
formulation (the initial population is evaluated but not archived).
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .bitstring import BitString
from .problems import BiObjectiveInstance, compile_bi
from .rng import RandomSource

__all__ = [
    "dominates",
    "weakly_dominates",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume_2d",
    "hv_contributions",
    "environmental_selection",
    "ParetoArchive",
    "run_semo",
    "run_gsemo",
    "run_nsga2",
    "run_smsemoa",
    "run_moead",
    "MULTI_RUNNERS",
]

Pair = tuple[float, float]


def dominates(a: Pair, b: Pair) -> bool:
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def weakly_dominates(a: Pair, b: Pair) -> bool:
    return a[0] >= b[0] and a[1] >= b[1]


def non_dominated_sort(pairs) -> list[list[int]]:
    """Peel dominance fronts; front 0 is the non-dominated set, front k
    is non-dominated once earlier fronts are removed. Each front lists
    its indices in ascending order.

    Two-objective sweep (Jensen, IEEE TEVC 2003): visit the points by
    descending (f1, f2), so a point can only be dominated by one seen
    before it. A front then dominates the point exactly when its latest
    member has f2 at least the point's and differs from it, that is,
    when that member's (f2, f1) is lexicographically larger. Fronts are
    nested on that test, so the point joins the first front that does
    not dominate it, found by bisection, or opens a new one.
    """
    fronts: list[list[int]] = []
    keys: list[Pair] = []  # (-f2, -f1) of each front's latest member
    for i in sorted(range(len(pairs)), key=pairs.__getitem__, reverse=True):
        p0, p1 = pairs[i]
        key = (-p1, -p0)
        k = bisect_left(keys, key)
        if k == len(fronts):
            fronts.append([i])
            keys.append(key)
        else:
            fronts[k].append(i)
            keys[k] = key
    for fr in fronts:
        fr.sort()
    return fronts


def crowding_distance(front) -> list[float]:
    """Per-objective normalized neighbor gaps; boundary points infinite.

    A zero objective range contributes nothing (guards duplicates)."""
    k = len(front)
    if k == 0:
        return []
    a = np.asarray(front, dtype=float)
    out = np.zeros(k)
    for j in (0, 1):
        order = np.argsort(a[:, j], kind="stable")
        vals = a[order, j]
        out[order[0]] = math.inf
        out[order[-1]] = math.inf
        span = vals[-1] - vals[0]
        if span > 0 and k > 2:
            out[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return [float(v) for v in out]


def hypervolume_2d(points, ref: Pair = (0.0, 0.0)) -> float:
    """Staircase area dominated by the points, above the reference."""
    r1, r2 = ref
    pts = [p for p in points if p[0] > r1 and p[1] > r2]
    if not pts:
        return 0.0
    pts.sort(key=lambda p: (-p[0], -p[1]))
    hv = 0.0
    top = r2
    for y1, y2 in pts:
        if y2 > top:
            hv += (y1 - r1) * (y2 - top)
            top = y2
    return hv


def hv_contributions(front, ref: Pair = (0.0, 0.0)) -> list[float]:
    """Exclusive hypervolume of each point of a mutually non-dominated
    front: the area that only that point dominates above the reference.

    Sorted-neighbour rectangle for two objectives (Emmerich, Beume &
    Naujoks, EMO 2005): with the points ordered by descending f1 (and
    so ascending f2), a point's share is its f1 gap to the next point
    times its f2 gap to the previous one, the reference standing in at
    either end. A point equal to a neighbour has a zero gap, and a
    point on or below the reference is left out, so both contribute
    0.0. Values are floats even for int input.
    """
    r1, r2 = ref
    out = [0.0] * len(front)
    live = [i for i, p in enumerate(front) if p[0] > r1 and p[1] > r2]
    live.sort(key=front.__getitem__, reverse=True)
    f1 = [front[i][0] for i in live] + [r1]
    f2 = [r2] + [front[i][1] for i in live]
    for pos, i in enumerate(live):
        out[i] = float((f1[pos] - f1[pos + 1]) * (f2[pos + 1] - f2[pos]))
    return out


def environmental_selection(pairs, pop_size: int, rng: RandomSource,
                            metric: str = "crowding",
                            reference: Pair = (0.0, 0.0)) -> list[list[int]]:
    """Fronts of the indices surviving generational truncation to
    pop_size; their concatenation is the survivors in order.

    Whole fronts are kept while they fit; the critical front is cut by
    the chosen metric (crowding distance or exclusive hypervolume),
    largest first, ties uniformly at random. Survivors keep their
    fronts: each kept point is dominated from the front before its own,
    which is kept whole.
    """
    fronts = non_dominated_sort(pairs)
    kept: list[list[int]] = []
    room = pop_size
    for fr in fronts:
        if len(fr) <= room:
            kept.append(fr)
            room -= len(fr)
            continue
        if room > 0:
            sub = [pairs[i] for i in fr]
            if metric == "crowding":
                scores = crowding_distance(sub)
            elif metric == "hv":
                scores = hv_contributions(sub, reference)
            else:
                raise ValueError(f"unknown metric {metric!r}")
            order = sorted(range(len(fr)), key=lambda t: (-scores[t], rng.random()))
            kept.append([fr[t] for t in order[:room]])
        break
    return kept


class ParetoArchive:
    """Mutually non-dominated store, one genotype per objective pair.

    evaluations_used and progress are attached by the runners for the
    experiment harness.
    """

    __slots__ = ("n", "reference", "_xs", "_pairs", "_hv",
                 "evaluations_used", "progress")

    def __init__(self, n: int, reference: Pair = (0.0, 0.0)):
        self.n = n
        self.reference = (float(reference[0]), float(reference[1]))
        self._xs: list[int] = []
        self._pairs: list[Pair] = []
        self._hv = 0.0
        self.evaluations_used = 0
        self.progress: list = []

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def pairs(self) -> list[Pair]:
        return list(self._pairs)

    @property
    def entries(self) -> list[tuple[BitString, Pair]]:
        return [(BitString(self.n, v), p) for v, p in zip(self._xs, self._pairs)]

    def hypervolume(self) -> float:
        return self._hv

    def pick_value(self, rng: RandomSource) -> int:
        """Uniformly chosen member, as its raw backing integer."""
        return self._xs[rng.index_below(len(self._xs))]

    def try_insert(self, x_value: int, pair: Pair) -> bool:
        """Insert unless weakly dominated; evict what the entrant weakly
        dominates. Returns whether the archive changed."""
        p0, p1 = pair
        for q in self._pairs:
            if q[0] >= p0 and q[1] >= p1:
                return False
        keep_x: list[int] = []
        keep_p: list[Pair] = []
        for xv, q in zip(self._xs, self._pairs):
            if p0 >= q[0] and p1 >= q[1]:
                continue
            keep_x.append(xv)
            keep_p.append(q)
        keep_x.append(x_value)
        keep_p.append((float(p0), float(p1)))
        self._xs = keep_x
        self._pairs = keep_p
        self._hv = hypervolume_2d(keep_p, self.reference)
        return True


class _MoRun:
    """Shared per-run bookkeeping: evaluation counting, archive updates,
    and change-driven progress rows (evals, hv, best per objective,
    best per block)."""

    __slots__ = ("n", "fvv", "budget", "evals", "archive",
                 "y1max", "y2max", "vmax", "rows")

    def __init__(self, inst: BiObjectiveInstance, budget: int):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.n = inst.n
        self.fvv = compile_bi(inst)
        self.budget = budget
        self.evals = 0
        self.archive = ParetoArchive(inst.n)
        self.y1max = -math.inf  # the first evaluation sets every best
        self.y2max = -math.inf
        self.vmax = [-math.inf] * inst.first.m
        self.rows: list = []

    def evaluate(self, v: int, archive: bool = True) -> Pair:
        self.evals += 1
        f1, f2, V = self.fvv(v)
        pair = (f1, f2)
        changed = self.archive.try_insert(v, pair) if archive else False
        if f1 > self.y1max:
            self.y1max = f1
            changed = True
        if f2 > self.y2max:
            self.y2max = f2
            changed = True
        vm = self.vmax
        for i, val in enumerate(V):
            if val > vm[i]:
                vm[i] = val
                changed = True
        if changed:
            self.rows.append((self.evals, self.archive.hypervolume(),
                              self.y1max, self.y2max, tuple(vm)))
        return pair

    def finish(self) -> ParetoArchive:
        a = self.archive
        a.evaluations_used = self.evals
        a.progress = self.rows
        return a


def _semo_like(inst: BiObjectiveInstance, budget: int, rng: RandomSource,
               global_mutation: bool) -> ParetoArchive:
    run = _MoRun(inst, budget)
    n = run.n
    run.evaluate(rng.getrandbits(n))
    flip_mask = rng.mask_sampler(n, "binomial_positive", n, 1.0 / n)
    while run.evals < budget:
        x = run.archive.pick_value(rng)
        if global_mutation:
            y = x ^ flip_mask()
        else:
            y = x ^ (1 << rng.index_below(n))
        run.evaluate(y)
    return run.finish()


def run_semo(inst: BiObjectiveInstance, budget: int, rng: RandomSource) -> ParetoArchive:
    """Archive-based local search flipping exactly one bit per step."""
    return _semo_like(inst, budget, rng, global_mutation=False)


def run_gsemo(inst: BiObjectiveInstance, budget: int, rng: RandomSource) -> ParetoArchive:
    """Archive-based search with positive-binomial flip counts at 1/n."""
    return _semo_like(inst, budget, rng, global_mutation=True)


def _tournament(rng: RandomSource, rank: list[int], crowd: list[float]) -> int:
    i = rng.index_below(len(rank))
    j = rng.index_below(len(rank))
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowd[i] != crowd[j]:
        return i if crowd[i] > crowd[j] else j
    return i if rng.getrandbits(1) else j


def _generational(inst: BiObjectiveInstance, pop_size: int, budget: int,
                  rng: RandomSource, metric: str) -> ParetoArchive:
    if pop_size < 2:
        raise ValueError("pop_size must be >= 2")
    run = _MoRun(inst, budget)
    n = run.n
    flip_mask = rng.mask_sampler(n, "binomial", n, 1.0 / n)
    g = rng.getrandbits
    pop: list[int] = []
    objs: list[Pair] = []
    for _ in range(pop_size):
        if run.evals >= budget:
            break
        v = g(n)
        objs.append(run.evaluate(v))
        pop.append(v)
    fronts = non_dominated_sort(objs)
    while run.evals + pop_size <= budget:
        rank = [0] * len(pop)
        crowd = [0.0] * len(pop)
        for fi, fr in enumerate(fronts):
            cd = crowding_distance([objs[i] for i in fr])
            for i, c in zip(fr, cd):
                rank[i] = fi
                crowd[i] = c
        for _ in range(pop_size):
            a = _tournament(rng, rank, crowd)
            b = _tournament(rng, rank, crowd)
            if rng.random() < 0.9:
                mask = g(n)
                child = (pop[a] & ~mask) | (pop[b] & mask)
            else:
                child = pop[a]
            child ^= flip_mask()
            objs.append(run.evaluate(child))
            pop.append(child)
        kept = environmental_selection(objs, pop_size, rng, metric=metric,
                                       reference=run.archive.reference)
        # the survivors are renumbered in order, so their fronts, which
        # selection has just found, become consecutive index ranges
        keep = [i for fr in kept for i in fr]
        pop = [pop[i] for i in keep]
        objs = [objs[i] for i in keep]
        fronts, start = [], 0
        for fr in kept:
            fronts.append(list(range(start, start + len(fr))))
            start += len(fr)
    return run.finish()


def run_nsga2(inst: BiObjectiveInstance, pop_size: int, budget: int,
              rng: RandomSource) -> ParetoArchive:
    """Generational loop with rank + crowding truncation, binary
    tournament parents, uniform crossover at 0.9, per-bit mutation 1/n."""
    return _generational(inst, pop_size, budget, rng, metric="crowding")


def run_smsemoa(inst: BiObjectiveInstance, pop_size: int, budget: int,
                rng: RandomSource) -> ParetoArchive:
    """Same skeleton as run_nsga2; the critical front is truncated by
    exclusive hypervolume instead of crowding distance."""
    return _generational(inst, pop_size, budget, rng, metric="hv")


def run_moead(inst: BiObjectiveInstance, pop_size: int, budget: int,
              rng: RandomSource) -> ParetoArchive:
    """Decomposition into pop_size scalar subproblems on uniform weight
    vectors, Tchebycheff-style against the running ideal point, with
    neighborhood replacement and mutation-only reproduction.

    Replacement scores both sides of the comparison with the
    generating subproblem's own scalarization (it is not rescored per
    neighbor), so an offspring can displace any neighbor it beats on
    the subproblem that produced it.
    """
    mu = pop_size
    if mu < 2:
        raise ValueError("pop_size must be >= 2")
    run = _MoRun(inst, budget)
    n = run.n
    flip_mask = rng.mask_sampler(n, "binomial", n, 1.0 / n)
    weights = [(i / (mu - 1), 1.0 - i / (mu - 1)) for i in range(mu)]
    t_size = max(2, math.ceil(mu / 10))
    neigh = []
    for i in range(mu):
        wi = weights[i]
        order = sorted(range(mu), key=lambda j: ((weights[j][0] - wi[0]) ** 2
                                                 + (weights[j][1] - wi[1]) ** 2, j))
        neigh.append(tuple(order[:t_size]))
    xs: list[int] = []
    fs: list[Pair] = []
    for _ in range(mu):
        if run.evals >= budget:
            break
        v = rng.getrandbits(n)
        fs.append(run.evaluate(v, archive=False))
        xs.append(v)
    if not xs:
        return run.finish()
    z1 = max(p[0] for p in fs)
    z2 = max(p[1] for p in fs)
    while run.evals < budget:
        for i in range(len(xs)):
            if run.evals >= budget:
                break
            y = xs[i] ^ flip_mask()
            fy = run.evaluate(y)
            if fy[0] > z1:
                z1 = fy[0]
            if fy[1] > z2:
                z2 = fy[1]
            w1, w2 = weights[i]
            hy = max(w1 * (z1 - fy[0]), w2 * (z2 - fy[1]))
            for j in neigh[i]:
                fj = fs[j]
                if hy <= max(w1 * (z1 - fj[0]), w2 * (z2 - fj[1])):
                    xs[j] = y
                    fs[j] = fy
    return run.finish()


MULTI_RUNNERS = {
    "semo": run_semo,
    "gsemo": run_gsemo,
    "nsga2": run_nsga2,
    "smsemoa": run_smsemoa,
    "moead": run_moead,
}
