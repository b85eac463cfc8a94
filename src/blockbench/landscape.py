"""Exhaustive and compositional landscape oracles.

Everything here is exact: full enumerations over small search spaces,
plus compositional extrema that exploit the fact that the objective
depends on a solution only through its block-value vector. Per-block
profiles store, for each Hamming distance to the block optimum or each
ones-count, the exact SET of attainable block values; sets rather than
intervals because jump blocks have non-contiguous images. Aggregating
over the Cartesian product of those sets therefore yields exact
attainable-objective extrema without touching all 2^n strings.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from .bitstring import BitString
from .blocks import BlockFunction, block_optimum, block_values, compile_block
from .problems import (BiObjectiveInstance, InstanceSpec, compile_bi,
                       compile_instance)

__all__ = [
    "exhaustive_optimum",
    "block_profile",
    "attainable_by_distance",
    "attainable_by_block_values",
    "attainable_by_ones_count",
    "distance_landscape",
    "ones_landscape",
    "pareto_front_oracle",
]

SCAN_LIMIT = 24      # full 2^n scans refuse beyond this
PROFILE_LIMIT = 20   # per-block enumerations refuse beyond this


def _lexkey(v: int, n: int) -> int:
    """Order key so ascending key = ascending 0/1 text form."""
    return int(format(v, f"0{n}b")[::-1], 2) if n else 0


def exhaustive_optimum(spec: InstanceSpec) -> tuple[float, BitString]:
    """Scan all 2^n solutions; ties resolve to the lexicographically
    smallest argmax (by the 0/1 text form) for reproducible logs."""
    if spec.n > SCAN_LIMIT:
        raise ValueError(f"refusing full scan beyond n={SCAN_LIMIT} (got {spec.n})")
    f_of = compile_instance(spec).f
    n = spec.n
    best_f = f_of(0)
    best_v = 0
    best_key = None
    for v in range(1, 1 << n):
        f = f_of(v)
        if f > best_f:
            best_f, best_v, best_key = f, v, None
        elif f == best_f:
            if best_key is None:
                best_key = _lexkey(best_v, n)
            k = _lexkey(v, n)
            if k < best_key:
                best_v, best_key = v, k
    return float(best_f), BitString(n, best_v)


def _refuse_long_blocks(length: int) -> None:
    if length > PROFILE_LIMIT:
        raise ValueError(f"refusing block enumeration beyond length {PROFILE_LIMIT}")


@lru_cache(maxsize=4096)
def block_profile(bf: BlockFunction, length: int, key: str = "distance") -> dict[int, frozenset[int]]:
    """Exact attainable block-value sets, grouped by the chosen axis.

    key = "distance": Hamming distance to the stored block optimum.
    key = "ones": ones-count of the block substring.
    Keys always cover 0..length and every set is non-empty.
    """
    _refuse_long_blocks(length)
    if key not in ("distance", "ones"):
        raise ValueError(f"unknown profile key {key!r}")
    fn = compile_block(bf, length)
    acc: dict[int, set[int]] = {d: set() for d in range(length + 1)}
    if key == "distance":
        opt = block_optimum(bf, length).value
        for v in range(1 << length):
            acc[(v ^ opt).bit_count()].add(fn(v))
    else:
        for v in range(1 << length):
            acc[v.bit_count()].add(fn(v))
    return {d: frozenset(s) for d, s in acc.items()}


def _extrema(agg, value_sets, memo: dict) -> tuple[float, float]:
    """min and max of f, as a float, over the product of value_sets, in
    one loop. memo maps V -> f for one instance; a caller that passes
    the same memo to many queries aggregates each distinct V once."""
    lo, hi = math.inf, -math.inf
    for V in product(*value_sets):
        f = memo.get(V)
        if f is None:
            f = memo[V] = float(agg(V))
        if f < lo:
            lo = f
        if f > hi:
            hi = f
    return lo, hi


def attainable_by_distance(spec: InstanceSpec, distances,
                           memo: dict | None = None) -> tuple[float, float]:
    """Extrema of f over all x whose block i sits at Hamming distance
    distances[i] from block i's optimum. memo (V -> f, for this spec
    only) lets repeated queries share aggregations."""
    ln = spec.block_length
    distances = tuple(distances)
    if len(distances) != spec.m:
        raise ValueError(f"expected {spec.m} distances")
    for d in distances:
        if not 0 <= d <= ln:
            raise ValueError(f"distance {d} out of range 0..{ln}")
    sets = [block_profile(bf, ln, "distance")[d]
            for bf, d in zip(spec.blocks, distances)]
    return _extrema(compile_instance(spec).f_from_values, sets,
                    {} if memo is None else memo)


def distance_landscape(spec: InstanceSpec):
    """(d..., f_min, f_max) for every distance vector d, in product
    order, as a generator: attainable_by_distance of each d, with the
    profiles and the evaluator looked up once and one memo for all."""
    ln = spec.block_length
    profiles = [block_profile(bf, ln, "distance") for bf in spec.blocks]
    agg = compile_instance(spec).f_from_values
    memo: dict = {}
    for d in product(range(ln + 1), repeat=spec.m):
        yield d + _extrema(agg, [p[x] for p, x in zip(profiles, d)], memo)


def attainable_by_block_values(spec: InstanceSpec, fixed: dict[int, int],
                               memo: dict | None = None) -> tuple[float, float]:
    """Extrema of f with some block values pinned; free blocks range
    over their full attainable sets (blocks.block_values). memo as in
    attainable_by_distance."""
    comp = compile_instance(spec)
    ln = spec.block_length
    _refuse_long_blocks(ln)
    full = [block_values(bf, ln) for bf in spec.blocks]
    sets = []
    for i in range(spec.m):
        if i in fixed:
            if fixed[i] not in full[i]:
                raise ValueError(f"value {fixed[i]} not attainable for block {i}")
            sets.append((fixed[i],))
        else:
            sets.append(full[i])
    unknown = set(fixed) - set(range(spec.m))
    if unknown:
        raise ValueError(f"no such blocks: {sorted(unknown)}")
    return _extrema(comp.f_from_values, sets, {} if memo is None else memo)


def ones_landscape(spec: InstanceSpec) -> list[frozenset[float]]:
    """All objective values attainable with exactly k ones overall, for
    k = 0..n, in one pass over the distinct block-value vectors.

    Each block value carries the mask of the block ones-counts that
    reach it; a vector V carries the sumset of its blocks' masks (bit k
    set when some x with k ones has block values V), and each f value
    the union of its vectors' masks. (No set has to choose between 0.0
    and -0.0: f_from_values's first term is 0.0, an int or a sum() of
    the constants, never -0.0, and a sum is -0.0 only if all terms are.)
    """
    ln = spec.block_length
    agg = compile_instance(spec).f_from_values
    blocks = []  # per block: (value, ones-counts reaching it) pairs
    for bf in spec.blocks:
        counts: dict[int, list[int]] = {}
        for u, values in block_profile(bf, ln, "ones").items():
            for v in values:
                counts.setdefault(v, []).append(u)
        blocks.append(list(counts.items()))
    by_f: dict[float, int] = {}
    last = blocks.pop()
    for V, mask in _folds(blocks, (), 1):  # the last block, while aggregating
        for v, us in last:
            f = float(agg(V + (v,)))
            by_f[f] = by_f.get(f, 0) | _shift_or(mask, us)
    return [frozenset(f for f, mask in by_f.items() if mask >> k & 1)
            for k in range(spec.n + 1)]


def _folds(blocks, V, mask):
    """(V + values, mask folded with their ones-counts) for every choice
    of one (value, ones-counts) pair per block, depth first, so only one
    path of partial vectors is held at a time."""
    if not blocks:
        yield V, mask
        return
    for v, us in blocks[0]:
        yield from _folds(blocks[1:], V + (v,), _shift_or(mask, us))


def _shift_or(mask: int, shifts) -> int:
    """The sumset of mask's bit positions and shifts, as a mask."""
    out = 0
    for s in shifts:
        out |= mask << s
    return out


def attainable_by_ones_count(spec: InstanceSpec, k: int) -> frozenset[float]:
    """All objective values attainable with exactly k ones overall: entry
    k of ones_landscape, which computes every k at once."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"ones-count {k} out of range 0..{spec.n}")
    return ones_landscape(spec)[k]


def pareto_front_oracle(inst: BiObjectiveInstance) -> list[tuple[tuple[float, float], BitString]]:
    """Exact Pareto front (maximization in both objectives) by full scan.

    Returns the non-dominated objective pairs sorted by ascending first
    objective, each with one representative solution (the first one
    encountered in backing-integer order, which is deterministic).
    """
    n = inst.n
    if n > PROFILE_LIMIT:
        raise ValueError(f"refusing full scan beyond n={PROFILE_LIMIT} (got {n})")
    fvv = compile_bi(inst)
    reps: dict[tuple[float, float], int] = {}
    for v in range(1 << n):
        pair = fvv(v)[:2]
        if pair not in reps:
            reps[pair] = v
    # sweep out dominated pairs: sort by y1 desc, y2 desc; keep strict y2 risers
    front: list[tuple[float, float]] = []
    best_y2 = None
    for pair in sorted(reps, key=lambda p: (-p[0], -p[1])):
        if best_y2 is None or pair[1] > best_y2:
            front.append(pair)
            best_y2 = pair[1]
    front.reverse()
    return [(pair, BitString(n, reps[pair])) for pair in front]
