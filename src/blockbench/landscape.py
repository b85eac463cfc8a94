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

from functools import lru_cache
from itertools import product

from .bitstring import BitString
from .blocks import BlockFunction, block_optimum, compile_block
from .problems import (BiObjectiveInstance, InstanceSpec, compile_bi,
                       compile_instance)

__all__ = [
    "exhaustive_optimum",
    "block_profile",
    "attainable_by_distance",
    "attainable_by_block_values",
    "attainable_by_ones_count",
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


@lru_cache(maxsize=4096)
def block_profile(bf: BlockFunction, length: int, key: str = "distance") -> dict[int, frozenset[int]]:
    """Exact attainable block-value sets, grouped by the chosen axis.

    key = "distance": Hamming distance to the stored block optimum.
    key = "ones": ones-count of the block substring.
    Keys always cover 0..length and every set is non-empty.
    """
    if length > PROFILE_LIMIT:
        raise ValueError(f"refusing block enumeration beyond length {PROFILE_LIMIT}")
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


def _f_over_products(comp, value_sets, memo) -> list[float]:
    """f, as a float, of every vector in the product of value_sets, in
    product order. memo maps V -> f for one instance; a caller that
    passes the same memo to many queries aggregates each distinct V once."""
    agg = comp.f_from_values
    if memo is None:
        memo = {}
    out = []
    for V in product(*value_sets):
        f = memo.get(V)
        if f is None:
            f = memo[V] = float(agg(V))
        out.append(f)
    return out


def _extrema_over_products(comp, value_sets, memo) -> tuple[float, float]:
    fs = _f_over_products(comp, value_sets, memo)
    return min(fs), max(fs)


def attainable_by_distance(spec: InstanceSpec, distances,
                           memo: dict | None = None) -> tuple[float, float]:
    """Extrema of f over all x whose block i sits at Hamming distance
    distances[i] from block i's optimum. memo (V -> f, for this spec
    only) lets repeated queries share aggregations."""
    comp = compile_instance(spec)
    ln = spec.block_length
    distances = tuple(distances)
    if len(distances) != spec.m:
        raise ValueError(f"expected {spec.m} distances")
    for d in distances:
        if not 0 <= d <= ln:
            raise ValueError(f"distance {d} out of range 0..{ln}")
    sets = [
        block_profile(bf, ln, "distance")[d]
        for bf, d in zip(spec.blocks, distances)
    ]
    return _extrema_over_products(comp, sets, memo)


def attainable_by_block_values(spec: InstanceSpec, fixed: dict[int, int],
                               memo: dict | None = None) -> tuple[float, float]:
    """Extrema of f with some block values pinned; free blocks range
    over their full attainable sets. memo as in attainable_by_distance."""
    comp = compile_instance(spec)
    ln = spec.block_length
    full = [
        frozenset().union(*block_profile(bf, ln, "ones").values())
        for bf in spec.blocks
    ]
    sets = []
    for i in range(spec.m):
        if i in fixed:
            if fixed[i] not in full[i]:
                raise ValueError(f"value {fixed[i]} not attainable for block {i}")
            sets.append(frozenset((fixed[i],)))
        else:
            sets.append(full[i])
    unknown = set(fixed) - set(range(spec.m))
    if unknown:
        raise ValueError(f"no such blocks: {sorted(unknown)}")
    return _extrema_over_products(comp, sets, memo)


def _compositions(total: int, caps: tuple[int, ...]):
    """All vectors u with 0 <= u_i <= caps[i] summing to total."""
    if len(caps) == 1:
        if 0 <= total <= caps[0]:
            yield (total,)
        return
    tail_max = sum(caps[1:])
    for u in range(max(0, total - tail_max), min(caps[0], total) + 1):
        for rest in _compositions(total - u, caps[1:]):
            yield (u,) + rest


def attainable_by_ones_count(spec: InstanceSpec, k: int,
                             memo: dict | None = None) -> frozenset[float]:
    """All objective values attainable with exactly k ones overall.
    memo as in attainable_by_distance."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"ones-count {k} out of range 0..{spec.n}")
    comp = compile_instance(spec)
    ln = spec.block_length
    profiles = [block_profile(bf, ln, "ones") for bf in spec.blocks]
    if memo is None:
        memo = {}
    out: set[float] = set()
    for u in _compositions(k, (ln,) * spec.m):
        out.update(_f_over_products(
            comp, [profiles[i][u[i]] for i in range(spec.m)], memo))
    return frozenset(out)


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
