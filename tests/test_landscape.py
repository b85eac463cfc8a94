"""Exhaustive scans and compositional attainability oracles."""

import itertools
import math
import random

import pytest

from blockbench.bitstring import BitString
from blockbench.blocks import (block_optimum, epistasis, jump, leadingones,
                               onemax)
from blockbench.landscape import (attainable_by_block_values,
                                  attainable_by_distance,
                                  attainable_by_ones_count, block_profile,
                                  distance_landscape, exhaustive_optimum,
                                  ones_landscape, pareto_front_oracle)
from blockbench.problems import (BiObjectiveInstance, GateDir,
                                 compile_instance, evaluate_bi, known_optimum,
                                 make_biobjective, make_dbp, make_gcp,
                                 make_suite_instance)


# -- full scans ---------------------------------------------------------------


def test_exhaustive_onemax():
    spec = make_suite_instance("F1", 12, 2)
    f, x = exhaustive_optimum(spec)
    assert f == 12.0
    assert x == BitString.ones(12)


def test_exhaustive_jump_blocks():
    spec = make_suite_instance("F3", 12, 2)
    f, x = exhaustive_optimum(spec)
    assert f == 18.0  # two 6-bit blocks, each worth 6 + 3 at all-ones
    assert x == BitString.ones(12)


def test_exhaustive_matches_stored_optimum_smoke():
    for pid in ("F5", "F6", "F7", "F10"):
        spec = make_suite_instance(pid, 16, 4)
        assert exhaustive_optimum(spec)[0] == known_optimum(spec), pid


def test_exhaustive_tie_breaks_to_smallest_text():
    # weight 0 on the second block creates many argmax ties
    spec = make_dbp(4, (onemax(), onemax()), weights=(1, 0))
    f, x = exhaustive_optimum(spec)
    assert f == 2.0
    assert x.to01() == "1100"


def test_exhaustive_refuses_large_n():
    with pytest.raises(ValueError):
        exhaustive_optimum(make_suite_instance("F1", 30, 2))


# -- per-block profiles -------------------------------------------------------


def test_profile_onemax_distance():
    p = block_profile(onemax(), 10, "distance")
    assert set(p) == set(range(11))
    for d in range(11):
        assert p[d] == frozenset({10 - d})


def test_profile_jump_by_ones_and_distance():
    p = block_profile(jump(3), 10, "ones")
    for u in range(8):
        assert p[u] == frozenset({u + 3})
    assert p[8] == frozenset({2})
    assert p[9] == frozenset({1})
    assert p[10] == frozenset({13})
    d = block_profile(jump(3), 10, "distance")
    assert d[0] == frozenset({13})
    assert d[1] == frozenset({1})
    assert d[2] == frozenset({2})
    assert d[3] == frozenset({10})
    assert d[10] == frozenset({3})


def test_profile_epistasis_distance():
    p = block_profile(epistasis(3), 3, "distance")
    assert p[0] == frozenset({3})
    # flipping one bit drops the value by at least 2
    assert p[1] == frozenset({0, 1})
    assert p[3] == frozenset({2})


def test_profile_union_is_full_image():
    for bf, length in ((jump(2), 7), (epistasis(3), 8), (leadingones(), 6)):
        fn = compile_instance(make_dbp(length, (bf,))).fv
        image = {fn(v)[0] for v in range(1 << length)}
        by_d = frozenset().union(*block_profile(bf, length, "distance").values())
        by_u = frozenset().union(*block_profile(bf, length, "ones").values())
        assert set(by_d) == image
        assert set(by_u) == image


def test_profile_validation():
    with pytest.raises(ValueError):
        block_profile(onemax(), 21)
    with pytest.raises(ValueError):
        block_profile(onemax(), 8, "parity")


# -- compositional extrema ----------------------------------------------------


def test_attainable_by_distance_plain_sum():
    spec = make_suite_instance("F1", 40, 4)
    assert attainable_by_distance(spec, (0, 0, 0, 0)) == (40.0, 40.0)
    assert attainable_by_distance(spec, (1, 1, 1, 1)) == (36.0, 36.0)


def test_attainable_by_distance_respects_gates():
    # forward chain of 4-bit jump blocks: one off-optimum early block
    # closes every later gate
    spec = make_suite_instance("F7", 16, 4)
    assert attainable_by_distance(spec, (0, 0, 0, 0)) == (28.0, 28.0)
    assert attainable_by_distance(spec, (1, 0, 0, 0)) == (1.0, 1.0)
    assert attainable_by_distance(spec, (0, 0, 0, 1)) == (22.0, 22.0)


def test_attainable_by_distance_matches_scan():
    spec = make_suite_instance("F10", 16, 4)
    comp = compile_instance(spec)
    ln = 4
    import itertools
    for distances in ((0, 0, 0, 0), (1, 0, 2, 1), (4, 4, 4, 4)):
        opt_vals = [block_profile(bf, ln, "distance") for bf in spec.blocks]
        lo, hi = attainable_by_distance(spec, distances)
        # brute force over the raw strings with the same distance vector
        seen = []
        opts = [exhaustive_optimum(make_dbp(ln, (bf,)))[1].value
                for bf in spec.blocks]
        for parts in itertools.product(range(1 << ln), repeat=4):
            if all((p ^ o).bit_count() == d
                   for p, o, d in zip(parts, opts, distances)):
                v = 0
                for i, p in enumerate(parts):
                    v |= p << (i * ln)
                seen.append(comp.fv(v)[0])
        assert lo == min(seen)
        assert hi == max(seen)


def test_attainable_by_block_values():
    spec = make_suite_instance("F5", 40, 4)
    # pinning the jump block to its plateau caps the sum at 40
    assert attainable_by_block_values(spec, {2: 10}) == (10.0, 40.0)
    # the jump block's image has no zero, so the global floor is 1
    assert attainable_by_block_values(spec, {}) == (1.0, 43.0)
    with pytest.raises(ValueError):
        attainable_by_block_values(spec, {2: 12})  # 12 not in jump's image
    with pytest.raises(ValueError):
        attainable_by_block_values(spec, {7: 0})


def test_attainable_by_block_values_refuses_long_blocks():
    spec = make_dbp(42, (onemax(), jump(3)))
    with pytest.raises(ValueError, match="refusing block enumeration"):
        attainable_by_block_values(spec, {})


def test_attainable_by_ones_count():
    spec = make_suite_instance("F1", 12, 2)
    assert attainable_by_ones_count(spec, 5) == frozenset({5.0})
    f3 = make_suite_instance("F3", 12, 2)
    assert attainable_by_ones_count(f3, 12) == frozenset({18.0})
    assert attainable_by_ones_count(f3, 11) == frozenset({10.0})
    with pytest.raises(ValueError):
        attainable_by_ones_count(spec, 13)


def test_ones_count_gate_staircase():
    # one almost-full block in a forward chain: the objective depends on
    # where the deficient block sits
    spec = make_suite_instance("F7", 16, 4)
    assert attainable_by_ones_count(spec, 16) == frozenset({28.0})
    assert attainable_by_ones_count(spec, 15) == frozenset({1.0, 8.0, 15.0, 22.0})


def test_ones_count_union_covers_image():
    spec = make_suite_instance("F5", 8, 2)
    comp = compile_instance(spec)
    image = {comp.fv(v)[0] for v in range(1 << 8)}
    union = set()
    for k in range(9):
        union |= set(attainable_by_ones_count(spec, k))
    assert union == image


# -- the one-pass exports against brute force over all 2^n strings -------------

# int and float numbers, negative float weights and pair terms, and -0.0
NUMBERS = (0, 1, 2, -1, 0.0, -0.0, 0.5, -1.0, -1.5, 2.0)


def _random_spec(rnd):
    n, m = rnd.choice(((6, 1), (6, 2), (8, 2), (8, 4), (9, 3), (12, 3),
                       (12, 4)))
    ln = n // m
    blocks = [rnd.choice((onemax(), leadingones(), jump(rnd.randint(1, ln - 1)),
                          epistasis(rnd.randint(2, ln))))
              if ln > 1 else onemax() for _ in range(m)]
    weights = [rnd.choice(NUMBERS) for _ in range(m)]
    constants = [rnd.choice(NUMBERS) for _ in range(m)]
    if rnd.random() < 0.5:
        pairs = [[rnd.choice(NUMBERS) if j < i else 0 for j in range(m)]
                 for i in range(m)]
        return make_dbp(n, blocks, weights, constants, pairs)
    deps = [[rnd.choice((0, 1, 0.5)) if j > i else 0 for j in range(m)]
            for i in range(m)]
    thresholds = [rnd.choice((0, 1, 2, 1.5, ln + 1)) for _ in range(m)]
    dirs = [rnd.choice((GateDir.GE, GateDir.LE)) for _ in range(m)]
    return make_gcp(n, blocks, deps, thresholds, weights, constants, dirs)


def _by_string(spec):
    """(ones-count, block distances, f) of every x, f as the oracles take it."""
    comp = compile_instance(spec)
    ln = spec.block_length
    opts = [block_optimum(bf, ln).value for bf in spec.blocks]
    mask = (1 << ln) - 1
    for x in range(1 << spec.n):
        d = tuple(((x >> (i * ln) & mask) ^ o).bit_count()
                  for i, o in enumerate(opts))
        yield x.bit_count(), d, float(comp.f_from_values(comp.values_of(x)))


def test_one_pass_exports_match_brute_force():
    rnd = random.Random(2026)
    zeros = 0
    for _ in range(40):
        spec = _random_spec(rnd)
        by_k = [set() for _ in range(spec.n + 1)]
        by_d = {}
        for k, d, f in _by_string(spec):
            # the oracles rely on this: a set or extremum never has to
            # choose between 0.0 and -0.0, which compare equal
            assert not (f == 0 and math.copysign(1.0, f) < 0), spec
            zeros += f == 0
            by_k[k].add(f)
            by_d.setdefault(d, []).append(f)
        got_k = ones_landscape(spec)
        assert len(got_k) == spec.n + 1
        for k, (got, want) in enumerate(zip(got_k, by_k)):
            assert sorted(map(repr, got)) == sorted(map(repr, want)), (spec, k)
            assert attainable_by_ones_count(spec, k) == got
        rows = list(distance_landscape(spec))
        ds = list(itertools.product(range(spec.block_length + 1),
                                    repeat=spec.m))
        assert [r[:spec.m] for r in rows] == ds
        for row in rows:
            d, got = row[:spec.m], row[spec.m:]
            want = (min(by_d[d]), max(by_d[d]))
            assert repr(got) == repr(want), (spec, d)
            assert repr(attainable_by_distance(spec, d)) == repr(want)
        every = [f for fs in by_k for f in fs]
        assert repr(attainable_by_block_values(spec, {})) == repr(
            (min(every), max(every)))
    assert zeros > 0


# -- bi-objective front oracle ------------------------------------------------


def brute_front(inst):
    pairs = set()
    for v in range(1 << inst.n):
        e1, e2 = evaluate_bi(inst, BitString(inst.n, v))
        pairs.add((e1.f, e2.f))
    front = [p for p in pairs
             if not any(q != p and q[0] >= p[0] and q[1] >= p[1]
                        for q in pairs)]
    return sorted(front)


def test_pareto_oracle_oneminmax():
    inst = make_biobjective("BF1", 8, 2)
    front = pareto_front_oracle(inst)
    assert [pair for pair, _x in front] == [(float(k), float(8 - k))
                                            for k in range(9)]
    for pair, x in front:
        e1, e2 = evaluate_bi(inst, x)
        assert (e1.f, e2.f) == pair


def test_pareto_oracle_matches_pairwise_filter():
    for pid, m in (("BF2", 2), ("BF3", 2), ("BF4", 4), ("BF5", 4)):
        inst = make_biobjective(pid, 8, m)
        front = pareto_front_oracle(inst)
        assert sorted(pair for pair, _x in front) == brute_front(inst), pid


def test_pareto_oracle_degenerate_single_point():
    spec = make_dbp(6, (onemax(),))
    inst = BiObjectiveInstance(first=spec, second=spec, name="twin")
    front = pareto_front_oracle(inst)
    assert [pair for pair, _x in front] == [(6.0, 6.0)]


def test_pareto_oracle_refuses_large_n():
    with pytest.raises(ValueError):
        pareto_front_oracle(make_biobjective("BF1", 24, 2))
