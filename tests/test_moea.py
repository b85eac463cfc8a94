"""Multi-objective machinery: dominance, sorting, crowding, hypervolume,
archive semantics, and the five population runners."""

import math
import random

import pytest

from blockbench.landscape import pareto_front_oracle
from blockbench.moea import (MULTI_RUNNERS, ParetoArchive, crowding_distance,
                             dominates, environmental_selection,
                             hv_contributions, hypervolume_2d,
                             non_dominated_sort, run_gsemo, run_moead,
                             run_nsga2, run_semo, run_smsemoa,
                             weakly_dominates)
from blockbench.problems import make_biobjective
from blockbench.rng import RandomSource


# -- dominance ----------------------------------------------------------------


def test_dominance_relations():
    assert dominates((2.0, 2.0), (1.0, 2.0))
    assert dominates((2.0, 2.0), (1.0, 1.0))
    assert not dominates((2.0, 2.0), (2.0, 2.0))
    assert weakly_dominates((2.0, 2.0), (2.0, 2.0))
    assert not dominates((2.0, 1.0), (1.0, 2.0))
    assert not dominates((1.0, 2.0), (2.0, 1.0))
    assert not weakly_dominates((2.0, 1.0), (1.0, 2.0))


def brute_fronts(pairs):
    """Reference partition: repeatedly peel the pairwise-checked
    non-dominated subset."""
    remaining = list(range(len(pairs)))
    fronts = []
    while remaining:
        cur = [i for i in remaining
               if not any(dominates(pairs[j], pairs[i])
                          for j in remaining if j != i)]
        fronts.append(cur)
        remaining = [i for i in remaining if i not in cur]
    return fronts


def test_non_dominated_sort_examples():
    pairs = [(1.0, 1.0), (2.0, 2.0), (0.0, 3.0), (3.0, 0.0), (2.0, 2.0)]
    fronts = non_dominated_sort(pairs)
    assert fronts[0] == [1, 2, 3, 4]
    assert fronts[1] == [0]
    assert non_dominated_sort([]) == []
    assert non_dominated_sort([(5.0, 5.0)]) == [[0]]


def test_non_dominated_sort_matches_pairwise_oracle():
    rng = RandomSource(77)
    for _ in range(1000):
        count = 1 + rng.index_below(12)
        pairs = [(float(rng.index_below(5)), float(rng.index_below(5)))
                 for _ in range(count)]
        assert non_dominated_sort(pairs) == brute_fronts(pairs)


def _objective(rng, span):
    """Value in [-span/4, span): an int, a float, or a half-integer."""
    v = rng.randrange(-(span // 4), span)
    return rng.choice((v, float(v), v + 0.5))


def test_non_dominated_sort_sweep_matches_oracle_large():
    # populations of 1-80 points mixing ints and floats, with negative
    # values; narrow value ranges force duplicates and long tie chains
    rng = random.Random(2003)
    for _ in range(2000):
        count = rng.randint(1, 80)
        span = rng.randint(2, 40)
        pairs = [(_objective(rng, span), _objective(rng, span))
                 for _ in range(count)]
        for _ in range(rng.randint(0, count // 4)):
            pairs[rng.randrange(count)] = rng.choice(pairs)
        assert non_dominated_sort(pairs) == brute_fronts(pairs), pairs


# -- crowding distance ----------------------------------------------------------


def test_crowding_distance_examples():
    cd = crowding_distance([(0.0, 4.0), (2.0, 2.0), (4.0, 0.0)])
    assert cd[0] == math.inf
    assert cd[2] == math.inf
    assert cd[1] == pytest.approx(2.0)
    assert crowding_distance([]) == []
    assert crowding_distance([(1.0, 2.0)]) == [math.inf]
    assert crowding_distance([(1.0, 2.0), (2.0, 1.0)]) == [math.inf, math.inf]


def test_crowding_distance_duplicates_zero_range():
    cd = crowding_distance([(1.0, 1.0)] * 4)
    assert cd[0] == math.inf
    assert cd[-1] == math.inf
    assert cd[1] == 0.0
    assert cd[2] == 0.0


# -- hypervolume ----------------------------------------------------------------


def test_hypervolume_examples():
    assert hypervolume_2d([(3.0, 1.0), (1.0, 3.0)]) == 5.0
    assert hypervolume_2d([(3.0, 1.0), (1.0, 3.0), (1.0, 1.0)]) == 5.0
    assert hypervolume_2d([]) == 0.0
    # points on or below the reference contribute nothing
    assert hypervolume_2d([(0.0, 5.0), (5.0, 0.0)]) == 0.0
    assert hypervolume_2d([(2.0, 2.0)], ref=(1.0, 1.0)) == 1.0
    assert hypervolume_2d([(2.0, 2.0)], ref=(2.0, 2.0)) == 0.0


def grid_count_hv(points, span=10):
    """Count unit lattice cells dominated by some point (reference 0,0)."""
    cells = 0
    for i in range(span):
        for j in range(span):
            if any(p[0] >= i + 1 and p[1] >= j + 1 for p in points):
                cells += 1
    return float(cells)


def test_hypervolume_matches_grid_count():
    rng = RandomSource(31)
    for _ in range(500):
        count = 1 + rng.index_below(10)
        pts = [(float(rng.index_below(9)), float(rng.index_below(9)))
               for _ in range(count)]
        assert hypervolume_2d(pts) == grid_count_hv(pts)


def test_hv_contributions():
    assert hv_contributions([(3.0, 1.0), (1.0, 3.0)]) == [2.0, 2.0]
    assert hv_contributions([(2.0, 2.0), (2.0, 2.0)]) == [0.0, 0.0]
    got = hv_contributions([(4.0, 1.0), (3.0, 3.0), (1.0, 4.0)])
    assert got == [1.0, 4.0, 1.0]
    assert hv_contributions([]) == []
    # on or below the reference: nothing
    got = hv_contributions([(5.0, 0.0), (2.0, 2.0), (0.0, 5.0)])
    assert got == [0.0, 4.0, 0.0]
    # int input comes back as floats
    got = hv_contributions([(3, 1), (1, 3), (1, 3)], ref=(0, 0))
    assert got == [2.0, 0.0, 0.0]
    assert all(type(c) is float for c in got)


def leave_one_out(front, ref):
    """Reference rule: total hypervolume minus that without the point."""
    pts = list(front)
    total = hypervolume_2d(pts, ref)
    return [total - hypervolume_2d(pts[:i] + pts[i + 1:], ref)
            for i in range(len(pts))]


def test_hv_contributions_match_leave_one_out():
    rng = random.Random(2005)
    for _ in range(2000):
        # k distinct f1 values paired with k distinct f2 values in the
        # opposite order: a mutually non-dominated integer front
        k = rng.randint(1, 30)
        front = list(zip(sorted(rng.sample(range(-15, 45), k)),
                         sorted(rng.sample(range(-15, 45), k), reverse=True)))
        front += [rng.choice(front) for _ in range(rng.randint(0, k))]
        rng.shuffle(front)
        if rng.getrandbits(1):
            front = [(float(a), float(b)) for a, b in front]
        ref = (rng.randrange(-20, 10), rng.randrange(-20, 10))
        if rng.getrandbits(1):
            ref = (float(ref[0]), float(ref[1]))
        got = hv_contributions(front, ref)
        want = leave_one_out(front, ref)
        assert all(type(c) is float for c in got)
        assert [repr(c) for c in got] == [repr(c) for c in want], (front, ref)


# -- environmental selection ------------------------------------------------------


def test_selection_keeps_whole_fronts():
    pairs = [(1.0, 1.0), (3.0, 0.0), (0.0, 3.0), (2.0, 2.0)]
    kept = environmental_selection(pairs, 3, RandomSource(1))
    assert kept == [[1, 2, 3]]


def test_selection_cuts_by_crowding():
    pairs = [(0.0, 4.0), (2.0, 2.0), (4.0, 0.0), (1.0, 1.0)]
    kept = environmental_selection(pairs, 2, RandomSource(1))
    # boundary points beat the middle
    assert [sorted(fr) for fr in kept] == [[0, 2]]


def test_selection_cuts_by_hv_contribution():
    pairs = [(4.0, 1.0), (3.0, 3.0), (1.0, 4.0)]
    kept = environmental_selection(pairs, 1, RandomSource(1), metric="hv")
    assert kept == [[1]]
    [keep2] = environmental_selection(pairs, 2, RandomSource(1), metric="hv")
    assert 1 in keep2 and len(keep2) == 2


def test_selection_fronts_equal_fronts_of_survivors():
    # the generational loop reuses the returned fronts instead of sorting
    # the survivors again: renumbered in order, they must be that sort
    draw = random.Random(77)
    for _ in range(500):
        k = draw.randint(2, 40)
        pairs = [(draw.randint(0, 6), draw.randint(0, 6)) for _ in range(k)]
        for metric in ("crowding", "hv"):
            kept = environmental_selection(pairs, draw.randint(1, k),
                                           RandomSource(3), metric=metric)
            keep = [i for fr in kept for i in fr]
            assert sorted(keep) == sorted(set(keep))
            start, renumbered = 0, []
            for fr in kept:
                renumbered.append(list(range(start, start + len(fr))))
                start += len(fr)
            assert non_dominated_sort([pairs[i] for i in keep]) == renumbered


def test_selection_unknown_metric():
    pairs = [(4.0, 1.0), (3.0, 3.0), (1.0, 4.0)]
    with pytest.raises(ValueError):
        environmental_selection(pairs, 1, RandomSource(1), metric="spread")


# -- archive -----------------------------------------------------------------------


def test_archive_insert_evict():
    a = ParetoArchive(8)
    assert a.try_insert(0b1, (2.0, 2.0))
    assert not a.try_insert(0b10, (1.0, 1.0))   # dominated
    assert not a.try_insert(0b11, (2.0, 2.0))   # duplicate pair
    assert a.try_insert(0b100, (3.0, 3.0))      # evicts (2,2)
    assert len(a) == 1
    assert a.try_insert(0b101, (1.0, 4.0))
    assert a.try_insert(0b110, (4.0, 1.0))
    assert len(a) == 3
    assert sorted(a.pairs) == [(1.0, 4.0), (3.0, 3.0), (4.0, 1.0)]
    assert a.hypervolume() == hypervolume_2d(a.pairs)


def test_archive_first_in_wins():
    a = ParetoArchive(8)
    assert a.try_insert(5, (2.0, 3.0))
    assert not a.try_insert(9, (2.0, 3.0))
    (x, pair), = a.entries
    assert x.value == 5
    assert pair == (2.0, 3.0)


def test_archive_trace_monotone():
    a = ParetoArchive(8)
    rng = RandomSource(9)
    hvs = []
    for _ in range(200):
        if a.try_insert(rng.getrandbits(8), (float(rng.index_below(6)),
                                             float(rng.index_below(6)))):
            hvs.append(a.hypervolume())
    assert len(hvs) > 1
    assert all(b >= a_ for a_, b in zip(hvs, hvs[1:]))


def test_archive_pick_value_members_only():
    a = ParetoArchive(8)
    a.try_insert(3, (1.0, 2.0))
    a.try_insert(12, (2.0, 1.0))
    rng = RandomSource(2)
    assert {a.pick_value(rng) for _ in range(50)} == {3, 12}


# -- runners -------------------------------------------------------------------------


def test_registry():
    assert set(MULTI_RUNNERS) == {"semo", "gsemo", "nsga2", "smsemoa", "moead"}


def test_semo_budget_one():
    inst = make_biobjective("BF1", 8, 2)
    a = run_semo(inst, 1, RandomSource(4))
    assert a.evaluations_used == 1
    assert len(a) == 1
    assert len(a.progress) == 1


def test_archive_runners_recover_full_front():
    inst = make_biobjective("BF1", 16, 2)
    oracle = [pair for pair, _x in pareto_front_oracle(inst)]
    target_hv = hypervolume_2d(oracle)
    for runner in (run_semo, run_gsemo):
        a = runner(inst, 20_000, RandomSource(123))
        assert a.evaluations_used == 20_000
        assert len(a) == 17
        assert a.hypervolume() == target_hv
        assert sorted(a.pairs) == oracle


def test_population_runners_recover_full_front():
    inst = make_biobjective("BF1", 16, 2)
    oracle = [pair for pair, _x in pareto_front_oracle(inst)]
    target_hv = hypervolume_2d(oracle)
    for runner in (run_nsga2, run_smsemoa, run_moead):
        a = runner(inst, 16, 20_000, RandomSource(123))
        assert a.hypervolume() == target_hv
        assert sorted(a.pairs) == oracle


def test_generational_eval_accounting():
    inst = make_biobjective("BF2", 12, 2)
    a = run_nsga2(inst, 20, 60, RandomSource(5))
    assert a.evaluations_used == 60  # init 20 + two generations
    b = run_nsga2(inst, 20, 59, RandomSource(5))
    assert b.evaluations_used == 40  # third generation would overrun


def test_moead_initial_population_not_archived():
    inst = make_biobjective("BF1", 8, 2)
    a = run_moead(inst, 4, 4, RandomSource(6))
    assert a.evaluations_used == 4
    assert len(a) == 0          # only offspring enter the archive
    assert a.progress            # objective maxima still tracked
    b = run_moead(inst, 4, 20, RandomSource(6))
    assert len(b) >= 1


def test_pop_size_validation():
    inst = make_biobjective("BF1", 8, 2)
    for runner in (run_nsga2, run_smsemoa, run_moead):
        with pytest.raises(ValueError):
            runner(inst, 1, 100, RandomSource(0))


def test_progress_rows_monotone():
    inst = make_biobjective("BF4", 16, 4)
    for name, runner in MULTI_RUNNERS.items():
        if name in ("semo", "gsemo"):
            a = runner(inst, 2000, RandomSource(13))
        else:
            a = runner(inst, 8, 2000, RandomSource(13))
        rows = a.progress
        assert rows[0][0] >= 1
        evs = [r[0] for r in rows]
        assert evs == sorted(evs)
        for col in (1, 2, 3):
            vals = [r[col] for r in rows]
            assert all(b >= a_ for a_, b in zip(vals, vals[1:])), (name, col)
        for i in range(4):
            vs = [r[4][i] for r in rows]
            assert all(b >= a_ for a_, b in zip(vs, vs[1:]))


def test_runners_deterministic():
    inst = make_biobjective("BF3", 12, 2)
    for name, runner in MULTI_RUNNERS.items():
        if name in ("semo", "gsemo"):
            a = runner(inst, 500, RandomSource(21))
            b = runner(inst, 500, RandomSource(21))
        else:
            a = runner(inst, 8, 500, RandomSource(21))
            b = runner(inst, 8, 500, RandomSource(21))
        assert a.pairs == b.pairs
        assert a.progress == b.progress
