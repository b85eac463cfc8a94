"""Single-objective solvers: shared run semantics, per-variant control
parameters, the (mu+1) GA's removal helpers, and hitting-time sanity."""

import math
import statistics

import pytest

from blockbench.problems import known_optimum, make_dbp, make_suite_instance
from blockbench.blocks import onemax
from blockbench.rng import RandomSource
from blockbench.soea import (SOConfig, VARIANTS, max_distance_pair,
                             removal_index, run_single)

ALL = tuple(VARIANTS)


def cfg_for(variant):
    return SOConfig(variant=variant)


# -- shared run semantics -----------------------------------------------------


@pytest.mark.parametrize("variant", ALL)
def test_budget_one(variant):
    spec = make_suite_instance("F1", 8, 1)
    res = run_single(cfg_for(variant), spec, 1, RandomSource(5))
    assert res.evaluations_used == 1
    assert len(res.trajectory) == 1
    assert res.trajectory[0][0] == 1
    assert res.trajectory[0][1] == res.best_f


@pytest.mark.parametrize("variant", ALL)
def test_budget_zero_rejected(variant):
    spec = make_suite_instance("F1", 8, 1)
    with pytest.raises(ValueError):
        run_single(cfg_for(variant), spec, 0, RandomSource(5))


@pytest.mark.parametrize("variant", ALL)
def test_budget_never_exceeded_and_trajectory_monotone(variant):
    spec = make_suite_instance("F5", 20, 2)
    budget = 3000
    res = run_single(cfg_for(variant), spec, budget, RandomSource(17))
    assert res.evaluations_used <= budget
    evs = [row[0] for row in res.trajectory]
    fs = [row[1] for row in res.trajectory]
    assert evs == sorted(evs)
    assert all(b > a for a, b in zip(fs, fs[1:]))  # strict improvements only
    assert res.best_f == fs[-1]
    assert res.trajectory[0][0] == 1
    if res.hit_target:
        assert res.hit_index <= res.evaluations_used
        assert res.best_f >= known_optimum(spec)


@pytest.mark.parametrize("variant", ALL)
def test_deterministic_given_seed(variant):
    spec = make_suite_instance("F10", 16, 4)
    a = run_single(cfg_for(variant), spec, 2000, RandomSource(99))
    b = run_single(cfg_for(variant), spec, 2000, RandomSource(99))
    assert a.best_f == b.best_f
    assert a.evaluations_used == b.evaluations_used
    assert a.hit_index == b.hit_index
    assert a.trajectory == b.trajectory
    assert a.best_x == b.best_x


@pytest.mark.parametrize("variant", ALL)
def test_solves_onemax_quickly(variant):
    spec = make_suite_instance("F1", 10, 1)
    for k in range(20):
        res = run_single(cfg_for(variant), spec, 100_000, RandomSource(k))
        assert res.hit_target, (variant, k)
        assert res.best_f == 10.0


def test_custom_target_stops_early():
    spec = make_suite_instance("F2", 20, 1)
    full = run_single(cfg_for("ea"), spec, 50_000, RandomSource(3))
    part = run_single(cfg_for("ea"), spec, 50_000, RandomSource(3), target=10.0)
    assert part.hit_target
    assert part.hit_index <= full.hit_index


def test_none_target_means_no_target(monkeypatch):
    import blockbench.soea as soea
    spec = make_suite_instance("F1", 8, 1)
    calls = []
    monkeypatch.setattr(soea, "known_optimum",
                        lambda s: calls.append(s) or 8.0)
    res = run_single(cfg_for("ea"), spec, 500, RandomSource(4), target=None)
    assert calls == []  # an explicit None is not recomputed
    assert not res.hit_target and res.hit_index is None
    assert res.evaluations_used == 500
    res = run_single(cfg_for("ea"), spec, 500, RandomSource(4))
    assert calls == [spec]  # the default target is the known optimum
    assert res.hit_target


# -- per-variant control traces ----------------------------------------------


def test_two_rate_rate_bounds_and_steps():
    spec = make_suite_instance("F1", 20, 1)
    trace = []
    run_single(cfg_for("two_rate"), spec, 4000, RandomSource(8), trace=trace)
    assert trace
    r_hi = max(2.0, 20 / 4)
    prev = 2.0
    for row in trace:
        r = row["r"]
        assert 2.0 <= r <= r_hi
        assert r in (max(prev / 2, 2.0), min(2 * prev, r_hi))
        prev = r


def test_var_ea_counter_steps():
    spec = make_suite_instance("F4", 20, 2)
    trace = []
    run_single(cfg_for("var_ea"), spec, 4000, RandomSource(8), trace=trace)
    assert trace
    prev_c = 0
    for row in trace:
        assert 1 <= row["r"] <= 20
        assert row["c"] in (0, prev_c + 1)
        prev_c = row["c"]


def test_oll_lambda_stays_in_range():
    spec = make_suite_instance("F3", 20, 2)
    trace = []
    run_single(cfg_for("oll_ga"), spec, 6000, RandomSource(8), trace=trace)
    assert trace
    assert all(1.0 <= row["lam"] <= 20.0 for row in trace)


# -- (mu+1) GA helpers ---------------------------------------------------------


def test_max_distance_pair_unique():
    rng = RandomSource(1)
    assert max_distance_pair([0b0000, 0b1111, 0b0001], rng) == (0, 1)


def test_max_distance_pair_tie_uniform():
    rng = RandomSource(2)
    seen = {max_distance_pair([0b00, 0b11, 0b01, 0b10], rng)
            for _ in range(200)}
    assert seen == {(0, 1), (2, 3)}


def test_removal_index_worst_unprotected():
    rng = RandomSource(3)
    assert removal_index([3.0, 1.0, 2.0, 1.5], frozenset({1}), rng) == 3
    # protection can force removing the best member
    assert removal_index([1.0, 1.0, 99.0], frozenset({0, 1}), rng) == 2
    assert removal_index([5.0], frozenset(), rng) == 0


def test_removal_index_uniform_among_worst():
    rng = RandomSource(4)
    seen = {removal_index([1.0, 1.0, 2.0], frozenset(), rng)
            for _ in range(200)}
    assert seen == {0, 1}


def test_removal_preserves_max_distance():
    # surviving population always realizes the pre-removal max distance
    rng = RandomSource(11)
    for _ in range(200):
        xs = [rng.getrandbits(12) for _ in range(5)]
        fs = [float(rng.index_below(4)) for _ in xs]
        before = max((xs[i] ^ xs[j]).bit_count()
                     for i in range(5) for j in range(i + 1, 5))
        ridx = removal_index(fs, frozenset(max_distance_pair(xs, rng)), rng)
        rest = [x for i, x in enumerate(xs) if i != ridx]
        after = max((rest[i] ^ rest[j]).bit_count()
                    for i in range(4) for j in range(i + 1, 4))
        assert after == before


def test_mu_ga_small_budget_and_both_variants_solve_onemax():
    spec = make_suite_instance("F1", 10, 1)
    res = run_single(SOConfig(variant="mu_ga", mu=8), spec, 3, RandomSource(1))
    assert res.evaluations_used == 3
    for div in (False, True):
        cfg = SOConfig(variant="mu_ga", diversity=div)
        for k in range(20):
            res = run_single(cfg, spec, 100_000, RandomSource(k + 40))
            assert res.hit_target, (div, k)


# -- hitting-time sanity -------------------------------------------------------


def expected_hitting_time_onemax(n):
    """Exact expectation for the elitist single-offspring loop whose
    mutation draws a positive binomial flip count: backward recursion
    over ones-count states, then averaged over the random start."""
    p = 1.0 / n
    q00 = (1 - p) ** n
    E = [0.0] * (n + 1)
    for c in range(n - 1, -1, -1):
        stay = 0.0
        acc = 0.0
        for i in range(c + 1):
            for j in range(n - c + 1):
                if i == 0 and j == 0:
                    continue
                pr = (math.comb(c, i) * math.comb(n - c, j)
                      * p ** (i + j) * (1 - p) ** (n - i - j)) / (1 - q00)
                if j > i:
                    acc += pr * E[c + j - i]
                else:
                    stay += pr
        E[c] = (1.0 + acc) / (1.0 - stay)
    start = sum(math.comb(n, c) * 0.5 ** n * E[c] for c in range(n + 1))
    return 1.0 + start  # the initial sample costs one evaluation


def test_one_plus_one_onemax_hitting_time():
    n = 10
    spec = make_dbp(n, (onemax(),))
    cfg = SOConfig(variant="ea", lam=1)
    root = RandomSource(123)
    times = []
    for k in range(500):
        res = run_single(cfg, spec, 100_000, root.derive(k))
        assert res.hit_target
        times.append(res.hit_index)
    expected = expected_hitting_time_onemax(n)  # 32.25 for n = 10
    mean = statistics.mean(times)
    assert abs(mean - expected) < 0.15 * expected


# -- configuration validation ---------------------------------------------------


def test_config_validation():
    spec = make_suite_instance("F1", 8, 1)
    bad = [
        SOConfig(variant="annealing"),
        SOConfig(variant="ea", lam=0),
        SOConfig(variant="ea", p=0.0),
        SOConfig(variant="ea", p=1.5),
        SOConfig(variant="two_rate", lam=5),
        SOConfig(variant="fga", beta=1.0),
        SOConfig(variant="mu_ga", mu=1),
        SOConfig(variant="mu_ga", p_c=1.5),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            run_single(cfg, spec, 10, RandomSource(0))
    SOConfig(variant="ea", p=1.0).check(8)  # boundary rate is legal
