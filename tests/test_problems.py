"""Problem composition: additive and gated objectives, the named
instances, bi-objective pairs, validation, and serialization."""

import pickle
import random

import pytest

from blockbench.bitstring import BitString
from blockbench.blocks import epistasis, jump, leadingones, onemax
from blockbench.landscape import exhaustive_optimum
from blockbench.problems import (BiObjectiveInstance, GateDir, InstanceSpec,
                                 Kind, ancestors, backward_path,
                                 biobjective_ids, CompiledInstance,
                                 compile_bi, compile_instance, evaluate, evaluate_bi,
                                 forward_path, known_optimum, make_biobjective,
                                 make_dbp, make_gcp, make_suite_instance,
                                 spec_from_dict, spec_from_json, spec_to_dict,
                                 spec_to_json, suite_ids, validate_spec,
                                 zero_matrix)
from blockbench.rng import RandomSource


def brute_force_dbp(spec, x):
    """Direct sum-plus-pairwise-products evaluation."""
    comp = compile_instance(spec)
    V = comp.values_of(x.value)
    total = 0.0
    for i in range(spec.m):
        total += spec.constants[i] + spec.weights[i] * V[i]
    for i in range(spec.m):
        for j in range(i):
            total += spec.dependencies[i][j] * V[i] * V[j]
    return total


def brute_force_gcp(spec, x):
    comp = compile_instance(spec)
    V = comp.values_of(x.value)
    eff = comp.eff_thresholds
    total = 0.0
    for i in range(spec.m):
        gate = 1.0
        for j in ancestors(spec.dependencies, i):
            ok = (V[j] >= eff[j] if spec.gate_dirs[j] is GateDir.GE
                  else V[j] <= eff[j])
            if not ok:
                gate = 0.0
                break
        total += (spec.constants[i] + spec.weights[i] * V[i]) * gate
    return total


# -- composition semantics -------------------------------------------------


def test_dbp_single_block_is_plain_function():
    spec = make_dbp(10, (jump(3),))
    assert evaluate(spec, BitString.ones(10)).f == 13.0
    assert evaluate(spec, BitString.from01("1111111000")).f == 10.0


def test_dbp_matches_brute_force_random_specs():
    rng = RandomSource(42)
    for _ in range(20):
        m = 1 + rng.index_below(3)
        length = 2 + rng.index_below(3)
        n = m * length
        blocks = tuple((onemax(), leadingones(), jump(1))[rng.index_below(3)]
                       for _ in range(m))
        W = tuple(rng.index_below(5) - 2 for _ in range(m))
        A = tuple(rng.index_below(3) for _ in range(m))
        E = tuple(tuple(rng.index_below(3) - 1 if i > j else 0
                        for j in range(m)) for i in range(m))
        spec = make_dbp(n, blocks, weights=W, constants=A, dependencies=E)
        for _ in range(25):
            x = BitString.random(rng, n)
            assert evaluate(spec, x).f == pytest.approx(brute_force_dbp(spec, x))


def test_dbp_pairwise_product_term():
    # two OneMax blocks with e_21 = 2: f = v1 + v2 + 2 v1 v2
    spec = make_dbp(8, (onemax(), onemax()),
                    dependencies=((0, 0), (2, 0)))
    x = BitString.from01("11110011")
    assert evaluate(spec, x).f == 4 + 2 + 2 * 4 * 2


def test_gcp_gates_and_ancestors():
    spec = make_suite_instance("F7", 16, 4)  # jump blocks, forward path
    comp = compile_instance(spec)
    # all blocks at local plateau: gates above the first are closed
    x = BitString.from01("1110" * 4)
    ev = evaluate(spec, x)
    assert ev.gates == (1.0, 0.0, 0.0, 0.0)
    assert ev.f == ev.block_values[0]
    full = evaluate(spec, BitString.ones(16))
    assert full.gates == (1.0, 1.0, 1.0, 1.0)
    assert full.f == sum(full.block_values)


def test_gcp_matches_brute_force_random():
    rng = RandomSource(7)
    spec = make_suite_instance("F10", 24, 4)
    for _ in range(200):
        x = BitString.random(rng, 24)
        assert evaluate(spec, x).f == pytest.approx(brute_force_gcp(spec, x))
    spec9 = make_suite_instance("F9", 24, 4)
    for _ in range(200):
        x = BitString.random(rng, 24)
        assert evaluate(spec9, x).f == pytest.approx(brute_force_gcp(spec9, x))


def test_gcp_le_gate_direction():
    spec = make_gcp(6, (onemax(), onemax()), forward_path(2),
                    thresholds=(1, 0), gate_dirs=(GateDir.LE, GateDir.LE))
    # block 2 is gated on v1 <= 1
    lo = evaluate(spec, BitString.from01("100111"))
    assert lo.gates == (1.0, 1.0)
    hi = evaluate(spec, BitString.from01("110111"))
    assert hi.gates == (1.0, 0.0)


def test_gcp_gate_dirs_given_as_strings():
    # "ge" strings coerce to GateDir.GE, so the threshold 9 is clamped to
    # the block maximum 4 and the second gate opens at the optimum
    args = (8, (onemax(), onemax()), forward_path(2), (9, 0))
    by_str = make_gcp(*args, gate_dirs=("ge", "ge"))
    by_enum = make_gcp(*args, gate_dirs=(GateDir.GE, GateDir.GE))
    assert by_str.gate_dirs == (GateDir.GE, GateDir.GE)
    assert all(type(d) is GateDir for d in by_str.gate_dirs)
    assert compile_instance(by_str).fv(0xFF) == (8, (4, 4))
    assert compile_instance(by_str).fv(0xFF) == compile_instance(by_enum).fv(0xFF)
    assert known_optimum(by_str) == 8.0
    with pytest.raises(ValueError):
        make_gcp(*args, gate_dirs=("ge", "up"))


def test_validate_rejects_gate_dirs_not_gatedir():
    spec = InstanceSpec(kind=Kind.GCP, n=8, m=2,
                        blocks=(onemax(), onemax()),
                        weights=(1, 1), constants=(0, 0),
                        dependencies=forward_path(2), thresholds=(9, 0),
                        gate_dirs=("ge", GateDir.GE))
    assert any("GateDir" in p for p in validate_spec(spec))
    with pytest.raises(ValueError):
        compile_instance(spec)


def test_gcp_threshold_clamping():
    # stored thresholds stay raw; gating clamps to the reachable range
    spec = make_suite_instance("F9", 40, 4)
    assert spec.thresholds == (15, 15, 15, 15)
    comp = compile_instance(spec)
    assert comp.eff_thresholds == (10, 12, 13, 10)
    assert known_optimum(spec) == 45.0


def test_gate_monotonicity_ge():
    # raising an ancestor's block value never closes more gates
    spec = make_suite_instance("F7", 16, 4)
    lo = evaluate(spec, BitString.from01("1101" + "1111" * 3))
    hi = evaluate(spec, BitString.ones(16))
    assert all(g2 >= g1 for g1, g2 in zip(lo.gates, hi.gates))


def test_ancestors_path_and_diamond():
    path = forward_path(4)
    assert ancestors(path, 0) == frozenset()
    assert ancestors(path, 2) == frozenset({0, 1})
    assert ancestors(path, 3) == frozenset({0, 1, 2})
    # diamond 0 -> {1, 2} -> 3, written directly as e[src][dst]
    dep = ((0.0, 1.0, 1.0, 0.0),
           (0.0, 0.0, 0.0, 1.0),
           (0.0, 0.0, 0.0, 1.0),
           (0.0, 0.0, 0.0, 0.0))
    assert ancestors(dep, 3) == frozenset({0, 1, 2})
    assert ancestors(dep, 2) == frozenset({0})
    assert ancestors(dep, 1) == frozenset({0})
    assert ancestors(dep, 0) == frozenset()


def test_long_backward_chain_validates_and_compiles():
    m = 1500
    spec = make_gcp(m, [onemax()] * m, backward_path(m), [1] * m)
    assert ancestors(spec.dependencies, 0) == frozenset(range(1, m))
    comp = compile_instance(spec)
    assert comp.chain == tuple(range(m - 1, -1, -1))
    assert known_optimum(spec) == 1500.0
    assert comp.fv((1 << m) - 1)[0] == 1500


# -- named instances --------------------------------------------------------


def test_suite_ids_and_optima():
    assert suite_ids() == tuple(f"F{i}" for i in range(1, 11))
    values = {
        ("F1", 40, 4): 40.0,
        ("F2", 40, 4): 40.0,
        ("F3", 40, 4): 52.0,
        ("F4", 40, 4): 40.0,
        ("F5", 40, 4): 43.0,
        ("F6", 40, 4): 45.0,
        ("F7", 40, 4): 52.0,
        ("F8", 40, 4): 40.0,
        ("F9", 40, 4): 45.0,
        ("F10", 40, 4): 43.0,
    }
    for (pid, n, m), want in values.items():
        spec = make_suite_instance(pid, n, m)
        assert known_optimum(spec) == want, pid


def test_unknown_id_raises():
    with pytest.raises(ValueError):
        make_suite_instance("F11", 40, 4)
    with pytest.raises(ValueError):
        make_biobjective("BF9", 40, 4)


def test_leadingones_equivalence_via_one_bit_gcp():
    # one-bit OneMax blocks on a forward path with unit thresholds gate
    # exactly like the n-dimensional LeadingOnes function
    n = 12
    spec = make_gcp(n, tuple(onemax() for _ in range(n)),
                    forward_path(n), thresholds=(1,) * n)
    lo = make_dbp(n, (leadingones(),))
    for v in range(1 << n):
        x = BitString(n, v)
        assert evaluate(spec, x).f == evaluate(lo, x).f


# -- bi-objective pairs -----------------------------------------------------


def test_bf1_is_oneminmax():
    inst = make_biobjective("BF1", 12, 2)
    for v in range(1 << 12):
        x = BitString(12, v)
        e1, e2 = evaluate_bi(inst, x)
        assert e1.f == x.ones_count
        assert e1.f + e2.f == 12


def test_bf2_example_pair():
    x = BitString.from01("11100011")
    # two 4-bit blocks: forward objective counts the 3 ones in block 1
    # (its gate threshold 4 is unmet, so block 2 contributes nothing);
    # backward objective counts the 2 zeros of block 2, and block 1's
    # zero-count stays gated off because block 2 is not yet all-zero
    inst2 = make_biobjective("BF2", 8, 2)
    e1, e2 = evaluate_bi(inst2, x)
    assert (e1.f, e2.f) == (3.0, 2.0)
    # one-bit blocks: plain leading-ones / trailing-zeros
    inst8 = make_biobjective("BF2", 8, 8)
    e1, e2 = evaluate_bi(inst8, x)
    assert (e1.f, e2.f) == (3.0, 0.0)
    z1, z2 = evaluate_bi(inst2, BitString.zeros(8))
    assert (z1.f, z2.f) == (0.0, 8.0)
    o1, o2 = evaluate_bi(inst2, BitString.ones(8))
    assert (o1.f, o2.f) == (8.0, 0.0)


def test_bf2_is_blockwise_lotz_on_full_scan():
    # maxima trace the leading-full-blocks vs trailing-empty-blocks curve
    inst = make_biobjective("BF2", 8, 4)
    best = {}
    for v in range(1 << 8):
        e1, e2 = evaluate_bi(inst, BitString(8, v))
        best[e1.f] = max(best.get(e1.f, -1), e2.f)
    assert best[8.0] == 0.0
    assert best[0.0] == 8.0


def test_bf4_structure():
    inst = make_biobjective("BF4", 40, 4)
    # first objective rewards blocks (full, empty, full, full)
    x = BitString.from_bits([1] * 10 + [0] * 10 + [1] * 20)
    e1, _ = evaluate_bi(inst, x)
    assert e1.f == 40.0
    # second objective flips the preferred state of blocks 1 and 4
    y = BitString.from_bits([0] * 10 + [1] * 10 + [1] * 10 + [0] * 10)
    _, e2y = evaluate_bi(inst, y)
    assert e2y.f == 40.0
    # a full last block breaks its own empty-block gate, which closes
    # every earlier block along the backward chain
    z = BitString.from_bits([0] * 10 + [1] * 10 + [1] * 20)
    _, e2z = evaluate_bi(inst, z)
    assert e2z.f == 0.0


def test_bf4_bf5_objective_maxima():
    for pid in ("BF4", "BF5"):
        inst = make_biobjective(pid, 16, 4)
        best1 = best2 = -1.0
        for v in range(1 << 16):
            e1, e2 = evaluate_bi(inst, BitString(16, v))
            best1 = max(best1, e1.f)
            best2 = max(best2, e2.f)
        assert best1 == 16.0
        assert best2 == 16.0


def test_biobjective_ids():
    assert biobjective_ids() == ("BF1", "BF2", "BF3", "BF4", "BF5")
    for pid in biobjective_ids():
        inst = make_biobjective(pid, 16, 4)
        assert inst.n == 16


# -- validation --------------------------------------------------------------


def test_validate_divisibility():
    with pytest.raises(ValueError):
        make_dbp(10, (onemax(), onemax(), onemax()))


def test_validate_cycle_detection():
    dep = ((0.0, 1.0), (1.0, 0.0))
    spec = InstanceSpec(kind=Kind.GCP, n=8, m=2,
                        blocks=(onemax(), onemax()),
                        weights=(1.0, 1.0), constants=(0.0, 0.0),
                        dependencies=dep, thresholds=(1, 1),
                        gate_dirs=(GateDir.GE, GateDir.GE))
    problems = validate_spec(spec)
    assert any("cycl" in p for p in problems)


def test_validate_jump_k_versus_block_length():
    with pytest.raises(ValueError):
        make_dbp(8, (jump(4), jump(4)))  # block length 4 needs k < 4


def test_validate_dbp_rejects_gate_fields():
    spec = InstanceSpec(kind=Kind.DBP, n=8, m=2,
                        blocks=(onemax(), onemax()),
                        weights=(1.0, 1.0), constants=(0.0, 0.0),
                        dependencies=zero_matrix(2), thresholds=(1, 1))
    assert validate_spec(spec)


def test_matrix_helpers():
    assert forward_path(3) == ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    assert backward_path(3) == ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert zero_matrix(2) == ((0.0, 0.0), (0.0, 0.0))


# -- serialization ------------------------------------------------------------


def test_round_trip_all_suite_instances():
    for pid in suite_ids():
        spec = make_suite_instance(pid, 24, 4)
        again = spec_from_json(spec_to_json(spec))
        assert again == spec
        x = BitString.random(RandomSource(3), 24)
        assert evaluate(again, x).f == evaluate(spec, x).f


def test_round_trip_preserves_dict_shape():
    spec = make_suite_instance("F7", 16, 4)
    d = spec_to_dict(spec)
    assert d["kind"] == "GCP"
    # raw thresholds for 4-bit jump blocks: block length + 3
    assert d["thresholds"] == [7, 7, 7, 7]
    assert spec_from_dict(d) == spec


def test_known_optimum_falls_back_to_scan():
    # negative weight defeats the closed form; small n takes the exact
    # fallback over block-value witnesses
    spec = make_dbp(6, (onemax(), onemax()), weights=(1, -1))
    assert known_optimum(spec) == 3.0


def _random_non_monotone(rnd, kind, n, m):
    """A random instance outside known_optimum's closed forms: negative or
    fractional weights and constants, negative pair terms, "le" gates,
    gate chains both ways and dependency DAGs that are not paths."""
    ln = n // m
    fams = [onemax, leadingones, lambda: epistasis(rnd.choice((2, 3)))]
    if ln >= 2:
        fams.append(lambda: jump(rnd.randint(1, ln - 1)))
    coef = (-2, -1, -0.5, -0.1, 0, 0.1, 0.3, 0.5, 1, 1.5, 2)
    while True:
        blocks = [rnd.choice(fams)() for _ in range(m)]
        weights = [rnd.choice(coef) for _ in range(m)]
        constants = [rnd.choice(coef) for _ in range(m)]
        if kind is Kind.DBP:
            deps = [[rnd.choice(coef) if j < i else 0 for j in range(m)]
                    for i in range(m)]
            spec = make_dbp(n, blocks, weights, constants, deps)
            lower = [deps[i][j] for i in range(m) for j in range(i)]
            monotone = min(weights) >= 0 and min(lower, default=0) >= 0
        else:
            shape = rnd.randrange(3)
            if shape < 2:  # a gate chain: fv sums in chain order
                deps = [list(r) for r in (forward_path, backward_path)[shape](m)]
            else:  # edges follow a random order
                order = rnd.sample(range(m), m)
                deps = [[0] * m for _ in range(m)]
                for a in range(m):
                    for b in range(a + 1, m):
                        if rnd.random() < 0.5:
                            deps[order[a]][order[b]] = 1
            dirs = [rnd.choice((GateDir.GE, GateDir.LE)) for _ in range(m)]
            thresholds = [rnd.randint(-1, ln + 2) for _ in range(m)]
            spec = make_gcp(n, blocks, deps, thresholds, weights, constants,
                            dirs)
            monotone = (min(weights) >= 0 and min(constants) >= 0
                        and GateDir.LE not in dirs)
        if not monotone:
            return spec


def test_known_optimum_equals_exhaustive_scan():
    rnd = random.Random(2024)
    shapes = ((2, 1), (4, 1), (4, 2), (6, 2), (6, 3), (8, 2), (8, 4),
              (9, 3), (10, 2), (10, 5), (12, 3), (12, 4), (12, 6))
    for i in range(240):
        kind = (Kind.DBP, Kind.GCP)[i % 2]
        n, m = (16, 4) if i % 40 == 0 else rnd.choice(shapes)
        spec = _random_non_monotone(rnd, kind, n, m)
        got = known_optimum(spec)
        want = exhaustive_optimum(spec)[0]
        assert repr(got) == repr(want), (i, spec)


# -- generated evaluators ------------------------------------------------------


def _closure_evaluators(spec):
    """The hand-written closures the generated evaluators replaced, kept
    verbatim as the oracle: (fv, f_from_values, gates_from_values)."""
    comp = CompiledInstance(spec)
    m, parts = spec.m, comp.parts
    weights, consts = spec.weights, spec.constants
    if spec.kind is Kind.DBP:
        base = sum(spec.constants)
        pairs = tuple((i, j, spec.dependencies[i][j]) for i in range(m)
                      for j in range(i) if spec.dependencies[i][j] != 0)

        def f_from_values(V):
            f = base
            for w, v in zip(weights, V):
                f += w * v
            for i, j, e in pairs:
                f += e * V[i] * V[j]
            return f

        def gates_from_values(V):
            return (True,) * m

        plain = not pairs and all(w == 1 for w in weights) and base == 0
        if m == 1 and plain:
            def fv(v, _fn=parts[0][2]):
                val = _fn(v)
                return float(val), (val,)
        elif plain:
            def fv(v):
                V = tuple(fn((v >> s) & mk) for s, mk, fn in parts)
                return float(sum(V)), V
        else:
            def fv(v):
                V = tuple(fn((v >> s) & mk) for s, mk, fn in parts)
                return f_from_values(V), V
        return fv, f_from_values, gates_from_values
    anc = [ancestors(spec.dependencies, i) for i in range(m)]
    anc_lists = tuple(tuple(sorted(a)) for a in anc)
    tests = tuple(
        (lambda v, b=b: v >= b) if d is GateDir.GE else (lambda v, b=b: v <= b)
        for b, d in zip(comp.eff_thresholds, spec.gate_dirs))

    def gates_from_values(V):
        own = [t(v) for t, v in zip(tests, V)]
        return tuple(all(own[j] for j in a) for a in anc_lists)

    def f_from_values(V):
        f = 0.0
        own = [t(v) for t, v in zip(tests, V)]
        for i in range(m):
            if all(own[j] for j in anc_lists[i]):
                f += consts[i] + weights[i] * V[i]
        return f

    forward = all(anc[i] == frozenset(range(i)) for i in range(m))
    if forward or all(anc[i] == frozenset(range(i + 1, m)) for i in range(m)):
        order = range(m) if forward else range(m - 1, -1, -1)
        head = order[0]
        chain = tuple((tests[g], g, b) for g, b in zip(order, order[1:]))

        def fv(v):
            V = tuple(fn((v >> s) & mk) for s, mk, fn in parts)
            f = consts[head] + weights[head] * V[head]
            for test, g, b in chain:
                if not test(V[g]):
                    break
                f += consts[b] + weights[b] * V[b]
            return f, V
    else:
        def fv(v):
            V = tuple(fn((v >> s) & mk) for s, mk, fn in parts)
            return f_from_values(V), V
    return fv, f_from_values, gates_from_values


# int and float coefficients, signed zeros included, so that every
# exactness shortcut of the generator meets its boundary
COEF = (-2, -1, -0.5, -0.1, -0.0, 0, 0.0, 0.1, 0.3, 0.5, 1, 1.0, 1.5, 2)


def _random_spec(rnd, kind, m, ln=None, blocks=None):
    """Any instance: plain or weighted, every block family, pair terms,
    gate chains both ways, random DAGs and "le" gates. Blocks of ln
    bits, or the given blocks."""
    ln = ln or rnd.randint(2, 5)
    fams = [onemax, leadingones, lambda: jump(rnd.randint(1, ln - 1)),
            lambda: epistasis(rnd.choice((2, 3, 4)))]
    blocks = blocks or [rnd.choice(fams)() for _ in range(m)]
    if rnd.random() < 0.2:
        weights, constants = [rnd.choice((1, 1.0))] * m, [0] * m
    else:
        weights = [rnd.choice(COEF) for _ in range(m)]
        constants = [rnd.choice(COEF) for _ in range(m)]
    if kind is Kind.DBP:
        pair = rnd.random() < 0.5
        deps = [[rnd.choice(COEF) if pair and j < i else 0 for j in range(m)]
                for i in range(m)]
        return make_dbp(m * ln, blocks, weights, constants, deps)
    shape = rnd.randrange(3)
    if shape < 2:
        deps = (forward_path, backward_path)[shape](m)
    else:
        order = rnd.sample(range(m), m)
        deps = [[0] * m for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                if rnd.random() < 0.5:
                    deps[order[a]][order[b]] = rnd.choice((1, 0.5, -1))
    dirs = [rnd.choice((GateDir.GE, GateDir.LE)) for _ in range(m)]
    thresholds = [rnd.choice((-1, 0, 0.5, 1, 2, ln, ln + 2.5, 9))
                  for _ in range(m)]
    return make_gcp(m * ln, blocks, deps, thresholds, weights, constants, dirs)


def _same(got, want):
    assert repr(got) == repr(want)
    assert type(got) is type(want)


def _check_against_closures(spec, rnd, samples=40):
    comp = compile_instance(spec)
    fv, f_from_values, gates_from_values = _closure_evaluators(spec)
    for _ in range(samples):
        v = rnd.getrandbits(spec.n)
        want_f, V = fv(v)
        _same(comp.fv(v), (want_f, V))
        _same(comp.f(v), want_f)
        _same(comp.f_from_values(V), f_from_values(V))
        assert comp.gates_from_values(V) == gates_from_values(V)


def test_generated_evaluators_equal_closures():
    rnd = random.Random(909)
    for i in range(400):
        spec = _random_spec(rnd, (Kind.DBP, Kind.GCP)[i % 2], 1 + i % 8)
        _check_against_closures(spec, rnd)


def test_generated_evaluators_split_long_sums():
    # more than 64 terms per sum: weights and pair terms of many blocks,
    # gate chains of many blocks, and epistasis blocks of many tables
    rnd = random.Random(5)
    m = 130
    coef = [rnd.choice(COEF) for _ in range(3 * m)]
    pairs = [[coef[i] if j == i - 1 else 0 for j in range(m)] for i in range(m)]
    blocks = [rnd.choice((onemax(), leadingones(), jump(1))) for _ in range(m)]
    for spec in (make_dbp(2 * m, blocks, coef[:m], coef[m:2 * m], pairs),
                 make_gcp(2 * m, blocks, forward_path(m), [1] * m, coef[:m]),
                 make_gcp(2 * m, blocks, backward_path(m), [1] * m,
                          coef[m:2 * m], gate_dirs=[GateDir.LE] * m),
                 make_dbp(800, (epistasis(2),)), make_dbp(802, (epistasis(3),))):
        _check_against_closures(spec, rnd, samples=10)


def test_equal_specs_of_other_number_types_compile_apart():
    # each pair compares equal and hashes alike, but differs in a
    # number's type or in the sign of a zero, and so in fv's result
    pairs = [(dict(weights=(2,), constants=(0,)),
              dict(weights=(2,), constants=(0.0,)), 5),
             (dict(weights=(-1.0,), constants=(0.0,)),
              dict(weights=(-1.0,), constants=(-0.0,)), 0)]
    for a_kw, b_kw, v in pairs:
        a = make_dbp(4, (onemax(),), **a_kw)
        b = make_dbp(4, (onemax(),), **b_kw)
        assert a == b and hash(a) == hash(b)
        for spec in (a, b):  # compiled in this order, a first
            _same(compile_instance(spec).fv(v), CompiledInstance(spec).fv(v))
        assert compile_instance(a) is compile_instance(a)
        assert compile_instance(a) is compile_instance(
            make_dbp(4, (onemax(),), **a_kw))
        inst_a, inst_b = BiObjectiveInstance(a, a), BiObjectiveInstance(b, b)
        assert inst_a == inst_b
        _same(compile_bi(inst_a)(v)[0], CompiledInstance(a).fv(v)[0])
        _same(compile_bi(inst_b)(v)[0], CompiledInstance(b).fv(v)[0])
        # a compiled spec still pickles, for worker processes
        for obj in (b, inst_b):
            assert pickle.loads(pickle.dumps(obj)) == obj
        _same(compile_instance(pickle.loads(pickle.dumps(b))).fv(v),
              CompiledInstance(b).fv(v))


def test_evaluator_cache_lets_dropped_specs_go():
    import gc

    from blockbench import problems
    gc.collect()
    ids = len(problems._BY_ID)  # specs other tests still hold
    keep = make_dbp(8, (onemax(), jump(2)), weights=(1, -1))
    ev = compile_instance(keep)
    for i in range(2000):
        spec = make_dbp(8, (onemax(), jump(2)), weights=(1, 2 + i))
        assert compile_instance(spec).spec == spec
    del spec
    gc.collect()
    assert len(problems._BY_REPR) <= problems._BY_REPR_LIMIT
    assert len(problems._BY_ID) == ids + 1  # keep's entry
    # a live spec keeps its evaluator, evicted by repr or not
    assert compile_instance(keep) is ev
    # an equal spec compiled later shares the evaluator of the first
    a = make_dbp(8, (onemax(), jump(2)), weights=(3, 5))
    ev = compile_instance(a)
    del a
    gc.collect()
    assert compile_instance(make_dbp(8, (onemax(), jump(2)),
                                     weights=(3, 5))) is ev
    inst = make_biobjective("BF1", 8, 2)
    assert compile_bi(inst) is compile_bi(make_biobjective("BF1", 8, 2))


def test_fused_evaluator_equals_both_objectives():
    rnd = random.Random(911)
    insts = [make_biobjective(pid, n, m) for pid in biobjective_ids()
             for n, m in ((8, 1), (12, 3), (16, 4), (24, 8))]
    for i in range(160):
        first = _random_spec(rnd, (Kind.DBP, Kind.GCP)[i % 2], 1 + i % 8)
        kind = rnd.choice((Kind.DBP, Kind.GCP))
        ln = first.n // first.m
        if i % 3 == 0:  # the same blocks under other aggregation
            second = _random_spec(rnd, kind, first.m, ln, first.blocks)
        else:  # other blocks, perhaps another block count
            m = rnd.choice([d for d in range(1, 9)
                            if first.n % d == 0 and first.n // d >= 2])
            second = _random_spec(rnd, kind, m, first.n // m)
        insts.append(BiObjectiveInstance(first, second))
    for inst in insts:
        fused = compile_bi(inst)
        fv1 = compile_instance(inst.first).fv
        fv2 = compile_instance(inst.second).fv
        for _ in range(40):
            v = rnd.getrandbits(inst.n)
            (f1, V), (f2, _) = fv1(v), fv2(v)
            _same(fused(v), (f1, f2, V))
