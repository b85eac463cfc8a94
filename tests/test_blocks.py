"""Block function semantics: reference evaluator vs compiled closures,
transform structure, and the optimum/maximum bookkeeping."""

import pytest

from blockbench.bitstring import BitString
from blockbench.blocks import (BlockFunction, Family, block_max,
                               block_optimum, block_values, compile_block,
                               epistasis, epistasis_transform, eval_block,
                               jump, leadingones, onemax)

ALL_LENGTHS = range(1, 13)


def families_for(length):
    fams = [onemax(), leadingones(), epistasis(3)]
    if length >= 4:
        fams.append(epistasis(4))
    for k in range(1, length):
        fams.append(jump(k))
    return fams


def test_onemax_counts_ones():
    assert eval_block(onemax(), BitString.from01("10110")) == 3
    assert eval_block(onemax(), BitString.zeros(6)) == 0
    assert eval_block(onemax(), BitString.ones(6)) == 6


def test_leadingones_prefix():
    assert eval_block(leadingones(), BitString.from01("1110")) == 3
    assert eval_block(leadingones(), BitString.from01("0111")) == 0
    assert eval_block(leadingones(), BitString.ones(5)) == 5
    assert eval_block(leadingones(), BitString.from01("10111")) == 1


def test_jump_shape():
    bf = jump(3)
    # c <= length-k keeps the offset, the gap inverts, the top is length+k
    assert eval_block(bf, BitString.from01("11111000")) == 8   # c=5 -> 3+5
    assert eval_block(bf, BitString.from01("1" * 8)) == 11
    vals = {c: eval_block(bf, BitString(8, (1 << c) - 1)) for c in range(9)}
    assert vals[6] == 2 and vals[7] == 1  # inside the gap: n - c
    assert vals[5] == 8
    assert max(vals.values()) == 11 and vals[8] == 11


def test_jump_documented_points():
    assert eval_block(jump(3), BitString.from01("1111111100")) == 2   # c=8, n=10
    assert eval_block(jump(3), BitString.ones(10)) == 13
    assert eval_block(jump(3), BitString.from01("1111111")) == 10     # c=n=7


def test_jump_requires_k_below_length():
    f = compile_block(jump(5), 6)
    assert f(0) == 5
    with pytest.raises(ValueError):
        compile_block(jump(6), 6)
    with pytest.raises(ValueError):
        compile_block(jump(7), 6)


def test_epistasis_transform_examples():
    assert epistasis_transform(BitString.from01("100"), 3).to01() == "110"
    assert epistasis_transform(BitString.from01("010"), 3).to01() == "111"
    assert epistasis_transform(BitString.from01("000"), 3).to01() == "000"


def test_epistasis_transform_is_bijection_nu3():
    seen = set()
    for v in range(8):
        out = epistasis_transform(BitString(3, v), 3).value
        seen.add(out)
    assert seen == set(range(8))


def test_epistasis_neighbor_distance_at_least_nu_minus_1():
    # the XOR construction realizes the distance bound at nu in {2, 3};
    # every neighbor pair moves at least 2 output bits regardless of nu
    for nu in (2, 3):
        for v in range(1 << nu):
            tv = epistasis_transform(BitString(nu, v), nu)
            for b in range(nu):
                tw = epistasis_transform(BitString(nu, v ^ (1 << b)), nu)
                assert tv.hamming(tw) >= nu - 1
    for v in range(16):
        tv = epistasis_transform(BitString(4, v), 4)
        for b in range(4):
            tw = epistasis_transform(BitString(4, v ^ (1 << b)), 4)
            assert tv.hamming(tw) >= 2


def test_epistasis_partial_tail_identity():
    # length 7 with nu=3: two transformed groups plus an untouched bit
    x = BitString.from01("1010011")
    out = epistasis_transform(x, 3)
    assert out.to01()[6] == x.to01()[6]


def test_epistasis_optimum_length7():
    assert block_optimum(epistasis(3), 7).to01() == "0100101"
    assert eval_block(epistasis(3), block_optimum(epistasis(3), 7)) == 7


def test_compiled_matches_reference_exhaustive():
    for length in ALL_LENGTHS:
        for bf in families_for(length):
            fn = compile_block(bf, length)
            for v in range(1 << length):
                assert fn(v) == eval_block(bf, BitString(length, v)), \
                    (bf.label, length, v)


def test_block_values_is_first_occurrence_scan():
    for length in ALL_LENGTHS:
        fams = [onemax(), leadingones(), epistasis(2), epistasis(3),
                epistasis(4)] + [jump(k) for k in range(1, length)]
        for bf in fams:
            first = {}
            for v in range(1 << length):
                first.setdefault(eval_block(bf, BitString(length, v)), v)
            table = block_values(bf, length)
            assert list(table.items()) == list(first.items()), \
                (bf.label, length)
    with pytest.raises(TypeError):
        block_values(onemax(), 3)[0] = 1  # cached, so read-only


def test_block_max_is_attained_and_never_exceeded():
    for length in range(1, 21):
        for bf in families_for(min(length, 12)):
            if bf.family is Family.JUMP and bf.k >= length:
                continue
            top = block_max(bf, length)
            opt = block_optimum(bf, length)
            assert eval_block(bf, opt) == top
            if length <= 12:
                fn = compile_block(bf, length)
                assert max(fn(v) for v in range(1 << length)) == top


def test_block_max_values():
    assert block_max(onemax(), 10) == 10
    assert block_max(leadingones(), 10) == 10
    assert block_max(jump(3), 10) == 13
    assert block_max(epistasis(3), 10) == 10
    assert block_max(epistasis(3), 7) == 7


def test_epistasis_nu4_max_reflects_reachable_image():
    # the nu=4 transform cannot produce the all-ones group, so the
    # per-group ceiling is 3, not 4
    fn = compile_block(epistasis(4), 4)
    assert max(fn(v) for v in range(16)) == 3
    assert block_max(epistasis(4), 4) == 3
    assert block_max(epistasis(4), 8) == 6


def test_factory_validation():
    with pytest.raises(ValueError):
        jump(0)
    with pytest.raises(ValueError):
        epistasis(1)
    with pytest.raises(ValueError):
        BlockFunction(Family.JUMP)  # jump needs k
    assert epistasis(3).label == "Epistasis(3)"
    assert jump(2).label == "Jump_2"


def test_labels_and_identity():
    assert onemax() == onemax()
    assert onemax() != leadingones()
    assert jump(2) != jump(3)
    assert onemax().label == "OneMax"
    assert leadingones().label == "LeadingOnes"


def test_compile_block_cached():
    assert compile_block(jump(3), 10) is compile_block(jump(3), 10)


def test_leadingones_all_prefix_lengths():
    length = 9
    fn = compile_block(leadingones(), length)
    for lead in range(length + 1):
        rest = length - lead
        for tail in range(1 << rest) if rest else [0]:
            if rest and tail & 1:
                continue  # bit after the prefix must be 0
            v = ((1 << lead) - 1) | (tail << lead)
            assert fn(v) == lead if rest else fn(v) == length
