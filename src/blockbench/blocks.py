"""Block-level fitness functions.

Four families operate on a single block of bits:

* onemax: number of ones.
* leadingones: length of the maximal all-ones prefix.
* jump(k): onemax shifted up by k on the plateau-free region; strings
  with more than length-k ones (except the all-ones string) score
  length minus onemax, carving a gap of width k below the optimum.
* epistasis(nu): onemax of an XOR-scrambled image. Bits are grouped in
  runs of nu; within a group the first output bit is the XOR of the
  whole group and output bit i is input i-1 XOR input i. Any single-bit
  input change moves at least nu-1 output bits inside its group, which
  destroys the unconditional monotonicity of onemax. Leftover positions
  beyond the last full group pass through unchanged.

``eval_block`` is the readable reference path. ``compile_block`` builds
a closure over precomputed lookup tables that maps the raw backing
integer of a block straight to its value; the two are interchangeable
and are cross-checked exhaustively in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .bitstring import BitString

__all__ = [
    "Family",
    "BlockFunction",
    "onemax",
    "leadingones",
    "jump",
    "epistasis",
    "eval_block",
    "epistasis_transform",
    "block_max",
    "block_optimum",
    "compile_block",
    "epistasis_segments",
]


class Family(str, Enum):
    ONEMAX = "onemax"
    LEADINGONES = "leadingones"
    JUMP = "jump"
    EPISTASIS = "epistasis"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class BlockFunction:
    """One block-level function: a family plus its parameters.

    jump carries the gap width k (k >= 1, and k must stay below the
    block length it is applied to); epistasis carries the group width
    nu >= 2. Parameters not used by the family must be None so that
    equality and hashing stay canonical.
    """

    family: Family
    k: int | None = None
    nu: int | None = None

    def __post_init__(self):
        if self.family is Family.JUMP:
            if not _is_int(self.k) or self.k < 1:
                raise ValueError(f"jump needs an integer k >= 1, got {self.k!r}")
            if self.nu is not None:
                raise ValueError("jump takes no nu")
        elif self.family is Family.EPISTASIS:
            if not _is_int(self.nu) or self.nu < 2:
                raise ValueError(f"epistasis needs an integer nu >= 2, got {self.nu!r}")
            if self.k is not None:
                raise ValueError("epistasis takes no k")
        else:
            if self.k is not None or self.nu is not None:
                raise ValueError(f"{self.family.value} takes no parameters")

    @property
    def label(self) -> str:
        if self.family is Family.ONEMAX:
            return "OneMax"
        if self.family is Family.LEADINGONES:
            return "LeadingOnes"
        if self.family is Family.JUMP:
            return f"Jump_{self.k}"
        return f"Epistasis({self.nu})"


def onemax() -> BlockFunction:
    return BlockFunction(Family.ONEMAX)


def leadingones() -> BlockFunction:
    return BlockFunction(Family.LEADINGONES)


def jump(k: int) -> BlockFunction:
    return BlockFunction(Family.JUMP, k=k)


def epistasis(nu: int = 3) -> BlockFunction:
    return BlockFunction(Family.EPISTASIS, nu=nu)


# -- reference evaluation ----------------------------------------------


@lru_cache(maxsize=64)
def _group_map(nu: int) -> tuple[int, ...]:
    """Image of every nu-bit group under the XOR scramble."""
    out = []
    for g in range(1 << nu):
        o = g.bit_count() & 1  # first output bit: parity of the group
        for j in range(1, nu):
            o |= (((g >> (j - 1)) ^ (g >> j)) & 1) << j
        out.append(o)
    return tuple(out)


def epistasis_transform(x: BitString, nu: int) -> BitString:
    """Apply the XOR scramble groupwise; trailing partial group is identity."""
    if nu < 2:
        raise ValueError("nu must be >= 2")
    gmap = _group_map(nu)
    gmask = (1 << nu) - 1
    v = x.value
    out = 0
    full_groups = x.n // nu
    for i in range(full_groups):
        sh = i * nu
        out |= gmap[(v >> sh) & gmask] << sh
    tail = full_groups * nu
    out |= (v >> tail) << tail
    return BitString(x.n, out)


def eval_block(bf: BlockFunction, x: BitString) -> int:
    """Reference block evaluation on a BitString."""
    n = x.n
    if bf.family is Family.ONEMAX:
        return x.ones_count
    if bf.family is Family.LEADINGONES:
        v = x.value
        # count of consecutive ones from position 0
        return (v ^ (v + 1)).bit_length() - 1
    if bf.family is Family.JUMP:
        if bf.k >= n:
            raise ValueError(f"jump gap k={bf.k} must be below block length {n}")
        c = x.ones_count
        if c <= n - bf.k or c == n:
            return c + bf.k
        return n - c
    # epistasis
    return epistasis_transform(x, bf.nu).ones_count


# -- extremes ------------------------------------------------------------


@lru_cache(maxsize=256)
def _group_extreme(nu: int) -> tuple[int, int]:
    """(max attainable group value, smallest group achieving it)."""
    gmap = _group_map(nu)
    best = max(g.bit_count() for g in gmap)
    arg = min(g for g, o in enumerate(gmap) if o.bit_count() == best)
    return best, arg


def block_max(bf: BlockFunction, length: int) -> int:
    """Largest value the block function attains on length-bit strings."""
    _check_length(bf, length)
    if bf.family is Family.JUMP:
        return length + bf.k
    if bf.family is Family.EPISTASIS:
        gmax, _ = _group_extreme(bf.nu)
        return (length // bf.nu) * gmax + length % bf.nu
    return length


def block_optimum(bf: BlockFunction, length: int) -> BitString:
    """A maximizer of the block function (the lexicographically natural one)."""
    _check_length(bf, length)
    if bf.family is Family.EPISTASIS:
        _, arg = _group_extreme(bf.nu)
        v = 0
        full_groups = length // bf.nu
        for i in range(full_groups):
            v |= arg << (i * bf.nu)
        tail = full_groups * bf.nu
        v |= ((1 << (length % bf.nu)) - 1) << tail
        return BitString(length, v)
    return BitString.ones(length)


def _check_length(bf: BlockFunction, length: int) -> None:
    if length < 1:
        raise ValueError("block length must be >= 1")
    if bf.family is Family.JUMP and bf.k >= length:
        raise ValueError(f"jump gap k={bf.k} must be below block length {length}")


# -- compiled evaluation --------------------------------------------------


@lru_cache(maxsize=1024)
def compile_block(bf: BlockFunction, length: int) -> Callable[[int], int]:
    """Closure mapping the raw block integer to its block value.

    The input must already be masked to the block's bits. Epistasis uses
    chunked lookup tables (up to 12 bits of input per table) so a block
    evaluation is a handful of shifts and adds.
    """
    _check_length(bf, length)
    if bf.family is Family.ONEMAX:
        return int.bit_count
    if bf.family is Family.LEADINGONES:
        def _lo(v: int) -> int:
            return (v ^ (v + 1)).bit_length() - 1
        return _lo
    if bf.family is Family.JUMP:
        k = bf.k
        plateau = length - k
        def _jump(v: int) -> int:
            c = v.bit_count()
            if c <= plateau or c == length:
                return c + k
            return length - c
        return _jump
    return _compile_epistasis(bf.nu, length)


@lru_cache(maxsize=256)
def epistasis_segments(nu: int, length: int):
    """(tail shift, segments) of a compiled epistasis block: the block
    value is the ones of v >> tail shift (None when nu divides the
    length) plus table[(v >> shift) & mask] of every (shift, mask,
    table) segment, each table folding up to 12 bits of input."""
    gmap = _group_map(nu)
    gvals = [o.bit_count() for o in gmap]
    full_groups = length // nu
    per_chunk = max(1, 12 // nu)  # groups folded into one lookup table
    segments = []
    g0 = 0
    while g0 < full_groups:
        gq = min(per_chunk, full_groups - g0)
        width = gq * nu
        table = [0] * (1 << width)
        for v in range(1 << width):
            s = 0
            for j in range(gq):
                s += gvals[(v >> (j * nu)) & ((1 << nu) - 1)]
            table[v] = s
        segments.append((g0 * nu, (1 << width) - 1, tuple(table)))
        g0 += gq
    tail_shift = full_groups * nu if length % nu else None
    return tail_shift, tuple(segments)


def _compile_epistasis(nu: int, length: int) -> Callable[[int], int]:
    tail_shift, segments = epistasis_segments(nu, length)
    if tail_shift is None:
        def _epi(v: int) -> int:
            s = 0
            for sh, mk, tb in segments:
                s += tb[(v >> sh) & mk]
            return s
    else:
        def _epi(v: int) -> int:
            s = (v >> tail_shift).bit_count()
            for sh, mk, tb in segments:
                s += tb[(v >> sh) & mk]
            return s
    return _epi
