"""Fixed-length binary strings backed by arbitrary-precision integers.

Bit i of the backing integer stores position i of the string, where
position 0 is the first character of the 0/1 text form. Prefix
properties therefore live in the low-order bits, and population counts,
XOR masks and Hamming distances are single integer operations. Hot
loops in the solvers work on the raw backing integers and only wrap
them in :class:`BitString` at API boundaries.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["BitString"]


class BitString:
    """Immutable bit vector of fixed length.

    Attributes:
        n: number of positions, at least 1. Fixed at construction.
        value: backing integer in ``[0, 2**n)``; bit i is position i.
    """

    __slots__ = ("n", "value")

    def __init__(self, n: int, value: int = 0) -> None:
        if n < 1:
            raise ValueError(f"length must be >= 1, got {n}")
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} out of range for {n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, val) -> None:
        raise AttributeError("BitString is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from01(cls, text: str) -> "BitString":
        """Parse a 0/1 string; the first character is position 0."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a 0/1 string: {text!r}")
        v = 0
        for i, c in enumerate(text):
            if c == "1":
                v |= 1 << i
        return cls(len(text), v)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        seq = list(bits)
        v = 0
        for i, b in enumerate(seq):
            if b not in (0, 1):
                raise ValueError(f"bit {i} is {b!r}, expected 0 or 1")
            if b:
                v |= 1 << i
        return cls(len(seq), v)

    @classmethod
    def random(cls, rng, n: int) -> "BitString":
        """Uniform sample over all length-n strings."""
        return cls(n, rng.getrandbits(n))

    # -- queries -----------------------------------------------------

    @property
    def ones_count(self) -> int:
        return self.value.bit_count()

    def to01(self) -> str:
        return "".join("1" if (self.value >> i) & 1 else "0" for i in range(self.n))

    def hamming(self, other: "BitString") -> int:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return (self.value ^ other.value).bit_count()

    # -- dunders -----------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> i) & 1

    def __iter__(self) -> Iterator[int]:
        v = self.value
        for _ in range(self.n):
            yield v & 1
            v >>= 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.n == other.n and self.value == other.value

    def __reduce__(self):
        # immutability blocks the default slot-state pickling path
        return (BitString, (self.n, self.value))

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __repr__(self) -> str:
        return f"BitString({self.to01()!r})"
