"""Advice tape with exact bit accounting, and the three-part self-delimiting
integer code.

A codeword for x >= 0 has three consecutive parts:
  1. the bit-length of the middle part, in unary, terminated by a 0,
  2. the bit-length of the last part, in binary,
  3. x itself in binary, using ceil(log2(x+1)) bits (empty for x = 0).
"""

from __future__ import annotations

from .errors import DomainError, TapeUnderrunError


def enc(x: int) -> list[int]:
    """Self-delimiting encoding of a non-negative integer, MSB first."""
    if x < 0:
        raise ValueError(f"enc expects x >= 0, got {x}")
    last_len = x.bit_length()  # ceil(log2(x+1)); 0 for x = 0
    mid_len = last_len.bit_length()
    return [1] * mid_len + [0] + fixed(last_len, mid_len) + fixed(x, last_len)


def enc_len(x: int) -> int:
    """|enc(x)| without materializing the bits."""
    if x < 0:
        raise ValueError(f"enc_len expects x >= 0, got {x}")
    last_len = x.bit_length()
    mid_len = last_len.bit_length()
    return (mid_len + 1) + mid_len + last_len


def _width(b) -> int:
    """greedy_truncated's truncation width b, refused unless it is at least 1."""
    if b is None:
        raise DomainError("greedy_truncated needs the truncation width b")
    if b < 1:
        raise DomainError(f"b must be >= 1, got {b}")
    return b


def fixed(value: int, width: int) -> list[int]:
    """The low `width` bits of value, MSB first: what AdviceTape.read_fixed(width)
    reads back."""
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


class AdviceTape:
    """A bit sequence with a read cursor.  An oracle builds the bits whole and
    passes them in: AdviceTape(bits=...).

    high_water counts bits consumed; reading past the end raises (the oracle
    must have written enough).  Mutable, so equal by value but not hashable.
    """

    __slots__ = ("bits", "cursor")

    def __init__(self, bits: list[int] | None = None, cursor: int = 0):
        self.bits = [] if bits is None else bits
        self.cursor = cursor

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.bits, self.cursor) == (other.bits, other.cursor)
        return NotImplemented

    def __repr__(self):
        return f"AdviceTape(bits={self.bits!r}, cursor={self.cursor!r})"

    @classmethod
    def from_string(cls, s: str) -> "AdviceTape":
        if any(ch not in "01" for ch in s):
            raise ValueError("tape string must contain only '0'/'1'")
        return cls(bits=[int(ch) for ch in s])

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def high_water(self) -> int:
        return self.cursor

    def read_bit(self) -> int:
        if self.cursor >= len(self.bits):
            raise TapeUnderrunError(f"read past written prefix at index {self.cursor}")
        b = self.bits[self.cursor]
        self.cursor += 1
        return b

    def read_fixed(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be >= 0")
        end = self.cursor + width
        if width and end > len(self.bits):  # stop and fail where read_bit would
            self.cursor = max(self.cursor, len(self.bits))
            raise TapeUnderrunError(f"read past written prefix at index {self.cursor}")
        value = 0
        for b in self.bits[self.cursor:end]:
            value = value << 1 | b
        self.cursor = end
        return value

    def exhausted(self) -> bool:
        return self.cursor == len(self.bits)


def dec(tape: AdviceTape) -> int:
    """Decode one codeword from the tape, advancing the cursor past it."""
    mid_len = 0
    while tape.read_bit() == 1:
        mid_len += 1
    last_len = tape.read_fixed(mid_len)
    return tape.read_fixed(last_len)
