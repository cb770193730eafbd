"""Advice tape with exact bit accounting, and the three-part self-delimiting
integer code.

A codeword for x >= 0 has three consecutive parts:
  1. the bit-length of the middle part, in unary, terminated by a 0,
  2. the bit-length of the last part, in binary,
  3. x itself in binary, using ceil(log2(x+1)) bits (empty for x = 0).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, TapeUnderrunError


def enc(x: int) -> list[int]:
    """Self-delimiting encoding of a non-negative integer, MSB first."""
    if x < 0:
        raise ValueError(f"enc expects x >= 0, got {x}")
    last_len = x.bit_length()  # ceil(log2(x+1)); 0 for x = 0
    mid_len = last_len.bit_length()
    # the codeword is one fixed-width field: mid_len 1s and a 0, then
    # last_len in mid_len bits, then x in last_len bits
    value = (((1 << mid_len) - 1) << (mid_len + 1) | last_len) << last_len | x
    return list(_bits(value, 2 * mid_len + 1 + last_len))


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
    reads back.  A new list on every call."""
    return list(_bits(value, width))


def _bits(value: int, width: int) -> tuple[int, ...]:
    """fixed(value, width) as a tuple: _field's shared one when the field is at
    most 64 bits wide, else a new one, so that the cache holds no wide field."""
    return (_field if width <= 64 else _field.__wrapped__)(value, width)


@lru_cache(maxsize=256, typed=True)
def _field(value: int, width: int) -> tuple[int, ...]:
    """fixed(value, width) as a tuple, shared by every caller in the process.

    The oracles write a few dozen distinct fields and codewords over and over
    (62 keys in the 10,916 calls that the 2,827 tapes of a small-exact-batch
    corpus make), so each is built once.  Bounded, because a trivial tape has
    one field per color below Opt; typed, so that a float argument fails as
    it does uncached instead of hitting an int's entry.
    """
    return tuple([(value >> (width - 1 - i)) & 1 for i in range(width)])


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
    start = tape.cursor
    try:
        end = tape.bits.index(0, start)  # the 0 that ends the unary prefix
    except ValueError:  # all 1s: fail at the end, as reading bit by bit would
        tape.cursor = max(start, len(tape.bits))
        raise TapeUnderrunError(f"read past written prefix at index {tape.cursor}") from None
    tape.cursor = end + 1
    last_len = tape.read_fixed(end - start)
    return tape.read_fixed(last_len)
