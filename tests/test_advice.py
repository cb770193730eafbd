import pytest
from hypothesis import given, strategies as st

from multicolor import advice
from multicolor.advice import AdviceTape, dec, enc, enc_len, fixed
from multicolor.errors import TapeUnderrunError


def bits_str(x):
    return "".join(str(b) for b in enc(x))


def test_enc_frozen_values():
    assert bits_str(0) == "0"
    assert bits_str(1) == "1011"
    assert bits_str(5) == "11011101"


def test_enc_len_spot_values():
    assert enc_len(0) == 1
    assert enc_len(5) == 8
    # value part 21 bits, middle 5, unary 6
    assert enc_len(2 ** 20) == 32


def test_dec_frozen_values():
    assert dec(AdviceTape.from_string("0")) == 0
    assert dec(AdviceTape.from_string("11011101")) == 5


def test_dec_stops_at_codeword_end():
    tape = AdviceTape.from_string("1011" + "110101")  # enc(1) + junk
    assert dec(tape) == 1
    assert tape.cursor == 4


def test_dec_truncated_codeword_raises():
    tape = AdviceTape.from_string("1101")  # enc(5) cut short
    with pytest.raises(TapeUnderrunError):
        dec(tape)


def reference_dec(tape):
    """dec reading the unary prefix one read_bit at a time: the value, or the
    underrun message."""
    try:
        mid_len = 0
        while tape.read_bit() == 1:
            mid_len += 1
        return tape.read_fixed(tape.read_fixed(mid_len))
    except TapeUnderrunError as exc:
        return str(exc)


@given(st.lists(st.integers(0, 1), max_size=40), st.data())
def test_dec_is_the_bit_by_bit_reader(bits, data):
    """Same value, same cursor, and past the end the same error, as reading
    the unary prefix one bit at a time."""
    start = data.draw(st.integers(0, len(bits) + 2))
    tape, ref = AdviceTape(list(bits), start), AdviceTape(list(bits), start)
    try:
        got = dec(tape)
    except TapeUnderrunError as exc:
        got = str(exc)
    assert got == reference_dec(ref)
    assert tape.cursor == ref.cursor


@pytest.mark.parametrize("start", [0, 3, 7, 9])
def test_dec_on_only_ones_fails_at_the_end(start):
    tape = AdviceTape([1] * 7, start)
    end = max(start, 7)
    with pytest.raises(TapeUnderrunError, match=f"read past written prefix at index {end}$"):
        dec(tape)
    assert tape.cursor == end


def test_read_fixed_and_read_bit():
    tape = AdviceTape.from_string("101")
    assert tape.read_fixed(3) == 5
    assert tape.high_water == 3

    tape = AdviceTape.from_string("10")
    assert tape.read_bit() == 1
    assert tape.read_bit() == 0
    assert tape.high_water == 2
    with pytest.raises(TapeUnderrunError):
        tape.read_bit()


def test_read_fixed_zero_width():
    tape = AdviceTape.from_string("1")
    assert tape.read_fixed(0) == 0
    assert tape.cursor == 0


def read_bit_by_bit(tape, width):
    """read_fixed as a fold of read_bit: the value, or the underrun message."""
    value = 0
    try:
        for _ in range(width):
            value = value << 1 | tape.read_bit()
    except TapeUnderrunError as exc:
        return str(exc)
    return value


@given(st.lists(st.integers(0, 1), max_size=40), st.data())
def test_read_fixed_is_the_bit_by_bit_fold(bits, data):
    """Same value, same cursor, and past the end the same error, as reading
    one bit at a time."""
    start = data.draw(st.integers(0, len(bits) + 2))
    width = data.draw(st.integers(0, len(bits) + 3))
    tape, fold = AdviceTape(list(bits), start), AdviceTape(list(bits), start)
    try:
        got = tape.read_fixed(width)
    except TapeUnderrunError as exc:
        got = str(exc)
    assert got == read_bit_by_bit(fold, width)
    assert tape.cursor == fold.cursor


@pytest.mark.parametrize("start", [0, 2, 5])
def test_read_fixed_underrun_stops_at_the_written_prefix(start):
    tape = AdviceTape.from_string("10110")
    tape.cursor = start
    with pytest.raises(TapeUnderrunError, match="read past written prefix at index 5$"):
        tape.read_fixed(6 - start)
    assert tape.high_water == len(tape.bits) == 5


@pytest.mark.parametrize("call", [
    lambda: enc(-1), lambda: enc_len(-1), lambda: AdviceTape.from_string("012"),
    lambda: AdviceTape.from_string("1").read_fixed(-1),
], ids=["enc", "enc_len", "from_string", "read_fixed"])
def test_out_of_domain_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_tape_equals_only_a_tape():
    assert (AdviceTape([1]) == [1]) is False
    assert AdviceTape([1]) == AdviceTape([1]) != AdviceTape([1], cursor=1)


@given(st.integers(0, 70), st.data())
def test_fixed_is_what_read_fixed_reads(width, data):
    value = data.draw(st.integers(0, 2 ** width - 1))
    bits = fixed(value, width)
    assert len(bits) == width
    assert AdviceTape(bits).read_fixed(width) == value


def reference_fixed(value, width):
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def reference_enc(x):
    last_len = x.bit_length()
    mid_len = last_len.bit_length()
    return [1] * mid_len + [0] + reference_fixed(last_len, mid_len) + reference_fixed(x, last_len)


def test_each_call_returns_a_new_list():
    for call in (lambda: fixed(9, 4), lambda: enc(12)):
        first, second = call(), call()
        assert first == second and first is not second
        first.append(1)
        first[0] ^= 1
        assert call() == second


def test_fields_and_codewords_equal_the_uncached_formula():
    """Every value of every width 0..12, and codewords of as many values:
    more keys than the cache holds, so entries are evicted and built again.
    Each result is mutated before the same key is asked for again."""
    keys = [(value, width) for width in range(13) for value in range(2 ** width)]
    assert len(keys) > 2 * advice._field.cache_info().maxsize
    for _ in range(2):
        for value, width in keys:
            got = fixed(value, width)
            got.append(0)
            assert fixed(value, width) == reference_fixed(value, width)
            got = enc(value)
            got.pop()
            assert enc(value) == reference_enc(value)


def test_a_float_argument_fails_as_uncached():
    fixed(1, 2), enc(1)
    for call, error in ((lambda: fixed(1.0, 2), TypeError), (lambda: fixed(1, 2.0), TypeError),
                        (lambda: enc(1.0), AttributeError)):
        with pytest.raises(error):
            call()


def test_a_wide_field_is_built_but_not_kept():
    """A field or codeword wider than 64 bits bypasses the cache; a
    greedy_truncated run refuses any width above 64 before it writes a bit."""
    from multicolor.adversary import path_family
    from multicolor.errors import DomainError
    from multicolor.harness import run

    for width in (65, 200):
        before = advice._field.cache_info()
        assert fixed(3, width) == reference_fixed(3, width)
        assert enc(2 ** width) == reference_enc(2 ** width)
        assert advice._field.cache_info() == before
    instance = path_family(40)[2]
    for b in (65, 10 ** 5, 10 ** 5 + 1):
        with pytest.raises(DomainError, match=f"^b must be <= 64, got {b}$"):
            run(instance, "greedy_truncated", b=b)
    report = run(instance, "greedy_truncated", b=64)
    assert report.ok and report.advice_bits_read == 64 + enc_len(0)


def test_tape_string_round_trip():
    tape = AdviceTape(bits=enc(42))
    assert AdviceTape.from_string(tape.to_string()).bits == tape.bits


@given(st.integers(min_value=0, max_value=2 ** 64))
def test_round_trip(x):
    tape = AdviceTape(bits=enc(x))
    assert dec(tape) == x
    assert tape.exhausted()


@given(st.integers(min_value=0, max_value=2 ** 64))
def test_enc_len_matches(x):
    assert enc_len(x) == len(enc(x))


def test_prefix_free_small_range():
    words = sorted(bits_str(x) for x in range(2 ** 10 + 1))
    for a, b in zip(words, words[1:]):
        assert not b.startswith(a) or a == b
    # injectivity over the same range
    assert len(set(words)) == len(words)
