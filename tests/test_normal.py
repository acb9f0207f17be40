"""The pure-Python draw against numpy's own: SeedSequence into PCG64, and the ziggurat
through each of its paths."""

import numpy as np
from hypothesis import given, settings, strategies as st

from microfatigue import _normal

MASK64, MASK128 = 2**64 - 1, 2**128 - 1
STREAM_DRAWS = 100_000


def _numpy_bits(state: int, increment: int) -> np.random.PCG64:
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": increment},
                  "has_uint32": 0, "uinteger": 0}
    return bits


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_seeding_is_numpys_for_any_count_of_entropy_words(words):
    state = np.random.PCG64(np.random.SeedSequence(words)).state["state"]
    assert _normal._pcg64_seeded(words) == (state["state"], state["inc"])


def _state_before(word: int, increment: int, high: int) -> int:
    """A PCG64 state whose next output is word: the step's result has the high half
    high, whose top six bits rotate the xor of the halves, and the step is undone."""
    turn = high >> 58
    low = ((word << turn | word >> 64 - turn) & MASK64) ^ high
    inverse = pow(_normal._PCG64_MULT, -1, 2**128)
    return ((high << 64 | low) - increment) * inverse & MASK128


def test_a_point_past_each_strips_box_is_numpys():
    # The first word lands in a strip at or past its inner box, so the draw takes the
    # density test (strip 0: the tail), with each sign, at the box edge and at the top.
    increment = 2 * 12345 + 1
    for idx in range(256):
        for rabs in (_normal._KI[idx], 2**52 - 1):
            for sign in (0, 1):
                word = rabs << 9 | sign << 8 | idx
                for high in (0x0123456789ABCDEF, 0xFEDCBA9876543210):
                    state = _state_before(word, increment, high)
                    bits = _numpy_bits(state, increment)
                    want = np.random.Generator(bits).standard_normal()
                    got = _normal._standard_normal(_normal._pcg64_words(state, increment))
                    assert got == want, (idx, rabs, sign, high)


def test_a_long_stream_is_numpys_through_the_rejection_and_the_tail():
    bits = np.random.PCG64(20080409)
    state = bits.state["state"]
    want = np.random.Generator(bits).standard_normal(STREAM_DRAWS).tolist()
    read = []  # the words of the current draw
    words = (read.append(word) or word
             for word in _normal._pcg64_words(state["state"], state["inc"]))
    got, tails, rejections = [], 0, 0
    for _ in range(STREAM_DRAWS):
        read.clear()
        got.append(_normal._standard_normal(words))
        tails += len(read) > 1 and read[0] & 0xFF == 0
        rejections += len(read) > 2 and read[0] & 0xFF != 0
    assert got == want
    assert tails > 0 and rejections > 0, (tails, rejections)
