"""The pure-Python draw against numpy's own: SeedSequence into PCG64, lane by lane, and
the ziggurat through each of its paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microfatigue import _normal
from tests.reference import reference_normals

MASK64, MASK128 = 2**64 - 1, 2**128 - 1
STREAM_DRAWS = 100_000


def _numpy_bits(state: int, increment: int) -> np.random.PCG64:
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": increment},
                  "has_uint32": 0, "uinteger": 0}
    return bits


def _step(state: int, increment: int) -> int:
    return (state * _normal._PCG64_MULT + increment) & MASK128


# Rows of 1 to 40 lanes whose entropies share a length of 1 to 12 uint32 words: past
# four words the pool takes extra rounds.
LANES = st.integers(1, 12).flatmap(lambda length: st.lists(
    st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length),
    min_size=1, max_size=40))


@given(LANES)
@settings(max_examples=100, deadline=None)
def test_seeding_is_numpys_for_any_count_of_entropy_words(rows):
    # Each lane is PCG64(SeedSequence(words)) stepped once, to its first output word.
    want = []
    for words in rows:
        state = np.random.PCG64(np.random.SeedSequence(words)).state["state"]
        want.append((_step(state["state"], state["inc"]), state["inc"]))
    assert _normal._pcg64_seeded(rows) == want


@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**96, 2**128 + 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_a_few_draws_are_numpys_at_each_seed_width(master_seed, n):
    # 1 to 5 seed words: from 2**96 on, the entropy outgrows the pool. A population of
    # MAX_SPECIMENS draws is tests/test_protocols.py's.
    assert _normal.standard_normals(master_seed, n) == reference_normals(master_seed, n)


def _state_giving(word: int, increment: int, high: int) -> int:
    """A PCG64 state, high half high, on whose stepping PCG64 outputs word: high's top
    six bits rotate the xor of the halves."""
    turn = high >> 58
    low = ((word << turn | word >> 64 - turn) & MASK64) ^ high
    return high << 64 | low


def test_a_point_past_each_strips_box_is_numpys():
    # The first word lands in a strip at or past its inner box, so the draw takes the
    # density test (strip 0: the tail), with each sign, at the box edge and at the top.
    increment = 2 * 12345 + 1
    inverse = pow(_normal._PCG64_MULT, -1, 2**128)
    for idx in range(256):
        for rabs in (_normal._KI[idx], 2**52 - 1):
            for sign in (0, 1):
                word = rabs << 9 | sign << 8 | idx
                for high in (0x0123456789ABCDEF, 0xFEDCBA9876543210):
                    state = _state_giving(word, increment, high)
                    bits = _numpy_bits((state - increment) * inverse & MASK128, increment)
                    want = np.random.Generator(bits).standard_normal()
                    got = _normal._standard_normal(word, state, increment)
                    assert got == want, (idx, rabs, sign, high)


def test_a_long_stream_is_numpys_through_the_rejection_and_the_tail(monkeypatch):
    bits = np.random.PCG64(20080409)
    state, increment = bits.state["state"]["state"], bits.state["state"]["inc"]
    want = np.random.Generator(bits).standard_normal(STREAM_DRAWS).tolist()
    read = []  # the words of the current draw past its first
    words = _normal._pcg64_words
    monkeypatch.setattr(_normal, "_pcg64_words", lambda *lane: (
        read.append(word) or word for word in words(*lane)))
    got, tails, rejections = [], 0, 0
    for _ in range(STREAM_DRAWS):
        state = _step(state, increment)
        first = _normal._xsl_rr(state)
        read.clear()
        got.append(_normal._standard_normal(first, state, increment))
        for _ in read:
            state = _step(state, increment)
        tails += bool(read) and first & 0xFF == 0
        rejections += len(read) > 1 and first & 0xFF != 0
    assert got == want
    assert tails > 0 and rejections > 0, (tails, rejections)
