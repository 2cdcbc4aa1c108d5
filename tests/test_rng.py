"""Seed streams: the batched `substreams` against `substream`, its oracle;
and each raw-word draw rule against numpy's own scalar call."""

from __future__ import annotations

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contestsim import rng as streams
from contestsim.errors import ConfigurationError

_PURPOSES = (streams.EVENTS, streams.COUNTS, streams.EXITS)

# Word-count edges of SeedSequence's integer reading, and anything up to
# five 32-bit words (past the four-word pool).
_SEED_INTS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**32 + 1, 2**64]),
    st.integers(0, 2**130))
_SEEDS = st.one_of(
    _SEED_INTS,
    st.lists(_SEED_INTS, min_size=1, max_size=6).flatmap(
        lambda parts: st.sampled_from([tuple(parts), parts])))


def _assert_same_stream(got: np.random.Generator,
                        want: np.random.Generator) -> None:
    assert got.bit_generator.state == want.bit_generator.state
    assert (got.bit_generator.random_raw(100)
            == want.bit_generator.random_raw(100)).all()


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, n=st.sampled_from([1, 2, 4, 20, 1000]))
def test_substreams_equal_substream_bit_for_bit(seed, n):
    batched = streams.substreams(seed, _PURPOSES, n)
    assert [len(gens) for gens in batched] == [n] * len(_PURPOSES)
    for purpose, gens in zip(_PURPOSES, batched):
        for i, gen in enumerate(gens):
            _assert_same_stream(gen, streams.substream(seed, purpose, i))


def test_substreams_of_no_workers_or_no_purposes_are_empty():
    assert streams.substreams(7, _PURPOSES, 0) == [[], [], []]
    assert streams.substreams(7, (), 5) == []


@pytest.mark.parametrize("seed", [
    -1, (3, -2), [0, -2**40], None, True, (True,), [7, np.True_], [], (),
    "x", 1.5, np.array([1, 2])])
def test_a_seed_check_seed_refuses_builds_no_stream(seed):
    with pytest.raises(ConfigurationError) as want:
        streams.check_seed(seed)
    assert str(want.value).startswith(
        "seed must be a non-negative integer or a non-empty list of them, "
        "got ")
    for build in (lambda: streams.substream(seed, streams.EVENTS, 0),
                  lambda: streams.substreams(seed, _PURPOSES, 4)):
        with pytest.raises(ConfigurationError) as got:
            build()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed, plain", [
    (np.int64(5), 5),
    ((np.uint32(5), 1), (5, 1)),
    ([np.int8(3), 2**40], (3, 2**40)),
])
def test_a_numpy_integer_seed_gives_its_ints_streams(seed, plain):
    checked = streams.check_seed(seed)
    assert checked == plain
    assert {type(v) for v in (checked if type(plain) is tuple
                              else (checked,))} == {int}
    for purpose, gens in zip(_PURPOSES, streams.substreams(seed, _PURPOSES, 3)):
        for i, gen in enumerate(gens):
            _assert_same_stream(gen, streams.substream(plain, purpose, i))
            # numpy's own reading of the numpy integers gives that stream.
            _assert_same_stream(
                streams.substream(seed, purpose, i),
                np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                    seed, spawn_key=(purpose, i)))))


def test_repeated_substreams_are_fresh_generators():
    # The second call reuses the first's seeding words but not its
    # generators: drawing from one set leaves the other at its start.
    first = streams.substreams((3, 1), _PURPOSES, 4)
    for gens in first:
        for gen in gens:
            gen.bit_generator.random_raw(7)
    again = streams.substreams((3, 1), _PURPOSES, 4)
    fewer = streams.substreams((3, 1), _PURPOSES[:2], 2)
    other = streams.substreams((3, 2), _PURPOSES, 4)
    for seed, batched in [((3, 1), again), ((3, 1), fewer), ((3, 2), other)]:
        for purpose, gens in zip(_PURPOSES, batched):
            for i, gen in enumerate(gens):
                assert all(gen is not g for gs in first for g in gs)
                _assert_same_stream(gen, streams.substream(seed, purpose, i))


# --- numpy's draws from raw words --------------------------------------------
#
# Each rule reads a stream's raw words; the oracle is numpy's scalar call on
# a fresh copy of the same stream.  Blocks of 8 words put several block
# boundaries inside each test's draws.

_WORD_BLOCK = 8
_SPANS = [4, 26, 3, 2**31 + 1, 2**32]  # 2**31 + 1 rejects about half


def _streams(seed):
    """A stream's raw words, read in blocks, and numpy's generator on a
    fresh copy of it."""
    words = streams.raw_words(
        streams.substream(seed, streams.COUNTS, 3).bit_generator, _WORD_BLOCK)
    return words, streams.substream(seed, streams.COUNTS, 3)


class _SmallBlocks:
    """A bit generator that hands out its stream's raw words ``_WORD_BLOCK``
    at a time, whatever block size is asked for."""

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator

    def random_raw(self, size):
        return self.bit_generator.random_raw(_WORD_BLOCK)


class _Words:
    """A bit generator whose raw words are the given ones, and then none."""

    def __init__(self, words):
        self.words = words

    def random_raw(self, size):
        if not self.words:
            raise AssertionError("read past the given words")
        block, self.words = self.words[:size], self.words[size:]
        return np.array(block, dtype=np.uint64)


@settings(max_examples=80, deadline=None)
@given(seed=_SEED_INTS, span=st.sampled_from(_SPANS),
       mean=st.one_of(st.floats(1e-3, 9.999),
                      st.sampled_from([1e-300, 1.2, 9.999999999])),
       low=st.sampled_from([0, 5, -7]), n=st.integers(0, 60))
def test_integer_poisson_draws_are_generator_integers_then_poisson(
        seed, span, mean, low, n):
    # Every Poisson count reads one or more whole words between two 32-bit
    # draws, and a rejected 32-bit draw is redrawn from the spare or the
    # next word, so the spare crosses both.
    bit_generator = _SmallBlocks(
        streams.substream(seed, streams.COUNTS, 3).bit_generator)
    oracle = streams.substream(seed, streams.COUNTS, 3)
    want = [], []
    for _ in range(n):
        want[0].append(int(oracle.integers(low, low + span)))
        want[1].append(int(oracle.poisson(mean)))
    got = streams.integer_poisson_draws(bit_generator, n, low, span, mean)
    assert got == want
    assert {type(v) for v in got[0] + got[1]} <= {int}


@settings(max_examples=40, deadline=None)
@given(seed=_SEED_INTS)
def test_a_words_top_53_bits_are_generator_random(seed):
    # The rule that `random_cut` and the Poisson counts read whole words by.
    words, oracle = _streams(seed)
    assert [(word >> 11) * 2.0**-53 for word in islice(words, 30)] == \
        [oracle.random() for _ in range(30)]


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 1.0), word=st.integers(0, 2**64 - 1),
       low_bits=st.sampled_from([0, 2**11 - 1]), edge=st.booleans())
def test_random_cut_is_the_random_comparison(p, word, low_bits, edge):
    if edge:  # a word next to the cut, where the float rule is decided
        top = math.ceil(p * 2**53) - (word & 1)
        word = max(0, min(2**64 - 1, top << 11 | low_bits))
    assert (word < streams.random_cut(p)) == ((word >> 11) * 2.0**-53 < p)


@settings(max_examples=60, deadline=None)
@given(seed=_SEED_INTS,
       pattern=st.lists(st.sampled_from(["random", "half"]), max_size=60))
def test_interleaved_draws_keep_numpys_spare(seed, pattern):
    # The engine's pattern: a whole word read between two 32-bit draws, as
    # a random() hit test, leaves the spare half for the second.
    words, oracle = _streams(seed)
    next_half = streams.half_words(words).__next__
    got = [(next(words) >> 11) * 2.0**-53 if kind == "random"
           else next_half() for kind in pattern]
    want = [oracle.random() if kind == "random"
            else int(oracle.integers(0, 2**32)) for kind in pattern]
    assert got == want


@settings(max_examples=40, deadline=None)
@given(seed=_SEED_INTS)
def test_top_two_bits_are_generator_integers_at_span_4(seed):
    # The engine's miss draw takes this shortcut.
    words, oracle = _streams(seed)
    assert [u >> 30 for u in islice(streams.half_words(words), 40)] == \
        [int(oracle.integers(0, 4)) for _ in range(40)]


@settings(max_examples=200, deadline=None)
@given(u=st.integers(0, 2**32 - 1), spare=st.integers(0, 2**32 - 1))
def test_integer_draws_at_span_4_are_the_top_two_bits(u, spare):
    # Span 4 rejects nothing; a zero word ends the Poisson product at once.
    bit_generator = _Words([spare << 32 | u, 0, 0])
    assert streams.integer_poisson_draws(bit_generator, 2, 0, 4, 1.0) == \
        ([u >> 30, spare >> 30], [0, 0])


def test_a_product_equal_to_exp_minus_mean_ends_the_count():
    # numpy counts a factor only while the product stays above exp(-mean),
    # here exp(-log 2) == 0.5: random() 0.5 gives 0, and 0.75 then 0.5
    # gives 1.
    half, three_quarters = 1 << 63, 3 << 62
    for words, count in [([0, half], 0), ([0, three_quarters, half], 1)]:
        assert streams.integer_poisson_draws(
            _Words(words), 1, 0, 4, math.log(2)) == ([0], [count])


def test_blocks_call_numpy_once_per_block():
    gen = streams.substream(5, streams.EVENTS, 0)
    oracle = streams.substream(5, streams.EVENTS, 0)
    sizes = []

    def draw(size):
        sizes.append(size)
        return gen.standard_exponential(size)

    values = list(islice(streams.blocks(draw, 7), 30))
    assert sizes == [7] * 5
    assert values == [oracle.standard_exponential() for _ in range(30)]
    assert all(type(v) is float for v in values)
    words, oracle = _streams(9)
    assert list(islice(words, 30)) == \
        oracle.bit_generator.random_raw(30).tolist()
