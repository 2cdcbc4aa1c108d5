"""Seed streams: the batched `substreams` against `substream`, its oracle;
and each raw-word draw rule against numpy's own scalar call."""

from __future__ import annotations

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contestsim import rng as streams

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


@pytest.mark.parametrize("seed", [-1, (3, -2), [0, -2**40]])
def test_a_negative_seed_raises_what_substream_raises(seed):
    with pytest.raises(ValueError) as want:
        streams.substream(seed, streams.EVENTS, 0)
    with pytest.raises(ValueError) as got:
        streams.substreams(seed, _PURPOSES, 4)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [np.int64(5), (np.uint32(5), 1), True, ()])
def test_other_seed_types_take_substream_itself(monkeypatch, seed):
    calls = []
    oracle = streams.substream

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(streams, "substream", counted)
    batched = streams.substreams(seed, _PURPOSES, 3)
    assert calls == [(seed, p, i) for p in _PURPOSES for i in range(3)]
    for purpose, gens in zip(_PURPOSES, batched):
        for i, gen in enumerate(gens):
            _assert_same_stream(gen, oracle(seed, purpose, i))


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


@settings(max_examples=40, deadline=None)
@given(seed=_SEED_INTS)
def test_random_values_are_generator_random(seed):
    words, oracle = _streams(seed)
    assert list(islice(streams.random_values(words), 30)) == \
        [oracle.random() for _ in range(30)]


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 1.0), word=st.integers(0, 2**64 - 1),
       low_bits=st.sampled_from([0, 2**11 - 1]), edge=st.booleans())
def test_random_cut_is_the_random_values_comparison(p, word, low_bits, edge):
    if edge:  # a word next to the cut, where the float rule is decided
        top = math.ceil(p * 2**53) - (word & 1)
        word = max(0, min(2**64 - 1, top << 11 | low_bits))
    value = next(streams.random_values(iter([word])))
    assert (word < streams.random_cut(p)) == (value < p)


@settings(max_examples=40, deadline=None)
@given(seed=_SEED_INTS, span=st.sampled_from(_SPANS))
def test_bounded_is_generator_integers(seed, span):
    words, oracle = _streams(seed)
    draws = streams.bounded(streams.half_words(words), span)
    assert list(islice(draws, 40)) == [int(oracle.integers(0, span))
                                       for _ in range(40)]


@settings(max_examples=60, deadline=None)
@given(seed=_SEED_INTS,
       pattern=st.lists(st.sampled_from(["random", *_SPANS]), max_size=60))
def test_interleaved_draws_keep_numpys_spare(seed, pattern):
    # A whole-word random() between two 32-bit draws leaves the spare half
    # for the second, however the draws of different spans mix.
    words, oracle = _streams(seed)
    uniforms = streams.random_values(words)
    halves = streams.half_words(words)
    draws = {span: streams.bounded(halves, span) for span in _SPANS}
    got = [next(uniforms) if kind == "random" else next(draws[kind])
           for kind in pattern]
    want = [oracle.random() if kind == "random"
            else int(oracle.integers(0, kind)) for kind in pattern]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(u=st.integers(0, 2**32 - 1))
def test_top_two_bits_are_bounded_at_span_4(u):
    # The engine's miss draw takes this shortcut.
    assert next(streams.bounded(iter([u]), 4)) == u >> 30


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
