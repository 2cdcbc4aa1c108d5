"""Seed streams: the batched `substreams` against `substream`, its oracle."""

from __future__ import annotations

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
