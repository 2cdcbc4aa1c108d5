"""Seed-stream discipline.

Every random draw in a simulation comes from a substream derived from one
master seed via ``numpy.random.SeedSequence`` spawn keys.  Streams are keyed
by purpose and worker index, so adding a worker (or an extra purpose) never
perturbs the draws any other worker sees.

`substream` builds one such generator and is the definition.  `substreams`
builds a whole contest's worker streams at once, equal bit for bit to
``substream(seed, purpose, i)``.  It can, because:

* ``PCG64`` seeds itself from any ``ISeedSequence`` through one
  ``generate_state(4, uint64)`` call, so a generator needs only those four
  words, not a ``SeedSequence`` object;
* ``SeedSequence`` hashes its input words in order (the seed's, zero-padded
  to the pool size, then the spawn key's) with constants that do not depend
  on the data.  The pool after the seed's words is the same for every
  stream of a contest, so it is computed once, in plain Python; the two
  spawn-key words (purpose, worker index) of every stream are then mixed in
  one 32-bit-masked numpy pass, and so are the output words.

The constants and the word order are numpy's (``bit_generator.pyx``);
``tests/test_rng.py`` checks the two paths against each other.  A seed that
is not a non-negative ``int`` or a non-empty tuple or list of them takes
`substream` itself, so it is accepted or rejected exactly as there.

The engine and the corpus rebuild numpy's draws from a stream's raw 64-bit
words, read in blocks, so that numpy is called once per block and not once
per draw.  Each of numpy's rules for PCG64 is written once, below, and
``tests/test_rng.py`` checks each against numpy's own scalar calls.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import chain, islice, repeat
from math import ceil
from typing import Callable, Iterator, Sequence

import numpy as np

# Purpose tags for spawn keys.  Values are part of the reproducibility
# contract: changing them changes every simulation.
CORPUS = 0
PROFILES = 1
EVENTS = 2
EXITS = 3
COUNTS = 4
REPLICATION = 5


def substream(seed: int | Sequence[int], *key: int) -> np.random.Generator:
    """Return an independent generator derived from ``seed`` and ``key``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence: pool size and hash constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


@cache
def _fixed_state() -> type:
    """An ``ISeedSequence`` that hands ``PCG64`` the four seeding words
    `substreams` computed.  Built on first use, since importing
    ``numpy.random`` with the package raises its import-time memory peak."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedState


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an int: little-endian 32-bit words,
    at least one."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_words(seed) -> list[int] | None:
    """The seed's entropy words, or None if `substream` must handle it."""
    if type(seed) is int:
        seed = (seed,)
    elif type(seed) not in (tuple, list) or not seed:
        return None
    words = []
    for part in seed:
        if type(part) is not int or part < 0:
            return None
        words += _words(part)
    return words


def _constants(hash_const: int, mult: int):
    """The hash constants SeedSequence steps through, from ``hash_const``."""
    while True:
        yield hash_const
        hash_const = hash_const * mult & _MASK32


def _hashmix(value, hash_const, mult: int = _MULT_A):
    """SeedSequence's hashmix of ``value`` at ``hash_const`` (ints, or
    broadcasting ``uint64`` arrays)."""
    value = (value ^ hash_const) * (hash_const * mult & _MASK32) & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


# generate_state's hash constant for each of its eight output words.
_OUTPUT_CONSTANTS = np.array(
    list(islice(_constants(_INIT_B, _MULT_B), 2 * _POOL_SIZE)),
    dtype=np.uint64)[:, None]


def substreams(seed: int | Sequence[int], purposes: Sequence[int],
               n: int) -> list[list[np.random.Generator]]:
    """For each of ``purposes``, the generators ``substream(seed, purpose,
    i)`` for ``i`` in ``range(n)``, built in one batched pass.  The
    generators are new on every call; their seeding words are computed
    once for consecutive calls with the same seed, purposes and ``n``."""
    words = _seed_words(seed)
    if (words is None or n > 1 << 32
            or any(type(p) is not int or not 0 <= p <= _MASK32
                   for p in purposes)):
        return [[substream(seed, p, i) for i in range(n)] for p in purposes]
    fixed_state = _fixed_state()
    generators = [np.random.Generator(np.random.PCG64(fixed_state(row)))
                  for row in _seeding_rows(tuple(words), tuple(purposes), n)]
    return [generators[k * n:(k + 1) * n] for k in range(len(purposes))]


# A sweep seeds the same streams at each spread of a replication.
@lru_cache(maxsize=1)
def _seeding_rows(words: tuple[int, ...], purposes: tuple[int, ...],
                  n: int) -> tuple[np.ndarray, ...]:
    """Per stream, purpose-major, the four ``uint64`` words ``PCG64`` seeds
    itself from; read-only, since the cache hands them out again."""
    # The seed's share of SeedSequence.mix_entropy: its words, zero-padded
    # to the pool size since a spawn key follows.
    words = words + (0,) * (_POOL_SIZE - len(words))
    consts = _constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, next(consts)) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    for word in words[_POOL_SIZE:]:
        pool = [_mix(x, _hashmix(word, next(consts))) for x in pool]

    # The spawn key's words, purpose then index: one stream per column,
    # one pool word per row.
    key = (np.repeat(np.array(purposes, dtype=np.uint64), n),
           np.tile(np.arange(n, dtype=np.uint64), len(purposes)))
    pools = np.array(pool, dtype=np.uint64)[:, None]
    for word in key:
        column = np.array(list(islice(consts, _POOL_SIZE)),
                          dtype=np.uint64)[:, None]
        pools = _mix(pools, _hashmix(word, column))

    # generate_state(4, uint64): eight 32-bit words cycling over the pool,
    # paired little-endian.
    state = _hashmix(np.concatenate((pools, pools)), _OUTPUT_CONSTANTS,
                     _MULT_B)
    rows = (state[0::2] | state[1::2] << 32).T.copy()
    rows.flags.writeable = False
    return tuple(rows)


# --- numpy's draws from raw words -------------------------------------------

def blocks(draw: Callable[[int], np.ndarray], size: int) -> Iterator:
    """The values of ``draw(size)``, one block after another, as Python
    numbers: one numpy call per ``size`` values."""
    return chain.from_iterable(map(np.ndarray.tolist, map(draw, repeat(size))))


def raw_words(bit_generator: np.random.BitGenerator,
              size: int) -> Iterator[int]:
    """The bit generator's raw 64-bit words, ``size`` per numpy call."""
    return blocks(bit_generator.random_raw, size)


def random_values(words: Iterator[int]) -> Iterator[float]:
    """numpy's ``random()`` draws, one whole word each: its top 53 bits
    times ``2**-53``."""
    for word in words:
        yield (word >> 11) * 2.0**-53


def random_cut(p: float) -> int:
    """The cut that makes ``random() < p`` one integer comparison on the
    word that `random_values` reads, ``word < random_cut(p)``."""
    return ceil(p * 2.0**53) << 11


def half_words(words: Iterator[int]) -> Iterator[int]:
    """numpy's 32-bit draws: a fresh word's low half, then its high half,
    kept as a spare.  Whole-word draws taken from ``words`` in between
    leave the spare alone."""
    for word in words:
        yield word & _MASK32
        yield word >> 32


def bounded(halves: Iterator[int], span: int) -> Iterator[int]:
    """``Generator.integers(0, span)`` draws for ``1 < span <= 2**32``:
    Lemire's ``m = u * span`` on the 32-bit values ``u`` of ``halves``,
    redone while ``m``'s low half is below ``(2**32 - span) % span``."""
    threshold = (2**32 - span) % span
    for u in halves:
        m = u * span
        if m & _MASK32 >= threshold:
            yield m >> 32
