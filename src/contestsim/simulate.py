"""Continuous-time contest engine.

Each worker is a point process over a virtual clock: holding times between
annotations are exponential, at ``lambda_in`` while the worker sits inside
the reward spread and ``lambda_out`` while outside.  Rates are re-evaluated
at the worker's own events, where the leaderboard is also updated.  A
logged holding time runs from the worker's previous event: under shared
dispatch one draw at the rate logged with it; under windowed dispatch a
window's first draw starts at its opening, so idle time before it counts
too.  A draw cut off by a close, an exit or an empty pool goes unlogged
(ROADMAP item 12).  The clock is integer milliseconds throughout.

Ranks come from one shared `core.Leaderboard`, which the replay validator
uses too: O(log W) per score update and per rank lookup in a field of W,
and a key that keeps its rank is replaced in place.

One event loop runs the contest in periods.  In a period, each worker
given a bin annotates the head of it, from the period's opening until its
close or until the bin runs dry; then the checkpoints up to the close run.
The two dispatch modes differ only in their periods:

* ``"windowed"``: one period per stream window.  The window's posts are
  dealt round-robin into per-worker bins; unsolved posts drop when their
  window closes.
* ``"shared"``: one period over the whole horizon, in which every worker's
  bin is the same FIFO pool.  No post is ever dropped.

Exit decisions happen at twenty evenly spaced checkpoints
(`checkpoint_times`), the last at the horizon: a worker outside the spread
leaves with a hazard that grows with their distance below the spread and
with elapsed contest time.  The loop keeps the next checkpoint's time and
runs checkpoints only when an event lies past it.  No score moves during
a checkpoint, so it reads the workers outside the spread and their ranks
off the board's order in one pass (`Leaderboard.workers_from`), and
writes its exits in rising worker id.  The log's final ranking is the
board's final order, read the same way; `replay_validate` ranks the field
again with `rank_workers`, a separate sort.

The loop scores annotations itself: a hit on a post with entities earns
the exact-match multiple of the base points, any other non-empty count the
base points, an empty count nothing.  That is `score_annotation`'s rule,
which `replay_validate` applies.

Each worker draws from three substreams of the contest seed, built for
the whole field in one `rng.substreams` call (equal bit for bit to one
`rng.substream` call per stream):

* EVENTS: one standard-exponential draw per holding time, scaled by the
  reciprocal of the governing rate, the worker's ``1.0 / lambda_in`` or
  ``1.0 / lambda_out``, computed once;
* COUNTS: one uniform per annotation, and on a miss one perturbation index
  in 0..3.  A worker sure to hit (skill + ``accuracy_floor`` at least 1)
  reads none: every word would be a hit;
* EXITS: one uniform per checkpoint the worker is still in the contest,
  none for a worker whose exit bound (below) is 0.

The engine reads these draws from blocks (`rng.blocks`, 32 per numpy
call; the twenty exit draws at once): EVENTS as unit-rate `holding_time`
calls with ``size=32``, COUNTS from raw words by `rng`'s rules.  Draw for
draw they equal the scalar `holding_time` and `simulate_annotated_count`
calls on the same substream, so a log does not depend on the block size.
A worker's EXITS draw for a checkpoint is taken whether or not it is read.
The hazard is 0 inside the spread and at most the worker's exit bound,
``min(1, base_hazard * exit_threshold)``, outside it, so `exit_hazard` is
consulted only for a worker outside the spread whose draw lies below that
bound, and the benchmark's ``simulate.exit_hazard.calls`` counts those
worker-checkpoints.  A contest in which every bound is 0 runs no
checkpoint at all.

A log (``contest-log-v1``) is one JSON object per line: a header with the
`EventLog` fields but the body's, one line per annotation or exit in time
order (annotations first on ties), and a trailer with the final ranking.
Its bytes are the format contract: keys in sorted order, no spaces,
integer fields as JSON integers and flags as ``true``/``false``, so equal
logs are equal files.  `read_event_log` builds every record from a chunk of
body lines in that form, decoded as one flat array of integers checked by
its digit-free skeleton.  A line pass first names ``path:line`` for any
other chunk's first line not held to its record's keys and exact field
types, shape before order, and rewrites each line in that form.  The reader
also holds the header to `check_header` and each exit line to its place.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, fields
from heapq import heappop, heappush, heapreplace
from itertools import chain, compress, count, cycle, islice, repeat
from math import ceil
from numbers import Integral
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Collection, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import rng as streams
from .core import (EXACT_MATCH_MULTIPLIER, FIELD_TYPES, JSON_TYPES,
                   ContestConfig, Leaderboard, Post, RankEntry, Ranking,
                   TextLines, WorkerProfile, canonical_json, check_object,
                   check_record, collector_paused, decode_json, field_kinds,
                   json_record, quote, rank_workers, require_finite,
                   score_annotation, write_atomic)
from .errors import ConfigurationError, ContractViolation
from .stream import DropQueue, advance_queue, allocate_round_robin, build_windows, total_contest_time

# Default scale of the exit hazard, chosen so that with the stock behavior
# prior at least 85% of a 20-worker field is still active at the 90% time
# mark even in a winner-takes-all contest (see tests/test_acceptance.py).
DEFAULT_BASE_HAZARD = 0.06

N_CHECKPOINTS = 20

LOG_FORMAT = "contest-log-v1"
DISPATCH_MODES = ("windowed", "shared")

_RATE_FLOOR = 1e-12
_PERTURBATIONS = (-2, -1, 1, 2)


def _miss_counts(truth: int) -> frozenset:
    """The counts a miss on a post of ``truth`` entities can report:
    ``max(0, truth + o)`` for each ``o`` in `_PERTURBATIONS`.  The engine
    draws its offsets inline; `replay_validate` holds a miss to this set."""
    return frozenset(max(0, truth + o) for o in _PERTURBATIONS)


Seed = Union[int, Sequence[int]]


@dataclass(frozen=True)
class BehaviorPrior:
    """Population prior over worker annotation rates.

    ``lambda_in`` is gamma distributed; ``lambda_out`` adds an independent
    half-normal bump to a fresh gamma draw, tilting out-of-spread behavior
    towards more effort.
    """

    gamma_shape: float = 9.0
    gamma_rate: float = 8.0
    halfnormal_sigma: float = 0.01

    def __post_init__(self) -> None:
        require_finite(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0.0:
                raise ConfigurationError(f"{f.name} must be strictly positive")


class AnnotationEvent(NamedTuple):
    """One annotation, with the state that governed its holding time.

    ``rank_at_event`` / ``eligible_at_event`` describe the worker right
    after their previous event was scored: the state whose rate drew the
    holding time, which is one draw only under shared dispatch (see the
    module docstring).  ``annotations_remaining`` counts posts left after it.
    """

    worker_id: int
    event_index: int
    event_time_ms: int
    holding_time_ms: int
    post_id: int
    annotated_count: int
    rank_at_event: int
    eligible_at_event: bool
    annotations_remaining: int


class ExitEvent(NamedTuple):
    worker_id: int
    exit_time_ms: int
    rank_at_exit: int
    eligible_at_exit: bool


@dataclass(frozen=True)
class PostCounters:
    """Where every ingested post ended up."""

    ingested: int
    solved: int
    dropped: int
    pending: int


@dataclass
class EventLog:
    """Complete record of one contest run."""

    config: ContestConfig
    seed: Seed
    dispatch: str
    horizon_ms: int
    base_hazard: float
    accuracy_floor: float
    events: list[AnnotationEvent]
    exits: list[ExitEvent]
    final_ranking: Ranking
    counters: PostCounters


def draw_behavior(prior: BehaviorPrior,
                  rng: np.random.Generator) -> tuple[float, float]:
    """Sample one worker's (lambda_in, lambda_out) pair from the prior."""
    lam_in = rng.gamma(prior.gamma_shape, 1.0 / prior.gamma_rate)
    lam_out = (rng.gamma(prior.gamma_shape, 1.0 / prior.gamma_rate)
               + abs(rng.normal(0.0, prior.halfnormal_sigma)))
    return max(float(lam_in), _RATE_FLOOR), max(float(lam_out), _RATE_FLOOR)


def holding_time(rate: float, rng: np.random.Generator,
                 size: Optional[int] = None):
    """Exponential waiting time at ``rate``.

    The sample is in the reciprocal units of the rate (seconds when rates
    are per second); callers convert to the millisecond clock.  ``size``
    batches draws for Monte-Carlo use.
    """
    if not rate > 0.0:
        raise ConfigurationError("holding_time requires a positive rate")
    if rate == math.inf:
        raise ConfigurationError("holding_time requires a finite rate")
    if size is None:
        return float(rng.exponential(1.0 / rate))
    return rng.exponential(1.0 / rate, size=size)


def exit_hazard(rank_gap: int, elapsed_fraction: float,
                profile: WorkerProfile, *, n_workers: int,
                base_hazard: float = DEFAULT_BASE_HAZARD) -> float:
    """Per-checkpoint probability that a worker abandons the contest.

    Zero while ``rank_gap``, the rank less the reward spread, is not
    positive (inside the spread); otherwise grows linearly both with the
    gap, capped at the field size, and with elapsed contest time.
    ``profile.exit_threshold`` scales the whole hazard, so a zero threshold
    pins a worker in place.
    """
    if not 0.0 <= elapsed_fraction <= 1.0:
        raise ConfigurationError("elapsed_fraction must lie in [0, 1]")
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    _check_base_hazard(base_hazard)
    if rank_gap <= 0:
        return 0.0
    gap_pressure = min(1.0, rank_gap / n_workers)
    hazard = (base_hazard * profile.exit_threshold * gap_pressure
              * elapsed_fraction)
    return min(1.0, hazard)


def _check_base_hazard(base_hazard: float) -> None:
    if not 0.0 <= base_hazard < math.inf:
        raise ConfigurationError(
            f"base_hazard must be finite and >= 0, got {base_hazard}")


def simulate_annotated_count(post: Post, profile: WorkerProfile,
                             rng: np.random.Generator,
                             accuracy_floor: float = 0.0) -> int:
    """Entity count a worker reports for a post.

    Correct with probability ``clamp(skill + accuracy_floor, 0, 1)``;
    otherwise the true count is nudged by a small non-zero offset and
    clamped at zero (so a miss on a zero-entity post can still land on the
    truth, but a miss on a non-empty post never can).
    """
    p_correct = _p_correct(profile.skill, accuracy_floor)
    if rng.random() < p_correct:
        return post.expected_entities
    delta = _PERTURBATIONS[rng.integers(0, len(_PERTURBATIONS))]
    return max(0, post.expected_entities + delta)


def _p_correct(skill: float, accuracy_floor: float) -> float:
    return min(1.0, max(0.0, skill + accuracy_floor))


# --- block-buffered draws ---------------------------------------------------
#
# Draws per numpy call.  Logs do not depend on it: each sequence equals the
# scalar calls above draw for draw (tests/test_simulate.py checks this).
_BLOCK = 32


def _count_offsets(bit_generator: np.random.BitGenerator, p_correct: float):
    """Yield, per annotation, the offset added to the true count (0 on a
    hit): `simulate_annotated_count`'s draws, rebuilt by `rng`'s rules from
    raw words read ``_BLOCK`` at a time."""
    cut = streams.random_cut(p_correct)
    words = streams.raw_words(bit_generator, _BLOCK)
    next_half = streams.half_words(words).__next__
    for word in words:
        if word < cut:
            yield 0
        else:
            # numpy's `integers(0, 4)`: Lemire's draw at span 4 rejects
            # nothing, so it is the 32-bit draw's top two bits.
            yield _PERTURBATIONS[next_half() >> 30]


class _WorkerState:
    """One worker's contest state and random draws.

    ``next_exp`` yields standard-exponential draws from ``event_rng``, and
    ``next_offset`` count offsets from ``count_rng``: always 0, reading no
    word, for a worker sure to hit.  ``exit_bound`` is the most that
    `exit_hazard` can return for the worker, ``min(1, base_hazard *
    exit_threshold)``, and ``exit_draws[ci]`` is ``exit_rng``'s draw at
    checkpoint ``ci`` (a worker alive there drew at every earlier
    checkpoint), or None, drawing nothing, when that bound is 0.
    ``inv_in`` / ``inv_out`` are the reciprocal two-state rates.
    """

    __slots__ = ("idx", "profile", "score", "stamp", "annotations",
                 "last_ms", "alive", "gov_rank", "gov_elig", "inv_in",
                 "inv_out", "next_exp", "next_offset", "exit_bound",
                 "exit_draws", "bin")

    def __init__(self, idx: int, profile: WorkerProfile,
                 event_rng: np.random.Generator,
                 count_rng: np.random.Generator,
                 exit_rng: np.random.Generator,
                 accuracy_floor: float, base_hazard: float) -> None:
        self.idx = idx
        self.profile = profile
        self.score = 0
        self.stamp: Optional[int] = None  # when the score last increased
        self.annotations = 0
        self.last_ms = 0
        self.alive = True
        self.gov_rank = 0
        self.gov_elig = False
        self.inv_in = 1.0 / profile.lambda_in
        self.inv_out = 1.0 / profile.lambda_out
        # Unit-rate holding times; a holding time at rate r is one of these
        # times 1/r, as numpy's exponential(scale) is
        # scale * standard_exponential().
        self.next_exp = streams.blocks(
            lambda size: holding_time(1.0, event_rng, size),
            _BLOCK).__next__
        p_correct = _p_correct(profile.skill, accuracy_floor)
        # `random_cut(1.0)` is 2**64, so at 1 every word would be a hit.
        self.next_offset = (
            repeat(0).__next__ if p_correct == 1.0
            else _count_offsets(count_rng.bit_generator, p_correct).__next__)
        # `exit_hazard`'s product only shrinks by factors at most 1, also in
        # floating point, so a draw at or above this bound never exits.
        self.exit_bound = min(1.0, base_hazard * profile.exit_threshold)
        self.exit_draws = (exit_rng.random(N_CHECKPOINTS).tolist()
                           if self.exit_bound > 0.0 else None)
        self.bin: deque[Post] = deque()


def contest_clock(config: ContestConfig, dispatch: str) -> tuple[int, int]:
    """The task unit time and the horizon of a contest on the millisecond
    clock, ``(unit_ms, horizon_ms)``.

    A windowed contest ends when its last window closes, after
    ``ceil(n_posts / window_size)`` task units; a shared-pool one after
    `total_contest_time`, rounded to the millisecond.  A task unit or a
    shared horizon of 0 ms raises `ConfigurationError`.
    """
    unit_ms = int(round(config.task_unit_time_s * 1000.0))
    if unit_ms < 1:
        raise ConfigurationError(
            "task_unit_time_s is below the 1 ms clock resolution")
    if dispatch == "windowed":
        return unit_ms, -(-config.n_posts // config.window_size) * unit_ms
    horizon_ms = int(round(total_contest_time(
        config.n_posts, config.task_unit_time_s, config.window_size) * 1000.0))
    if horizon_ms < 1:
        raise ConfigurationError("n_posts * task_unit_time_s / window_size "
                                 "is below the 1 ms clock resolution")
    return unit_ms, horizon_ms


def check_run_arguments(config: ContestConfig, dispatch: str,
                        base_hazard: float,
                        accuracy_floor: float) -> tuple[int, int]:
    """Check a contest's dispatch, ``base_hazard`` and ``accuracy_floor``,
    then return its `contest_clock`; a fault raises `ConfigurationError`.
    `run_contest`, `check_header` and `ExperimentConfig` check here."""
    if dispatch not in DISPATCH_MODES:
        raise ConfigurationError(f"unknown dispatch mode {quote(dispatch)}")
    _check_base_hazard(base_hazard)
    if not math.isfinite(accuracy_floor):
        raise ConfigurationError(
            f"accuracy_floor must be finite, got {accuracy_floor}")
    return contest_clock(config, dispatch)


def checkpoint_times(horizon_ms: int) -> list[int]:
    """The `N_CHECKPOINTS` exit-checkpoint times of a contest, in ms; the
    last is the horizon."""
    return [int(round(k * horizon_ms / N_CHECKPOINTS))
            for k in range(1, N_CHECKPOINTS + 1)]


def _check_posts(config: ContestConfig, posts: Sequence[Post],
                 ids: Collection[int]) -> None:
    """Raise `ConfigurationError` unless ``posts`` are exactly ``n_posts``
    posts with unique ids; `run_contest` and `replay_validate` check here.

    ``ids`` holds the distinct ids of ``posts``, in the table the caller
    builds anyway: `run_contest` passes a set, `replay_validate` its table
    of true counts, so the replay builds no second table."""
    if len(posts) != config.n_posts:
        raise ConfigurationError(
            f"expected {config.n_posts} posts, got {len(posts)}")
    if len(ids) != len(posts):
        raise ConfigurationError("post ids must be unique")


def run_contest(config: ContestConfig, profiles: Sequence[WorkerProfile],
                posts: Sequence[Post], seed: Seed, *,
                dispatch: str = "windowed",
                base_hazard: float = DEFAULT_BASE_HAZARD,
                accuracy_floor: float = 0.0) -> EventLog:
    """Simulate one contest and return its full event log.

    Deterministic: identical (config, profiles, posts, seed) inputs yield a
    bit-identical log, since the seed must pass `rng.check_seed` (``None``
    does not).  The cyclic garbage collector is off while the contest runs
    (`core.collector_paused`), since every event record stays tracked by it.
    """
    if len(profiles) != config.n_workers:
        raise ConfigurationError(
            f"expected {config.n_workers} profiles, got {len(profiles)}")
    _check_posts(config, posts, {p.id for p in posts})
    unit_ms, horizon_ms = check_run_arguments(config, dispatch, base_hazard,
                                              accuracy_floor)
    seed = streams.check_seed(seed)
    board = Leaderboard([p.id for p in profiles])

    with collector_paused():
        n = config.n_workers
        n_posts = config.n_posts
        spread = config.reward_spread
        base_points = config.base_points
        hit_points = EXACT_MATCH_MULTIPLIER * base_points
        rngs = streams.substreams(
            seed, (streams.EVENTS, streams.COUNTS, streams.EXITS), n)
        workers = [_WorkerState(i, profiles[i], *(r[i] for r in rngs),
                                accuracy_floor=accuracy_floor,
                                base_hazard=base_hazard)
                   for i in range(n)]
        # With no worker able to leave, no checkpoint has anything to do.
        at_risk = any(w.exit_draws for w in workers)
        by_id = {w.profile.id: w for w in workers}
        id_order = sorted(workers, key=lambda w: w.profile.id)
        board_update, board_from = board.update, board.workers_from
        for w in workers:
            w.gov_rank = board.rank(w.profile.id)
            w.gov_elig = w.gov_rank <= spread

        events: list[AnnotationEvent] = []
        exits: list[ExitEvent] = []
        solved = 0
        checkpoint_ms = checkpoint_times(horizon_ms)
        cp_idx = 0

        def run_checkpoints(through_ms: int) -> float:
            """Run every checkpoint not yet run at or before ``through_ms``;
            return the time of the next one (infinity after the last)."""
            nonlocal cp_idx
            if not at_risk:
                return math.inf
            while (cp_idx < N_CHECKPOINTS
                   and checkpoint_ms[cp_idx] <= through_ms):
                ci = cp_idx
                cp_idx += 1
                frac = (ci + 1) / N_CHECKPOINTS
                # No score moves during a checkpoint, so the workers outside
                # the spread and their ranks are read off the board at once.
                # The hazard is 0 inside the spread; the draw for this
                # checkpoint, `exit_draws[ci]`, of a worker there goes unread,
                # and `exit_hazard` is asked only under the worker's bound.
                leaving = []
                for r, wid in enumerate(board_from(spread + 1), spread + 1):
                    w = by_id[wid]
                    draws = w.exit_draws
                    if (draws and w.alive and draws[ci] < w.exit_bound
                            and draws[ci] < exit_hazard(
                                r - spread, frac, w.profile, n_workers=n,
                                base_hazard=base_hazard)):
                        w.alive = False
                        leaving.append(ExitEvent(wid, checkpoint_ms[ci], r,
                                                 False))
                # In rising worker id, the records' first field.
                exits.extend(sorted(leaving))
            return (checkpoint_ms[cp_idx] if cp_idx < N_CHECKPOINTS
                    else math.inf)

        def run_period(holders: Sequence[_WorkerState], open_ms: int,
                       close_ms: int) -> None:
            """Run ``holders`` from ``open_ms`` until ``close_ms`` or until
            their bins run dry, then every checkpoint up to ``close_ms``.

            A worker annotates the head of ``w.bin``; in shared dispatch every
            worker's bin is the one pool.  Checkpoints run before the events at
            later milliseconds, and after those at their own.
            """
            nonlocal solved
            # `AnnotationEvent(...)` less its Python-level `__new__`.
            new_tuple = tuple.__new__
            heap: list[tuple[int, int]] = []
            # A holding time is one unit-rate draw times the reciprocal of the
            # worker's two-state rate, in ms, at least 1; the same arithmetic
            # runs after each event below.
            for w in holders:
                gap = ceil(w.next_exp()
                           * (w.inv_in if w.gov_elig else w.inv_out) * 1000.0)
                t = w.last_ms if w.last_ms > open_ms else open_ms
                t += gap if gap > 1 else 1
                if t <= close_ms:
                    heappush(heap, (t, w.idx))
            # None is due: this finds the next.
            next_cp = run_checkpoints(open_ms - 1)
            # The worker served stays at ``heap[0]`` until it is rescheduled
            # in place or, once done, popped; keys are unique, so this pops in
            # the order that a pop per event would.
            while heap:
                t, widx = heap[0]
                w = workers[widx]
                if w.alive and next_cp < t:
                    next_cp = run_checkpoints(t - 1)
                if not w.alive or not w.bin:
                    heappop(heap)
                    continue
                post = w.bin.popleft()
                # A miss (non-zero offset) never lands on a non-zero true
                # count, so this is `score_annotation`'s rule.
                offset = w.next_offset()
                count = post.expected_entities + offset
                if count < 0:
                    count = 0
                solved += 1
                wid = w.profile.id
                events.append(new_tuple(AnnotationEvent, (
                    wid, w.annotations, t, t - w.last_ms, post.id, count,
                    w.gov_rank, w.gov_elig, n_posts - solved)))
                w.annotations += 1
                w.last_ms = t
                if count:
                    w.score += base_points if offset else hit_points
                    w.stamp = t
                r = w.gov_rank = board_update(wid, w.score, t)
                elig = w.gov_elig = r <= spread
                if w.bin:
                    gap = ceil(w.next_exp()
                               * (w.inv_in if elig else w.inv_out) * 1000.0)
                    t += gap if gap > 1 else 1
                    if t <= close_ms:
                        heapreplace(heap, (t, widx))
                        continue
                heappop(heap)
            run_checkpoints(close_ms)

        if dispatch == "windowed":
            queue = DropQueue()
            deal_from = 0
            for index, window in enumerate(
                    build_windows(posts, config.window_size)):
                # Never empty: the spread's workers never exit.
                bins, deal_from, unassigned = allocate_round_robin(
                    window, [w.profile.id for w in id_order if w.alive],
                    config.task_unit_size, deal_from)
                holders: list[_WorkerState] = []
                for wid, bin_posts in bins:
                    holder = by_id[wid]
                    holder.bin = deque(bin_posts)
                    holders.append(holder)
                close_ms = (index + 1) * unit_ms
                for p in unassigned:
                    queue.push(p, close_ms)
                run_period(holders, index * unit_ms, close_ms)
                for w in holders:
                    while w.bin:
                        queue.push(w.bin.popleft(), close_ms)
                advance_queue(queue, close_ms)
            dropped, pending = queue.dropped_count, len(queue)
        else:
            pool = deque(posts)
            for w in workers:
                w.bin = pool
            # The last checkpoint is at the horizon, so this runs all twenty.
            run_period(id_order, 0, horizon_ms)
            dropped, pending = 0, len(pool)

        counters = PostCounters(ingested=len(posts), solved=solved,
                                dropped=dropped, pending=pending)
        if counters.ingested != (counters.solved + counters.dropped
                                 + counters.pending):
            raise ContractViolation(f"post conservation violated: {counters}")

        # The board's final order is the one `rank_workers` sorts into.
        final_ranking = Ranking(entries=tuple(
            RankEntry(w.profile.id, w.score, w.annotations, w.stamp)
            for w in map(by_id.get, board_from(1))))
        return EventLog(config=config, seed=seed, dispatch=dispatch,
                        horizon_ms=horizon_ms, base_hazard=base_hazard,
                        accuracy_floor=accuracy_floor, events=events,
                        exits=exits, final_ranking=final_ranking,
                        counters=counters)


# --- serialization ---------------------------------------------------------
#
# Annotation and exit lines are f-strings in `canonical_json`'s form, once
# `_check_integers` has held the integer fields to its rule; the header and
# the trailer go through `canonical_json` itself.
_JSON_BOOL = {True: "true", False: "false"}

# Body lines per string `write_event_log` writes and per `decode_json` call
# `read_event_log` makes.  It bounds a chunk's memory, and changes no byte.
_CHUNK_LINES = 512

# What a reader accepts in each field, in the order of the record's tuple.
_INTEGER, _BOOLEAN = FIELD_TYPES["int"], FIELD_TYPES["bool"]
_EVENT_FIELDS = {"worker_id": _INTEGER, "event_index": _INTEGER,
                 "event_time_ms": _INTEGER, "holding_time_ms": _INTEGER,
                 "post_id": _INTEGER, "annotated_count": _INTEGER,
                 "rank": _INTEGER, "eligible": _BOOLEAN}
_EXIT_FIELDS = {"worker_id": _INTEGER, "exit_time_ms": _INTEGER,
                "rank": _INTEGER, "eligible": _BOOLEAN}
_RANK_FIELDS = {"worker_id": _INTEGER, "score": _INTEGER,
                "annotations": _INTEGER,
                "last_scored_ms": _INTEGER._replace(what="an integer or null",
                                                    types=(int, type(None)))}
_TRAILER_FIELDS = {"final_ranking": _INTEGER._replace(what="a list",
                                                      types=(list,))}
# The `EventLog` fields that the body holds and the header leaves out.
_BODY_FIELDS = ("events", "exits", "final_ranking")
# A header field takes its declared type, but ``config`` and ``counters`` an
# object, and ``seed`` and ``dispatch`` any value, for `check_header`'s rules.
_OBJECT = _INTEGER._replace(what="an object", types=(dict,))
_ANY = _INTEGER._replace(what="a JSON value", types=JSON_TYPES)
_HEADER_FIELDS = field_kinds(EventLog, _BODY_FIELDS, config=_OBJECT,
                             counters=_OBJECT, seed=_ANY, dispatch=_ANY)
_event_time = attrgetter("event_time_ms")
_rank_values = itemgetter(*_RANK_FIELDS)
# What `_decode_canonical` reads a canonical chunk by: the flags, which it
# turns into digits; the bytes of a JSON integer; each record's line less
# those bytes, its skeleton, with the line break; the translation of ``:``
# to ``,`` and of ``,`` and ``}`` to a space; and the skeletons' other bytes.
_TRUE, _FALSE = b'"eligible":true,', b'"eligible":false,'
_INTEGER_BYTES = b"-0123456789"
_ANNOTATION_SKELETON = (b'{"annotated_count":,"eligible":,"event_index":,'
                        b'"event_time_ms":,"holding_time_ms":,"post_id":,'
                        b'"rank":,"worker_id":}\n')
_EXIT_SKELETON = b'{"eligible":,"exit_time_ms":,"rank":,"worker_id":}\n'
_TO_NUMBERS = bytes.maketrans(b":,}", b",  ")
_SKELETON_BYTES = b'\n"_abcdeghiklmnoprstuvwx{'


class _NotAnInteger(TypeError, ValueError):
    """A field the writer's rule refuses: a value of the wrong type."""


def _check_integers(records: Sequence[tuple], n_integers: int) -> None:
    """Raise `_NotAnInteger` unless the first ``n_integers`` fields of every
    record are `Integral` and not bool, in one pass over their types."""
    if not records:
        return
    mask = [True] * n_integers + [False] * (len(records[0]) - n_integers)
    for kind in set(map(type, compress(chain.from_iterable(records),
                                       cycle(mask)))):
        if issubclass(kind, bool) or not issubclass(kind, Integral):
            raise _NotAnInteger(
                f"an integer field of {type(records[0]).__name__} is a "
                f"{kind.__name__}, not an integer")


def event_log_lines(log: EventLog):
    """Yield the canonical line-delimited form of a log: a header
    (`json_record` of the log but its events, exits and final ranking, plus
    ``format``); one annotation or exit per line in time order, annotations
    first on ties, each exit placed by one binary search on the event time;
    and a trailer with the final ranking.  An integer field that is a bool
    or no `Integral` raises `ValueError` (a `TypeError` too) at the start."""
    events, exits = log.events, log.exits
    _check_integers(events, len(_EVENT_FIELDS) - 1)
    _check_integers(exits, len(_EXIT_FIELDS) - 1)
    header = json_record(log)
    for name in _BODY_FIELDS:
        del header[name]
    header["format"] = LOG_FORMAT
    yield canonical_json(header)
    json_bool = _JSON_BOOL

    def annotation_lines(lo: int, hi: int):
        return (f'{{"annotated_count":{count},"eligible":{json_bool[elig]},'
                f'"event_index":{index},"event_time_ms":{t},'
                f'"holding_time_ms":{hold},"post_id":{post},"rank":{rank},'
                f'"worker_id":{wid}}}'
                for wid, index, t, hold, post, count, rank, elig, _
                in events[lo:hi])

    start = 0
    for wid, exit_ms, rank, elig in exits:
        stop = bisect_right(events, exit_ms, start, key=_event_time)
        yield from annotation_lines(start, stop)
        yield (f'{{"eligible":{json_bool[elig]},"exit_time_ms":{exit_ms},'
               f'"rank":{rank},"worker_id":{wid}}}')
        start = stop
    yield from annotation_lines(start, len(events))
    yield canonical_json({"final_ranking": [dict(zip(_RANK_FIELDS, e))
                                            for e in log.final_ranking]})


def write_event_log(log: EventLog, path: Union[str, Path]) -> None:
    """Write `event_log_lines` to ``path`` through `write_atomic`, one
    string per `_CHUNK_LINES` lines, so an interrupted or failed write never
    leaves a truncated log behind.  The file is not fsynced."""
    lines = event_log_lines(log)
    chunks = iter(lambda: "\n".join(islice(lines, _CHUNK_LINES)), "")
    write_atomic(path, (chunk + "\n" for chunk in chunks))


def _decode_canonical(lines: list[str]) -> Optional[tuple]:
    """Decode body ``lines`` in one `decode_json` call, as one flat array of
    integers: the annotation fields' columns in record order, the exits and
    the number of annotation lines before each exit line; None unless every
    line is in canonical form.

    The ``n`` lines must hold ``n`` flags, which become digits.  With ``-``
    and the digits deleted, the skeleton left must be tiled by annotation
    and exit skeleton lines: each starts with its only ``{`` and ends with
    its only line break, so none overlap, and their lengths add up only if
    each line is one of them (without the line break, a line holding two
    records could stand beside an empty one).  Each has one flag slot, so
    each line holds its flag there.  The second translation keeps the runs
    of ``-`` and digits, puts a ``,`` for each ``:`` and a space for each
    ``,`` and ``}``, and deletes the rest, so a field's run follows a ``,``
    and any other run a space, beside a field's number, or the leading
    ``0``.  With no empty field (``", "``), the text decodes only if each
    field holds one JSON integer and no other byte of a line is a digit.
    """
    text = ("\n".join(lines) + "\n").encode()
    flagged = text.replace(_TRUE, b'"eligible":1,')
    digits = flagged.replace(_FALSE, b'"eligible":0,')
    # A true flag replaced shortens the text by 3 bytes, a false one by 4.
    n_flags = ((len(text) - len(flagged)) // 3
               + (len(flagged) - len(digits)) // 4)
    skeleton = digits.translate(None, _INTEGER_BYTES)
    n_exits = skeleton.count(_EXIT_SKELETON)
    if n_flags != len(lines) or len(skeleton) != (
            n_exits * len(_EXIT_SKELETON) + len(_ANNOTATION_SKELETON)
            * skeleton.count(_ANNOTATION_SKELETON)):
        return None
    numbers = digits.translate(_TO_NUMBERS, _SKELETON_BYTES)
    if b", " in numbers:
        return None
    try:
        values = decode_json("[0" + numbers.decode() + "]")
    except ValueError:
        return None
    before, at = [], 0
    for j in range(n_exits):
        at = skeleton.find(_EXIT_SKELETON, at)
        before.append((at - j * len(_EXIT_SKELETON))
                      // len(_ANNOTATION_SKELETON))
        at += len(_EXIT_SKELETON)
    # Value 1 + f is field f of the first line, in the line's key order; an
    # exit line's come after 8 per annotation line and 4 per exit line.
    starts = [1 + 8 * b + 4 * j for j, b in enumerate(before)]
    exits = [ExitEvent(values[i + 3], values[i + 1], values[i + 2],
                       values[i] == 1) for i in starts]
    for i in reversed(starts):
        del values[i:i + 4]
    columns = [values[f::8] for f in (8, 3, 4, 5, 6, 1, 7)]
    columns.append([*map(bool, values[2::8])])
    return columns, exits, before


def read_event_log(path: Union[str, Path]) -> EventLog:
    """Parse a log written by `write_event_log`, reconstructing derived fields.

    ``annotations_remaining`` is not stored; it is rebuilt by replaying the
    solved count against the configured post total.  Body lines come from
    `TextLines`, which streams the file, `_CHUNK_LINES` at a time, and
    `_decode_canonical` builds every record.  A chunk it declines first goes
    through a line pass, which holds each line to its record and rewrites it
    in the writer's form, so there every line's keys and types are checked
    before any line's order.  Equal worker ids, ranks and holding times, once
    typed, are one object across the records, through one dict per read;
    beyond the records, a read holds that dict, one block of text and one
    chunk.  The header must pass `check_header`; each exit line must sit where
    the writer puts it: after every annotation at or before its time and
    before the first one after it.  Any malformed line, including a value that
    is no JSON object, a field of the wrong type, a key that is no field of
    the line's record (`core.check_record`, also for the header and its
    ``config`` and ``counters``) or a trailer that does not rank ``n_workers``
    workers, raises `ConfigurationError` naming ``path:line``; a file that is
    not UTF-8 text raises it naming the path.  A body line holding
    ``exit_time_ms`` is an exit line, so an annotation line that also holds it
    is refused there.  The cyclic garbage collector is off while the body is
    decoded (`core.collector_paused`).
    """
    with TextLines(path, "event log") as text:
        lines = iter(text)
        text.lineno = 1
        header_line = next(lines, None)
        if header_line is None:
            raise ConfigurationError("empty event log")
        header = check_object(decode_json(header_line))
        if header.pop("format", None) != LOG_FORMAT:
            raise ConfigurationError(f"not a {LOG_FORMAT} file")
        check_record(header, _HEADER_FIELDS)
        check_record(header["config"], field_kinds(ContestConfig))
        check_record(header["counters"], field_kinds(PostCounters))
        header["config"] = ContestConfig(**header["config"])
        header["counters"] = PostCounters(**header["counters"])
        log = EventLog(**header, events=[], exits=[],
                       final_ranking=Ranking(entries=()))
        check_header(log)
        config, events, exits = log.config, log.events, log.exits
        # `AnnotationEvent._make(...)` less its Python-level call and length
        # check: `zip` gives each record its number of fields.
        new_tuple = tuple.__new__
        per_worker_index: dict[int, int] = {}
        # One object per distinct worker id, rank and holding time, which
        # the records share: these take few values, most of them above the
        # small ints that Python caches.
        share = {}.setdefault
        # (line number, annotation lines before it) of each exit line.
        exit_at: list[tuple[int, int]] = []
        n_posts = config.n_posts
        # Each chunk is read with one line more, held back for the next
        # chunk, so the line left over at the end is the trailer.
        first = 2  # the line number of the chunk's first line
        chunk = list(islice(lines, _CHUNK_LINES + 1))
        with collector_paused():
            while len(chunk) > 1:
                held = chunk.pop()
                decoded = _decode_canonical(chunk)
                if decoded is None:
                    # Name the first line not held to its record, and write
                    # each in the writer's form, which the decoder takes.
                    for i, line in enumerate(chunk):
                        text.lineno = first + i
                        obj = check_object(decode_json(line))
                        check_record(obj, _EXIT_FIELDS if "exit_time_ms" in
                                     obj else _EVENT_FIELDS)
                        chunk[i] = canonical_json(obj)
                    decoded = _decode_canonical(chunk)
                columns, new_exits, before = decoded
                (wids, indexes, times, holds, posts, counts, ranks,
                 eligs) = columns
                # Shared only once typed: 1 and True are one dict key.
                wids = list(map(share, wids, wids))
                get = per_worker_index.get
                for i, wid, index in zip(count(), wids, indexes):
                    if index != get(wid, 0):
                        text.lineno = first + i + bisect_right(before, i)
                        raise ConfigurationError(
                            f"worker {wid} event_index out of order")
                    per_worker_index[wid] = index + 1
                exit_at.extend((first + j + b, len(events) + b)
                               for j, b in enumerate(before))
                exits.extend(new_exits)
                left = n_posts - len(events)
                events.extend(map(new_tuple, repeat(AnnotationEvent), zip(
                    wids, indexes, times, map(share, holds, holds), posts,
                    counts, map(share, ranks, ranks), eligs,
                    range(left - 1, left - 1 - len(wids), -1))))
                first += len(chunk)
                chunk = [held, *islice(lines, _CHUNK_LINES)]
        for (text.lineno, k), x in zip(exit_at, exits):
            t = x.exit_time_ms
            if (k and events[k - 1].event_time_ms > t
                    or k < len(events) and events[k].event_time_ms <= t):
                raise ConfigurationError(
                    f"exit of worker {x.worker_id} at {t} ms is out of place "
                    "among the annotation lines")
        # A file of one line has its header as its trailer.
        text.lineno = first - 1 + len(chunk)
        trailer = decode_json(chunk[0] if chunk else header_line)
        if "final_ranking" not in check_object(trailer):
            raise ConfigurationError("missing final-ranking trailer")
        check_record(trailer, _TRAILER_FIELDS)
        entries = []
        for r in trailer["final_ranking"]:
            check_record(r, _RANK_FIELDS)
            entries.append(RankEntry(*_rank_values(r)))
        if len(entries) != config.n_workers:
            raise ConfigurationError(
                f"final_ranking ranks {len(entries)} workers, "
                f"not n_workers {config.n_workers}")
        log.final_ranking = Ranking(entries=tuple(entries))
    return log


# --- replay validation -----------------------------------------------------

def check_header(log: EventLog) -> None:
    """Hold ``log``'s header to `run_contest`'s rules, else raise
    `ConfigurationError`, and put its seed in `rng.check_seed`'s form.
    `read_event_log` and `replay_validate` call it."""
    log.seed = streams.check_seed(log.seed)
    _, horizon_ms = check_run_arguments(log.config, log.dispatch,
                                        log.base_hazard, log.accuracy_floor)
    if log.horizon_ms != horizon_ms:
        raise ConfigurationError(
            f"horizon_ms {log.horizon_ms} != {horizon_ms} from the config "
            f"and {log.dispatch} dispatch")


def replay_validate(log: EventLog, posts: Sequence[Post]) -> None:
    """Re-derive every structural invariant of a log; raise on any mismatch.

    Checks, per worker: the holding-time recursion (each event lands exactly
    holding_time_ms after the previous one, so the holding times sum to the
    last event time), that the recorded rank and eligibility equal the
    leaderboard state right after the worker's previous event, and silence
    after exit.  Per exit: that it falls on a checkpoint time, in time
    order, once per worker, outside the reward spread (the exit hazard is
    0 inside it), in rising worker id among the exits of one checkpoint,
    and that its rank and eligibility equal the leaderboard state after
    every event at or before it; at ``base_hazard`` 0 no exit at all.  Per
    annotation: the true count or a count a miss gives (`_miss_counts`).
    Skill lies in [0, 1], so at ``accuracy_floor`` 1 or more every worker
    is sure to hit and each count is the true one, and at -1 or less every
    draw misses and no non-empty post gets its true count.  Globally: that
    the header passes `check_header` and no event falls after
    ``horizon_ms``, post conservation of all ``n_posts`` (an unsolved post
    is dropped under windowed dispatch, pending under shared), the
    remaining-post countdown, that no post is annotated twice, and that the
    trailer equals `rank_workers` of the replayed scores, last scoring times
    and counts: a ranking made apart from the engine's board.
    Needs the contest's posts to re-score events, held to `run_contest`'s
    rule (`_check_posts`): exactly ``n_posts`` of them with unique ids, or
    `ConfigurationError`.
    A violation names its position in ``log.events``, worker and event
    index, its position in ``log.exits``, worker and exit time, or its
    ``final_ranking`` row.  The event loop runs with the collector paused.
    """
    check_header(log)
    # A post's true count, or None once it has been annotated.
    expected: dict[int, Optional[int]] = {
        p.id: p.expected_entities for p in posts}
    _check_posts(log.config, posts, expected)
    horizon_ms, n_posts = log.horizon_ms, log.config.n_posts
    spread, base_points = log.config.reward_spread, log.config.base_points
    # The least skill is 0 and the most 1, so the floor alone may make
    # every hit sure or every draw a miss.
    sure_hit = _p_correct(0.0, log.accuracy_floor) == 1.0
    sure_miss = _p_correct(1.0, log.accuracy_floor) == 0.0
    miss_counts = {t: _miss_counts(t) for t in {*expected.values()}}
    worker_ids = [e.worker_id for e in log.final_ranking]
    board = Leaderboard(worker_ids)
    position = {w: k for k, w in enumerate(worker_ids)}  # into the lists below
    score = [0] * len(worker_ids)
    stamp = [None] * len(worker_ids)  # when the score last increased
    last_ms = [0] * len(worker_ids)
    count = [0] * len(worker_ids)
    gov_rank = [board.rank(w) for w in worker_ids]
    exit_ms = [math.inf] * len(worker_ids)
    solved = 0
    prev_t = 0

    def exit_violation(i: int, what: str) -> ContractViolation:
        x = log.exits[i]
        return ContractViolation(f"log.exits[{i}] (worker {x.worker_id}, "
                                 f"exit_time_ms {x.exit_time_ms}): {what}")

    # How many checkpoints fall on each checkpoint millisecond.
    checkpoints = Counter(checkpoint_times(log.horizon_ms))
    descents = 0  # worker-id descents among the exits at this millisecond
    for i, x in enumerate(log.exits):
        k = position.get(x.worker_id)
        if k is None:
            raise exit_violation(i, "worker not in the contest")
        prev = log.exits[i - 1] if i else None
        if prev and x.exit_time_ms < prev.exit_time_ms:
            raise exit_violation(i, "exits out of time order")
        if x.exit_time_ms not in checkpoints:
            raise exit_violation(i, "exit_time_ms is not a checkpoint time")
        if exit_ms[k] < math.inf:
            raise exit_violation(i, f"worker {x.worker_id} exits more than once")
        if x.eligible_at_exit != (x.rank_at_exit <= spread):
            raise exit_violation(i, "eligibility flag inconsistent")
        if x.eligible_at_exit:
            raise exit_violation(i, "exit inside the reward spread")
        if log.base_hazard == 0.0:
            raise exit_violation(i, "exit at base_hazard 0, where the exit "
                                 "hazard is 0")
        # A checkpoint writes its exits in rising worker id, so the exits at
        # a millisecond that m checkpoints share descend at most m - 1 times.
        if prev and x.exit_time_ms == prev.exit_time_ms:
            descents += x.worker_id < prev.worker_id
            if descents >= checkpoints[x.exit_time_ms]:
                raise exit_violation(
                    i, "exits at one checkpoint out of worker-id order")
        else:
            descents = 0
        exit_ms[k] = x.exit_time_ms
    next_exit = 0

    def check_exits(before_ms: float) -> float:
        """Check the rank of each exit before ``before_ms`` against the board
        after every event at or before the exit; return the time of the
        next exit (infinity after the last)."""
        nonlocal next_exit
        while (next_exit < len(log.exits)
               and log.exits[next_exit].exit_time_ms < before_ms):
            x = log.exits[next_exit]
            rank = board.rank(x.worker_id)
            if x.rank_at_exit != rank:
                raise exit_violation(
                    next_exit, f"rank_at_exit {x.rank_at_exit} != replay {rank}")
            next_exit += 1
        return (log.exits[next_exit].exit_time_ms
                if next_exit < len(log.exits) else math.inf)

    def violation(pos: int, what: str) -> ContractViolation:
        e = log.events[pos]
        return ContractViolation(f"log.events[{pos}] (worker {e.worker_id}, "
                                 f"event_index {e.event_index}): {what}")

    next_exit_ms = check_exits(0)
    with collector_paused():
        for pos, (wid, index, t, hold, post, annotated, rank, elig,
                  remaining) in enumerate(log.events):
            if next_exit_ms < t:
                next_exit_ms = check_exits(t)
            truth = expected.get(post)
            k = position.get(wid)
            if k is None or truth is None:
                if k is not None and post in expected:
                    raise violation(pos, f"post {post} annotated twice")
                raise violation(pos, f"worker or post {post} not in the contest")
            if t < prev_t:
                raise violation(pos, "event log is not globally time-sorted")
            prev_t = t
            if t > horizon_ms:
                raise violation(pos, f"event after the horizon {horizon_ms} ms")
            if t > exit_ms[k]:
                raise violation(pos, "annotated after exiting")
            if index != count[k]:
                raise violation(pos, f"event_index != replay {count[k]}")
            if t - hold != last_ms[k]:
                raise violation(pos, "holding-time recursion broken")
            if rank != gov_rank[k]:
                raise violation(pos, f"rank_at_event {rank} != replay {gov_rank[k]}")
            if elig != (rank <= spread):
                raise violation(pos, "eligibility flag inconsistent")
            if hold < 1:
                raise violation(pos, "holding_time_ms must be a positive integer")
            if annotated != truth:
                if sure_hit:
                    raise violation(pos, f"annotated_count {annotated} != "
                                    f"true count {truth} at accuracy_floor "
                                    f"{log.accuracy_floor}, where every "
                                    "count is exact")
                if annotated not in miss_counts[truth]:
                    raise violation(pos, f"annotated_count {annotated} is "
                                    f"neither the true count {truth} nor a "
                                    f"miss of it {sorted(miss_counts[truth])}")
            elif sure_miss and truth:
                raise violation(pos, f"annotated_count {annotated} is the true "
                                f"count at accuracy_floor "
                                f"{log.accuracy_floor}, where every draw "
                                "misses")
            solved += 1
            if remaining != n_posts - solved:
                raise violation(pos, "annotations_remaining countdown broken")
            count[k] = index + 1
            last_ms[k] = t
            expected[post] = None
            points = score_annotation(annotated, truth, base_points)
            if points > 0:
                score[k] += points
                stamp[k] = t
            gov_rank[k] = board.update(wid, score[k], t)
    check_exits(math.inf)

    replayed = rank_workers(*(dict(zip(worker_ids, state))
                              for state in (score, stamp, count))).entries
    for i, (entry, want) in enumerate(zip(log.final_ranking, replayed)):
        if entry != want:
            raise ContractViolation(
                f"final_ranking[{i}] (worker {entry.worker_id}): {entry} "
                f"!= replay {want}")
    c = log.counters
    if c.ingested != log.config.n_posts:
        raise ContractViolation(
            f"counters.ingested {c.ingested} != config n_posts "
            f"{log.config.n_posts}")
    if c.solved != len(log.events):
        raise ContractViolation("solved counter disagrees with event count")
    # Windowed dispatch drops what a window leaves; the shared pool keeps it.
    left = c.ingested - c.solved
    split = (left, 0) if log.dispatch == "windowed" else (0, left)
    if (c.dropped, c.pending) != split:
        raise ContractViolation(
            f"counters dropped {c.dropped}, pending {c.pending} != "
            f"{split[0]}, {split[1]} under {log.dispatch} dispatch")
