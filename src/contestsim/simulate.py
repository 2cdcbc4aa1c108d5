"""Continuous-time contest engine.

Each worker is a point process over a virtual clock: holding times between
annotations are exponential, at ``lambda_in`` while the worker sits inside
the reward spread and ``lambda_out`` while outside.  Rates are re-evaluated
at the worker's own events, where the leaderboard is also updated, so every
logged holding time is a single exponential draw at the rate recorded with
the event.  The clock is integer milliseconds throughout.

Ranks come from one shared `core.Leaderboard`, which the replay validator
uses too: O(log W) per score update and per rank lookup in a field of W.

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
runs checkpoints only when an event lies past it.

The loop scores annotations itself: a hit on a post with entities earns
the exact-match multiple of the base points, any other non-empty count the
base points, an empty count nothing.  That is `score_annotation`'s rule,
which `replay_validate` applies.

Each worker draws from three substreams of the contest seed, built for
the whole field in one `rng.substreams` call (equal bit for bit to one
`rng.substream` call per stream):

* EVENTS: one standard-exponential draw per holding time, scaled by the
  reciprocal of the governing rate (for the two-state rate, the worker's
  ``1.0 / lambda_in`` or ``1.0 / lambda_out``, computed once);
* COUNTS: one uniform per annotation, and on a miss one perturbation index
  in 0..3;
* EXITS: one uniform per checkpoint the worker is still in the contest.

The engine reads these draws from blocks (`rng.blocks`, 32 per numpy
call; the twenty exit draws at once): EVENTS as unit-rate `holding_time`
calls with ``size=32``, COUNTS from raw words by `rng`'s rules.  Draw for
draw they equal the scalar `holding_time` and `simulate_annotated_count`
calls on the same substream, so a log does not depend on the block size.
A worker's EXITS draw for a checkpoint is taken whether or not it is read:
the hazard is 0 inside the spread, so `exit_hazard` is consulted only for
workers outside it, and the benchmark's ``simulate.exit_hazard.calls``
counts out-of-spread worker-checkpoints.

A log (``contest-log-v1``) is one JSON object per line: a header with the
configuration, one line per annotation or exit in time order (annotations
first on ties), and a trailer with the final leaderboard.  Its bytes are
the format contract: keys in sorted order, no spaces, integer fields as
JSON integers and flags as ``true``/``false``, so equal logs are equal
files.  `read_event_log` decodes the body in chunks of lines whose every
line is one flat object, holds every field to its exact type and each
exit line to its place among the annotations, and names ``path:line``
for a malformed line.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass
from heapq import heappop, heappush
from math import ceil
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import rng as streams
from .core import (EXACT_MATCH_MULTIPLIER, ContestConfig, Leaderboard, Post,
                   RankEntry, Ranking, TextLines, WorkerProfile, canonical_json,
                   rank_workers, require_finite, score_annotation, write_atomic)
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

Seed = Union[int, Sequence[int]]

# Custom rate model: (rank, elapsed_ms, annotations_remaining, eligible) -> rate/s.
RateFn = Callable[[int, int, int, bool], float]


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
        for name in ("gamma_shape", "gamma_rate", "halfnormal_sigma"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be strictly positive")


class AnnotationEvent(NamedTuple):
    """One annotation, with the state that governed its holding time.

    ``rank_at_event`` / ``eligible_at_event`` describe the worker at the
    start of the interval that ended with this event (i.e. right after
    their previous event was scored), which is exactly the state whose rate
    generated ``holding_time_ms``.  ``annotations_remaining`` counts posts
    left in the contest after this event.
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


def holding_time(base_rate: float, modulation: float,
                 rng: np.random.Generator, size: Optional[int] = None):
    """Exponential waiting time at rate ``base_rate * modulation``.

    The sample is in the reciprocal units of the rate (seconds when rates
    are per second); callers convert to the millisecond clock.  ``size``
    batches draws for Monte-Carlo use.
    """
    rate = base_rate * modulation
    if not rate > 0.0:
        raise ConfigurationError("holding_time requires a positive rate")
    if size is None:
        return float(rng.exponential(1.0 / rate))
    return rng.exponential(1.0 / rate, size=size)


def exit_hazard(eligible: bool, rank_gap: int, elapsed_fraction: float,
                profile: WorkerProfile, *, n_workers: int,
                base_hazard: float = DEFAULT_BASE_HAZARD) -> float:
    """Per-checkpoint probability that a worker abandons the contest.

    Zero while eligible (or at zero distance below the spread); otherwise
    grows linearly both with the rank gap, capped at the field size, and
    with elapsed contest time, so exits concentrate late.
    ``profile.exit_threshold`` scales the whole hazard, so a zero threshold
    pins a worker in place.
    """
    if not 0.0 <= elapsed_fraction <= 1.0:
        raise ConfigurationError("elapsed_fraction must lie in [0, 1]")
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    if base_hazard < 0.0:
        raise ConfigurationError("base_hazard must be >= 0")
    if eligible or rank_gap <= 0:
        return 0.0
    gap_pressure = min(1.0, rank_gap / n_workers)
    hazard = (base_hazard * profile.exit_threshold * gap_pressure
              * elapsed_fraction)
    return min(1.0, hazard)


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
            # `rng.bounded` at span 4 has threshold 0: the top two bits,
            # taken inline to keep a generator step off the event path.
            yield _PERTURBATIONS[next_half() >> 30]


class _WorkerState:
    """One worker's contest state and random draws.

    ``next_exp`` yields standard-exponential draws from ``event_rng``,
    ``next_offset`` count offsets from ``count_rng``, and ``exit_draws[ci]``
    is ``exit_rng``'s draw at checkpoint ``ci``: a worker alive there drew
    at every earlier checkpoint.  ``inv_in`` / ``inv_out`` are the
    reciprocal two-state rates.  ``rate_fn`` is the worker's custom rate
    model, or None for the two-state rate.
    """

    __slots__ = ("idx", "profile", "score", "stamp", "annotations",
                 "last_ms", "alive", "gov_rank", "gov_elig", "rate_fn",
                 "inv_in", "inv_out", "next_exp", "next_offset",
                 "exit_draws", "bin")

    def __init__(self, idx: int, profile: WorkerProfile,
                 event_rng: np.random.Generator,
                 count_rng: np.random.Generator,
                 exit_rng: np.random.Generator,
                 accuracy_floor: float) -> None:
        self.idx = idx
        self.profile = profile
        self.score = 0
        self.stamp: Optional[int] = None  # when the score last increased
        self.annotations = 0
        self.last_ms = 0
        self.alive = True
        self.gov_rank = 0
        self.gov_elig = False
        self.rate_fn: Optional[RateFn] = None
        self.inv_in = 1.0 / profile.lambda_in
        self.inv_out = 1.0 / profile.lambda_out
        # Unit-rate holding times; a holding time at rate r is one of these
        # times 1/r, as numpy's exponential(scale) is
        # scale * standard_exponential().
        self.next_exp = streams.blocks(
            lambda size: holding_time(1.0, 1.0, event_rng, size),
            _BLOCK).__next__
        self.next_offset = _count_offsets(
            count_rng.bit_generator,
            _p_correct(profile.skill, accuracy_floor)).__next__
        self.exit_draws = exit_rng.random(N_CHECKPOINTS).tolist()
        self.bin: deque[Post] = deque()


def checkpoint_times(horizon_ms: int) -> list[int]:
    """The `N_CHECKPOINTS` exit-checkpoint times of a contest, in ms; the
    last is the horizon."""
    return [int(round(k * horizon_ms / N_CHECKPOINTS))
            for k in range(1, N_CHECKPOINTS + 1)]


def run_contest(config: ContestConfig, profiles: Sequence[WorkerProfile],
                posts: Sequence[Post], seed: Seed, *,
                dispatch: str = "windowed",
                base_hazard: float = DEFAULT_BASE_HAZARD,
                accuracy_floor: float = 0.0,
                rate_fns: Optional[Mapping[int, RateFn]] = None) -> EventLog:
    """Simulate one contest and return its full event log.

    Deterministic: identical (config, profiles, posts, seed) inputs yield a
    bit-identical log.  ``rate_fns``, if given, overrides the two-state rate
    for the listed worker ids with a callable of the worker's current
    (rank, elapsed_ms, annotations_remaining, eligible) state.
    """
    if len(profiles) != config.n_workers:
        raise ConfigurationError(
            f"expected {config.n_workers} profiles, got {len(profiles)}")
    if len(posts) != config.n_posts:
        raise ConfigurationError(
            f"expected {config.n_posts} posts, got {len(posts)}")
    if dispatch not in DISPATCH_MODES:
        raise ConfigurationError(f"unknown dispatch mode {dispatch!r}")
    ids = [p.id for p in profiles]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("worker ids must be unique")
    if len({p.id for p in posts}) != len(posts):
        raise ConfigurationError("post ids must be unique")
    if not (math.isfinite(base_hazard) and base_hazard >= 0.0):
        raise ConfigurationError(
            f"base_hazard must be finite and >= 0, got {base_hazard}")
    if not math.isfinite(accuracy_floor):
        raise ConfigurationError(
            f"accuracy_floor must be finite, got {accuracy_floor}")

    n = config.n_workers
    n_posts = config.n_posts
    spread = config.reward_spread
    base_points = config.base_points
    hit_points = EXACT_MATCH_MULTIPLIER * base_points
    rngs = streams.substreams(
        seed, (streams.EVENTS, streams.COUNTS, streams.EXITS), n)
    workers = [_WorkerState(i, profiles[i], *(r[i] for r in rngs),
                            accuracy_floor=accuracy_floor)
               for i in range(n)]
    by_id = {w.profile.id: w for w in workers}
    id_order = sorted(workers, key=lambda w: w.profile.id)
    board = Leaderboard(by_id)
    board_rank, board_update = board.rank, board.update
    for w in workers:
        w.gov_rank = board_rank(w.profile.id)
        w.gov_elig = w.gov_rank <= spread
        if rate_fns:
            w.rate_fn = rate_fns.get(w.profile.id)

    def gap_ms(w: _WorkerState, elapsed_ms: int, remaining: int) -> int:
        """The worker's next holding time in ms; the period loop computes
        the two-state one inline, with the same arithmetic."""
        if w.rate_fn is None:
            inv_rate = w.inv_in if w.gov_elig else w.inv_out
        else:
            rate = w.rate_fn(w.gov_rank, elapsed_ms, remaining, w.gov_elig)
            if not rate > 0.0:
                raise ConfigurationError("custom rate model returned a non-positive rate")
            inv_rate = 1.0 / rate
        return max(1, ceil(w.next_exp() * inv_rate * 1000.0))

    unit_ms = int(round(config.task_unit_time_s * 1000.0))
    if unit_ms < 1:
        raise ConfigurationError("task_unit_time_s is below the 1 ms clock resolution")

    events: list[AnnotationEvent] = []
    exits: list[ExitEvent] = []
    solved = 0

    if dispatch == "windowed":
        windows = build_windows(posts, config.window_size, config.task_unit_time_s)
        horizon_ms = len(windows) * unit_ms
    else:
        horizon_s = total_contest_time(n_posts, config.task_unit_time_s,
                                       config.window_size)
        horizon_ms = int(round(horizon_s * 1000.0))
    checkpoint_ms = checkpoint_times(horizon_ms)
    cp_idx = 0

    def run_checkpoints(through_ms: int) -> float:
        """Run every checkpoint not yet run at or before ``through_ms``;
        return the time of the next one (infinity after the last)."""
        nonlocal cp_idx
        while cp_idx < N_CHECKPOINTS and checkpoint_ms[cp_idx] <= through_ms:
            ci = cp_idx
            cp_idx += 1
            frac = (ci + 1) / N_CHECKPOINTS
            for w in id_order:
                if not w.alive:
                    continue
                # The hazard is 0 inside the spread; the worker's draw for
                # this checkpoint, `exit_draws[ci]`, goes unread.
                r = board_rank(w.profile.id)
                if r > spread and w.exit_draws[ci] < exit_hazard(
                        False, r - spread, frac, w.profile, n_workers=n,
                        base_hazard=base_hazard):
                    w.alive = False
                    exits.append(ExitEvent(w.profile.id, checkpoint_ms[ci],
                                           r, False))
        return checkpoint_ms[cp_idx] if cp_idx < N_CHECKPOINTS else math.inf

    def run_period(holders: Sequence[_WorkerState], open_ms: int,
                   close_ms: int) -> None:
        """Run ``holders`` from ``open_ms`` until ``close_ms`` or until their
        bins run dry, then every checkpoint up to ``close_ms``.

        A worker annotates the head of ``w.bin``; in shared dispatch every
        worker's bin is the one pool.  Checkpoints run before the events at
        later milliseconds, and after those at their own.
        """
        nonlocal solved
        # `AnnotationEvent(...)` less its Python-level `__new__`.
        new_tuple = tuple.__new__
        heap: list[tuple[int, int]] = []
        for w in holders:
            base = w.last_ms if w.last_ms > open_ms else open_ms
            t = base + gap_ms(w, base, n_posts - solved)
            if t <= close_ms:
                heappush(heap, (t, w.idx))
        next_cp = run_checkpoints(open_ms - 1)  # none is due: finds the next
        while heap:
            t, widx = heappop(heap)
            w = workers[widx]
            if not w.alive:
                continue
            if next_cp < t:
                next_cp = run_checkpoints(t - 1)
            if not w.alive or not w.bin:
                continue
            post = w.bin.popleft()
            # A miss (non-zero offset) never lands on a non-zero true count,
            # so this is `score_annotation`'s rule.
            offset = w.next_offset()
            count = post.expected_entities + offset
            if count < 0:
                count = 0
            solved += 1
            remaining = n_posts - solved
            wid = w.profile.id
            events.append(new_tuple(AnnotationEvent, (
                wid, w.annotations, t, t - w.last_ms, post.id, count,
                w.gov_rank, w.gov_elig, remaining)))
            w.annotations += 1
            w.last_ms = t
            if count:
                w.score += base_points if offset else hit_points
                w.stamp = t
            r = w.gov_rank = board_update(wid, w.score, t)
            elig = w.gov_elig = r <= spread
            if w.bin:
                if w.rate_fn is None:
                    gap = ceil(w.next_exp() * (w.inv_in if elig else w.inv_out)
                               * 1000.0)
                    t += gap if gap > 1 else 1
                else:
                    t += gap_ms(w, t, remaining)
                if t <= close_ms:
                    heappush(heap, (t, widx))
        run_checkpoints(close_ms)

    if dispatch == "windowed":
        queue = DropQueue()
        size = config.task_unit_size
        rr_offset = 0
        for win in windows:
            active = [w for w in id_order if w.alive]
            holders: list[_WorkerState] = []
            if active:
                assignments = allocate_round_robin(
                    win, [w.profile.id for w in active], size,
                    start_offset=rr_offset)
                rr_offset = (rr_offset + len(assignments)) % len(active)
                for wid, _, bin_posts in assignments:
                    holder = by_id[wid]
                    holder.bin = deque(bin_posts)
                    holders.append(holder)
            for p in win.posts[len(holders) * size:]:
                queue.push(p, win.close_time_s)
            run_period(holders, win.index * unit_ms, (win.index + 1) * unit_ms)
            for w in holders:
                while w.bin:
                    queue.push(w.bin.popleft(), win.close_time_s)
            advance_queue(queue, win.close_time_s)
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
    if counters.ingested != counters.solved + counters.dropped + counters.pending:
        raise ContractViolation(f"post conservation violated: {counters}")

    final_ranking = rank_workers(
        scores={w.profile.id: w.score for w in workers},
        last_scored_ms={w.profile.id: w.stamp for w in workers},
        annotations={w.profile.id: w.annotations for w in workers},
    )
    return EventLog(config=config, seed=seed, dispatch=dispatch,
                    horizon_ms=horizon_ms, base_hazard=base_hazard,
                    accuracy_floor=accuracy_floor, events=events, exits=exits,
                    final_ranking=final_ranking, counters=counters)


# --- serialization ---------------------------------------------------------
#
# Annotation and exit lines are filled into fixed templates: keys in sorted
# order, no spaces, integer fields through ``{:d}`` (which raises on a
# non-integer, where ``%d`` would write 1.5 as 1) and booleans as JSON
# literals, so each line equals `canonical_json` of its record.  The header
# and the trailer go through `canonical_json` itself.
_EVENT_LINE = (
    '{{"annotated_count":{:d},"eligible":{},"event_index":{:d},'
    '"event_time_ms":{:d},"holding_time_ms":{:d},"post_id":{:d},'
    '"rank":{:d},"worker_id":{:d}}}').format
_EXIT_LINE = (
    '{{"eligible":{},"exit_time_ms":{:d},"rank":{:d},"worker_id":{:d}}}'
).format
_JSON_BOOL = {True: "true", False: "false"}

# Body lines `read_event_log` decodes per `json.loads` call.  It bounds the
# memory one call holds; what a log reads back as does not depend on it.
_CHUNK_LINES = 512

# What a reader accepts in each field, in the order of the record's tuple.
# Types are exact: JSON ``true`` is not an integer, nor ``1`` a boolean.
_INTEGER = ("an integer", int)
_BOOLEAN = ("true or false", bool)
_EVENT_FIELDS = {"worker_id": _INTEGER, "event_index": _INTEGER,
                 "event_time_ms": _INTEGER, "holding_time_ms": _INTEGER,
                 "post_id": _INTEGER, "annotated_count": _INTEGER,
                 "rank": _INTEGER, "eligible": _BOOLEAN}
_EXIT_FIELDS = {"worker_id": _INTEGER, "exit_time_ms": _INTEGER,
                "rank": _INTEGER, "eligible": _BOOLEAN}
_RANK_FIELDS = {"worker_id": _INTEGER, "score": _INTEGER,
                "annotations": _INTEGER,
                "last_scored_ms": ("an integer or null", int, type(None))}
_NUMBER = ("a number", int, float)
_HEADER_FIELDS = {"horizon_ms": _INTEGER, "base_hazard": _NUMBER,
                  "accuracy_floor": _NUMBER}
_COUNTER_FIELDS = dict.fromkeys(
    ("ingested", "solved", "dropped", "pending"), _INTEGER)

_event_values = itemgetter(*_EVENT_FIELDS)
_exit_values = itemgetter(*_EXIT_FIELDS)
_rank_values = itemgetter(*_RANK_FIELDS)
# The one type each annotation and exit field takes, to check a whole
# record with one comparison.  Lists, not tuples: `tuple(map(...))` resizes
# its result, and the resized tuples pile up on the interpreter's free list.
_EVENT_TYPES = [kind[1] for kind in _EVENT_FIELDS.values()]
_EXIT_TYPES = [kind[1] for kind in _EXIT_FIELDS.values()]


def _check_types(values: tuple, fields: dict) -> None:
    """Raise `ConfigurationError` naming the first value of a wrong type."""
    for value, (name, (what, *types)) in zip(values, fields.items()):
        if type(value) not in types:
            raise ConfigurationError(
                f"{name} must be {what}, got {canonical_json(value)}")


def event_log_lines(log: EventLog):
    """Yield the canonical line-delimited form of a log.

    One annotation or exit per line in chronological order (annotations
    first on ties), bracketed by a header with the configuration snapshot
    and a trailer with the final leaderboard.
    """
    seed = list(log.seed) if isinstance(log.seed, (list, tuple)) else log.seed
    yield canonical_json({
        "format": LOG_FORMAT,
        "seed": seed,
        "dispatch": log.dispatch,
        "horizon_ms": log.horizon_ms,
        "base_hazard": log.base_hazard,
        "accuracy_floor": log.accuracy_floor,
        "config": asdict(log.config),
        "counters": asdict(log.counters),
    })
    events = log.events
    event_line, json_bool = _EVENT_LINE, _JSON_BOOL

    def annotation_lines(lo: int, hi: int):
        return (event_line(count, json_bool[elig], index, t, hold, post,
                           rank, wid)
                for wid, index, t, hold, post, count, rank, elig, _
                in events[lo:hi])

    start = 0
    for wid, exit_ms, rank, elig in log.exits:
        stop = start
        while stop < len(events) and events[stop].event_time_ms <= exit_ms:
            stop += 1
        yield from annotation_lines(start, stop)
        yield _EXIT_LINE(json_bool[elig], exit_ms, rank, wid)
        start = stop
    yield from annotation_lines(start, len(events))
    yield canonical_json({"final_ranking": [dict(zip(_RANK_FIELDS, e))
                                            for e in log.final_ranking]})


def write_event_log(log: EventLog, path: Union[str, Path]) -> None:
    """Write `event_log_lines` to ``path`` through `write_atomic`, one line
    at a time, so an interrupted or failed write never leaves a truncated
    log behind.  The file is not fsynced."""
    write_atomic(path, (line + "\n" for line in event_log_lines(log)))


def _decode_chunk(lines: list[str]) -> Optional[list]:
    """Decode ``lines`` in one `json.loads` call; None if they might not
    decode to one value per line, each the value of its own line.

    The lines are joined with ``",\n"``.  No line holds a line break and no
    JSON string a raw one, so nothing but that whitespace spans a joint.  A
    body line is one flat object of integers and booleans, so the check is
    that every line starts with ``{``, ends with ``}``, and holds no other
    ``{``.  Then the object a line opens can close neither before the
    line's last ``}`` (which would be left unmatched) nor after it (no
    string or nested object can hold it), so each value is exactly one
    line.  Counting values alone is not enough: a line holding two records
    and a record split over two lines at a comma cancel out.
    """
    text = ",\n".join(lines)
    n = len(lines)
    if not (text.count("{") == n and text.count("},\n{") == n - 1
            and text.startswith("{") and text.endswith("}")):
        return None
    try:
        values = json.loads("[" + text + "]")
    except (ValueError, RecursionError):
        return None
    return values if len(values) == n else None


def read_event_log(path: Union[str, Path]) -> EventLog:
    """Parse a log written by `write_event_log`, reconstructing derived fields.

    ``annotations_remaining`` is not stored; it is rebuilt by replaying the
    solved count against the configured post total.  Body lines are decoded
    `_CHUNK_LINES` at a time, and a chunk that does not decode into one
    value per line is decoded again line by line.  Each exit line must sit
    where the writer puts it: after every annotation at or before its time
    and before the first one after it.  Any malformed line, including a
    field of the wrong type, a misplaced exit line or a trailer that does
    not rank ``n_workers`` workers, raises `ConfigurationError` naming
    ``path:line``; a file that is not UTF-8 text raises it naming the path.
    """
    with TextLines(path, "event log") as text:
        lines = text.lines
        text.lineno = 1
        if not lines:
            raise ConfigurationError("empty event log")
        header = json.loads(lines[0])
        if header.get("format") != LOG_FORMAT:
            raise ConfigurationError(f"not a {LOG_FORMAT} file")
        config = ContestConfig(**header["config"])
        # ``config`` is checked by `ContestConfig`, the rest here.
        _check_types(itemgetter(*_HEADER_FIELDS)(header), _HEADER_FIELDS)
        _check_types(itemgetter(*_COUNTER_FIELDS)(header["counters"]),
                     _COUNTER_FIELDS)
        dispatch, seed = header["dispatch"], header["seed"]
        if dispatch not in DISPATCH_MODES:
            raise ConfigurationError('dispatch must be "windowed" or "shared",'
                                     f" got {canonical_json(dispatch)}")
        if not (type(seed) is int
                or type(seed) is list and set(map(type, seed)) == {int}):
            raise ConfigurationError(
                "seed must be an integer or a non-empty list of integers, "
                f"got {canonical_json(seed)}")
        log = EventLog(
            config=config, seed=tuple(seed) if isinstance(seed, list) else seed,
            dispatch=dispatch, horizon_ms=header["horizon_ms"],
            base_hazard=header["base_hazard"],
            accuracy_floor=header["accuracy_floor"], events=[], exits=[],
            final_ranking=Ranking(entries=()),
            counters=PostCounters(**header["counters"]))
        events, exits = log.events, log.exits
        event_values, exit_values = _event_values, _exit_values
        per_worker_index: dict[int, int] = {}
        # (line number, annotation lines before it) of each exit line.
        exit_at: list[tuple[int, int]] = []
        n_posts = config.n_posts
        solved = 0
        end = len(lines) - 1  # the trailer
        for first in range(1, end, _CHUNK_LINES):
            chunk = lines[first:min(first + _CHUNK_LINES, end)]
            values = _decode_chunk(chunk)
            for text.lineno, obj in enumerate(
                    chunk if values is None else values, first + 1):
                if values is None:
                    obj = json.loads(obj)
                if "exit_time_ms" in obj:
                    x = exit_values(obj)
                    if list(map(type, x)) != _EXIT_TYPES:
                        _check_types(x, _EXIT_FIELDS)
                    exits.append(ExitEvent._make(x))
                    exit_at.append((text.lineno, len(events)))
                    continue
                e = event_values(obj)
                if list(map(type, e)) != _EVENT_TYPES:
                    _check_types(e, _EVENT_FIELDS)
                wid, index = e[0], e[1]
                if index != per_worker_index.get(wid, 0):
                    raise ConfigurationError(
                        f"worker {wid} event_index out of order")
                per_worker_index[wid] = index + 1
                solved += 1
                events.append(AnnotationEvent._make(e + (n_posts - solved,)))
        for (text.lineno, k), x in zip(exit_at, exits):
            t = x.exit_time_ms
            if (k and events[k - 1].event_time_ms > t
                    or k < len(events) and events[k].event_time_ms <= t):
                raise ConfigurationError(
                    f"exit of worker {x.worker_id} at {t} ms is out of place "
                    "among the annotation lines")
        text.lineno = len(lines)
        trailer = json.loads(lines[-1])
        if "final_ranking" not in trailer:
            raise ConfigurationError("missing final-ranking trailer")
        entries = []
        for r in trailer["final_ranking"]:
            values = _rank_values(r)
            _check_types(values, _RANK_FIELDS)
            entries.append(RankEntry(*values))
        if len(entries) != config.n_workers:
            raise ConfigurationError(
                f"final_ranking ranks {len(entries)} workers, "
                f"not n_workers {config.n_workers}")
        log.final_ranking = Ranking(entries=tuple(entries))
    return log


# --- replay validation -----------------------------------------------------

def replay_validate(log: EventLog, posts: Sequence[Post]) -> None:
    """Re-derive every structural invariant of a log; raise on any mismatch.

    Checks, per worker: the holding-time recursion (each event lands exactly
    holding_time_ms after the previous one, so the holding times sum to the
    last event time), that the recorded rank and eligibility equal the
    leaderboard state right after the worker's previous event, and silence
    after exit.  Per exit: that it falls on a checkpoint time, in time
    order, once per worker, and that its rank and eligibility equal the
    leaderboard state after every event at or before it.  Globally: post
    conservation of all ``n_posts``, the remaining-post countdown, that no
    post is annotated twice, and that the trailer equals `rank_workers` of
    the replayed scores, last scoring times and counts.
    Needs the post list to re-score events.  A violation names its position
    in ``log.events``, worker and event index, its position in
    ``log.exits``, worker and exit time, or its ``final_ranking`` row.
    """
    # A post's true count, or None once it has been annotated.
    expected: dict[int, Optional[int]] = {
        p.id: p.expected_entities for p in posts}
    worker_ids = [e.worker_id for e in log.final_ranking]
    spread = log.config.reward_spread
    board = Leaderboard(worker_ids)
    score = {w: 0 for w in worker_ids}
    stamp = dict.fromkeys(worker_ids)  # when the score last increased
    last_ms = {w: 0 for w in worker_ids}
    count = {w: 0 for w in worker_ids}
    gov_rank = {w: board.rank(w) for w in worker_ids}
    solved = 0
    prev_t = 0

    def exit_violation(i: int, what: str) -> ContractViolation:
        x = log.exits[i]
        return ContractViolation(f"log.exits[{i}] (worker {x.worker_id}, "
                                 f"exit_time_ms {x.exit_time_ms}): {what}")

    checkpoints = set(checkpoint_times(log.horizon_ms))
    exit_ms = {}
    for i, x in enumerate(log.exits):
        if x.worker_id not in count:
            raise exit_violation(i, "worker not in the contest")
        if i and x.exit_time_ms < log.exits[i - 1].exit_time_ms:
            raise exit_violation(i, "exits out of time order")
        if x.exit_time_ms not in checkpoints:
            raise exit_violation(i, "exit_time_ms is not a checkpoint time")
        if x.worker_id in exit_ms:
            raise exit_violation(i, f"worker {x.worker_id} exits more than once")
        if x.eligible_at_exit != (x.rank_at_exit <= spread):
            raise exit_violation(i, "eligibility flag inconsistent")
        exit_ms[x.worker_id] = x.exit_time_ms
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

    def violation(what: str) -> ContractViolation:
        return ContractViolation(f"log.events[{pos}] (worker {e.worker_id}, "
                                 f"event_index {e.event_index}): {what}")

    next_exit_ms = check_exits(0)
    for pos, e in enumerate(log.events):
        wid = e.worker_id
        if next_exit_ms < e.event_time_ms:
            next_exit_ms = check_exits(e.event_time_ms)
        truth = expected.get(e.post_id)
        if wid not in count or truth is None:
            if wid in count and e.post_id in expected:
                raise violation(f"post {e.post_id} annotated twice")
            raise violation(f"worker or post {e.post_id} not in the contest")
        if e.event_time_ms < prev_t:
            raise violation("event log is not globally time-sorted")
        prev_t = e.event_time_ms
        if wid in exit_ms and e.event_time_ms > exit_ms[wid]:
            raise violation("annotated after exiting")
        if e.event_index != count[wid]:
            raise violation(f"event_index != replay {count[wid]}")
        if e.event_time_ms - e.holding_time_ms != last_ms[wid]:
            raise violation("holding-time recursion broken")
        if e.rank_at_event != gov_rank[wid]:
            raise violation(f"rank_at_event {e.rank_at_event} != replay {gov_rank[wid]}")
        if e.eligible_at_event != (e.rank_at_event <= spread):
            raise violation("eligibility flag inconsistent")
        if e.holding_time_ms < 1:
            raise violation("holding_time_ms must be a positive integer")
        solved += 1
        if e.annotations_remaining != log.config.n_posts - solved:
            raise violation("annotations_remaining countdown broken")
        count[wid] += 1
        last_ms[wid] = e.event_time_ms
        expected[e.post_id] = None
        points = score_annotation(e.annotated_count, truth,
                                  log.config.base_points)
        if points > 0:
            score[wid] += points
            stamp[wid] = e.event_time_ms
        gov_rank[wid] = board.update(wid, score[wid], e.event_time_ms)
    check_exits(math.inf)

    replayed = rank_workers(score, stamp, count).entries
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
    if c.ingested != c.solved + c.dropped + c.pending:
        raise ContractViolation(f"post conservation violated: {c}")
    if c.solved != len(log.events):
        raise ContractViolation("solved counter disagrees with event count")
