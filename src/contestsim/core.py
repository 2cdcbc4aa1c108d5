"""Contest domain model: posts, workers, configuration, scoring, ranking.

Nothing here draws random numbers.  `Leaderboard` is the one stateful type:
the ranking that the engine and the replay validator update as scores move.
`write_atomic` and `TextLines` are the package's one file writer and one
line reader.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (Collection, Hashable, Iterable, Mapping, NamedTuple,
                    Optional, Union)

from .errors import ConfigurationError

# Sort key stand-in for "never scored": any real timestamp beats it.
_NEVER_SCORED = float("inf")

EXACT_MATCH_MULTIPLIER = 5


def canonical_json(obj) -> str:
    """``obj`` as JSON with sorted keys and no spaces.

    Every JSON record the package writes is in this form, so equal values
    give equal bytes.  NaN and infinities raise `ValueError`, since JSON has
    no token for them; `json_record` writes NaN as null.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def json_record(obj) -> dict:
    """The fields of the dataclass ``obj`` by name, for `canonical_json`,
    with a NaN float as None (null)."""
    record = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        nan = isinstance(value, float) and math.isnan(value)
        record[f.name] = None if nan else value
    return record


def write_atomic(path: Union[str, Path], chunks: Iterable[str]) -> None:
    """Write the strings ``chunks`` to ``path`` as UTF-8 text, one at a time.

    Every file the package writes goes through here.  The chunks go to a
    temporary file in the same directory, which then replaces ``path``; on
    any error it is removed and ``path`` is left as it was.  The file is not
    fsynced: after a power loss or an operating-system crash the new file
    may still be empty or short.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# What parsing a malformed line raises, besides `ConfigurationError`.
_MALFORMED = (ValueError, TypeError, KeyError, AttributeError, ArithmeticError,
              RecursionError)


class TextLines:
    """The lines of the UTF-8 file ``source`` (or of ``text``), for a reader
    to parse in a ``with`` block.  Every reader in the package uses it.

    The reader sets ``lineno`` to the 1-based number of the line it is on;
    0 stands for the text as a whole.  A `ConfigurationError` raised in the
    block is raised again naming ``source:lineno``, and so is a `_MALFORMED`
    error, as a malformed ``what``.  A file that is not UTF-8 text raises
    `ConfigurationError` naming ``source``, and so does one that cannot be
    read (missing, a directory, not permitted).
    """

    __slots__ = ("source", "what", "lines", "lineno")

    def __init__(self, source: Union[str, Path], what: str,
                 text: Optional[str] = None) -> None:
        if text is None:
            try:
                text = Path(source).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"{source}: not UTF-8 text: {exc}") from exc
            except OSError as exc:
                raise ConfigurationError(
                    f"{source}: cannot read: {exc.strerror or exc}") from exc
        self.source, self.what = source, what
        self.lines = text.splitlines()
        self.lineno = 0

    def __enter__(self) -> TextLines:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        where = f"{self.source}:{self.lineno}" if self.lineno else self.source
        if isinstance(exc, ConfigurationError):
            raise ConfigurationError(f"{where}: {exc}") from exc
        if isinstance(exc, _MALFORMED):
            raise ConfigurationError(f"{where}: malformed {self.what}: "
                                     f"{type(exc).__name__}: {exc}") from exc


def require_finite(config, context: str = "") -> None:
    """Raise `ConfigurationError` naming the first float field of the
    dataclass ``config`` that is NaN or infinite, after ``context``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(
                f"{context}{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Post:
    """A unit of annotatable content flowing through the contest."""

    id: int
    token_count: int
    expected_entities: int
    arrival_index: int

    def __post_init__(self) -> None:
        if self.token_count < 1:
            raise ConfigurationError(f"post {self.id}: token_count must be >= 1")
        if not 0 <= self.expected_entities <= self.token_count:
            raise ConfigurationError(
                f"post {self.id}: expected_entities must lie in [0, token_count]"
            )
        if self.arrival_index < 0:
            raise ConfigurationError(f"post {self.id}: arrival_index must be >= 0")


@dataclass(frozen=True)
class WorkerProfile:
    """Latent per-worker parameters, fixed for the life of a contest.

    ``lambda_in`` / ``lambda_out`` are annotation rates (events per second)
    applied while the worker is inside / outside the reward spread.
    ``exit_threshold`` scales the worker's exit hazard; 0 disables exits.
    """

    id: int
    skill: float
    lambda_in: float
    lambda_out: float
    cost_per_effort: float = 0.0
    exit_threshold: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.skill <= 1.0:
            raise ConfigurationError(f"worker {self.id}: skill must lie in [0, 1]")
        if not (self.lambda_in > 0.0 and self.lambda_out > 0.0):  # and not NaN
            raise ConfigurationError(f"worker {self.id}: rates must be positive")
        if self.cost_per_effort < 0.0:
            raise ConfigurationError(f"worker {self.id}: cost_per_effort must be >= 0")
        if not 0.0 <= self.exit_threshold <= 1.0:
            raise ConfigurationError(
                f"worker {self.id}: exit_threshold must lie in [0, 1]"
            )
        require_finite(self, f"worker {self.id}: ")


@dataclass(frozen=True)
class ContestConfig:
    """Static parameters of one contest run."""

    n_workers: int
    n_posts: int
    window_size: int
    task_unit_time_s: float
    task_unit_size: int
    arrival_rate: float
    reward_spread: int
    prize_value: float
    base_points: int
    leaderboard_k: int
    quality_constraint: int
    reduction_rate: float

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("n_workers", "n_posts", "window_size", "task_unit_size",
                     "base_points", "leaderboard_k", "reward_spread"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be a positive integer")
        if self.quality_constraint < 0:
            raise ConfigurationError("quality_constraint must be >= 0")
        for name in ("task_unit_time_s", "arrival_rate", "reduction_rate"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")
        if self.prize_value < 0.0:
            raise ConfigurationError("prize_value must be >= 0")
        if self.reward_spread > self.n_workers:
            raise ConfigurationError("reward_spread cannot exceed n_workers")
        if self.task_unit_size > self.window_size:
            raise ConfigurationError("task_unit_size cannot exceed window_size")
        # Load check: a worker serves one task unit per task-unit time, so the
        # per-worker service rate is task_unit_size / task_unit_time_s posts/s.
        # Equality means the stream is exactly provisioned, which the
        # round-robin allocation handles, so only strict overload is rejected.
        service_rate = self.task_unit_size / self.task_unit_time_s
        load = self.arrival_rate / service_rate
        if load > self.n_workers:
            raise ConfigurationError(
                f"task intensity {load:g} exceeds n_workers={self.n_workers}; "
                "the stream would outrun the workforce"
            )


def rank_key(worker_id: Hashable, score: float,
             stamp: Optional[int]) -> tuple:
    """Leaderboard sort key, best first: score descending, then the earlier
    ``stamp`` (when the score last increased; None, never scored, sorts
    last), then worker id.  Keys are unique, so a worker's rank is one plus
    the number of keys below theirs.
    """
    return (-score, _NEVER_SCORED if stamp is None else stamp, worker_id)


class RankEntry(NamedTuple):
    """One leaderboard row."""

    worker_id: Hashable
    score: float
    annotations: int
    tie_break_stamp: Optional[int]

    def sort_key(self) -> tuple:
        return rank_key(self.worker_id, self.score, self.tie_break_stamp)


@dataclass(frozen=True)
class Ranking:
    """Leaderboard snapshot, best first, in `rank_key` order."""

    entries: tuple[RankEntry, ...]

    def __post_init__(self) -> None:
        seen = set()
        for entry in self.entries:
            if entry.worker_id in seen:
                raise ConfigurationError(f"duplicate worker {entry.worker_id} in ranking")
            seen.add(entry.worker_id)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class Leaderboard:
    """Incremental leaderboard in `rank_key` order.

    The workers' keys sit in a sorted list, so `rank` is one binary search
    and `update` one removal and one insertion: O(log W) comparisons, not an
    O(W) scan of the field.  Workers start at score 0, never scored, and are
    never removed; one who leaves the contest keeps their place.
    """

    __slots__ = ("_keys", "_key_of")

    def __init__(self, worker_ids: Collection[Hashable]) -> None:
        self._key_of = {w: rank_key(w, 0, None) for w in worker_ids}
        if len(self._key_of) != len(worker_ids):
            raise ConfigurationError("duplicate worker ids on the leaderboard")
        self._keys = sorted(self._key_of.values())

    def update(self, worker_id: Hashable, score: float, stamp: int) -> int:
        """Move ``worker_id`` to ``score``, reached at ``stamp``, and return
        their new rank.  The board is unchanged if the score is, since the
        stamp marks the last change.

        The engine calls this once per annotation, so the new key is built
        here in `rank_key`'s layout rather than through it: ``stamp`` is an
        int, never None.
        """
        key_of, keys = self._key_of, self._keys
        old = key_of[worker_id]
        if old[0] == -score:
            return bisect_left(keys, old) + 1
        new = key_of[worker_id] = (-score, stamp, worker_id)
        del keys[bisect_left(keys, old)]
        pos = bisect_left(keys, new)
        keys.insert(pos, new)
        return pos + 1

    def rank(self, worker_id: Hashable) -> int:
        """1-based rank: one plus the number of workers strictly ahead."""
        return bisect_left(self._keys, self._key_of[worker_id]) + 1


def score_annotation(annotated_count: int, expected_count: int,
                     base_points: int) -> int:
    """Points for one annotation.

    Exact entity-count match (with at least one entity found) earns the
    bonus multiple of ``base_points``; any other non-empty annotation earns
    ``base_points``; an empty annotation earns nothing.
    """
    if annotated_count < 0 or expected_count < 0:
        raise ConfigurationError("counts must be non-negative")
    if base_points <= 0:
        raise ConfigurationError("base_points must be positive")
    if annotated_count == 0:
        return 0
    if annotated_count == expected_count:
        return EXACT_MATCH_MULTIPLIER * base_points
    return base_points


def rank_workers(scores: Mapping[Hashable, float],
                 last_scored_ms: Mapping[Hashable, Optional[int]],
                 annotations: Optional[Mapping[Hashable, int]] = None) -> Ranking:
    """Build the leaderboard from cumulative scores.

    ``last_scored_ms`` maps each worker to the time their score last
    increased (None if it never did); it breaks score ties in favour of the
    worker who got there first.
    """
    if set(scores) != set(last_scored_ms):
        raise ConfigurationError("scores and last_scored_ms must cover the same workers")
    if annotations is not None and set(annotations) != set(scores):
        raise ConfigurationError("annotations must cover the same workers as scores")
    entries = [
        RankEntry(
            worker_id=w,
            score=scores[w],
            annotations=0 if annotations is None else annotations[w],
            tie_break_stamp=last_scored_ms[w],
        )
        for w in scores
    ]
    entries.sort(key=RankEntry.sort_key)
    return Ranking(entries=tuple(entries))
