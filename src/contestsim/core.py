"""Contest domain model: posts, workers, configuration, scoring, ranking.

Nothing here draws random numbers.  `Leaderboard` is the one stateful type:
the ranking that the engine and the replay validator update as scores move.
`write_atomic`, `TextLines`, `canonical_json` and `decode_json` are the
package's one file writer, line reader, JSON encoder and JSON decoder;
`collector_paused` is its one switch of the cyclic garbage collector.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
from bisect import bisect_left
from contextlib import contextmanager, suppress
from dataclasses import FrozenInstanceError, dataclass, fields, is_dataclass
from pathlib import Path
from typing import (Callable, Collection, Hashable, Iterable, Mapping,
                    NamedTuple, Optional, Union)

from .errors import ConfigurationError, ContractViolation

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


def quote(value) -> str:
    """``value`` as an error message quotes it: as JSON, else its repr."""
    try:
        return canonical_json(value)
    except (TypeError, ValueError):
        return repr(value)


def _reject_constant(token: str):
    raise ConfigurationError(f"{token} is not a JSON number")


# The one decoder of every JSON file the package reads.  `canonical_json`
# never writes NaN or an infinity, so it takes neither.
decode_json = json.JSONDecoder(parse_constant=_reject_constant).decode

# Per declared field type: what a value must be, the parser of its config
# text, and the exact types of its JSON value.  JSON ``true`` is not an
# integer, nor ``1`` a boolean; a number may be written as an integer.
FieldType = NamedTuple("FieldType", [("what", str), ("parse", Callable),
                                     ("types", tuple)])
FIELD_TYPES = {
    "int": FieldType("an integer", int, (int,)),
    "float": FieldType("a number", float, (int, float)),
    "bool": FieldType("true or false",
                      lambda raw: {"true": True, "false": False}[raw.lower()],
                      (bool,)),
}


def check_record(record: Mapping, kinds: Mapping[str, FieldType]) -> None:
    """Raise `ConfigurationError` naming the first key of ``record`` that
    ``kinds`` does not name, else the first field of ``kinds`` whose value
    in ``record`` is not of a type that its kind takes."""
    if len(record) != len(kinds):
        for name in record:
            if name not in kinds:
                raise ConfigurationError(f"unknown key {quote(name)}")
    for name, kind in kinds.items():
        if type(record[name]) not in kind.types:
            raise ConfigurationError(f"{name} must be {kind.what}, "
                                     f"got {quote(record[name])}")


def json_record(obj) -> dict:
    """The fields of the dataclass ``obj`` by name, for `canonical_json`,
    with a NaN float as None (null) and a dataclass instance as its own
    `json_record`."""
    record = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = json_record(value)
        nan = isinstance(value, float) and math.isnan(value)
        record[f.name] = None if nan else value
    return record


def write_atomic(path: Union[str, Path], chunks: Iterable[str]) -> None:
    """Write the strings ``chunks`` to ``path`` as UTF-8 text, one at a time.

    Every file the package writes goes through here.  The chunks go to a
    temporary file in the same directory, which then replaces ``path``; on
    any error it is removed and ``path`` is left as it was, and an `OSError`
    about the temporary file is raised naming ``path``.  The file is not
    fsynced: after a power loss or an operating-system crash the new file
    may still be empty or short.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        # A clean-up that fails too (say, the parent is not a directory)
        # must not replace the error being handled.
        with suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            # Name the file the caller asked for, not the temporary one;
            # `os.replace` also sets ``filename2``, and ``del`` unsets it.
            exc.filename = str(path)
            del exc.filename2
        raise


@contextmanager
def collector_paused():
    """Switch the cyclic garbage collector off for a ``with`` block.

    The engine and the log reader build one record per event, and every
    record is a tuple subclass, which the collector never untracks: each
    collection of an older generation would walk every record built so
    far.  Reference counting still frees whatever is not in a cycle.  On
    leaving the block, also by an exception, the collector is switched
    back on, unless it was already off on entering.

    Its callers are `run_contest`, `read_event_log`'s decode loop,
    `replay_validate`'s event loop, `experiment.generate_corpus`, and
    `experiment.sweep` and `inference.recovery_experiment` around each
    contest they run.  The rule for those two is that a log dies inside
    the block: only a contest's summary, or a recovery run's per-worker
    totals, leaves it.  Freeing a record takes it off the count of objects
    that triggers the next young-generation pass, so once the collector is
    back on, no pass walks a log that is already gone.  Replay builds only
    board keys, which die as they are replaced, so no pass walks the log
    it replays.  A corpus does leave its block, but no pass runs while its
    posts are built, where the growing corpus would set off full ones.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# What parsing a malformed line raises, besides `ConfigurationError`.
_MALFORMED = (ValueError, TypeError, KeyError, AttributeError, ArithmeticError,
              RecursionError)


# Characters `TextLines` reads from a file at a time.
_BLOCK_CHARS = 1 << 16
# The characters that end a line for `str.splitlines`, less "\r": reading
# with universal newlines turns "\r\n" and a lone "\r" into "\n".
_LINE_ENDS = frozenset("\n\v\f\x1c\x1d\x1e\x85\u2028\u2029")


class TextLines:
    """The lines of the UTF-8 file ``source`` (or of ``text``), for a reader
    to iterate, once, in a ``with`` block.  Every reader in the package uses
    it.

    The file, or ``text`` as an in-memory file, is read `_BLOCK_CHARS`
    characters at a time with universal newlines, and the unfinished last
    line of a block is carried into the next, so the lines are exactly
    ``str.splitlines()`` of the text while no more than a block and a line
    of it is held.  The file closes when the block ends, also by an
    exception.

    The reader sets ``lineno`` to the 1-based number of the line it is on;
    0 stands for the text as a whole.  A `ConfigurationError` raised in the
    block is raised again naming ``source:lineno``, and so is a `_MALFORMED`
    error, as a malformed ``what``.  A file that is not UTF-8 text raises
    `ConfigurationError` naming ``source`` alone, wherever the bad byte is,
    and so does one that cannot be opened or read (missing, a directory,
    not permitted).
    """

    __slots__ = ("source", "what", "lineno", "_file", "_lines")

    def __init__(self, source: Union[str, Path], what: str,
                 text: Optional[str] = None) -> None:
        self.source, self.what = source, what
        self.lineno = 0
        if text is not None:
            self._file = io.StringIO(text, newline=None)
        else:
            try:
                self._file = open(source, encoding="utf-8")
            except OSError as exc:
                raise ConfigurationError(
                    f"{source}: cannot read: {exc.strerror or exc}") from exc
        self._lines = self._read()

    def _read(self):
        read, carry = self._file.read, ""
        while True:
            try:
                block = read(_BLOCK_CHARS)
            except UnicodeDecodeError as exc:
                self.lineno = 0  # the fault is the file's, not a line's
                raise ConfigurationError(f"not UTF-8 text: {exc}") from exc
            except OSError as exc:
                self.lineno = 0
                raise ConfigurationError(
                    f"cannot read: {exc.strerror or exc}") from exc
            if not block:
                break
            lines = (carry + block).splitlines()
            carry = "" if block[-1] in _LINE_ENDS else lines.pop()
            yield from lines
        if carry:
            yield carry

    def __iter__(self):
        return self._lines

    def __enter__(self) -> TextLines:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        self._lines.close()  # its frame refers back to this object
        self._file.close()
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


@dataclass(frozen=True, slots=True, init=False)
class Post:
    """A unit of annotatable content flowing through the contest.

    Slotted, since a corpus holds one per line: without a ``__dict__`` a
    post takes 40 bytes less (96 rather than 136, with its field values).
    The ``__init__`` is written by hand for the same reason: the one a
    frozen dataclass generates sets each field through
    ``object.__setattr__`` and then calls ``__post_init__``, and takes
    about 1.6 times as long.  This one checks the values and sets the
    slots through their descriptors; `dataclasses.replace` calls it too,
    so a replaced post is checked again.
    """

    id: int
    token_count: int
    expected_entities: int

    def __init__(self, id: int, token_count: int,
                 expected_entities: int) -> None:
        if token_count < 1:
            raise ConfigurationError(f"post {id}: token_count must be >= 1")
        if not 0 <= expected_entities <= token_count:
            raise ConfigurationError(
                f"post {id}: expected_entities must lie in [0, token_count]")
        _set_post_id(self, id)
        _set_post_token_count(self, token_count)
        _set_post_expected_entities(self, expected_entities)


_set_post_id = Post.id.__set__
_set_post_token_count = Post.token_count.__set__
_set_post_expected_entities = Post.expected_entities.__set__


# The frozen methods `dataclass` generates name the class as it was before
# ``slots=True`` rebuilt it, and raise a `TypeError` for a name that is no
# field.  Pickle and copy set slots through `object.__setattr__`.
def _refuse(post: Post, name: str, *value) -> None:
    raise FrozenInstanceError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


Post.__setattr__ = Post.__delattr__ = _refuse


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
    exit_threshold: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.skill <= 1.0:
            raise ConfigurationError(f"worker {self.id}: skill must lie in [0, 1]")
        if not (self.lambda_in > 0.0 and self.lambda_out > 0.0):  # and not NaN
            raise ConfigurationError(f"worker {self.id}: rates must be positive")
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

    The workers' keys sit in a sorted list, so `rank` is one binary search:
    O(log W) comparisons, not an O(W) scan of the field.  Workers start at
    score 0, never scored, and are never removed; one who leaves the
    contest keeps their place.  Scores never fall, so an update only moves
    a key up: when the new key still sorts after the one above it, `update`
    replaces the key in place; otherwise it searches the keys above for
    its new place.  A falling score or an unknown worker raises
    `ContractViolation`.

    The ranks that `update` and `rank` return are items of one tuple of
    ``1..W``, built with the board: equal ranks are one object, so the
    records that hold them (every annotation the engine logs) share it
    rather than each holding its own int above 256.
    """

    __slots__ = ("_keys", "_key_of", "_ranks")

    def __init__(self, worker_ids: Collection[Hashable]) -> None:
        self._key_of = {w: rank_key(w, 0, None) for w in worker_ids}
        if len(self._key_of) != len(worker_ids):
            raise ConfigurationError("duplicate worker ids on the leaderboard")
        self._keys = sorted(self._key_of.values())
        self._ranks = tuple(range(1, len(self._keys) + 1))

    def update(self, worker_id: Hashable, score: float, stamp: int) -> int:
        """Move ``worker_id`` to ``score``, reached at ``stamp``, and return
        their new rank.  The board is unchanged if the score is, since the
        stamp marks when the score last rose.
        """
        key_of, keys = self._key_of, self._keys
        try:
            old = key_of[worker_id]
        except KeyError:
            raise _not_on_board(worker_id) from None
        pos = bisect_left(keys, old)
        if old[0] == -score:
            return self._ranks[pos]
        if old[0] < -score:
            raise ContractViolation(f"worker {worker_id}: score fell from "
                                    f"{-old[0]} to {score}")
        new = key_of[worker_id] = rank_key(worker_id, score, stamp)
        if pos and keys[pos - 1] > new:
            # The key passes at least the one above it: search above that.
            del keys[pos]
            pos = bisect_left(keys, new, 0, pos - 1)
            keys.insert(pos, new)
        else:
            keys[pos] = new
        return self._ranks[pos]

    def rank(self, worker_id: Hashable) -> int:
        """1-based rank: one plus the number of workers strictly ahead."""
        try:
            return self._ranks[bisect_left(self._keys, self._key_of[worker_id])]
        except KeyError:
            raise _not_on_board(worker_id) from None

    def workers_from(self, rank: int) -> list:
        """The ids of the workers at ``rank`` (at least 1) and below, best
        first: the worker at ``rank + i`` is item ``i``."""
        if rank < 1:
            raise ContractViolation(f"rank must be >= 1, got {rank}")
        return [key[2] for key in self._keys[rank - 1:]]


def _not_on_board(worker_id: Hashable) -> ContractViolation:
    return ContractViolation(f"worker {worker_id} is not on the leaderboard")


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
    """Build the leaderboard from cumulative scores, by one sort: the check
    that `replay_validate` holds the engine's `Leaderboard` order to.

    ``last_scored_ms`` maps each worker to the time their score last
    increased (None if it never did); it breaks score ties in favour of the
    worker who got there first.
    """
    if set(scores) != set(last_scored_ms):
        raise ConfigurationError("scores and last_scored_ms must cover the same workers")
    if annotations is None:
        annotations = dict.fromkeys(scores, 0)
    elif set(annotations) != set(scores):
        raise ConfigurationError("annotations must cover the same workers as scores")
    entries = sorted((RankEntry(w, scores[w], annotations[w], last_scored_ms[w])
                      for w in scores), key=RankEntry.sort_key)
    return Ranking(entries=tuple(entries))
