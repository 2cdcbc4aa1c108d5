"""Stream machinery: windowing, task allocation, flow-rate formulas, drops.

The content stream is cut into fixed-size windows, each open for one task
unit time.  Within a window, posts are dealt out round-robin as bins of
``task_unit_size``, one bin per worker.  Posts that nobody solves before
their window closes are dropped, never to return.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import Post
from .errors import ConfigurationError, ContractViolation


@dataclass(frozen=True)
class Window:
    """One slice of the stream, open for exactly one task unit time."""

    index: int
    posts: tuple[Post, ...]
    open_time_s: float
    close_time_s: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError("window index must be >= 0")
        if self.close_time_s <= self.open_time_s:
            raise ConfigurationError("window must close after it opens")


class Assignment(NamedTuple):
    """A bin of the window's posts, in stream order, handed to one worker."""

    worker_id: int
    window_index: int
    posts: tuple[Post, ...]


class DropQueue:
    """FIFO holding pen for posts that are waiting out their window.

    Posts enter with the deadline of the window they belong to; once the
    clock passes a deadline the post is dropped.  Dropped posts are only
    counted, not retained.
    """

    def __init__(self) -> None:
        self.pending: deque[tuple[Post, float]] = deque()
        self.dropped_count: int = 0
        self._last_now: float = float("-inf")

    def push(self, post: Post, deadline_s: float) -> None:
        self.pending.append((post, deadline_s))

    def __len__(self) -> int:
        return len(self.pending)


def build_windows(posts: Sequence[Post], window_size: int,
                  task_unit_time_s: float) -> list[Window]:
    """Chunk the post stream into consecutive windows, order preserved.

    The final window may be underfull but stays open the full task unit
    time.  An empty stream yields no windows.
    """
    if window_size < 1:
        raise ConfigurationError("window_size must be >= 1")
    if task_unit_time_s <= 0.0:
        raise ConfigurationError("task_unit_time_s must be positive")
    windows = []
    for i in range(0, len(posts), window_size):
        idx = i // window_size
        windows.append(Window(
            index=idx,
            posts=tuple(posts[i:i + window_size]),
            open_time_s=idx * task_unit_time_s,
            close_time_s=(idx + 1) * task_unit_time_s,
        ))
    return windows


def allocate_round_robin(window: Window, worker_ids: Sequence[int],
                         task_unit_size: int,
                         start_offset: int = 0) -> list[Assignment]:
    """Deal the window's posts into bins and hand them out in worker order.

    Bins of ``task_unit_size`` are cut from the window in stream order; bin
    ``b`` goes to ``worker_ids[(start_offset + b) % len(worker_ids)]``.  Each
    worker receives at most one bin per window, so when there are more bins
    than workers the surplus posts are left unassigned (the engine drops
    them at window close).  Rotating ``start_offset`` across windows keeps
    the deal fair when workers outnumber bins.
    """
    if not worker_ids:
        raise ConfigurationError("worker_ids must be non-empty")
    if len(set(worker_ids)) != len(worker_ids):
        raise ConfigurationError("worker_ids must be unique")
    if task_unit_size < 1:
        raise ConfigurationError("task_unit_size must be >= 1")
    n_workers = len(worker_ids)
    posts, index = window.posts, window.index
    # `Assignment(...)` less its Python-level `__new__`.
    new_tuple = tuple.__new__
    return [new_tuple(Assignment, (
                worker_ids[(start_offset + b) % n_workers], index,
                posts[b * task_unit_size:(b + 1) * task_unit_size]))
            for b in range(min(n_workers, -(-len(posts) // task_unit_size)))]


def total_contest_time(n_posts: int, task_unit_time_s: float,
                       window_size: int) -> float:
    """Nominal contest duration in seconds: posts / window throughput."""
    if n_posts < 1 or window_size < 1:
        raise ConfigurationError("n_posts and window_size must be >= 1")
    if task_unit_time_s <= 0.0:
        raise ConfigurationError("task_unit_time_s must be positive")
    return n_posts * task_unit_time_s / window_size


def warp_out_rate(n_posts: int, reduction_rate: float) -> float:
    """Playback speed-up achieved by skipping one post in every ``reduction_rate``.

    (n - 1) survivors of the original stream are replayed in the time that
    (n - reduction_rate) posts would have taken.
    """
    if reduction_rate < 1.0:
        raise ConfigurationError("reduction_rate must be >= 1")
    if n_posts <= reduction_rate:
        raise ConfigurationError("n_posts must exceed reduction_rate")
    return (n_posts - 1) / (n_posts - reduction_rate)


def advance_queue(queue: DropQueue, now_s: float) -> DropQueue:
    """Move every pending post whose deadline has passed into the drop count.

    ``now_s`` must never move backwards across calls.  Solving happens
    strictly before the deadline check, so a post annotated exactly at its
    window close is never seen here.
    """
    if now_s < queue._last_now:
        raise ContractViolation(
            f"advance_queue time regression: {now_s} < {queue._last_now}")
    queue._last_now = now_s
    survivors = deque()
    for post, deadline in queue.pending:
        if deadline <= now_s:
            queue.dropped_count += 1
        else:
            survivors.append((post, deadline))
    queue.pending = survivors
    return queue
