"""Stream machinery: windowing, the deal, flow-rate formulas, drops.

The content stream is cut into fixed-size windows, each a tuple of posts;
window ``k`` is item ``k`` of `build_windows`' list and is open for the
``k``-th task unit time of the contest.  The engine, which owns the clock,
opens it at ``k * unit_ms`` and closes it one unit later.  At the opening,
`allocate_round_robin` (the one deal) cuts it into bins of
``task_unit_size``, each a ``(worker_id, posts)`` pair, one per worker still
in, from where the last deal stopped.  Posts that nobody solves by the close
are dropped for good.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .core import Post
from .errors import ConfigurationError, ContractViolation


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

    def push(self, post: Post, deadline: float) -> None:
        self.pending.append((post, deadline))

    def __len__(self) -> int:
        return len(self.pending)


def build_windows(posts: Sequence[Post], window_size: int
                  ) -> list[tuple[Post, ...]]:
    """Chunk the post stream into consecutive windows of ``window_size``
    posts, order preserved; window ``k`` is item ``k``.

    The final window may be underfull but stays open the full task unit
    time.  An empty stream yields no windows.
    """
    if window_size < 1:
        raise ConfigurationError("window_size must be >= 1")
    return [tuple(posts[i:i + window_size])
            for i in range(0, len(posts), window_size)]


def allocate_round_robin(window: tuple[Post, ...], worker_ids: Sequence[int],
                         task_unit_size: int, start_offset: int = 0
                         ) -> tuple[list[tuple[int, tuple[Post, ...]]], int,
                                    tuple[Post, ...]]:
    """Deal the window's posts into bins and hand them out in worker order.

    Bins of ``task_unit_size`` are cut from the window in stream order; bin
    ``b`` is the pair ``(worker_ids[(start_offset + b) % len(worker_ids)],
    posts)``, and each worker receives at most one.  Returns the bins; the
    offset that the next window's deal starts from, which keeps the deal
    fair when workers outnumber bins; and the posts that no bin took, in
    stream order, which the engine drops at window close.
    """
    if not worker_ids:
        raise ConfigurationError("worker_ids must be non-empty")
    if len(set(worker_ids)) != len(worker_ids):
        raise ConfigurationError("worker_ids must be unique")
    if task_unit_size < 1:
        raise ConfigurationError("task_unit_size must be >= 1")
    n_workers = len(worker_ids)
    n_bins = min(n_workers, -(-len(window) // task_unit_size))
    bins = [(worker_ids[(start_offset + b) % n_workers],
             window[b * task_unit_size:(b + 1) * task_unit_size])
            for b in range(n_bins)]
    return (bins, (start_offset + n_bins) % n_workers,
            window[n_bins * task_unit_size:])


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


def advance_queue(queue: DropQueue, now: float) -> DropQueue:
    """Move every pending post whose deadline has passed into the drop count.

    ``now``, on the deadlines' clock, must never move backwards across
    calls.  Solving happens strictly before the deadline check, so a post
    annotated exactly at its window close is never seen here.
    """
    if now < queue._last_now:
        raise ContractViolation(
            f"advance_queue time regression: {now} < {queue._last_now}")
    queue._last_now = now
    survivors = deque()
    for post, deadline in queue.pending:
        if deadline <= now:
            queue.dropped_count += 1
        else:
            survivors.append((post, deadline))
    queue.pending = survivors
    return queue
