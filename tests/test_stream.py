"""Stream machinery: windows, allocation, flow formulas, the drop queue."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from contestsim import (ConfigurationError, ContractViolation, DropQueue, Post,
                        advance_queue, allocate_round_robin, build_windows,
                        total_contest_time, warp_out_rate)


def posts(n: int) -> list[Post]:
    return [Post(id=i, token_count=10, expected_entities=1)
            for i in range(n)]


# --- windowing -------------------------------------------------------------

def test_build_windows_chunks_the_reference_stream():
    windows = build_windows(posts(7600), 200)
    assert len(windows) == 38
    assert all(len(w) == 200 for w in windows)


def test_build_windows_single_post():
    windows = build_windows(posts(1), 200)
    assert len(windows) == 1


def test_build_windows_empty_stream():
    assert build_windows([], 200) == []


def test_build_windows_last_window_may_be_underfull():
    windows = build_windows(posts(250), 100)
    assert [len(w) for w in windows] == [100, 100, 50]


@given(n=st.integers(0, 60), size=st.integers(1, 12))
def test_build_windows_partition_preserves_the_stream(n, size):
    stream = posts(n)
    windows = build_windows(stream, size)
    flattened = [p for w in windows for p in w]
    assert flattened == stream


def test_build_windows_validation():
    with pytest.raises(ConfigurationError):
        build_windows(posts(5), 0)


# --- allocation ------------------------------------------------------------

def test_allocation_full_window_one_bin_per_worker():
    window = build_windows(posts(200), 200)[0]
    assignments, _, _ = allocate_round_robin(window, list(range(20)), 10)
    assert len(assignments) == 20
    assert sorted(wid for wid, _ in assignments) == list(range(20))
    assert all(len(bin_posts) == 10 for _, bin_posts in assignments)


def test_allocation_underfull_window_leaves_workers_idle():
    window = build_windows(posts(5), 200)[0]
    assignments, _, _ = allocate_round_robin(window, [1, 2], 10)
    assert len(assignments) == 1
    (wid, bin_posts), = assignments
    assert wid == 1
    assert [p.id for p in bin_posts] == [0, 1, 2, 3, 4]


def test_allocation_more_workers_than_bins():
    window = build_windows(posts(200), 200)[0]
    assignments, _, _ = allocate_round_robin(window, list(range(100)), 10)
    assert [wid for wid, _ in assignments] == list(range(20))


def test_allocation_offset_rotates_the_deal():
    window = build_windows(posts(200), 200)[0]
    assignments, _, _ = allocate_round_robin(window, list(range(100)), 10,
                                             start_offset=95)
    assert [wid for wid, _ in assignments] == [95, 96, 97, 98, 99,
                                               0, 1, 2, 3, 4,
                                               5, 6, 7, 8, 9,
                                               10, 11, 12, 13, 14]


def test_allocation_rotation_is_fair_across_windows():
    """Dealing consecutive windows, each from the offset the last deal
    returned, keeps per-worker bin counts within one of each other."""
    workers = list(range(100))
    counts = {w: 0 for w in workers}
    offset = 0
    for index in range(7):
        window = build_windows(posts(200), 200)[0]
        assignments, offset, _ = allocate_round_robin(window, workers, 10,
                                                      start_offset=offset)
        for wid, _ in assignments:
            counts[wid] += 1
    assert max(counts.values()) - min(counts.values()) <= 1
    assert sum(counts.values()) == 7 * 20


@given(n_posts=st.integers(1, 80), n_workers=st.integers(1, 12),
       unit=st.integers(1, 10), offset=st.integers(0, 30))
def test_allocation_bins_are_disjoint_and_within_size(n_posts, n_workers,
                                                      unit, offset):
    window = build_windows(posts(n_posts), max(n_posts, 1))[0]
    assignments, next_offset, unassigned = allocate_round_robin(
        window, list(range(n_workers)), unit, start_offset=offset)
    seen: set[int] = set()
    for _, bin_posts in assignments:
        ids = {p.id for p in bin_posts}
        assert 1 <= len(bin_posts) <= unit
        assert seen.isdisjoint(ids)
        seen.update(ids)
    # One bin per worker at most.
    ids = [wid for wid, _ in assignments]
    assert len(ids) == len(set(ids))
    assert len(assignments) == min(n_workers, -(-n_posts // unit))
    # The bins, then the posts no bin took, are the window in stream order.
    dealt = [p for _, bin_posts in assignments for p in bin_posts]
    assert dealt + list(unassigned) == list(window)
    assert next_offset == (offset + len(assignments)) % n_workers


def test_allocation_validation():
    window = build_windows(posts(5), 5)[0]
    with pytest.raises(ConfigurationError):
        allocate_round_robin(window, [], 10)
    with pytest.raises(ConfigurationError):
        allocate_round_robin(window, [1, 1], 10)
    with pytest.raises(ConfigurationError):
        allocate_round_robin(window, [1], 0)


# --- flow formulas ---------------------------------------------------------

def test_total_contest_time_fixtures():
    assert total_contest_time(7600, 10.0, 200) == 380.0
    assert total_contest_time(200, 10.0, 200) == 10.0
    assert total_contest_time(1000, 5.0, 100) == 50.0


@given(n=st.integers(1, 10_000), unit=st.floats(0.1, 100.0),
       size=st.integers(1, 500))
def test_total_contest_time_scales_linearly(n, unit, size):
    base = total_contest_time(n, unit, size)
    assert total_contest_time(2 * n, unit, size) == pytest.approx(2 * base)
    assert total_contest_time(n, 2 * unit, size) == pytest.approx(2 * base)
    assert total_contest_time(n, unit, 2 * size) == pytest.approx(base / 2)


def test_total_contest_time_validation():
    with pytest.raises(ConfigurationError):
        total_contest_time(0, 10.0, 200)
    with pytest.raises(ConfigurationError):
        total_contest_time(10, 0.0, 200)
    with pytest.raises(ConfigurationError):
        total_contest_time(10, 10.0, 0)


def test_warp_out_rate_fixtures():
    assert warp_out_rate(200, 10.0) == 199 / 190
    assert warp_out_rate(11, 10.0) == 10.0
    for n in (2, 17, 1000):
        assert warp_out_rate(n, 1.0) == 1.0


@given(n=st.integers(3, 100_000),
       rr=st.one_of(st.just(1.0), st.floats(1.001, 100.0)))
def test_warp_out_rate_speeds_up_iff_posts_are_skipped(n, rr):
    if n <= rr:
        return
    rate = warp_out_rate(n, rr)
    if rr > 1.0:
        assert rate > 1.0
    else:
        assert rate == 1.0


def test_warp_out_rate_validation():
    with pytest.raises(ConfigurationError):
        warp_out_rate(200, 0.5)
    with pytest.raises(ConfigurationError):
        warp_out_rate(10, 10.0)


# --- drop queue ------------------------------------------------------------

def test_advance_empty_queue_is_a_no_op():
    queue = DropQueue()
    advance_queue(queue, 10.0)
    assert len(queue) == 0
    assert queue.dropped_count == 0


def test_unsolved_posts_drop_at_their_deadline():
    # A ten-post window where four posts were solved in time: only the six
    # leftovers ever reach the queue, and the deadline claims them all.
    queue = DropQueue()
    for p in posts(10)[4:]:
        queue.push(p, 10.0)
    advance_queue(queue, 5.0)
    assert len(queue) == 6
    assert queue.dropped_count == 0
    advance_queue(queue, 10.0)
    assert len(queue) == 0
    assert queue.dropped_count == 6


def test_deadline_boundary_is_inclusive():
    queue = DropQueue()
    queue.push(posts(1)[0], 10.0)
    advance_queue(queue, 9.999)
    assert len(queue) == 1
    advance_queue(queue, 10.0)
    assert queue.dropped_count == 1


def test_mixed_deadlines_drop_independently():
    queue = DropQueue()
    stream = posts(3)
    queue.push(stream[0], 5.0)
    queue.push(stream[1], 10.0)
    queue.push(stream[2], 15.0)
    advance_queue(queue, 10.0)
    assert queue.dropped_count == 2
    assert [p.id for p, _ in queue.pending] == [2]


def test_advance_queue_rejects_time_regression():
    queue = DropQueue()
    advance_queue(queue, 10.0)
    with pytest.raises(ContractViolation):
        advance_queue(queue, 9.0)
