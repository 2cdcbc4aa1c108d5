"""Differential test: `run_contest` against the naive reference engine.

The pinned log digests cover a few seeds; `replay_validate` checks a log's
invariants but not which stream each draw came from or in what order.
Here every random contest must give the same `EventLog` from both engines,
and `replay_validate` must accept it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from reference_engine import reference_contest

from contestsim import (ContestConfig, Post, WorkerProfile, replay_validate,
                        run_contest)


_RATES = st.floats(0.2, 8.0)


@st.composite
def contests(draw):
    """Keyword arguments for one random contest, for both engines."""
    n = draw(st.integers(1, 30))
    window_size = draw(st.integers(1, 40))
    task_unit_size = draw(st.integers(1, window_size))
    unit_s = draw(st.sampled_from([0.05, 0.25, 1.0, 2.5, 10.0]))
    # At the fast end, holding times of a few ms put events on the same
    # millisecond as each other and as the exit checkpoints.
    speed = draw(st.sampled_from([1.0, 100.0, 1000.0]))
    n_posts = draw(st.integers(1, 150))
    load = draw(st.floats(0.05, 0.99))
    config = ContestConfig(
        n_workers=n, n_posts=n_posts, window_size=window_size,
        task_unit_time_s=unit_s, task_unit_size=task_unit_size,
        arrival_rate=load * n * task_unit_size / unit_s,
        reward_spread=draw(st.integers(1, n)), prize_value=1.0,
        base_points=draw(st.integers(1, 10)), leaderboard_k=3,
        quality_constraint=0, reduction_rate=2.0)
    # Worker ids are non-contiguous and not in profile order, so the
    # profile index and the worker id order differ.
    id_stride = draw(st.integers(1, 5))
    ids = [id_stride * k + 2 for k in draw(st.permutations(range(n)))]
    # Skill 1, like an accuracy floor of 1, makes every hit sure, so the
    # engine reads no count draw: both are drawn on purpose.
    skills = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
    profiles = [WorkerProfile(id=wid, skill=draw(skills),
                              lambda_in=speed * draw(_RATES),
                              lambda_out=speed * draw(_RATES),
                              exit_threshold=draw(st.floats(0.0, 1.0)))
                for wid in ids]
    first, stride = draw(st.integers(0, 500)), draw(st.integers(1, 7))
    entities = draw(st.lists(st.integers(0, 4), min_size=n_posts,
                             max_size=n_posts))
    posts = [Post(id=first + k * stride, token_count=10, expected_entities=e)
             for k, e in enumerate(entities)]
    return dict(
        config=config, profiles=profiles, posts=posts,
        seed=draw(st.one_of(st.integers(0, 2**64),
                            st.tuples(st.integers(0, 99),
                                      st.integers(0, 99)))),
        dispatch=draw(st.sampled_from(["windowed", "shared"])),
        base_hazard=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                                   st.floats(1.0, 1000.0))),
        accuracy_floor=draw(st.one_of(st.just(0.0), st.just(1.0),
                                      st.floats(-1.0, 1.0))))


@settings(max_examples=150, deadline=None)
@given(contest=contests())
def test_run_contest_equals_the_reference_engine(contest):
    log = run_contest(**contest)
    want = reference_contest(**contest)
    assert log.events == want.events
    assert log.exits == want.exits
    assert log == want
    replay_validate(log, contest["posts"])


def test_events_at_a_checkpoint_millisecond_run_before_it():
    # Millisecond holding times and a hazard of 1 outside the spread: each
    # worker annotating on a checkpoint's millisecond, outside the spread,
    # must annotate first and only then face the checkpoint.  Random
    # contests meet this case too rarely to rely on.
    config = ContestConfig(
        n_workers=3, n_posts=60, window_size=60, task_unit_time_s=0.05,
        task_unit_size=20, arrival_rate=1.0, reward_spread=1,
        prize_value=1.0, base_points=1, leaderboard_k=3,
        quality_constraint=0, reduction_rate=2.0)
    profiles = [WorkerProfile(id=wid, skill=0.5, lambda_in=1000.0,
                              lambda_out=1000.0, exit_threshold=1.0)
                for wid in (7, 3, 5)]
    posts = [Post(id=k, token_count=10, expected_entities=k % 3)
             for k in range(60)]
    on_checkpoint = 0  # exits at the millisecond of the worker's own event
    for seed in range(5):
        contest = dict(config=config, profiles=profiles, posts=posts,
                       seed=seed, dispatch="shared", base_hazard=1000.0)
        log = run_contest(**contest)
        assert log == reference_contest(**contest), seed
        replay_validate(log, posts)
        event_ms = {(e.worker_id, e.event_time_ms) for e in log.events}
        on_checkpoint += sum((x.worker_id, x.exit_time_ms) in event_ms
                             for x in log.exits)
    assert on_checkpoint
