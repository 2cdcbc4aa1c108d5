"""Event engine: behavior draws, holding times, exits, contest runs, logs."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from reference_engine import reference_contest

from contestsim import (AnnotationEvent, BehaviorPrior, ConfigurationError,
                        ContestConfig, ContractViolation, EventLog, ExitEvent,
                        Post, PostCounters, RankEntry, Ranking, WorkerProfile,
                        draw_behavior, event_log_lines, exit_hazard,
                        generate_corpus, holding_time, parse_experiment_config,
                        read_corpus, read_event_log, replay_validate,
                        run_condition, run_contest, simulate_annotated_count,
                        write_corpus, write_event_log)
from contestsim import rng as streams
from contestsim import simulate
from contestsim.core import canonical_json, decode_json
from contestsim.simulate import (_BLOCK, _CHUNK_LINES, _PERTURBATIONS,
                                 DEFAULT_BASE_HAZARD, DISPATCH_MODES,
                                 N_CHECKPOINTS, _count_offsets, _WorkerState)


def _profile(**overrides) -> WorkerProfile:
    base = dict(id=0, skill=0.5, lambda_in=1.2, lambda_out=1.0,
                exit_threshold=1.0)
    base.update(overrides)
    return WorkerProfile(**base)


# --- behavior prior --------------------------------------------------------

def test_prior_rejects_non_positive_parameters():
    for field in ("gamma_shape", "gamma_rate", "halfnormal_sigma"):
        with pytest.raises(ConfigurationError):
            BehaviorPrior(**{field: 0.0})
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="must be finite"):
                BehaviorPrior(**{field: bad})


def test_draw_behavior_gamma_mean_matches_shape_over_rate():
    prior = BehaviorPrior(gamma_shape=9.0, gamma_rate=8.0)
    gen = np.random.default_rng(11)
    draws = [draw_behavior(prior, gen) for _ in range(100_000)]
    mean_in = sum(d[0] for d in draws) / len(draws)
    assert abs(mean_in - 9.0 / 8.0) < 0.01 * (9.0 / 8.0)
    assert all(d[0] > 0.0 and d[1] > 0.0 for d in draws)


def test_draw_behavior_outside_rate_converges_to_inside_as_sigma_vanishes():
    prior = BehaviorPrior(halfnormal_sigma=1e-12)
    gen = np.random.default_rng(3)
    draws = [draw_behavior(prior, gen) for _ in range(20_000)]
    lam_in = [d[0] for d in draws]
    lam_out = [d[1] for d in draws]
    assert stats.ks_2samp(lam_in, lam_out).pvalue > 0.01


def test_draw_behavior_bump_raises_the_outside_rate():
    prior = BehaviorPrior(halfnormal_sigma=2.0)
    gen = np.random.default_rng(4)
    draws = [draw_behavior(prior, gen) for _ in range(5_000)]
    mean_in = sum(d[0] for d in draws) / len(draws)
    mean_out = sum(d[1] for d in draws) / len(draws)
    # The half-normal bump adds sigma * sqrt(2/pi) on average.
    assert mean_out - mean_in > 1.0


# --- holding times ---------------------------------------------------------

def test_holding_time_mean_matches_reciprocal_rate():
    gen = np.random.default_rng(7)
    draws = holding_time(1.0, gen, size=1_000_000)
    assert abs(draws.mean() - 1.0) < 0.01


def test_holding_time_scales_inversely_with_rate():
    gen = np.random.default_rng(8)
    slow = holding_time(1.0, gen, size=200_000).mean()
    fast = holding_time(2.0, gen, size=200_000).mean()
    assert fast / slow == pytest.approx(0.5, rel=0.02)


def test_holding_time_is_exponential():
    gen = np.random.default_rng(9)
    draws = holding_time(1.3, gen, size=100_000)
    result = stats.kstest(draws, "expon", args=(0.0, 1.0 / 1.3))
    assert result.pvalue > 0.01


def test_holding_time_rejects_non_positive_rate():
    gen = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        holding_time(0.0, gen)
    with pytest.raises(ConfigurationError):
        holding_time(-2.0, gen)


# --- exit hazard -----------------------------------------------------------

def test_exit_hazard_zero_while_eligible():
    # A negative gap is a rank inside the spread.
    assert exit_hazard(-3, 0.9, _profile(), n_workers=20) == 0.0


def test_exit_hazard_zero_at_the_spread_boundary():
    assert exit_hazard(0, 0.9, _profile(), n_workers=20) == 0.0


def test_exit_hazard_hand_computed_value():
    profile = _profile(exit_threshold=0.5)
    h = exit_hazard(5, 0.5, profile, n_workers=20, base_hazard=0.06)
    assert h == pytest.approx(0.06 * 0.5 * (5 / 20) * 0.5)


def test_exit_hazard_is_negligible_early_and_just_outside():
    h = exit_hazard(1, 0.05, _profile(), n_workers=20)
    assert 0.0 < h < 1e-3


def test_exit_hazard_is_clamped_to_a_probability():
    h = exit_hazard(100, 1.0, _profile(), n_workers=20, base_hazard=50.0)
    assert h == 1.0


def test_exit_hazard_zero_threshold_pins_the_worker():
    profile = _profile(exit_threshold=0.0)
    assert exit_hazard(10, 1.0, profile, n_workers=20) == 0.0


@given(gap=st.integers(1, 40), frac=st.floats(0.0, 1.0),
       bump_gap=st.integers(0, 10), bump_frac=st.floats(0.0, 0.5))
def test_exit_hazard_monotone_in_gap_and_time(gap, frac, bump_gap, bump_frac):
    profile = _profile(exit_threshold=0.7)
    base = exit_hazard(gap, frac, profile, n_workers=20)
    wider = exit_hazard(gap + bump_gap, frac, profile, n_workers=20)
    later_frac = min(1.0, frac + bump_frac)
    later = exit_hazard(gap, later_frac, profile, n_workers=20)
    assert wider >= base
    assert later >= base


def test_exit_hazard_validation():
    with pytest.raises(ConfigurationError):
        exit_hazard(1, 1.5, _profile(), n_workers=20)
    with pytest.raises(ConfigurationError):
        exit_hazard(1, 0.5, _profile(), n_workers=0)
    with pytest.raises(ConfigurationError):
        exit_hazard(1, 0.5, _profile(), n_workers=20, base_hazard=-0.1)


@pytest.mark.parametrize("base_hazard", [math.nan, math.inf, -math.inf, -0.1])
def test_exit_hazard_takes_the_run_argument_rule_for_base_hazard(
        base_hazard, contest_config):
    # A NaN or infinite hazard would make every exit certain.
    message = f"^base_hazard must be finite and >= 0, got {base_hazard}$"
    with pytest.raises(ConfigurationError, match=message):
        exit_hazard(5, 0.5, _profile(exit_threshold=0.5), n_workers=20,
                    base_hazard=base_hazard)
    with pytest.raises(ConfigurationError, match=message):
        simulate.check_run_arguments(contest_config(), "windowed",
                                     base_hazard, 0.0)


# --- annotated counts ------------------------------------------------------

def test_perfect_skill_always_reports_the_true_count(make_posts):
    post = make_posts(1, expected=3)[0]
    gen = np.random.default_rng(1)
    assert all(simulate_annotated_count(post, _profile(skill=1.0), gen) == 3
               for _ in range(200))


def test_zero_skill_never_hits_a_non_empty_truth(make_posts):
    post = make_posts(1, expected=3)[0]
    gen = np.random.default_rng(2)
    counts = {simulate_annotated_count(post, _profile(skill=0.0), gen)
              for _ in range(500)}
    assert 3 not in counts
    assert all(c >= 0 for c in counts)


def test_zero_entity_miss_can_clamp_back_onto_the_truth(make_posts):
    post = make_posts(1, expected=0)[0]
    gen = np.random.default_rng(3)
    counts = [simulate_annotated_count(post, _profile(skill=0.0), gen)
              for _ in range(500)]
    assert 0 in counts
    assert set(counts) <= {0, 1, 2}


def test_half_skill_hits_half_the_time(make_posts):
    post = make_posts(1, expected=3)[0]
    profile = _profile(skill=0.5)
    gen = np.random.default_rng(4)
    hits = sum(simulate_annotated_count(post, profile, gen) == 3
               for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) < 0.01


def test_accuracy_floor_lifts_the_hit_probability(make_posts):
    post = make_posts(1, expected=2)[0]
    gen = np.random.default_rng(5)
    assert all(simulate_annotated_count(post, _profile(skill=0.0), gen,
                                        accuracy_floor=1.0) == 2
               for _ in range(100))


# --- block-buffered draws ----------------------------------------------------
#
# The engine reads each worker's draws from per-worker blocks.  The public
# scalar functions, called on a fresh copy of the same substream, are the
# oracle: the sequences must agree draw for draw, past several blocks.

_SEEDS = [*range(40), (0, 0), (0, 49), (7, 3), (2**40, 1)]
_N_DRAWS = 3 * _BLOCK + 5


def _worker(idx, profile, seed, accuracy_floor,
            base_hazard=DEFAULT_BASE_HAZARD):
    """Worker ``idx`` seeded as `run_contest` seeds it."""
    rngs = streams.substreams(
        seed, (streams.EVENTS, streams.COUNTS, streams.EXITS), idx + 1)
    return _WorkerState(idx, profile, *(r[idx] for r in rngs),
                        accuracy_floor=accuracy_floor, base_hazard=base_hazard)


def test_block_holding_times_match_holding_time():
    for seed in _SEEDS:
        worker = _worker(2, _profile(), seed, accuracy_floor=0.0)
        oracle = streams.substream(seed, streams.EVENTS, 2)
        for i in range(_N_DRAWS):
            rate = 0.05 + (i % 11) * 0.37
            assert worker.next_exp() * (1.0 / rate) == \
                holding_time(rate, oracle), (seed, i)


@pytest.mark.parametrize("skill, accuracy_floor", [
    (0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.3, 0.25), (0.0, 0.6),
    (0.9, -0.4), (1.0, -1.0),
])
def test_block_counts_match_simulate_annotated_count(skill, accuracy_floor):
    profile = _profile(skill=skill)
    posts = [Post(id=i, token_count=10, expected_entities=i % 5)
             for i in range(_N_DRAWS)]
    for seed in _SEEDS:
        worker = _worker(5, profile, seed, accuracy_floor)
        oracle = streams.substream(seed, streams.COUNTS, 5)
        for post in posts:
            expected = simulate_annotated_count(post, profile, oracle,
                                                accuracy_floor=accuracy_floor)
            assert max(0, post.expected_entities + worker.next_offset()) \
                == expected, (seed, post.id)


def test_block_exit_draws_match_one_random_per_checkpoint():
    for seed in _SEEDS:
        worker = _worker(1, _profile(), seed, accuracy_floor=0.0)
        oracle = streams.substream(seed, streams.EXITS, 1)
        assert worker.exit_draws == [oracle.random()
                                     for _ in range(N_CHECKPOINTS)], seed


# The hit test is one integer comparison against a cut derived from
# p_correct.  Random words almost never land next to the cut, so these
# tests feed `_count_offsets` hand-picked words and check each offset
# against the float rule, ``(word >> 11) * 2**-53 < p_correct``.

_LOW_ONES = (1 << 11) - 1
_MAX_WORD = (1 << 64) - 1


class _StubBits:
    """A bit generator whose ``random_raw`` hands out the given blocks."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def random_raw(self, size):
        assert size == _BLOCK
        block = self.blocks.pop(0)
        assert len(block) == size
        return np.array(block, dtype=np.uint64)


def _float_rule_offsets(words, p_correct):
    """The offsets `simulate_annotated_count` draws from ``words``."""
    words = iter(words)
    offsets, spare = [], None
    for word in words:
        if (word >> 11) * 2.0**-53 < p_correct:
            offsets.append(0)
        elif spare is None:
            fresh = next(words, None)
            if fresh is None:
                break
            spare = fresh >> 32
            offsets.append(_PERTURBATIONS[(fresh & 0xFFFFFFFF) >> 30])
        else:
            offsets.append(_PERTURBATIONS[spare >> 30])
            spare = None
    return offsets


def _offsets(blocks, p_correct, n):
    bits = _StubBits(blocks)
    offsets = list(itertools.islice(_count_offsets(bits, p_correct), n))
    assert not bits.blocks, "every block is read"
    return offsets


# p * 2**53 is not an integer at 0.3 and 5e-324; it is one for every p in
# [0.5, 1).
@pytest.mark.parametrize("p_correct", [0.3, 0.7, 0.5, 5e-324, 1 - 2**-53,
                                       0.0, 1.0])
def test_count_offsets_hit_cut_matches_the_float_rule(p_correct):
    # Words whose top 53 bits are ceil(p * 2**53) - 1 and ceil(p * 2**53),
    # with the low 11 bits all ones or all zeros, and the extreme words;
    # each is the first word a fresh generator reads.
    top = math.ceil(p_correct * 2**53)
    edges = [w for w in ((top - 1) << 11 | _LOW_ONES, top << 11 | _LOW_ONES,
                         (top - 1) << 11, top << 11, 0, _MAX_WORD)
             if 0 <= w <= _MAX_WORD]
    for word in edges:
        block = [word] + [0x40000000C0000000] * (_BLOCK - 1)
        want = _float_rule_offsets(block, p_correct)[:1]
        assert _offsets([block], p_correct, 1) == want, hex(word)


def test_count_offsets_cut_is_exact_at_a_non_integer_boundary():
    p_correct = 0.3
    top = math.ceil(p_correct * 2**53)
    assert top != p_correct * 2**53
    hit, miss = (top - 1) << 11 | _LOW_ONES, top << 11 | _LOW_ONES
    assert (hit >> 11) * 2.0**-53 < p_correct <= (miss >> 11) * 2.0**-53
    # Low half 0x40000000 draws index 1 (-1); the high half, kept as the
    # spare, index 3 (+2).
    fresh = 0xC0000000_40000000
    # The block ends on a miss with no spare, so its fresh word is the
    # first word of the next block.
    first = [hit, miss, fresh, miss] + [hit] * 27 + [miss]
    second = [fresh, miss] + [hit] * 30
    want = [0, -1, 2] + [0] * 27 + [-1, 2] + [0] * 30
    assert _float_rule_offsets(first + second, p_correct) == want
    assert _offsets([first, second], p_correct, len(want)) == want


# --- run_contest: validation ------------------------------------------------

def test_run_contest_validates_inputs(contest_config, make_posts,
                                      make_profiles):
    config = contest_config()
    posts = make_posts(config.n_posts)
    profiles = make_profiles(config.n_workers)
    with pytest.raises(ConfigurationError):
        run_contest(config, profiles[:1], posts, seed=0)
    with pytest.raises(ConfigurationError):
        run_contest(config, profiles, posts[:-1], seed=0)
    with pytest.raises(ConfigurationError):
        run_contest(config, profiles, posts, seed=0, dispatch="mystery")
    with pytest.raises(ConfigurationError):
        run_contest(config, [profiles[0], profiles[0]], posts, seed=0)
    bad_posts = posts[:-1] + [posts[0]]
    with pytest.raises(ConfigurationError):
        run_contest(config, profiles, bad_posts, seed=0)


def test_run_contest_refuses_duplicate_worker_ids_before_drawing(
        monkeypatch, contest_config, make_posts, make_profiles):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking its workers")

    monkeypatch.setattr(streams, "substreams", no_draws)
    config = contest_config()
    first, second = make_profiles(2)
    with pytest.raises(ConfigurationError,
                       match="^duplicate worker ids on the leaderboard$"):
        run_contest(config, [first, dataclasses.replace(second, id=first.id)],
                    make_posts(config.n_posts), seed=0)


@pytest.mark.parametrize("spread, bad, match", [
    (1, dict(base_hazard=math.nan), "base_hazard"),
    (1, dict(base_hazard=math.inf), "base_hazard"),
    # With every worker inside the spread no hazard is ever computed.
    (4, dict(base_hazard=-0.1), "base_hazard"),
    (1, dict(accuracy_floor=math.nan), "accuracy_floor"),
    (1, dict(accuracy_floor=-math.inf), "accuracy_floor"),
    # A shared horizon of 40 * 0.001 / 100000 s rounds to 0 ms.
    pytest.param(
        1, dict(dispatch="shared", window_size=100_000, task_unit_time_s=0.001),
        r"^n_posts \* task_unit_time_s / window_size is below the 1 ms clock "
        "resolution$", id="zero shared horizon"),
])
def test_run_contest_rejects_a_bad_hazard_or_floor_before_drawing(
        monkeypatch, contest_config, make_posts, make_profiles, spread, bad,
        match):
    # Keys of ``bad`` that name config fields go to the config.
    fields = {f.name for f in dataclasses.fields(ContestConfig)}
    config = contest_config(n_workers=4, reward_spread=spread,
                            **{k: v for k, v in bad.items() if k in fields})
    bad = {k: v for k, v in bad.items() if k not in fields}

    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking its arguments")

    monkeypatch.setattr(streams, "substreams", no_draws)
    with pytest.raises(ConfigurationError, match=match):
        run_contest(config, make_profiles(4, exit_threshold=1.0),
                    make_posts(config.n_posts), seed=0, **bad)


def test_a_shared_horizon_of_one_ms_runs_and_one_that_rounds_to_zero_does_not(
        contest_config, make_posts, make_profiles):
    # n_posts * task_unit_time_s / window_size is 1 ms at window_size 1 and
    # a third of a millisecond, which rounds to 0, at window_size 3.
    posts = make_posts(1)
    config = contest_config(n_posts=1, window_size=1, task_unit_time_s=0.001,
                            task_unit_size=1)
    log = run_contest(config, make_profiles(2), posts, seed=0,
                      dispatch="shared")
    assert log.horizon_ms == 1
    replay_validate(log, posts)
    with pytest.raises(ConfigurationError,
                       match="below the 1 ms clock resolution"):
        run_contest(dataclasses.replace(config, window_size=3),
                    make_profiles(2), posts, seed=0, dispatch="shared")


_SEED_RULE = ("seed must be a non-negative integer or a non-empty list of "
              "them, got ")


@pytest.mark.parametrize("seed, quoted", [
    (None, "null"), (True, "true"), ((True,), "[true]"), ([], "[]"),
    ((), "[]"), ("x", '"x"'), (1.5, "1.5"), (-1, "-1"), ((0, -1), "[0,-1]"),
])
def test_run_contest_refuses_a_seed_before_drawing(
        monkeypatch, contest_config, make_posts, make_profiles, seed, quoted):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking its seed")

    monkeypatch.setattr(streams, "substreams", no_draws)
    config = contest_config()
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(_SEED_RULE + quoted)}$"):
        run_contest(config, make_profiles(2), make_posts(config.n_posts),
                    seed=seed)


@pytest.mark.parametrize("seed, plain", [
    (np.int64(5), 5), ((np.uint32(5), 1), (5, 1)),
], ids=["int64", "uint32 tuple"])
def test_a_numpy_integer_seed_runs_and_logs_as_its_int(
        tmp_path, contest_config, make_posts, make_profiles, seed, plain):
    config = contest_config()
    posts, profiles = make_posts(config.n_posts), make_profiles(2)
    log = run_contest(config, profiles, posts, seed=seed)
    assert log == run_contest(config, profiles, posts, seed=plain)
    assert type(log.seed) is type(plain)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    assert read_event_log(path) == log
    replay_validate(log, posts)


# --- run_contest: structure -------------------------------------------------

def test_single_worker_is_always_eligible(contest_config, make_posts,
                                          make_profiles):
    config = contest_config(n_workers=1, n_posts=30, arrival_rate=0.5)
    log = run_contest(config, make_profiles(1, exit_threshold=1.0),
                      make_posts(30), seed=42)
    assert log.events
    assert all(e.rank_at_event == 1 for e in log.events)
    assert all(e.eligible_at_event for e in log.events)
    assert log.exits == []


def _windowed_log(contest_config, make_posts, make_profiles, seed=12):
    config = contest_config(n_posts=40)
    posts = make_posts(40)
    profiles = make_profiles(2, skill=0.5)
    return run_contest(config, profiles, posts, seed=seed), posts


def test_windowed_log_invariants(contest_config, make_posts, make_profiles):
    log, posts = _windowed_log(contest_config, make_posts, make_profiles)
    assert log.horizon_ms == 4 * 10_000
    assert log.events, "expected a non-trivial run"
    # Global time order and positive integer holding times.
    times = [e.event_time_ms for e in log.events]
    assert times == sorted(times)
    for e in log.events:
        assert isinstance(e.holding_time_ms, int)
        assert e.holding_time_ms >= 1
        assert e.event_time_ms <= log.horizon_ms
        assert e.eligible_at_event == (e.rank_at_event <= 1)
    # Holding times sum to the last event time, per worker.
    for wid in (0, 1):
        mine = [e for e in log.events if e.worker_id == wid]
        if mine:
            assert sum(e.holding_time_ms for e in mine) == mine[-1].event_time_ms
            assert [e.event_index for e in mine] == list(range(len(mine)))
    c = log.counters
    assert c.ingested == 40
    assert c.ingested == c.solved + c.dropped + c.pending
    assert c.pending == 0, "windowed mode drops leftovers at each close"
    assert c.solved == len(log.events)
    replay_validate(log, posts)


def test_remaining_counts_down_globally(contest_config, make_posts,
                                        make_profiles):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    for solved_so_far, e in enumerate(log.events, start=1):
        assert e.annotations_remaining == log.config.n_posts - solved_so_far


def test_shared_pool_never_drops(contest_config, make_posts, make_profiles):
    config = contest_config(n_posts=40)
    posts = make_posts(40)
    log = run_contest(config, make_profiles(2, skill=0.5), posts, seed=5,
                      dispatch="shared")
    assert log.horizon_ms == 40_000
    assert log.counters.dropped == 0
    assert log.counters.solved == 40, "a 40 s horizon drains a 40-post pool"
    assert log.counters.pending == 0
    replay_validate(log, posts)


def test_same_seed_reproduces_the_log_byte_for_byte(contest_config,
                                                    make_posts,
                                                    make_profiles):
    config = contest_config(n_posts=40)
    posts = make_posts(40)
    profiles = make_profiles(2, skill=0.5)
    a = run_contest(config, profiles, posts, seed=99)
    b = run_contest(config, profiles, posts, seed=99)
    assert "\n".join(event_log_lines(a)) == "\n".join(event_log_lines(b))
    c = run_contest(config, profiles, posts, seed=100)
    assert "\n".join(event_log_lines(a)) != "\n".join(event_log_lines(c))


def test_equal_workers_split_wins_evenly(contest_config, make_posts,
                                         make_profiles):
    """Two identical profiles with rank-independent rates are exchangeable,
    so neither should win materially more often."""
    config = contest_config(n_posts=40)
    posts = make_posts(40)
    profiles = make_profiles(2, lambda_in=1.0, lambda_out=1.0, skill=0.5)
    wins = 0
    for seed in range(1000):
        log = run_contest(config, profiles, posts, seed=seed,
                          dispatch="shared", base_hazard=0.0)
        if log.final_ranking.entries[0].worker_id == 0:
            wins += 1
    assert stats.binomtest(wins, 1000, 0.5).pvalue > 1e-3


def test_rate_dominance_yields_more_annotations(contest_config, make_posts):
    """With exits off, a worker whose rates strictly dominate takes
    stochastically more of a shared pool (paired sign test over seeds)."""
    config = contest_config(n_posts=60, reward_spread=1)
    posts = make_posts(60)
    profiles = [
        WorkerProfile(id=0, skill=0.5, lambda_in=2.0, lambda_out=1.6),
        WorkerProfile(id=1, skill=0.5, lambda_in=1.0, lambda_out=0.8),
    ]
    diffs = []
    for seed in range(500):
        log = run_contest(config, profiles, posts, seed=seed,
                          dispatch="shared", base_hazard=0.0)
        counts = {0: 0, 1: 0}
        for e in log.events:
            counts[e.worker_id] += 1
        diffs.append(counts[0] - counts[1])
    positives = sum(1 for d in diffs if d > 0)
    n = sum(1 for d in diffs if d != 0)
    p = sum(math.comb(n, i) for i in range(positives, n + 1)) / 2 ** n
    assert p < 0.05


# --- exits -----------------------------------------------------------------

def _exit_heavy_run(make_posts, seed=2, base_hazard=1.0):
    from contestsim import ContestConfig
    config = ContestConfig(n_workers=6, n_posts=80, window_size=20,
                           task_unit_time_s=5.0, task_unit_size=5,
                           arrival_rate=4.0, reward_spread=1,
                           prize_value=1.0, base_points=10, leaderboard_k=3,
                           quality_constraint=0, reduction_rate=2.0)
    profiles = [WorkerProfile(id=i, skill=0.5, lambda_in=1.2, lambda_out=1.0,
                              exit_threshold=1.0) for i in range(6)]
    posts = make_posts(80)
    log = run_contest(config, profiles, posts, seed=seed,
                      base_hazard=base_hazard)
    return log, posts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_field_shed_to_its_spread_is_still_dealt_every_window(make_posts,
                                                                seed):
    """The engine deals each window without checking that anyone is still
    in, because the spread's workers never exit.  At this hazard every
    worker outside the spread exits at the first checkpoint, and the one
    left is dealt a bin, and annotates, in every window after it."""
    log, posts = _exit_heavy_run(make_posts, seed=seed, base_hazard=1000.0)
    config = log.config
    first_checkpoint = round(log.horizon_ms / N_CHECKPOINTS)
    assert first_checkpoint == 1000
    assert len(log.exits) == config.n_workers - config.reward_spread == 5
    assert {x.exit_time_ms for x in log.exits} == {first_checkpoint}
    (survivor,) = (set(range(config.n_workers))
                   - {x.worker_id for x in log.exits})
    unit_ms = round(config.task_unit_time_s * 1000)
    n_windows = config.n_posts // config.window_size
    later = {-(-e.event_time_ms // unit_ms) - 1 for e in log.events
             if e.worker_id == survivor and e.event_time_ms > unit_ms}
    assert later == set(range(1, n_windows))
    profiles = [_profile(id=i) for i in range(config.n_workers)]
    assert log == reference_contest(config, profiles, posts, seed,
                                    base_hazard=1000.0)
    replay_validate(log, posts)


def test_exits_fall_on_checkpoints_and_never_repeat(make_posts):
    log, posts = _exit_heavy_run(make_posts)
    assert log.exits, "winner-takes-all under heavy hazard should shed workers"
    checkpoints = {round(k * log.horizon_ms / N_CHECKPOINTS)
                   for k in range(1, N_CHECKPOINTS + 1)}
    assert {x.exit_time_ms for x in log.exits} <= checkpoints
    exited = [x.worker_id for x in log.exits]
    assert len(exited) == len(set(exited))
    assert all(not x.eligible_at_exit for x in log.exits)
    replay_validate(log, posts)


def test_no_annotations_after_exit(make_posts):
    log, _ = _exit_heavy_run(make_posts)
    exit_ms = {x.worker_id: x.exit_time_ms for x in log.exits}
    for e in log.events:
        if e.worker_id in exit_ms:
            assert e.event_time_ms <= exit_ms[e.worker_id]


def test_full_spread_disables_exits(contest_config, make_posts,
                                    make_profiles):
    config = contest_config(n_posts=40, reward_spread=2)
    log = run_contest(config, make_profiles(2, exit_threshold=1.0),
                      make_posts(40), seed=3, base_hazard=5.0)
    assert log.exits == []


# --- draws and hazard tests that cannot change a log ------------------------

class _FixedExitDraws:
    """An EXITS generator whose every uniform is ``draw``."""

    def __init__(self, draw):
        self.draw = draw

    def random(self, size):
        return np.full(size, self.draw)


def _spy_substreams(monkeypatch, exit_draw=None):
    """Record the generators `run_contest` builds, one dict of purpose to
    per-worker list per call; with ``exit_draw``, each worker's EXITS
    generator is a `_FixedExitDraws`."""
    built = []
    substreams = streams.substreams

    def spy(seed, purposes, n):
        rngs = substreams(seed, purposes, n)
        if exit_draw is not None:
            rngs[purposes.index(streams.EXITS)] = [
                _FixedExitDraws(exit_draw)] * n
        built.append(dict(zip(purposes, rngs)))
        return rngs

    monkeypatch.setattr(streams, "substreams", spy)
    return built


def _spy_exit_hazard(monkeypatch):
    """Record the arguments of every `exit_hazard` call the engine makes."""
    calls = []
    hazard = simulate.exit_hazard

    def spy(*args, **kwargs):
        calls.append(args)
        return hazard(*args, **kwargs)

    monkeypatch.setattr(simulate, "exit_hazard", spy)
    return calls


def _untouched(rng, seed, purpose, idx):
    """Whether ``rng`` has drawn nothing since `rng.substream` built it."""
    fresh = streams.substream(seed, purpose, idx).bit_generator.state
    return rng.bit_generator.state == fresh


def test_a_sure_hit_reads_no_count_word(contest_config, make_posts,
                                        monkeypatch):
    """Worker 0 is sure to hit (skill 1): no `_count_offsets` is built for
    them and their COUNTS generator reads nothing, while worker 1, at skill
    0.5, draws from theirs."""
    built = _spy_substreams(monkeypatch)
    p_corrects = []
    count_offsets = simulate._count_offsets

    def spy(bit_generator, p_correct):
        p_corrects.append(p_correct)
        return count_offsets(bit_generator, p_correct)

    monkeypatch.setattr(simulate, "_count_offsets", spy)
    profiles = [_profile(id=0, skill=1.0), _profile(id=1, skill=0.5)]
    posts = make_posts(40)
    log = run_contest(contest_config(), profiles, posts, seed=3)
    assert {e.worker_id for e in log.events} == {0, 1}
    assert p_corrects == [0.5]
    (counts,) = (rngs[streams.COUNTS] for rngs in built)
    assert _untouched(counts[0], 3, streams.COUNTS, 0)
    assert not _untouched(counts[1], 3, streams.COUNTS, 1)
    assert log == reference_contest(contest_config(), profiles, posts, 3)


@pytest.mark.parametrize("base_hazard, exit_threshold", [(0.0, 1.0),
                                                         (1.0, 0.0)])
@pytest.mark.parametrize("dispatch", DISPATCH_MODES)
def test_a_zero_exit_bound_asks_no_hazard_and_draws_no_exit_uniform(
        contest_config, make_posts, make_profiles, monkeypatch, base_hazard,
        exit_threshold, dispatch):
    built = _spy_substreams(monkeypatch)
    calls = _spy_exit_hazard(monkeypatch)
    contest = dict(config=contest_config(n_workers=4),
                   profiles=make_profiles(4, skill=0.5,
                                          exit_threshold=exit_threshold),
                   posts=make_posts(40), seed=8, dispatch=dispatch,
                   base_hazard=base_hazard)
    log = run_contest(**contest)
    assert calls == []
    (exits,) = (rngs[streams.EXITS] for rngs in built)
    assert all(_untouched(rng, 8, streams.EXITS, i)
               for i, rng in enumerate(exits))
    assert log.events and not log.exits
    assert log == reference_contest(**contest)


@pytest.mark.parametrize("base_hazard, exit_threshold, n_exits", [
    (1000.0, 1.0, 1), (0.5, 0.5, 0)])
def test_a_draw_at_the_exit_bound_asks_no_hazard_and_does_not_exit(
        contest_config, make_posts, make_profiles, monkeypatch, base_hazard,
        exit_threshold, n_exits):
    """At spread 1 of 2, one worker is outside the spread at every
    checkpoint.  A draw exactly at the bound, ``min(1, base_hazard *
    exit_threshold)``, never exits, and the hazard is not asked; one just
    below it is asked at each checkpoint until the worker exits (at a
    bound of 1, at once: the hazard there is 1 too)."""
    bound = min(1.0, base_hazard * exit_threshold)
    for draw, want_calls, want_exits in [
            (bound, 0, 0),
            (math.nextafter(bound, 0.0), N_CHECKPOINTS if not n_exits else 1,
             n_exits)]:
        with monkeypatch.context() as patch:
            _spy_substreams(patch, exit_draw=draw)
            calls = _spy_exit_hazard(patch)
            log = run_contest(contest_config(),
                              make_profiles(2, exit_threshold=exit_threshold),
                              make_posts(40), seed=0, base_hazard=base_hazard)
        assert (len(calls), len(log.exits)) == (want_calls, want_exits), draw


# --- the paused collector --------------------------------------------------

def test_a_contest_runs_with_the_collector_off(
        collector_was_on, contest_config, make_posts, make_profiles,
        monkeypatch):
    # At spread 1 one of the two workers is outside the spread at every
    # checkpoint.  Each worker's exit bound is 1, so every draw lies below
    # it and the engine consults `exit_hazard` at each checkpoint; the spy's
    # hazard of 0 keeps both workers in.
    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return 0.0

    monkeypatch.setattr(simulate, "exit_hazard", spy)
    log = run_contest(contest_config(n_posts=40),
                      make_profiles(2, exit_threshold=1.0), make_posts(40),
                      seed=0, base_hazard=1.0)
    assert log.events and len(seen) == N_CHECKPOINTS and not any(seen)
    assert gc.isenabled() is collector_was_on


def test_a_contest_that_raises_leaves_the_collector_as_it_was(
        collector_was_on, contest_config, make_posts, make_profiles,
        monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        if len(seen) == 6:
            raise ConfigurationError("hazard model failed")
        return 0.0

    monkeypatch.setattr(simulate, "exit_hazard", spy)
    with pytest.raises(ConfigurationError, match="hazard model failed"):
        run_contest(contest_config(n_posts=40),
                    make_profiles(2, exit_threshold=1.0), make_posts(40),
                    seed=0, base_hazard=1.0)
    assert len(seen) == 6 and not any(seen)
    assert gc.isenabled() is collector_was_on


def _chunks_seen_with(monkeypatch) -> list[bool]:
    """Record `gc.isenabled()` at each `_decode_canonical` call."""
    seen = []
    decode_canonical = simulate._decode_canonical

    def spy(lines):
        seen.append(gc.isenabled())
        return decode_canonical(lines)

    monkeypatch.setattr(simulate, "_decode_canonical", spy)
    return seen


def test_a_log_is_read_with_the_collector_off(collector_was_on, tmp_path,
                                              make_posts, monkeypatch):
    log, _ = _exit_heavy_run(make_posts)
    assert log.exits
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    seen = _chunks_seen_with(monkeypatch)
    loaded = read_event_log(path)
    assert seen == [False]
    assert gc.isenabled() is collector_was_on
    # Equal, and of the public record types, not bare tuples.
    assert loaded == log
    assert {type(e) for e in loaded.events} == {AnnotationEvent}
    assert {type(x) for x in loaded.exits} == {ExitEvent}


def test_replay_scores_with_the_collector_off(collector_was_on, make_posts,
                                              monkeypatch):
    log, posts = _exit_heavy_run(make_posts)
    seen = []
    score = simulate.score_annotation

    def spy(*args):
        seen.append(gc.isenabled())
        return score(*args)

    monkeypatch.setattr(simulate, "score_annotation", spy)
    replay_validate(log, posts)
    assert len(seen) == len(log.events) and not any(seen)
    assert gc.isenabled() is collector_was_on
    # A replay that raises in the loop leaves it as it was too.
    log.events[-1] = log.events[-1]._replace(holding_time_ms=0)
    with pytest.raises(ContractViolation):
        replay_validate(log, posts)
    assert gc.isenabled() is collector_was_on


def test_a_read_that_raises_leaves_the_collector_as_it_was(
        collector_was_on, tmp_path, contest_config, make_posts,
        make_profiles, monkeypatch):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5].replace('"post_id"', '"post"')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    seen = _chunks_seen_with(monkeypatch)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{path}:6: ") + ".*KeyError"):
        read_event_log(path)
    assert seen == [False]
    assert gc.isenabled() is collector_was_on


# --- serialization and replay ----------------------------------------------

def test_event_log_round_trip_is_bit_exact(tmp_path, contest_config,
                                           make_posts, make_profiles):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles, seed=21)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    loaded = read_event_log(path)
    assert loaded == log
    second = tmp_path / "again.jsonl"
    write_event_log(loaded, second)
    assert path.read_bytes() == second.read_bytes()


STOCK_LOG_SHA256 = (
    "fccff22c0f24fb1028dc4cdcb39736a3691ac36777d631127fd64eba94006a4c")


def test_stock_log_bytes_are_pinned(stock_log_path):
    # Logs replay byte for byte across versions: a change to the rank rule,
    # the random streams or the log format moves this digest.
    digest = hashlib.sha256(stock_log_path.read_bytes()).hexdigest()
    assert digest == STOCK_LOG_SHA256


SHARED_LOG_SHA256 = (
    "11604a1325b4fb468feb0bd5f33996f10181137c2fff0516d880619d4166fe35")


def test_shared_dispatch_log_bytes_are_pinned(shared_log_path):
    # The shared-pool loop, with exits and a non-zero accuracy floor.
    digest = hashlib.sha256(shared_log_path.read_bytes()).hexdigest()
    assert digest == SHARED_LOG_SHA256


def test_write_event_log_replaces_the_file_in_one_step(tmp_path,
                                                       contest_config,
                                                       make_posts,
                                                       make_profiles):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    before = path.read_bytes()
    assert before == ("\n".join(event_log_lines(log)) + "\n").encode()
    # A log that fails to serialize part-way leaves the old file in place
    # and no temporary file behind.
    log.events.append(log.events[-1]._replace(post_id={1, 2}))
    log.events.append(log.events[0])
    with pytest.raises(TypeError):
        write_event_log(log, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["contest.jsonl"]


def test_read_event_log_rejects_data_after_the_trailer(
        tmp_path, contest_config, make_posts, make_profiles):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
    # Only the last line is read as the trailer, so the misplaced one fails
    # to parse as an event and is the line named.
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{path}:{len(lines)}: ")):
        read_event_log(path)


# The seed-4 spread-two log's last exit line (line 168) sits after the
# annotation at 49599 ms (line 167) and before the one at 51521 ms.
_LAST_EXIT = '{"eligible":false,"exit_time_ms":51000,"rank":3,"worker_id":0}'


@pytest.mark.parametrize("to", ["before the trailer", "one line up"])
def test_read_event_log_names_a_misplaced_exit_line(tmp_path,
                                                    spread_two_contest, to):
    log, _ = spread_two_contest()
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines.pop(167) == _LAST_EXIT
    at = len(lines) - 1 if to == "before the trailer" else 166
    lines.insert(at, _LAST_EXIT)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{path}:{at + 1}: exit of worker 0 at 51000 ms is out of place")):
        read_event_log(path)


def test_read_event_log_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        read_event_log(empty)
    alien = tmp_path / "alien.jsonl"
    alien.write_text('{"format":"something-else"}\n', encoding="utf-8")
    with pytest.raises(ConfigurationError):
        read_event_log(alien)


def test_read_event_log_names_a_too_deeply_nested_line(
        tmp_path, contest_config, make_posts, make_profiles):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = "[" * 100_000 + "]" * 100_000
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{path}:4: ") + ".*RecursionError"):
        read_event_log(path)


def test_read_event_log_names_a_header_the_config_cannot_take(
        tmp_path, contest_config, make_posts, make_profiles):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace('"task_unit_time_s":10.0',
                                '"task_unit_time_s":Infinity')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}:1: ")):
        read_event_log(path)


@pytest.mark.parametrize("record", ["{", '"config":{', '"counters":{'],
                         ids=["header", "config", "counters"])
def test_read_event_log_refuses_a_header_key_event_log_lacks(
        tmp_path, contest_config, make_posts, make_profiles, record):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert record in lines[0]
    lines[0] = lines[0].replace(record, record + '"mystery":1,', 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="^" + re.escape(
            f'{path}:1: unknown key "mystery"') + "$"):
        read_event_log(path)


def test_read_event_log_names_the_bad_line(tmp_path, contest_config,
                                          make_posts, make_profiles):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"post_id"', '"post"')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{path}:3: ") + ".*KeyError"):
        read_event_log(path)


def test_read_event_log_rejects_missing_trailer(tmp_path, contest_config,
                                                make_posts, make_profiles):
    log, _ = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        read_event_log(path)


# --- log codec ----------------------------------------------------------------
#
# The writer fills fixed templates and the reader decodes body lines in
# chunks.  The oracle for both is the plain form: one canonical
# `json.dumps` per record, one `json.loads` per line.

def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reference_lines(log: EventLog) -> list[str]:
    """``log``'s lines, one `json.dumps` per record, merged record by record
    with annotations first on ties."""
    seed = list(log.seed) if isinstance(log.seed, (list, tuple)) else log.seed
    lines = [_canonical({
        "format": "contest-log-v1", "seed": seed, "dispatch": log.dispatch,
        "horizon_ms": log.horizon_ms, "base_hazard": log.base_hazard,
        "accuracy_floor": log.accuracy_floor,
        "config": dataclasses.asdict(log.config),
        "counters": dataclasses.asdict(log.counters)})]
    ei, xi = 0, 0
    while ei < len(log.events) or xi < len(log.exits):
        if xi >= len(log.exits) or (
                ei < len(log.events)
                and log.events[ei].event_time_ms <= log.exits[xi].exit_time_ms):
            e = log.events[ei]
            ei += 1
            lines.append(_canonical({
                "worker_id": e.worker_id, "event_index": e.event_index,
                "event_time_ms": e.event_time_ms,
                "holding_time_ms": e.holding_time_ms, "post_id": e.post_id,
                "annotated_count": e.annotated_count,
                "rank": e.rank_at_event, "eligible": e.eligible_at_event}))
        else:
            x = log.exits[xi]
            xi += 1
            lines.append(_canonical({
                "worker_id": x.worker_id, "exit_time_ms": x.exit_time_ms,
                "rank": x.rank_at_exit, "eligible": x.eligible_at_exit}))
    lines.append(_canonical({"final_ranking": [
        {"worker_id": e.worker_id, "score": e.score,
         "annotations": e.annotations, "last_scored_ms": e.tie_break_stamp}
        for e in log.final_ranking]}))
    return lines


def _random_contest(seed: int) -> tuple[EventLog, list[Post]]:
    gen = np.random.default_rng(seed)
    n_workers = int(gen.integers(2, 7))
    n_posts = int(gen.integers(20, 81))
    config = ContestConfig(
        n_workers=n_workers, n_posts=n_posts, window_size=20,
        task_unit_time_s=5.0, task_unit_size=5, arrival_rate=float(n_workers),
        reward_spread=int(gen.integers(1, n_workers)), prize_value=1.0,
        base_points=10, leaderboard_k=3, quality_constraint=0,
        reduction_rate=2.0)
    profiles = [WorkerProfile(id=i, skill=float(gen.uniform()),
                              lambda_in=float(gen.uniform(0.3, 2.0)),
                              lambda_out=float(gen.uniform(0.3, 2.0)),
                              exit_threshold=1.0)
                for i in range(n_workers)]
    posts = [Post(id=i, token_count=10,
                  expected_entities=int(gen.integers(0, 4)))
             for i in range(n_posts)]
    log = run_contest(config, profiles, posts, seed=seed,
                      dispatch=("windowed", "shared")[seed % 2],
                      base_hazard=float(gen.uniform(0.0, 3.0)),
                      accuracy_floor=float(gen.uniform(-0.2, 0.3)))
    return log, posts


def test_event_log_lines_match_the_reference_encoder(stock_log_path,
                                                     shared_log_path):
    for path in (stock_log_path, shared_log_path):
        log = read_event_log(path)
        assert list(event_log_lines(log)) == _reference_lines(log)
    dispatches, tied = set(), 0
    for seed in range(50):
        log, _ = _random_contest(seed)
        dispatches.add(log.dispatch)
        assert list(event_log_lines(log)) == _reference_lines(log), seed
        if log.exits and log.events:
            # Move every exit onto an annotation's time: the tie order.
            gen = np.random.default_rng(seed)
            times = [log.events[int(i)].event_time_ms
                     for i in gen.integers(0, len(log.events), len(log.exits))]
            log = dataclasses.replace(log, exits=[
                x._replace(exit_time_ms=t) for x, t in zip(log.exits, times)])
            assert list(event_log_lines(log)) == _reference_lines(log), seed
            tied += 1
    assert dispatches == {"windowed", "shared"}
    assert tied >= 10


def test_engine_scores_follow_score_annotation():
    # The engine scores annotations inline; replay re-scores each one with
    # `score_annotation` and compares ranks and final scores, here with
    # empty posts (where a miss can clamp onto the truth) in both modes.
    empty_post_events = 0
    for seed in range(50):
        log, posts = _random_contest(seed)
        replay_validate(log, posts)
        empty = {p.id for p in posts if p.expected_entities == 0}
        empty_post_events += sum(e.post_id in empty for e in log.events)
    assert empty_post_events > 100


def test_read_then_write_round_trips_byte_for_byte(tmp_path, stock_log_path,
                                                   shared_log_path):
    for path in (stock_log_path, shared_log_path):
        out = tmp_path / path.name
        write_event_log(read_event_log(path), out)
        assert out.read_bytes() == path.read_bytes()


def _large_field_log(n_workers, path):
    """Write the benchmark's large field of ``n_workers`` at seed 0 to
    ``path``: the README config with stock ratios (76 posts and a tenth of
    a window per worker, one arrival per worker per second, spread a
    quarter of the field).  Return its number of annotations."""
    config = parse_experiment_config(f"""\
config_version=1
n_workers={n_workers}
n_posts={76 * n_workers}
window_size={10 * n_workers}
task_unit_time_s=10.0
task_unit_size=10
arrival_rate={float(n_workers)}
prize_value=0.10
base_points=10
quality_constraint=0
reduction_rate=10.0
spreads={n_workers // 4}
replications=1
master_seed=0
""")
    posts = generate_corpus(config.n_posts, config.mean_entities,
                            seed=config.master_seed)
    _, log = run_condition(config, config.spreads[0], 0, posts)
    write_event_log(log, path)
    return len(log.events)


def _traced_read(path):
    """``read_event_log(path)``, with the bytes traced as held after it and
    the peak traced during it."""
    tracemalloc.start()
    try:
        log = read_event_log(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return log, held, peak


def test_a_log_read_holds_little_beyond_the_records_it_returns(tmp_path):
    path = tmp_path / "field-200.jsonl"
    _large_field_log(200, path)
    assert path.stat().st_size > 1_500_000
    log, held, peak = _traced_read(path)
    # Holding the file's text, or its list of lines, would cost more than
    # the file's size; a block and a chunk of lines cost well under 1 MB.
    assert peak - held < 1_000_000
    assert len(log.events) > 10_000


# Past 256 workers, ids and ranks above Python's cached small ints recur.
@pytest.fixture(scope="module")
def field_300_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("field-300") / "contest.jsonl"
    return path, _large_field_log(300, path)


def test_a_log_read_back_shares_equal_ids_ranks_and_holding_times(
        field_300_log):
    log = read_event_log(field_300_log[0])
    for field in ("worker_id", "rank_at_event", "holding_time_ms"):
        values = [getattr(e, field) for e in log.events]
        assert max(values) > 256, field
        first = {}
        for v in values:
            assert first.setdefault(v, v) is v, (field, v)


def test_every_field_read_back_has_its_declared_type(field_300_log):
    # A bool is an int, and True == 1: only the exact type tells a flag
    # from a count that shares one object with it.
    log = read_event_log(field_300_log[0])
    assert log.exits
    for records, cls in ((log.events, AnnotationEvent),
                         (log.exits, ExitEvent)):
        declared = list(get_type_hints(cls).values())
        for record in records:
            assert list(map(type, record)) == declared, record
    for entry in log.final_ranking:
        assert list(map(type, entry[:3])) == [int, int, int], entry
        assert type(entry.tie_break_stamp) in (int, type(None)), entry


def test_a_valid_log_is_decoded_once_per_chunk(field_300_log, monkeypatch):
    # One `decode_json` call for the header, one per chunk of body lines
    # and one for the trailer: no chunk is taken again line by line.
    path, n_events = field_300_log
    decoded = []
    decode = simulate.decode_json

    def spy(text):
        decoded.append(text)
        return decode(text)

    monkeypatch.setattr(simulate, "decode_json", spy)
    log = read_event_log(path)
    body = len(log.events) + len(log.exits)
    assert len(log.events) == n_events and log.exits
    assert body > 10 * _CHUNK_LINES
    assert len(decoded) == 2 + math.ceil(body / _CHUNK_LINES)


def test_a_log_read_back_holds_few_bytes_per_event(field_300_log):
    # 248 bytes per event when every record held its own worker id, rank
    # and holding time; 225 with them shared.
    path, n_events = field_300_log
    log, held, _ = _traced_read(path)
    assert len(log.events) == n_events > 15_000
    assert held / n_events < 236


def _read_line_by_line(path) -> EventLog:
    """``read_event_log`` with the canonical chunk decoder declining its
    first call on each chunk, so every body line goes through the line
    pass, whose rewritten chunk the decoder then takes."""
    calls, decode_canonical = itertools.count(), simulate._decode_canonical
    with mock.patch.object(simulate, "_decode_canonical", lambda lines: (
            decode_canonical(lines) if next(calls) % 2 else None)):
        return read_event_log(path)


def _exit_chunks_log(tmp_path, contest_config):
    """A log whose second chunk holds only exit lines and whose third
    starts with one: an annotation, ``2 * _CHUNK_LINES`` exits, and an
    annotation after them."""
    log = _one_event_log(contest_config)
    first = log.events[0]
    log.events.append(first._replace(event_index=1, event_time_ms=5_000,
                                     holding_time_ms=4_300, post_id=2,
                                     annotations_remaining=38))
    log.exits[:] = [ExitEvent(1, 2_000 + i, 2, False)
                    for i in range(2 * _CHUNK_LINES)]
    path = tmp_path / "exit-chunks.jsonl"
    write_event_log(log, path)
    return path, log


@pytest.mark.parametrize("source", ["stock_log_path", "shared_log_path",
                                    "field_300_log", "exit chunks"])
def test_a_canonical_read_equals_a_line_by_line_read(
        request, tmp_path, contest_config, monkeypatch, source):
    if source == "exit chunks":
        path, written = _exit_chunks_log(tmp_path, contest_config)
    else:
        path, written = request.getfixturevalue(source), None
        if source == "field_300_log":
            path = path[0]
    line_by_line = _read_line_by_line(path)
    declined = []
    decode_canonical = simulate._decode_canonical

    def spy(lines):
        decoded = decode_canonical(lines)
        declined.append(decoded is None)
        return decoded

    monkeypatch.setattr(simulate, "_decode_canonical", spy)
    canonical = read_event_log(path)
    assert declined and not any(declined)
    assert canonical == line_by_line
    assert written is None or canonical == written
    assert canonical.exits
    for records, cls in ((canonical.events, AnnotationEvent),
                         (canonical.exits, ExitEvent)):
        declared = list(get_type_hints(cls).values())
        assert declared.count(bool) == 1 and set(declared) == {int, bool}
        for record in records:
            assert type(record) is cls
            assert list(map(type, record)) == declared, record


@pytest.mark.parametrize("edit", ["two records on a line, then none",
                                  "a value past its comma"])
def test_a_chunk_whose_counts_alone_add_up_is_read_line_by_line(
        tmp_path, stock_log_path, edit):
    lines = stock_log_path.read_text(encoding="utf-8").splitlines()
    body = lines[1:1 + _CHUNK_LINES]
    if edit == "two records on a line, then none":
        # The same skeleton lines and line breaks, but not one per line.
        body[3:5] = [body[3] + body[4], ""]
    else:
        body[3], moved = re.subn(r'"rank":(\d+),', r'"rank":,\1', body[3])
        assert moved == 1
    assert simulate._decode_canonical(body) is None
    path = tmp_path / "contest.jsonl"
    path.write_text("\n".join([lines[0], *body, *lines[1 + _CHUNK_LINES:]])
                    + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}:5: ")):
        read_event_log(path)


def test_the_canonical_skeletons_are_the_writers_lines_less_integers(
        tmp_path, contest_config):
    _, log = _exit_chunks_log(tmp_path, contest_config)
    lines = list(event_log_lines(log))[1:-1]
    skeletons = {re.sub(r"-?\d+|true|false", "", line).encode() + b"\n"
                 for line in lines}
    assert skeletons == {simulate._ANNOTATION_SKELETON,
                         simulate._EXIT_SKELETON}
    # The bytes the second translation deletes are the skeletons' others.
    assert (set(simulate._SKELETON_BYTES)
            == set(b"".join(skeletons)) - set(b":,}"))


@pytest.mark.parametrize("source", ["stock_log_path", "shared_log_path",
                                    "field_300_log"])
def test_canonical_json_gives_back_every_body_line_the_writer_wrote(
        request, source):
    # The reader's line pass rewrites each line it has checked this way.
    path = request.getfixturevalue(source)
    if source == "field_300_log":
        path = path[0]
    body = path.read_text(encoding="utf-8").splitlines()[1:-1]
    assert body
    for line in body:
        assert canonical_json(decode_json(line)) == line


def _records(fields):
    """Dicts with ``fields``' keys: integers negative, small or past 2**63,
    and a bool flag."""
    integers = st.one_of(st.integers(-2**70, -1), st.integers(0, 300),
                         st.integers(2**63, 2**70))
    return st.fixed_dictionaries({
        name: st.booleans() if kind.types == (bool,) else integers
        for name, kind in fields.items()})


@given(records=st.lists(st.one_of(_records(simulate._EVENT_FIELDS),
                                  _records(simulate._EXIT_FIELDS)),
                        min_size=1, max_size=12))
def test_the_canonical_decoder_gives_back_each_records_values_and_types(
        records):
    decoded = simulate._decode_canonical([canonical_json(r) for r in records])
    assert decoded is not None
    columns, exits, before = decoded
    exit_at = [k for k, r in enumerate(records) if "exit_time_ms" in r]
    annotations = [r for r in records if "exit_time_ms" not in r]
    want_columns = [[r[name] for r in annotations]
                    for name in simulate._EVENT_FIELDS]
    want_exits = [ExitEvent(*map(records[k].get, simulate._EXIT_FIELDS))
                  for k in exit_at]
    assert columns == want_columns
    assert exits == want_exits
    assert before == [k - j for j, k in enumerate(exit_at)]
    # True == 1, so equality alone does not tell a flag from an integer.
    assert ([list(map(type, c)) for c in columns]
            == [list(map(type, c)) for c in want_columns])
    assert {type(x) for x in exits} <= {ExitEvent}
    assert ([list(map(type, x)) for x in exits]
            == [list(map(type, x)) for x in want_exits])


def _one_event_log(contest_config, post_id=1, exit_rank=2) -> EventLog:
    return EventLog(
        config=contest_config(), seed=0, dispatch="windowed",
        horizon_ms=40_000, base_hazard=0.0, accuracy_floor=0.0,
        events=[AnnotationEvent(0, 0, 700, 700, post_id, 1, 1, True, 39)],
        exits=[ExitEvent(1, 2_000, exit_rank, False)],
        final_ranking=Ranking(entries=(
            RankEntry(0, 50, 1, 700), RankEntry(1, 0, 0, None))),
        counters=PostCounters(ingested=40, solved=1, dropped=0, pending=39))


@pytest.mark.parametrize("field", ["post_id", "exit_rank"])
@pytest.mark.parametrize("value", [1.5, True, "0", None])
def test_write_event_log_rejects_a_float_integer_field(tmp_path,
                                                       contest_config,
                                                       field, value):
    path = tmp_path / "contest.jsonl"
    # `%d` would write 1.5 as 1, `{:d}` True as 1, and a bare f-string "0"
    # as 0: one rule refuses each, and no file is left.
    with pytest.raises(ValueError, match="not an integer"):
        write_event_log(_one_event_log(contest_config, **{field: value}),
                        path)
    assert list(tmp_path.iterdir()) == []
    write_event_log(_one_event_log(contest_config), path)
    text = path.read_text(encoding="utf-8")
    assert '"post_id":1,' in text and '"rank":2,' in text


def test_a_numpy_integer_field_writes_as_an_int(tmp_path, contest_config):
    as_int, as_numpy = tmp_path / "int.jsonl", tmp_path / "numpy.jsonl"
    write_event_log(_one_event_log(contest_config), as_int)
    write_event_log(_one_event_log(contest_config, post_id=np.int64(1),
                                   exit_rank=np.int32(2)), as_numpy)
    assert as_numpy.read_bytes() == as_int.read_bytes()


@pytest.mark.parametrize("line, key, value", [
    *[("annotation", key, value) for key, value in [
        ("worker_id", 1.5), ("event_index", "0"), ("event_time_ms", True),
        ("holding_time_ms", 2.0), ("post_id", 1.5),
        ("annotated_count", None), ("rank", "3"), ("rank", True),
        ("rank", 1.0), ("eligible", 1), ("eligible", "true")]],
    *[("exit", key, value) for key, value in [
        ("worker_id", True), ("exit_time_ms", 1.5), ("rank", "3"),
        ("rank", 1e3), ("eligible", 0), ("eligible", 1)]],
    *[("trailer", key, value) for key, value in [
        ("worker_id", "0"), ("score", 1.5), ("annotations", True),
        ("last_scored_ms", 2.5), ("last_scored_ms", False)]],
])
def test_read_event_log_rejects_a_wrong_typed_field(tmp_path, make_posts,
                                                   line, key, value):
    log, _ = _exit_heavy_run(make_posts)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    marker = {"annotation": '"holding_time_ms"', "exit": '"exit_time_ms"',
              "trailer": '"final_ranking"'}[line]
    i = next(i for i, text in enumerate(lines) if marker in text)
    record = json.loads(lines[i])
    (record["final_ranking"][-1] if line == "trailer" else record)[key] = value
    lines[i] = _canonical(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{path}:{i + 1}: {key} must be ")):
        read_event_log(path)


# Per record kind: how to find its first line, how to add a key to that
# line's record, and the key named.  An annotation that also carries
# ``exit_time_ms`` reads as an exit line whose other keys are unknown.
_EXTRA_KEYS = {
    "annotation": ('"holding_time_ms"', lambda r: r.update(x=1), "x"),
    "exit": ('"exit_time_ms"', lambda r: r.update(x=1), "x"),
    "trailer row": ('"final_ranking"',
                    lambda r: r["final_ranking"][-1].update(x=1), "x"),
    "trailer": ('"final_ranking"', lambda r: r.update(x=1), "x"),
    "exit key on an annotation": (
        '"holding_time_ms"',
        lambda r: r.update(exit_time_ms=r["event_time_ms"]),
        "annotated_count"),
    "corpus line": ('"token_count"', lambda r: r.update(x=5), "x"),
}


@pytest.mark.parametrize("kind", _EXTRA_KEYS)
def test_every_reader_refuses_a_key_no_record_has(tmp_path, make_posts,
                                                  kind):
    marker, add_key, named = _EXTRA_KEYS[kind]
    log, posts = _exit_heavy_run(make_posts)
    path = tmp_path / "records.jsonl"
    if kind == "corpus line":
        write_corpus(posts, path)
        read = read_corpus
    else:
        write_event_log(log, path)
        read = read_event_log
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, text in enumerate(lines) if marker in text)
    record = json.loads(lines[i])
    add_key(record)
    lines[i] = _canonical(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{path}:{i + 1}: unknown key \"{named}\"") + "$"):
        read(path)


def test_read_event_log_accepts_a_never_scored_worker(tmp_path,
                                                      contest_config,
                                                      make_posts,
                                                      make_profiles):
    config = contest_config(n_workers=1, n_posts=30, arrival_rate=0.5)
    # Every post is empty, so no annotation scores.
    log = run_contest(config, make_profiles(1), make_posts(30, expected=0),
                      seed=4)
    assert log.final_ranking.entries[0].tie_break_stamp is None
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    assert read_event_log(path) == log


# A log whose body spans two decode chunks, with exits.
_MUTATION_CONFIG = dict(n_workers=8, n_posts=800, window_size=20,
                        task_unit_time_s=5.0, task_unit_size=5,
                        arrival_rate=4.0, reward_spread=2, prize_value=1.0,
                        base_points=10, leaderboard_k=3, quality_constraint=0,
                        reduction_rate=2.0)


@pytest.fixture(scope="module")
def mutation_log(tmp_path_factory):
    config = ContestConfig(**_MUTATION_CONFIG)
    profiles = [WorkerProfile(id=i, skill=0.5, lambda_in=1.2, lambda_out=1.0,
                              exit_threshold=1.0) for i in range(8)]
    posts = [Post(id=i, token_count=10, expected_entities=i % 3)
             for i in range(800)]
    log = run_contest(config, profiles, posts, seed=2, base_hazard=0.5)
    lines = list(event_log_lines(log))
    assert len(lines) - 2 > _CHUNK_LINES and log.exits
    return tmp_path_factory.mktemp("mutations") / "contest.jsonl", lines


def _named_line(path, exc: ConfigurationError) -> int:
    found = re.match(re.escape(f"{path}:") + r"(\d+): ", str(exc))
    assert found, str(exc)
    return int(found.group(1))


def _leaves(obj, trail=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, trail + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, trail + (i,))
    else:
        yield trail


_MUTATIONS = ("delete", "duplicate", "split", "split at a comma", "join",
              "join with a comma", "1,2", "swap a value", "truncate",
              "respace", "reorder keys", "negate a value", "retype a value",
              "drop a key", "add a key", "move a value past its comma")

# Raw values that no integer field takes, and that a flag does not.
_NOT_AN_INTEGER = ("true", "false", "1.0", "1e3", "-2.5", "007", "-", "null",
                   '"1"')
_NOT_A_FLAG = ("1", "0", "null", '"true"')


def _mutation(lines, kind, k, data):
    """Mutate 1-based line ``k`` of ``lines`` by ``kind``.

    Returns ``(new, used, named, must_fail)``: ``new`` replaces the ``used``
    lines from line ``k`` on; ``named`` holds the lines of the mutated file
    that a rejection may name; ``must_fail`` is set when a mutated line no
    longer holds one JSON value, or holds a body value of the wrong type.
    """
    i = k - 1
    line = lines[i]
    if kind == "delete":
        return [], 1, range(k - 1, len(lines)), False
    if kind == "duplicate":
        return [line, line], 1, {k, k + 1}, False
    if kind == "split":
        cut = data.draw(st.integers(1, len(line) - 1), label="cut")
        return [line[:cut], line[cut:]], 1, {k}, True
    if kind == "split at a comma":
        # A comma turned into a line break: the halves rejoin on a comma.
        commas = [j for j, char in enumerate(line) if char == ","]
        cut = data.draw(st.sampled_from(commas), label="comma")
        return [line[:cut], line[cut + 1:]], 1, {k}, True
    if kind.startswith("join"):
        glue = "," if "comma" in kind else ""
        return [line + glue + lines[k]], 2, {k}, True
    if kind == "1,2":
        return ["1,2"], 1, {k}, True
    if kind == "truncate":
        cut = data.draw(st.integers(0, len(line) - 1), label="cut")
        return [line[:cut]], 1, {k}, True
    # The same record, written another way: no line may be named.
    if kind == "respace":
        return [line.replace(":", ": ").replace(",", ", ")], 1, set(), False
    if kind == "reorder keys":
        record = json.loads(line)
        return ([json.dumps(dict(reversed(record.items())),
                            separators=(",", ":"))], 1, set(), False)
    if kind == "negate a value":  # a field that the reader does not check
        fields = [found for found in re.finditer(r'"(\w+)":(\d+)', line)
                  if found.group(1) in ("annotated_count", "post_id", "rank")]
        if fields:
            found = data.draw(st.sampled_from(fields), label="field")
            line = line[:found.start(2)] + "-" + line[found.start(2):]
        return [line], 1, set(), False
    if kind == "move a value past its comma":
        # ``"rank":,7`` holds no JSON value after its colon.
        fields = list(re.finditer(r':(-?\d+)([,}])', line))
        if not fields:
            return [line], 1, {k}, False
        found = data.draw(st.sampled_from(fields), label="field")
        return ([line[:found.start(1)] + found.group(2) + found.group(1)
                 + line[found.end(2):]], 1, {k}, True)
    if kind in ("retype a value", "drop a key", "add a key"):
        # A body line that its record's rule refuses; the header and the
        # trailer are left as they are.
        if not 1 < k < len(lines):
            return [line], 1, {k}, False
        if kind == "retype a value":
            found = data.draw(st.sampled_from(list(re.finditer(
                r'"(\w+)":(-?\d+|true|false)', line))), label="field")
            raw = data.draw(st.sampled_from(
                _NOT_A_FLAG if found.group(1) == "eligible"
                else _NOT_AN_INTEGER), label="raw")
            return ([line[:found.start(2)] + raw + line[found.end(2):]], 1,
                    {k}, True)
        record = json.loads(line)
        if kind == "add a key":
            record["x"] = 1
        else:
            del record[data.draw(st.sampled_from(sorted(record)),
                                 label="key")]
        return [_canonical(record)], 1, {k}, True
    record = json.loads(line)
    trail = data.draw(st.sampled_from(list(_leaves(record))), label="field")
    value = data.draw(st.one_of(st.floats(), st.text(max_size=4),
                                st.booleans()), label="value")
    parent = record
    for step in trail[:-1]:
        parent = parent[step]
    parent[trail[-1]] = value
    # Every body and ranking field is an integer, except the annotation and
    # exit ``eligible`` flag; the header is not typed.
    must_fail = 1 < k and not (trail == ("eligible",)
                               and isinstance(value, bool))
    return [_canonical(record)], 1, {k}, must_fail


def _read_mutated(path, mutated, named, must_fail, note):
    """Read the mutated file; a rejection must name a line of ``named``.
    The read must match a line-by-line read: the same log, or the same
    message."""
    path.write_text("\n".join(mutated) + "\n", encoding="utf-8")
    try:
        log = read_event_log(path)
    except ConfigurationError as exc:
        assert _named_line(path, exc) in named, (note, str(exc))
        with pytest.raises(ConfigurationError) as line_by_line:
            _read_line_by_line(path)
        assert str(line_by_line.value) == str(exc), note
    else:
        assert not must_fail, note
        assert _read_line_by_line(path) == log, note


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(_MUTATIONS), data=st.data())
def test_single_line_mutations_parse_or_name_the_line(mutation_log, kind,
                                                      data):
    path, lines = mutation_log
    k = data.draw(st.integers(1, len(lines) - kind.startswith("join")),
                  label="line")
    new, used, named, must_fail = _mutation(lines, kind, k, data)
    mutated = lines[:k - 1] + new + lines[k - 1 + used:]
    _read_mutated(path, mutated, named, must_fail, (kind, k))


@settings(max_examples=300, deadline=None)
@given(kinds=st.tuples(st.sampled_from(_MUTATIONS),
                       st.sampled_from(_MUTATIONS)),
       chunk=st.integers(0, 1), data=st.data())
def test_two_mutations_in_one_chunk_parse_or_name_a_line(mutation_log, kinds,
                                                         chunk, data):
    # Two faults can cancel out in a chunk's value count: a line holding
    # two records and a record split over two lines at a comma.
    path, lines = mutation_log
    first = 2 + chunk * _CHUNK_LINES
    last = min(first + _CHUNK_LINES, len(lines) - 1) - 1
    k1 = data.draw(st.integers(first, last - 2), label="first line")
    new1, used1, named1, fail1 = _mutation(lines, kinds[0], k1, data)
    k2 = data.draw(st.integers(k1 + used1, last), label="second line")
    new2, used2, named2, fail2 = _mutation(lines, kinds[1], k2, data)
    shift = len(new1) - used1
    mutated = (lines[:k1 - 1] + new1 + lines[k1 - 1 + used1:k2 - 1] + new2
               + lines[k2 - 1 + used2:])
    named = set(named1) | {line + shift for line in named2}
    _read_mutated(path, mutated, named, fail1 or fail2, (kinds, k1, k2))


@pytest.mark.parametrize("merge", ["split at a comma", "open array"])
def test_a_doubled_line_and_two_merging_lines_are_rejected(
        tmp_path, mutation_log, merge):
    # One line holds two records joined by a comma, and two other lines
    # decode as one value: the chunk still decodes into one value per line,
    # but neither faulty line is one record on its own.
    _, lines = mutation_log
    mutated = list(lines)
    mutated[10:12] = [lines[10] + "," + lines[11]]
    if merge == "split at a comma":
        before, _, after = mutated[20].partition(",")
        mutated[20:21] = [before, after]
    else:
        # An extra key opens an array that the next line is an element of.
        mutated[20:21] = [mutated[20][:-1] + ',"x":[{"y":1}', '{"z":2}]}']
    assert len(mutated) == len(lines)
    path = tmp_path / "contest.jsonl"
    path.write_text("\n".join(mutated) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}:11: ")):
        read_event_log(path)


@settings(max_examples=200, deadline=None)
@given(blob=st.binary(max_size=300))
def test_arbitrary_bytes_parse_or_raise_configuration_error(mutation_log,
                                                            blob):
    path, _ = mutation_log
    path.write_bytes(blob)
    try:
        read_event_log(path)
    except ConfigurationError:
        pass


@settings(max_examples=200, deadline=None)
@given(body=st.lists(st.text(max_size=40), max_size=20))
def test_arbitrary_body_lines_parse_or_name_a_line(mutation_log, body):
    path, lines = mutation_log
    body = [line for text in body for line in (text.splitlines() or [""])]
    path.write_text("\n".join([lines[0], *body, lines[-1]]) + "\n",
                    encoding="utf-8")
    try:
        read_event_log(path)
    except ConfigurationError as exc:
        assert 2 <= _named_line(path, exc) <= len(body) + 2


def test_replay_detects_tampered_holding_time(contest_config, make_posts,
                                              make_profiles):
    log, posts = _windowed_log(contest_config, make_posts, make_profiles)
    e = log.events[len(log.events) // 2]
    log.events[len(log.events) // 2] = e._replace(
        holding_time_ms=e.holding_time_ms + 1)
    with pytest.raises(ContractViolation):
        replay_validate(log, posts)


@pytest.mark.parametrize("edit, message", [
    (lambda posts: posts[:-1], "expected 40 posts, got 39"),
    (lambda posts: posts + posts[:1], "expected 40 posts, got 41"),
    (lambda posts: posts[:1] + posts[:-1], "post ids must be unique"),
], ids=["one short", "one over", "a repeated id"])
def test_replay_takes_exactly_the_contest_posts(edit, message, contest_config,
                                                make_posts, make_profiles):
    log, posts = _windowed_log(contest_config, make_posts, make_profiles)
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        replay_validate(log, edit(posts))


def test_replay_detects_tampered_rank(contest_config, make_posts,
                                      make_profiles):
    log, posts = _windowed_log(contest_config, make_posts, make_profiles)
    e = log.events[-1]
    log.events[-1] = e._replace(rank_at_event=e.rank_at_event % 2 + 1,
                                eligible_at_event=(e.rank_at_event % 2) == 0)
    with pytest.raises(ContractViolation):
        replay_validate(log, posts)


def test_replay_names_the_doctored_event(tmp_path, contest_config, make_posts,
                                         make_profiles):
    log, posts = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    annotation_lines = [i for i, line in enumerate(lines)
                        if '"holding_time_ms"' in line]
    target = len(annotation_lines) // 2
    record = json.loads(lines[annotation_lines[target]])
    record["rank"] += 1
    lines[annotation_lines[target]] = json.dumps(
        record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ContractViolation) as info:
        replay_validate(read_event_log(path), posts)
    message = str(info.value)
    assert f"log.events[{target}]" in message
    assert f"worker {record['worker_id']}" in message
    assert f"event_index {record['event_index']}" in message
    assert "rank_at_event" in message


def _short_contest(contest_config, make_posts, make_profiles, dispatch):
    """A 35-post contest: four 10 s windows, so a 40000 ms horizon, when
    windowed; 35 posts at one per second, so 35000 ms, in a shared pool.
    At the seed taken, the last annotation finds no entity."""
    config = contest_config(n_posts=35)
    posts = make_posts(35)
    seed = {"windowed": 0, "shared": 5}[dispatch]
    log = run_contest(config, make_profiles(2, skill=0.5), posts, seed=seed,
                      dispatch=dispatch)
    assert log.horizon_ms == {"windowed": 40000, "shared": 35000}[dispatch]
    return log, posts


@pytest.mark.parametrize("dispatch", ["windowed", "shared"])
def test_replay_rejects_a_horizon_apart_from_the_config(
        dispatch, contest_config, make_posts, make_profiles):
    log, posts = _short_contest(contest_config, make_posts, make_profiles,
                                dispatch)
    replay_validate(log, posts)
    right = log.horizon_ms
    for horizon in (7 * right, right - 1):
        with pytest.raises(ConfigurationError) as info:
            replay_validate(dataclasses.replace(log, horizon_ms=horizon),
                            posts)
        assert str(info.value) == (f"horizon_ms {horizon} != {right} from "
                                   f"the config and {dispatch} dispatch")
    # The other mode's rule gives the other horizon.
    other = "shared" if dispatch == "windowed" else "windowed"
    with pytest.raises(ConfigurationError,
                       match=f"^horizon_ms {right} != .* and {other} "):
        replay_validate(dataclasses.replace(log, dispatch=other), posts)


@pytest.mark.parametrize("bad, message", [
    (dict(dispatch="bogus"), 'unknown dispatch mode "bogus"'),
    (dict(base_hazard=-5.0), "base_hazard must be finite and >= 0, got -5.0"),
], ids=["dispatch", "hazard"])
def test_replay_rejects_run_arguments_that_run_contest_refuses(
        bad, message, contest_config, make_posts, make_profiles):
    log, posts = _short_contest(contest_config, make_posts, make_profiles,
                                "shared")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        replay_validate(dataclasses.replace(log, **bad), posts)


@pytest.mark.parametrize("dispatch", ["windowed", "shared"])
def test_replay_rejects_an_annotation_after_the_horizon(
        dispatch, contest_config, make_posts, make_profiles):
    # The moved annotation scores nothing, so every score, rank and
    # trailer row stays as it was.
    log, posts = _short_contest(contest_config, make_posts, make_profiles,
                                dispatch)
    assert not log.exits
    e = log.events[-1]
    assert e.annotated_count == 0
    shift = log.horizon_ms + 1 - e.event_time_ms
    log.events[-1] = e._replace(event_time_ms=e.event_time_ms + shift,
                                holding_time_ms=e.holding_time_ms + shift)
    with pytest.raises(ContractViolation) as info:
        replay_validate(log, posts)
    assert str(info.value) == (
        f"log.events[{len(log.events) - 1}] (worker {e.worker_id}, "
        f"event_index {e.event_index}): event after the horizon "
        f"{log.horizon_ms} ms")


def test_replay_rejects_a_post_annotated_twice(stock_log_path):
    # The engine never deals one post twice.  Events 0 and 1 of the stock
    # contest annotate posts 110 and 130, which hold one entity each, so
    # pointing event 1 at post 110 leaves every score as it was.
    log = read_event_log(stock_log_path)
    posts = generate_corpus(log.config.n_posts, 1.2, seed=0)
    first, second = log.events[:2]
    assert (first.post_id, second.post_id) == (110, 130)
    assert posts[110].expected_entities == posts[130].expected_entities
    replay_validate(log, posts)
    log.events[1] = second._replace(post_id=110)
    with pytest.raises(ContractViolation) as info:
        replay_validate(log, posts)
    assert str(info.value) == (
        f"log.events[1] (worker {second.worker_id}, event_index "
        f"{second.event_index}): post 110 annotated twice")


@pytest.mark.parametrize("log_path, pos, true_count", [
    ("stock_log_path", 3, 3), ("shared_log_path", 5, 2)])
def test_replay_rejects_a_count_the_count_rule_cannot_give(
        request, log_path, pos, true_count):
    # A miss of 1 becomes a miss of 99, which no perturbation reaches.
    log = read_event_log(request.getfixturevalue(log_path))
    posts = generate_corpus(log.config.n_posts, 1.2, seed=0)
    event = log.events[pos]
    assert event.annotated_count == 1
    assert posts[event.post_id].expected_entities == true_count
    replay_validate(log, posts)
    log.events[pos] = event._replace(annotated_count=99)
    with pytest.raises(ContractViolation, match=re.escape(
            f"log.events[{pos}] (worker {event.worker_id}, event_index "
            f"{event.event_index}): annotated_count 99 is neither the true "
            f"count {true_count} nor a miss of it")):
        replay_validate(log, posts)


# The replay does not check the deal (ROADMAP item 11), so the tamper
# below, which leaves every score as it was, passes today.  Only
# `pytest.raises` failing counts as the expected failure: a drifted
# precondition fails the test.
_REPLAY_GAP = pytest.mark.xfail(
    strict=True, raises=pytest.fail.Exception,
    reason="replay does not check the deal")


@_REPLAY_GAP
@pytest.mark.parametrize("log_path, pos, times_ms", [
    ("stock_log_path", 1276, (49, 78465)),
    ("shared_log_path", 1516, (49, 71976))])
def test_replay_rejects_posts_swapped_between_workers(request, log_path,
                                                      pos, times_ms):
    # Event 0 takes a post that, by the deal, only a later event could.
    log = read_event_log(request.getfixturevalue(log_path))
    posts = generate_corpus(log.config.n_posts, 1.2, seed=0)
    first, later = log.events[0], log.events[pos]
    assert (first.event_time_ms, later.event_time_ms) == times_ms
    assert (posts[first.post_id].expected_entities
            == posts[later.post_id].expected_entities)
    replay_validate(log, posts)
    log.events[0] = first._replace(post_id=later.post_id)
    log.events[pos] = later._replace(post_id=first.post_id)
    with pytest.raises(ContractViolation):
        replay_validate(log, posts)


# Header-only rules: a header whose hazard or floor the body's exits or
# misses could not come from.

def test_replay_rejects_exits_at_base_hazard_zero(hazard_log_path):
    log = read_event_log(hazard_log_path)
    posts = generate_corpus(log.config.n_posts, 1.2, seed=0)
    assert len(log.exits) == 15
    replay_validate(log, posts)
    log.base_hazard = 0.0
    with pytest.raises(ContractViolation, match=re.escape(
            "log.exits[0] (worker 15, exit_time_ms 12000): exit at "
            "base_hazard 0")):
        replay_validate(log, posts)


@pytest.mark.parametrize("accuracy_floor", [1.0, 3.5])
def test_replay_rejects_misses_at_an_accuracy_floor_of_one(stock_log_path,
                                                          accuracy_floor):
    log = read_event_log(stock_log_path)
    posts = generate_corpus(log.config.n_posts, 1.2, seed=0)
    misses = [i for i, e in enumerate(log.events)
              if e.annotated_count != posts[e.post_id].expected_entities]
    assert len(misses) == 596 and misses[0] == 0
    replay_validate(log, posts)
    log.accuracy_floor = accuracy_floor
    first = log.events[0]
    truth = posts[first.post_id].expected_entities
    with pytest.raises(ContractViolation, match=re.escape(
            f"log.events[0] (worker {first.worker_id}, event_index 0): "
            f"annotated_count {first.annotated_count} != true count "
            f"{truth} at accuracy_floor {accuracy_floor}")):
        replay_validate(log, posts)


@pytest.mark.parametrize("accuracy_floor", [-1.0, -3.5])
def test_replay_rejects_hits_at_an_accuracy_floor_of_minus_one(
        stock_log_path, accuracy_floor):
    # Skill lies in [0, 1], so at a floor of -1 or less every draw misses,
    # and a miss on a non-empty post never lands on its true count.
    log = read_event_log(stock_log_path)
    posts = generate_corpus(log.config.n_posts, 1.2, seed=0)
    pos, hit = next((i, e) for i, e in enumerate(log.events)
                    if e.annotated_count
                    == posts[e.post_id].expected_entities > 0)
    replay_validate(log, posts)
    log.accuracy_floor = accuracy_floor
    with pytest.raises(ContractViolation, match=re.escape(
            f"log.events[{pos}] (worker {hit.worker_id}, event_index "
            f"{hit.event_index}): annotated_count {hit.annotated_count} is "
            f"the true count at accuracy_floor {accuracy_floor}")):
        replay_validate(log, posts)


def _after_first_exit(log):
    """Position of the first event after the first exit."""
    return next(i for i, e in enumerate(log.events)
                if e.event_time_ms > log.exits[0].exit_time_ms)


@pytest.mark.parametrize("pos, tamper, what", [
    (9, lambda e, log: e._replace(event_index=e.event_index + 1),
     "event_index != replay {old.event_index}"),
    (9, lambda e, log: e._replace(event_time_ms=0),
     "event log is not globally time-sorted"),
    (_after_first_exit,
     lambda e, log: e._replace(worker_id=log.exits[0].worker_id),
     "annotated after exiting"),
    (9, lambda e, log: e._replace(eligible_at_event=not e.eligible_at_event),
     "eligibility flag inconsistent"),
    # The first event, at the clock's start: the holding-time recursion
    # holds, but no holding time is 0 ms.
    (0, lambda e, log: e._replace(event_time_ms=0, holding_time_ms=0),
     "holding_time_ms must be a positive integer"),
    (9, lambda e, log: e._replace(
        annotations_remaining=e.annotations_remaining + 1),
     "annotations_remaining countdown broken"),
], ids=["event index", "time order", "after exit", "eligibility",
        "holding time", "countdown"])
def test_replay_names_a_tampered_event(spread_two_contest, pos, tamper, what):
    log, posts = spread_two_contest()
    replay_validate(log, posts)
    if callable(pos):
        pos = pos(log)
    old = log.events[pos]
    e = log.events[pos] = tamper(old, log)
    with pytest.raises(ContractViolation) as info:
        replay_validate(log, posts)
    assert str(info.value) == (f"log.events[{pos}] (worker {e.worker_id}, "
                               f"event_index {e.event_index}): "
                               + what.format(old=old))


def test_replay_checks_the_solved_counter(spread_two_contest):
    # Moving a post from dropped to solved keeps the conservation sum.
    log, posts = spread_two_contest()
    c = log.counters
    log.counters = dataclasses.replace(c, solved=c.solved + 1,
                                       dropped=c.dropped - 1)
    with pytest.raises(ContractViolation,
                       match="^solved counter disagrees with event count$"):
        replay_validate(log, posts)


def _doctor_trailer(rows, kind):
    if kind == "order":
        rows[0], rows[1] = rows[1], rows[0]
    elif kind == "stamp":
        rows[1]["last_scored_ms"] += 1
    else:
        rows[1][kind] += 1


@pytest.mark.parametrize("kind, position", [
    ("order", 0), ("stamp", 1), ("score", 1), ("annotations", 1)],
    ids=["order", "stamp", "score", "annotations"])
def test_replay_names_a_bad_trailer(tmp_path, contest_config, make_posts,
                                    make_profiles, kind, position):
    log, posts = _windowed_log(contest_config, make_posts, make_profiles)
    path = tmp_path / "contest.jsonl"
    write_event_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    trailer = json.loads(lines[-1])
    rows = trailer["final_ranking"]
    assert all(r["last_scored_ms"] is not None for r in rows)
    assert rows[0]["score"] != rows[1]["score"]
    _doctor_trailer(rows, kind)
    lines[-1] = _canonical(trailer)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    doctored = read_event_log(path)
    replay_validate(log, posts)
    with pytest.raises(ContractViolation) as info:
        replay_validate(doctored, posts)
    worker = rows[position]["worker_id"]
    assert str(info.value).startswith(
        f"final_ranking[{position}] (worker {worker}): ")

# --- replay validation of exit lines ------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_replay_accepts_the_engine_exits(spread_two_contest, seed):
    # Seed 6 has two exits at one checkpoint.
    log, posts = spread_two_contest(seed)
    assert log.exits
    replay_validate(log, posts)


def _with_exit(exits, i, **changes):
    return [x._replace(**changes) if k == i else x
            for k, x in enumerate(exits)]


@pytest.mark.parametrize("tamper, position, what", [
    (lambda xs: _with_exit(xs, 0, exit_time_ms=12001), 0,
     "exit_time_ms is not a checkpoint time"),
    (lambda xs: _with_exit(xs, 0, rank_at_exit=5), 0,
     "rank_at_exit 5 != replay 6"),
    (lambda xs: _with_exit(xs, 0, eligible_at_exit=True), 0,
     "eligibility flag inconsistent"),
    # Rank 2 is inside the spread of 2, so a false flag there is wrong.
    (lambda xs: _with_exit(xs, 0, rank_at_exit=2), 0,
     "eligibility flag inconsistent"),
    (lambda xs: xs + [xs[-1]._replace(exit_time_ms=60000)], 4,
     "worker 0 exits more than once"),
    (lambda xs: [xs[1], xs[0], *xs[2:]], 1, "exits out of time order"),
    (lambda xs: _with_exit(xs, 0, exit_time_ms=12001, rank_at_exit=1), 0,
     "exit_time_ms is not a checkpoint time"),
    (lambda xs: _with_exit(xs, 3, rank_at_exit=4), 3,
     "rank_at_exit 4 != replay 3"),
    (lambda xs: _with_exit(xs, 0, worker_id=6), 0,
     "worker not in the contest"),
    # The leader at the horizon, at its true rank: only the place of the
    # exit is wrong, since the hazard is 0 inside the spread.
    (lambda xs: xs + [ExitEvent(5, 60000, 1, True)], 4,
     "exit inside the reward spread"),
], ids=["time", "rank", "flag", "flag at the spread", "repeat", "order",
        "time, rank and flag",
        "last rank", "stranger", "inside the spread"])
def test_replay_names_a_bad_exit(spread_two_contest, tamper, position,
                                 what):
    log, posts = spread_two_contest()
    assert [x[:2] for x in log.exits] == [(4, 12000), (2, 33000), (3, 45000),
                                          (0, 51000)]
    assert log.final_ranking.entries[0].worker_id == 5
    log = dataclasses.replace(log, exits=tamper(log.exits))
    with pytest.raises(ContractViolation) as info:
        replay_validate(log, posts)
    assert str(info.value) == _exit_message(log, position, what)


def _exit_message(log, position, what):
    x = log.exits[position]
    return (f"log.exits[{position}] (worker {x.worker_id}, exit_time_ms "
            f"{x.exit_time_ms}): {what}")


def _passed_on_its_exit_ms(rank_at_exit: int) -> tuple[EventLog, list]:
    """A 4-worker, spread-1 log (log, posts) whose worker 1 exits at
    2000 ms with ``rank_at_exit``: worker 0 scores at 500 ms, worker 3
    exits at 1000 ms, and worker 2 scores at 2000 ms, passing worker 1 from
    rank 2 to rank 3.  No annotation falls between the two exits."""
    config = ContestConfig(n_workers=4, n_posts=4, window_size=4,
                           task_unit_time_s=20.0, task_unit_size=1,
                           arrival_rate=0.1, reward_spread=1, prize_value=1.0,
                           base_points=10, leaderboard_k=3,
                           quality_constraint=0, reduction_rate=2.0)
    log = EventLog(
        config=config, seed=0, dispatch="windowed", horizon_ms=20_000,
        base_hazard=DEFAULT_BASE_HAZARD, accuracy_floor=0.0,
        events=[AnnotationEvent(0, 0, 500, 500, 0, 1, 1, True, 3),
                AnnotationEvent(2, 0, 2_000, 2_000, 1, 1, 3, False, 2)],
        exits=[ExitEvent(3, 1_000, 4, False),
               ExitEvent(1, 2_000, rank_at_exit, False)],
        final_ranking=Ranking(entries=(
            RankEntry(0, 50, 1, 500), RankEntry(2, 50, 1, 2_000),
            RankEntry(1, 0, 0, None), RankEntry(3, 0, 0, None))),
        counters=PostCounters(ingested=4, solved=2, dropped=2, pending=0))
    posts = [Post(id=i, token_count=10, expected_entities=1) for i in range(4)]
    return log, posts


def test_an_exit_is_ranked_after_the_annotations_on_its_own_millisecond():
    log, posts = _passed_on_its_exit_ms(rank_at_exit=3)
    replay_validate(log, posts)
    log, posts = _passed_on_its_exit_ms(rank_at_exit=2)
    with pytest.raises(ContractViolation) as info:
        replay_validate(log, posts)
    assert str(info.value) == _exit_message(log, 1, "rank_at_exit 2 != replay 3")


def test_replay_rejects_exits_at_one_checkpoint_out_of_worker_id_order(
        spread_two_contest):
    log, posts = spread_two_contest(6)
    assert [x[:2] for x in log.exits] == [(4, 18000), (3, 30000), (5, 30000)]
    log.exits[1:] = log.exits[:0:-1]
    with pytest.raises(ContractViolation) as info:
        replay_validate(log, posts)
    assert str(info.value) == _exit_message(
        log, 2, "exits at one checkpoint out of worker-id order")


@pytest.mark.parametrize("order, ok", [
    ((3, 1, 2), True), ((2, 3, 1), True), ((3, 2, 1), False)],
    ids=["3 1 2", "2 3 1", "3 2 1"])
def test_replay_counts_worker_id_descents_against_shared_checkpoints(
        order, ok, make_posts, make_profiles, contest_config):
    # A 10 ms horizon puts two checkpoints on its last millisecond, so the
    # exits there may come from two checkpoints: two rising runs of ids.
    # The hazard is positive, since replay refuses any exit at 0; the
    # profiles' zero exit thresholds keep the run itself free of exits.
    config = contest_config(n_workers=4, n_posts=4, window_size=4,
                            task_unit_time_s=0.01, task_unit_size=1,
                            arrival_rate=400.0)
    posts = make_posts(4)
    log = run_contest(config, make_profiles(4, lambda_in=1e-3,
                                            lambda_out=1e-3),
                      posts, seed=0, base_hazard=1.0)
    assert log.horizon_ms == 10 and not log.events
    assert simulate.checkpoint_times(10).count(10) == 2
    # No one annotates, so worker w holds rank w + 1 throughout.
    log.exits = [ExitEvent(w, 10, w + 1, False) for w in order]
    if ok:
        replay_validate(log, posts)
    else:
        with pytest.raises(ContractViolation) as info:
            replay_validate(log, posts)
        assert str(info.value) == _exit_message(
            log, 2, "exits at one checkpoint out of worker-id order")
