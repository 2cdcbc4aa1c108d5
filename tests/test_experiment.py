"""Config parsing, corpus/profile generation, summaries, statistics, sweeps."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import contestsim.experiment as experiment
from contestsim import (AnnotationEvent, ConfigurationError, ContestError,
                        ContestSummary, ContractViolation, DegenerateDataError,
                        EventLog, Post, PostCounters, RankEntry, Ranking,
                        SweepResult, anova_f, emit_outputs, generate_corpus,
                        generate_profiles, parse_experiment_config, read_corpus,
                        read_event_log, read_experiment_config, run_condition,
                        sign_test_one_sided, summarize, sweep,
                        trend_from_summaries, verify_manifest, write_corpus,
                        write_event_log, write_fitted)
from contestsim import rng as streams
from contestsim.cli import main
from contestsim.inference import fit_two_state
from contestsim.rng import substream
from contestsim.simulate import checkpoint_times

MINIMAL = """\
config_version = 1
n_workers = 4
n_posts = 40

# dispatch geometry
window_size = 10
task_unit_time_s = 5.0
task_unit_size = 5
arrival_rate = 2.0

prize_value = 0.5
base_points = 10
quality_constraint = 0
reduction_rate = 2.0
spreads = 1,2
replications = 2
master_seed = 7
"""


def _config(**overrides):
    cfg = parse_experiment_config(MINIMAL)
    if not overrides:
        return cfg
    return cfg.__class__(**{**cfg.__dict__, **overrides})


def _summary_stub(spread, rep, total):
    return ContestSummary(
        reward_spread=spread, replication=rep, total_annotations=total,
        distinct_annotations=total, n_exits=0, active_worker_counts=(4,) * 21,
        mean_annotations_per_active=float(total),
        mean_annotation_time_s_per_entity=1.0, top1_annotations=total,
        top10_annotations=total, winners=(0,), payout_total=0.5,
        duration_ms=1000)


# --- configuration files -----------------------------------------------------

def test_parse_fills_defaults_and_reads_values():
    cfg = _config()
    assert cfg.n_workers == 4
    assert cfg.spreads == (1, 2)
    assert cfg.task_unit_time_s == 5.0
    assert cfg.leaderboard_k == 3
    assert cfg.dispatch == "windowed"
    assert cfg.tie_rates is False
    assert cfg.base_hazard == 0.06
    assert cfg.corpus == "generate"
    assert cfg.output_dir == "out"


def test_parse_reads_optional_keys():
    cfg = parse_experiment_config(
        MINIMAL + "tie_rates = true\nbase_hazard = 0.0\ndispatch = shared\n")
    assert cfg.tie_rates is True
    assert cfg.base_hazard == 0.0
    assert cfg.dispatch == "shared"


# Every `ExperimentConfig` field, each away from its default.
EVERY_KEY = """\
config_version=1
n_workers=5
n_posts=30
window_size=12
task_unit_time_s=4.5
task_unit_size=6
arrival_rate=1.5
prize_value=0.75
base_points=8
quality_constraint=1
reduction_rate=3.0
spreads=1,2,4
replications=3
master_seed=11
leaderboard_k=2
gamma_shape=4.5
gamma_rate=3.0
halfnormal_sigma=0.25
base_hazard=0.1
accuracy_floor=0.5
mean_entities=2.5
corpus=posts.jsonl
dispatch=shared
tie_rates=true
output_dir=results
"""


def test_a_config_file_sets_every_field(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(EVERY_KEY, encoding="utf-8")
    assert dataclasses.asdict(read_experiment_config(path)) == {
        "config_version": 1, "n_workers": 5, "n_posts": 30, "window_size": 12,
        "task_unit_time_s": 4.5, "task_unit_size": 6, "arrival_rate": 1.5,
        "prize_value": 0.75, "base_points": 8, "quality_constraint": 1,
        "reduction_rate": 3.0, "spreads": (1, 2, 4), "replications": 3,
        "master_seed": 11, "leaderboard_k": 2, "gamma_shape": 4.5,
        "gamma_rate": 3.0, "halfnormal_sigma": 0.25, "base_hazard": 0.1,
        "accuracy_floor": 0.5, "mean_entities": 2.5, "corpus": "posts.jsonl",
        "dispatch": "shared", "tie_rates": True, "output_dir": "results"}


@pytest.mark.parametrize("mangle, fragment", [
    (MINIMAL + "mystery = 1\n", "unknown key"),
    (MINIMAL + "n_workers = 4\n", "duplicate key"),
    (MINIMAL.replace("master_seed = 7\n", ""), "missing required keys"),
    (MINIMAL + "just words\n", "expected key=value"),
    (MINIMAL.replace("spreads = 1,2", "spreads = "), "spreads is empty"),
    (MINIMAL.replace("n_workers = 4", "n_workers = four"),
     "must be an integer"),
    (MINIMAL + "tie_rates = maybe\n", "must be true or false"),
    (MINIMAL.replace("arrival_rate = 2.0", "arrival_rate = fast"),
     "must be a number"),
    (MINIMAL.replace("config_version = 1", "config_version = 2"),
     "unsupported config_version"),
    (MINIMAL.replace("replications = 2", "replications = 0"),
     "replications"),
    (MINIMAL.replace("spreads = 1,2", "spreads = 1,9"), "outside"),
    (MINIMAL.replace("spreads = 1,2", "spreads = 2,2"), "distinct"),
    (MINIMAL + "dispatch = catapult\n", "unknown dispatch"),
    (MINIMAL + "mean_entities = 0.0\n", "mean_entities"),
    (MINIMAL.replace("task_unit_time_s = 5.0", "task_unit_time_s = inf"),
     "task_unit_time_s must be finite"),
    (MINIMAL.replace("arrival_rate = 2.0", "arrival_rate = nan"),
     "arrival_rate must be finite"),
    (MINIMAL + "base_hazard = -inf\n", "base_hazard must be finite"),
    (MINIMAL + "gamma_rate = nan\n", "gamma_rate must be finite"),
])
def test_parse_rejects_bad_configs(mangle, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        parse_experiment_config(mangle)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "7", [1, 2]])
def test_config_holds_master_seed_to_the_seed_rule(seed):
    with pytest.raises(ConfigurationError, match="^master_seed must be a "
                       "non-negative integer, got "):
        _config(master_seed=seed)


def test_config_takes_a_numpy_master_seed():
    assert _config(master_seed=np.int64(7)) == _config(master_seed=7)


def test_contest_config_and_prior_wiring():
    cfg = _config()
    contest = cfg.contest_config(2)
    assert contest.reward_spread == 2
    assert contest.n_workers == cfg.n_workers
    assert contest.window_size == cfg.window_size
    prior = cfg.prior
    assert (prior.gamma_shape, prior.gamma_rate) == (9.0, 8.0)
    assert prior.halfnormal_sigma == 0.01


# --- corpus ------------------------------------------------------------------

def test_generated_corpus_respects_token_and_entity_bounds():
    posts = generate_corpus(500, 1.2, seed=3)
    assert len(posts) == 500
    assert [p.id for p in posts] == list(range(500))
    assert all(5 <= p.token_count <= 30 for p in posts)
    assert all(0 <= p.expected_entities <= p.token_count for p in posts)
    assert posts == generate_corpus(500, 1.2, seed=3)
    assert posts != generate_corpus(500, 1.2, seed=4)


def test_generated_corpus_hits_the_requested_entity_mean():
    posts = generate_corpus(100_000, 1.2, seed=0)
    mean = sum(p.expected_entities for p in posts) / len(posts)
    assert 1.15 <= mean <= 1.25


def test_entity_counts_are_capped_by_the_token_count():
    posts = generate_corpus(200, 200.0, seed=1)
    assert all(p.expected_entities == p.token_count for p in posts)


def test_corpus_round_trips_through_disk(tmp_path):
    posts = generate_corpus(50, 1.2, seed=9)
    path = tmp_path / "corpus.jsonl"
    write_corpus(posts, path)
    assert read_corpus(path) == posts


# sha256 of `write_corpus`'s file: the raw-word draws at mean 1.2, and the
# scalar calls at 12.5.  CI checks `contestsim gen-corpus` against them too.
PINNED_CORPORA = [
    (20_000, 1.2, 0,
     "d43317bc5fba7764aaa286622aafb18cb2ccfdda913004b59204be5a69371e9d"),
    (300, 12.5, 1,
     "e48fe819188d767e418f298b03ca62bfba80debca632c9c1b629c27be07bfd0c"),
]


@pytest.mark.parametrize("n_posts, mean_entities, seed, digest",
                         PINNED_CORPORA, ids=["draw loop", "scalar calls"])
def test_a_corpus_file_keeps_its_pinned_bytes(tmp_path, n_posts,
                                              mean_entities, seed, digest):
    path = tmp_path / "corpus.jsonl"
    write_corpus(generate_corpus(n_posts, mean_entities, seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_write_corpus_streams_its_lines(tmp_path, monkeypatch):
    chunks = []
    write_atomic = experiment.write_atomic

    def spy(path, lines):
        chunks.append(lines)
        write_atomic(path, lines)

    monkeypatch.setattr(experiment, "write_atomic", spy)
    posts = generate_corpus(5, 1.2, seed=0)
    path = tmp_path / "corpus.jsonl"
    write_corpus(posts, path)
    assert [type(c) for c in chunks] == [types.GeneratorType]
    assert read_corpus(path) == posts


@pytest.mark.parametrize("mean_entities", [1.2, 12.5],
                         ids=["draw loop", "scalar calls"])
def test_a_corpus_is_built_with_the_collector_off(collector_was_on,
                                                  monkeypatch, mean_entities):
    seen = []

    class Spy(Post):
        __slots__ = ()

        def __init__(self, *args):
            seen.append(gc.isenabled())
            super().__init__(*args)

    monkeypatch.setattr(experiment, "Post", Spy)
    posts = generate_corpus(30, mean_entities, seed=2)
    assert len(seen) == 30 and not any(seen)
    assert gc.isenabled() is collector_was_on
    monkeypatch.undo()
    assert list(map(dataclasses.astuple, posts)) == list(map(
        dataclasses.astuple, generate_corpus(30, mean_entities, seed=2)))


def test_a_corpus_draw_that_raises_leaves_the_collector_as_it_was(
        collector_was_on, monkeypatch):
    seen = []

    def failing(*args):
        seen.append(gc.isenabled())
        raise ConfigurationError("synthetic fault")

    monkeypatch.setattr(streams, "integer_poisson_draws", failing)
    with pytest.raises(ConfigurationError, match="^synthetic fault$"):
        generate_corpus(30, 1.2, seed=2)
    assert seen == [False]
    assert gc.isenabled() is collector_was_on


def test_a_corpus_line_is_the_posts_fields_in_canonical_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus([Post(id=3, token_count=17, expected_entities=2)], path)
    assert path.read_bytes() == (
        b'{"expected_entities":2,"id":3,"token_count":17}\n')


def test_generate_corpus_validation():
    with pytest.raises(ConfigurationError):
        generate_corpus(-1, 1.2, seed=0)
    with pytest.raises(ConfigurationError):
        generate_corpus(10, 0.0, seed=0)
    for mean in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="mean_entities"):
            generate_corpus(10, mean, seed=0)


@pytest.mark.parametrize("seed", [-1, (0, -1), None])
def test_generate_corpus_refuses_a_seed_as_run_contest_does(seed):
    # The seed rule's error, not numpy's bare ValueError.
    with pytest.raises(ConfigurationError, match="^seed must be a "
                       "non-negative integer or a non-empty list of them"):
        generate_corpus(10, 1.2, seed=seed)


def _scalar_corpus(n_posts, mean_entities, gen):
    """The corpus drawn with numpy's per-post scalar calls."""
    posts = []
    for i in range(n_posts):
        tokens = int(gen.integers(5, 31))
        entities = int(min(gen.poisson(mean_entities), tokens))
        posts.append(Post(id=i, token_count=tokens,
                          expected_entities=entities))
    return posts


@settings(max_examples=60, deadline=None)
@given(n_posts=st.integers(0, 300),
       mean_entities=st.one_of(st.floats(1e-3, 9.999), st.floats(10.0, 40.0),
                               st.sampled_from([1.2, 10.0, 9.999999999])),
       seed=st.one_of(st.integers(0, 2**70),
                      st.tuples(st.integers(0, 2**40), st.integers(0, 99))))
def test_generated_corpus_equals_numpys_scalar_calls(n_posts, mean_entities,
                                                     seed):
    want = _scalar_corpus(n_posts, mean_entities,
                          substream(seed, streams.CORPUS))
    assert generate_corpus(n_posts, mean_entities, seed) == want


# PCG64 steps its 128-bit state by this multiplier before each output.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def test_a_rejected_token_draw_is_redrawn_from_the_spare(monkeypatch):
    # The state after the step: the top 6 bits clear make the output hi ^ lo,
    # and equal low halves make the output's low half 0, which Lemire's draw
    # rejects; the token count then comes from the output's high half.
    hi, lo = 0x0123456789ABCDEF, 0x9ABCDEF089ABCDEF
    spare = (hi ^ lo) >> 32
    assert (hi ^ lo) & 0xFFFFFFFF == 0 and (spare * 26) & 0xFFFFFFFF >= 22

    def crafted(*_):
        gen = substream(0, streams.CORPUS)
        state = gen.bit_generator.state
        inc = state["state"]["inc"]
        before = ((hi << 64 | lo) - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128
        state["state"]["state"] = before
        gen.bit_generator.state = state
        return gen

    assert crafted().bit_generator.random_raw() == hi ^ lo
    want = _scalar_corpus(50, 1.2, crafted())
    assert want[0].token_count == 5 + ((spare * 26) >> 32)
    monkeypatch.setattr(experiment.streams, "substream", crafted)
    assert generate_corpus(50, 1.2, seed=0) == want


# --- worker profiles ----------------------------------------------------------

def test_profiles_are_deterministic_and_in_range():
    cfg = _config()
    profiles = generate_profiles(cfg, seed=5)
    assert [p.id for p in profiles] == list(range(4))
    assert profiles == generate_profiles(cfg, seed=5)
    assert profiles != generate_profiles(cfg, seed=6)
    for p in profiles:
        assert p.lambda_in > 0 and p.lambda_out > 0
        assert 0.0 <= p.skill <= 1.0
        assert 0.0 <= p.exit_threshold <= 1.0


def test_tied_rates_change_nothing_but_the_outside_rate():
    plain = generate_profiles(_config(), seed=8)
    tied = generate_profiles(_config(tie_rates=True), seed=8)
    for a, b in zip(plain, tied):
        assert b.lambda_out == b.lambda_in == a.lambda_in
        assert (b.skill, b.exit_threshold) == (a.skill, a.exit_threshold)
    assert any(a.lambda_out != a.lambda_in for a in plain)


# --- contest summaries ----------------------------------------------------------

def test_summary_reflects_the_log():
    cfg = _config()
    posts = generate_corpus(cfg.n_posts, cfg.mean_entities, seed=cfg.master_seed)
    summary, log = run_condition(cfg, 2, 0, posts)
    assert summary.reward_spread == 2
    assert summary.replication == 0
    assert summary.total_annotations == len(log.events)
    assert 0 < summary.distinct_annotations <= summary.total_annotations
    assert summary.duration_ms == log.horizon_ms
    assert summary.n_exits == len(log.exits)
    counts = summary.active_worker_counts
    assert len(counts) == 21
    assert counts[0] == cfg.n_workers
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == cfg.n_workers - summary.n_exits
    assert len(summary.winners) == min(2, cfg.n_workers)
    assert summary.payout_total == cfg.prize_value * len(summary.winners)
    entries = log.final_ranking.entries
    assert summary.top1_annotations == entries[0].annotations
    assert summary.top10_annotations == sum(e.annotations
                                            for e in entries[:10])


def test_summary_matches_its_definition_on_a_log_with_exits(
        spread_two_contest):
    log, _ = spread_two_contest(6)
    assert len(log.exits) >= 2
    summary = summarize(log, replication=3)
    events = log.events
    assert summary.distinct_annotations == len(
        {(e.post_id, e.annotated_count) for e in events}) == len(events)
    assert summary.active_worker_counts == tuple(
        log.config.n_workers - sum(1 for x in log.exits if x.exit_time_ms <= t)
        for t in (0, *checkpoint_times(log.horizon_ms)))
    seconds = sum(e.holding_time_ms for e in events) / 1000.0
    assert summary.mean_annotation_time_s_per_entity == (
        seconds / sum(e.annotated_count for e in events))


def test_summary_counts_distinct_pairs_when_a_post_repeats():
    # Post 0 twice with one count and once with another, post 1 once: four
    # annotations, three distinct (post, count) pairs.
    events = [AnnotationEvent(0, i, 100 * (i + 1), 100, post, count, 1,
                              True, 39 - i)
              for i, (post, count) in enumerate([(0, 1), (0, 1), (0, 2),
                                                 (1, 0)])]
    log = EventLog(
        config=_config().contest_config(1), seed=0, dispatch="windowed",
        horizon_ms=20_000, base_hazard=0.0, accuracy_floor=0.0,
        events=events, exits=[],
        final_ranking=Ranking(entries=(RankEntry(0, 60, 4, 300),)),
        counters=PostCounters(ingested=40, solved=4, dropped=0, pending=36))
    summary = summarize(log)
    assert (summary.total_annotations, summary.distinct_annotations) == (4, 3)
    assert summary.mean_annotation_time_s_per_entity == 0.4 / 4


def test_quality_gate_can_void_the_payout():
    cfg = _config(quality_constraint=10 ** 6)
    posts = generate_corpus(cfg.n_posts, cfg.mean_entities, seed=0)
    summary, _ = run_condition(cfg, 1, 0, posts)
    assert summary.winners == ()
    assert summary.payout_total == 0.0


def test_summary_record_maps_nan_to_null(tmp_path):
    s = dataclasses.replace(_summary_stub(1, 0, 0),
                            mean_annotations_per_active=float("nan"))
    result = SweepResult(config=_config(), summaries=(s,),
                         trend=trend_from_summaries([s]))
    paths = emit_outputs(result, tmp_path / "out")
    line = paths["summaries.jsonl"].read_text(encoding="utf-8")
    assert line == (
        '{"active_worker_counts":[' + ",".join(["4"] * 21) + '],'
        '"distinct_annotations":0,"duration_ms":1000,'
        '"mean_annotation_time_s_per_entity":1.0,'
        '"mean_annotations_per_active":null,"n_exits":0,"payout_total":0.5,'
        '"replication":0,"reward_spread":1,"top10_annotations":0,'
        '"top1_annotations":0,"total_annotations":0,"winners":[0]}\n')


# --- sign test -------------------------------------------------------------------

def test_sign_test_exact_values():
    assert sign_test_one_sided([1, 1, 1, 1, 1]) == 1 / 32
    assert sign_test_one_sided([1, 1, -1]) == 0.5
    assert sign_test_one_sided([1, 0, -1]) == 0.75
    assert sign_test_one_sided([0, 0]) == 1.0
    assert sign_test_one_sided([]) == 1.0
    assert sign_test_one_sided([-1, -2, -3]) == 1.0


def test_sign_test_matches_the_binomial_tail():
    gen = np.random.default_rng(2)
    for _ in range(20):
        diffs = gen.choice([-1.0, 1.0], size=int(gen.integers(1, 30)))
        expected = stats.binomtest(int((diffs > 0).sum()), len(diffs), 0.5,
                                   alternative="greater").pvalue
        assert sign_test_one_sided(diffs) == pytest.approx(expected,
                                                           rel=1e-12)


# --- trend detection ---------------------------------------------------------------

def test_trend_detected_for_a_clean_increase():
    summaries = [_summary_stub(1, r, 100 + r) for r in range(6)]
    summaries += [_summary_stub(5, r, 120 + r) for r in range(6)]
    summaries += [_summary_stub(10, r, 140 + r) for r in range(6)]
    trend = trend_from_summaries(summaries)
    assert trend.applicable
    assert trend.spreads == (1, 5, 10)
    assert trend.mean_total_annotations == (102.5, 122.5, 142.5)
    assert trend.strictly_increasing
    assert trend.n_pairs == 6 and trend.n_positive == 6
    assert trend.p_value == 1 / 64
    assert trend.detected


def test_trend_requires_monotone_means():
    summaries = [_summary_stub(1, r, 100) for r in range(6)]
    summaries += [_summary_stub(5, r, 90) for r in range(6)]
    summaries += [_summary_stub(10, r, 160) for r in range(6)]
    trend = trend_from_summaries(summaries)
    assert not trend.strictly_increasing
    assert not trend.detected


def test_trend_with_one_spread_is_not_applicable():
    trend = trend_from_summaries([_summary_stub(3, r, 100) for r in range(5)])
    assert not trend.applicable
    assert not trend.detected
    assert trend.n_pairs == 0


def test_trend_ties_are_dropped_not_counted():
    summaries = [_summary_stub(1, r, 100) for r in range(4)]
    summaries += [_summary_stub(10, r, 100) for r in range(4)]
    trend = trend_from_summaries(summaries)
    assert trend.n_ties == 4
    assert trend.p_value == 1.0
    assert not trend.detected


def test_trend_pairs_only_replications_both_spreads_completed():
    summaries = [_summary_stub(1, r, 100) for r in range(5)]
    summaries += [_summary_stub(10, r, 150) for r in (0, 2, 4)]
    trend = trend_from_summaries(summaries)
    assert trend.n_pairs == 3


# --- anova ----------------------------------------------------------------------

def test_anova_textbook_fixture():
    result = anova_f([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
    assert result.f_value == 13.5
    assert (result.df_between, result.df_within) == (1, 4)
    assert not result.degenerate


def test_anova_identical_data_is_degenerate_nan():
    result = anova_f([(2.0, 2.0), (2.0, 2.0)])
    assert math.isnan(result.f_value)
    assert result.degenerate


def test_anova_separated_constant_groups_is_degenerate_inf():
    result = anova_f([(1.0, 1.0), (2.0, 2.0)])
    assert result.f_value == math.inf
    assert result.degenerate


def test_anova_degeneracy_survives_a_shift():
    # Shifting all-zero groups by 0.1 leaves float residue in the
    # within-group sum of squares; the groups are still constant.
    for shift in (0.0, 0.1):
        result = anova_f([[shift, shift], [shift, shift, shift]])
        assert result.degenerate
        assert math.isnan(result.f_value)
    # The values differ, but every squared deviation underflows to zero.
    result = anova_f([[0.0, 1e-200], [1.0, 1.0]])
    assert result.degenerate
    assert result.f_value == float("inf")


def test_anova_validation():
    with pytest.raises(ConfigurationError):
        anova_f([(1.0, 2.0)])
    with pytest.raises(ConfigurationError):
        anova_f([(1.0, 2.0), ()])
    with pytest.raises(ConfigurationError):
        anova_f([(1.0,), (2.0,)])


def test_anova_matches_scipy():
    gen = np.random.default_rng(6)
    for _ in range(10):
        groups = [gen.normal(gen.normal(0, 2), 1.0,
                             size=int(gen.integers(3, 9))).tolist()
                  for _ in range(int(gen.integers(2, 5)))]
        ours = anova_f(groups).f_value
        theirs = stats.f_oneway(*groups).statistic
        assert ours == pytest.approx(theirs, rel=1e-9)


def test_anova_on_separated_noisy_groups_is_large():
    gen = np.random.default_rng(12)
    spec = ((1322.0, 100.40), (1502.0, 132.22), (1886.0, 134.35))
    groups = [gen.normal(m, sd, size=10).tolist() for m, sd in spec]
    result = anova_f(groups)
    assert 10.0 < result.f_value < 1000.0


_lattice = st.floats(-50, 50).map(lambda x: round(x, 3))


@given(groups=st.lists(st.lists(_lattice, min_size=2, max_size=6),
                       min_size=2, max_size=4),
       scale=st.floats(0.1, 10.0), shift=st.floats(-20.0, 20.0))
def test_anova_is_shift_and_scale_invariant(groups, scale, shift):
    moved = [[scale * x + shift for x in g] for g in groups]
    a, b = anova_f(groups), anova_f(moved)
    assert a.degenerate == b.degenerate
    if not a.degenerate:
        assert b.f_value == pytest.approx(a.f_value, rel=1e-6, abs=1e-9)


# --- conditions and sweeps ---------------------------------------------------------

def _corpus(cfg):
    return generate_corpus(cfg.n_posts, cfg.mean_entities,
                           seed=cfg.master_seed)


def test_run_condition_is_deterministic():
    cfg = _config()
    posts = _corpus(cfg)
    first, log_a = run_condition(cfg, 1, 3, posts)
    second, log_b = run_condition(cfg, 1, 3, posts)
    assert first == second
    assert log_a == log_b
    third, _ = run_condition(cfg, 1, 4, posts)
    assert third != first


@pytest.mark.parametrize("replication", [-1, True, 1.5, [1]])
def test_run_condition_holds_the_replication_to_the_seed_rule(replication):
    cfg = _config()
    with pytest.raises(ConfigurationError, match="^replication must be a "
                       "non-negative integer, got "):
        run_condition(cfg, 1, replication, _corpus(cfg))


def test_null_model_shares_streams_across_spreads():
    # Seeds exclude the spread, so with tied rates and no exits the event
    # totals cannot depend on the treatment.
    cfg = _config(tie_rates=True, base_hazard=0.0)
    posts = _corpus(cfg)
    for rep in range(3):
        lo, _ = run_condition(cfg, 1, rep, posts)
        hi, _ = run_condition(cfg, 2, rep, posts)
        assert lo.total_annotations == hi.total_annotations


def test_sweep_covers_every_cell():
    cfg = _config()
    result = sweep(cfg)
    assert len(result.summaries) == 4
    assert {(s.reward_spread, s.replication) for s in result.summaries} == \
        {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert result.trend.applicable


def test_sweep_rejects_a_short_corpus():
    cfg = _config()
    with pytest.raises(ConfigurationError, match="corpus"):
        sweep(cfg, posts=_corpus(cfg)[:10])


@pytest.mark.parametrize("fault", [ConfigurationError, DegenerateDataError])
def test_a_failed_cell_stops_the_sweep_and_names_its_seed_key(monkeypatch,
                                                              fault):
    real = experiment.run_condition

    def flaky(config, spread, rep, posts):
        if (spread, rep) == (2, 1):
            raise fault("synthetic fault")
        return real(config, spread, rep, posts)

    monkeypatch.setattr(experiment, "run_condition", flaky)
    with pytest.raises(fault) as info:
        experiment.sweep(_config())
    assert type(info.value) is fault
    assert str(info.value) == ("reward_spread 2, replication 1 "
                               "(seed key 7,1): synthetic fault")


@pytest.mark.parametrize("fault", [ContractViolation, ValueError, KeyError])
def test_a_bug_in_one_cell_stops_the_sweep(monkeypatch, fault):
    real = experiment.run_condition

    def buggy(config, spread, rep, posts):
        if (spread, rep) == (2, 0):
            raise fault("synthetic bug")
        return real(config, spread, rep, posts)

    monkeypatch.setattr(experiment, "run_condition", buggy)
    with pytest.raises(fault, match="synthetic bug"):
        experiment.sweep(_config())


def test_a_sweep_draws_each_replications_profiles_once(monkeypatch):
    cfg = _config(spreads=(1, 2, 3), replications=3)
    real = experiment.generate_profiles
    drawn = []

    def counting(config, seed):
        drawn.append(seed)
        return real(config, seed)

    monkeypatch.setattr(experiment, "generate_profiles", counting)
    result = experiment.sweep(cfg)
    assert drawn == [(cfg.master_seed, rep) for rep in range(3)]
    assert len(result.summaries) == 9


def test_a_sweep_equals_its_cells_run_one_by_one():
    # Spreads out of numeric order: the config's order is the output's.
    cfg = _config(spreads=(2, 1, 4), replications=3)
    posts = _corpus(cfg)
    result = sweep(cfg, posts)
    assert list(result.summaries) == [
        run_condition(cfg, spread, rep, posts)[0]
        for spread in cfg.spreads for rep in range(cfg.replications)]


def test_a_sweep_runs_replications_outer_and_files_cells_in_order(
        monkeypatch):
    cfg = _config(spreads=(1, 2, 3), replications=2)
    real = experiment.run_condition
    ran = []
    faults = {(2, 0), (1, 1)}

    def flaky(config, spread, rep, posts):
        ran.append((spread, rep))
        if (spread, rep) in faults:
            raise ConfigurationError(f"synthetic fault {spread}/{rep}")
        return real(config, spread, rep, posts)

    monkeypatch.setattr(experiment, "run_condition", flaky)
    # Cell (2, 0) is filed after (1, 1) but runs before it.
    with pytest.raises(ConfigurationError,
                       match=r"^reward_spread 2, replication 0 \(seed key "
                             r"7,0\): synthetic fault 2/0$"):
        experiment.sweep(cfg)
    assert ran == [(1, 0), (2, 0)]
    faults.clear()
    ran.clear()
    result = experiment.sweep(cfg)
    assert ran == [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]
    assert [(s.reward_spread, s.replication) for s in result.summaries] == [
        (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]


# --- the paused collector ---------------------------------------------------

def _cells_config():
    # 12 cells of 900 or more events each: more records than the young
    # generation holds, so a log left to the collector costs a pass a cell.
    return _config(n_posts=1200, spreads=(1, 2, 4), replications=4)


def test_a_sweep_takes_fewer_collector_passes_than_cells(collector_passes):
    cfg = _cells_config()
    posts = _corpus(cfg)
    result, passes = collector_passes(lambda: sweep(cfg, posts))
    assert len(result.summaries) == 12
    assert min(s.total_annotations for s in result.summaries) > 700
    assert passes < len(result.summaries)


def test_a_failed_cell_leaves_the_collector_as_it_was(collector_was_on,
                                                      monkeypatch):
    seen = []

    def failing(*args, **kwargs):
        seen.append(gc.isenabled())
        raise ConfigurationError("synthetic fault")

    monkeypatch.setattr(experiment, "run_contest", failing)
    with pytest.raises(ConfigurationError,
                       match=r"^reward_spread 1, replication 0 \(seed key "
                             r"7,0\): synthetic fault$"):
        sweep(_config())
    assert seen == [False]
    assert gc.isenabled() is collector_was_on


def test_a_sweep_with_the_collector_off_leaves_no_cyclic_garbage(
        garbage_left):
    cfg = _cells_config()
    posts = _corpus(cfg)
    result, garbage = garbage_left(lambda: sweep(cfg, posts))
    assert len(result.summaries) == 12
    assert garbage == 0


# --- writing files ---------------------------------------------------------------

def _recover(path, n):
    if main(["recover", "--target", "10", "--seeds", str(n),
             "--out", str(path)]):
        raise OSError("contestsim recover failed")


def _log(n):
    return run_condition(_config(), 1, n, _corpus(_config()))[1]


# Each writer, called with a path and a number that picks what it writes.
_WRITERS = {
    "event_log": lambda path, n: write_event_log(_log(n), path),
    "corpus": lambda path, n: write_corpus(generate_corpus(10 + n, 1.2, n),
                                           path),
    "fitted": lambda path, n: write_fitted(
        [fit_two_state(_log(0).events, worker_id=n)], path),
    "recover_out": _recover,
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_failed_write_leaves_the_old_file_and_no_temporary(
        tmp_path, monkeypatch, writer):
    write = _WRITERS[writer]
    path = tmp_path / "file"
    write(path, 0)
    before = path.read_bytes()
    staged = []

    def fail(src, dst):
        # The new text is all in a temporary file beside the target.
        assert Path(src).parent == Path(dst).parent == tmp_path
        staged.append(Path(src).read_bytes())
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        write(path, 1)
    assert staged and staged[0] != before
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


_READERS = {
    "event_log": read_event_log,
    "corpus": read_corpus,
    "experiment_config": read_experiment_config,
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("name", ["missing.jsonl", "."])
def test_a_missing_or_unreadable_input_file_names_its_path(tmp_path, reader,
                                                           name):
    path = tmp_path / name
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{path}: cannot read: ")):
        _READERS[reader](path)


def test_a_failed_emit_outputs_leaves_no_manifest(tmp_path, monkeypatch):
    result = sweep(_config())
    out = tmp_path / "out"
    emit_outputs(result, out)
    assert verify_manifest(out)
    real_replace, replaced = os.replace, []

    def fail_the_second(src, dst):
        replaced.append(Path(dst).name)
        if len(replaced) == 2:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_the_second)
    with pytest.raises(OSError, match="disk full"):
        emit_outputs(result, out)
    monkeypatch.undo()
    assert "manifest.json" not in replaced
    assert not (out / "manifest.json").exists()
    assert not any(p.name.endswith(".tmp") for p in out.iterdir())
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{out / 'manifest.json'}: ")):
        verify_manifest(out)


@pytest.mark.parametrize("text", [
    None, b"", b"not json\n", b'{"format":"other"}\n',
    b'{"format":"sweep-outputs-v1","files":[1]}\n', b"\xff\n",
])
def test_a_missing_or_garbled_manifest_names_its_path(tmp_path, text):
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_bytes(text)
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}")):
        verify_manifest(tmp_path)


def test_config_errors_name_the_line(tmp_path):
    bad = MINIMAL.replace("n_posts = 40", "n_posts = forty")
    with pytest.raises(ConfigurationError, match=re.escape(
            "<string>:3: n_posts must be an integer, got 'forty'")):
        parse_experiment_config(bad)
    path = tmp_path / "bad.cfg"
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{path}:3: n_posts must be an integer, got 'forty'")):
        read_experiment_config(path)
    # An error about the config as a whole names the file alone.
    path.write_text(MINIMAL.replace("replications = 2", "replications = 0"),
                    encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{path}: replications must be >= 1")):
        read_experiment_config(path)


# --- output files ----------------------------------------------------------------

def test_emit_outputs_writes_a_verifiable_tree(tmp_path):
    result = sweep(_config())
    paths = emit_outputs(result, tmp_path / "out")
    expected = {"sweep_table.csv", "summaries.jsonl", "exit_curves.csv",
                "trend.json", "manifest.json"}
    assert set(paths) == expected
    assert all(p.exists() for p in paths.values())
    assert verify_manifest(tmp_path / "out")
    table = paths["sweep_table.csv"].read_text(encoding="utf-8").splitlines()
    assert table[0].startswith("reward_spread,replication,")
    assert len(table) == 1 + len(result.summaries)


def test_tampering_breaks_the_manifest(tmp_path):
    result = sweep(_config())
    paths = emit_outputs(result, tmp_path / "out")
    with paths["sweep_table.csv"].open("ab") as fh:
        fh.write(b" ")
    assert not verify_manifest(tmp_path / "out")



def test_an_unlisted_output_fails_the_manifest(tmp_path):
    out = tmp_path / "out"
    emit_outputs(sweep(_config()), out)
    (out / "notes.txt").write_text("not an output\n", encoding="utf-8")
    assert verify_manifest(out)
    (out / "trajectories.csv").write_text(
        "worker_id,event_time_ms,cumulative_annotations\n", encoding="utf-8")
    assert not verify_manifest(out)
    # Writing the tree again removes it.
    emit_outputs(sweep(_config()), out)
    assert not (out / "trajectories.csv").exists()
    assert verify_manifest(out)


@pytest.mark.parametrize("fault", ["missing", "unreadable", "parent",
                                   "absolute"])
def test_a_listed_file_missing_unreadable_or_outside_fails_verification(
        tmp_path, fault):
    out = tmp_path / "out"
    emit_outputs(sweep(_config()), out)
    assert verify_manifest(out)
    listed = out / "trend.json"
    if fault in ("missing", "unreadable"):
        listed.unlink()
        if fault == "unreadable":
            listed.mkdir()
    else:
        # A true copy of a listed file, reached by a name that leaves the
        # tree, so only the name can fail it.
        outside = tmp_path / "trend.json"
        outside.write_bytes(listed.read_bytes())
        name = "../trend.json" if fault == "parent" else str(outside)
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["files"][name] = manifest["files"].pop("trend.json")
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert not verify_manifest(out)

def test_emitted_bytes_are_reproducible(tmp_path):
    cfg = _config()
    a = emit_outputs(sweep(cfg), tmp_path / "a")
    b = emit_outputs(sweep(cfg), tmp_path / "b")
    assert set(a) == set(b)
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()


def test_empty_result_emits_headers_only(tmp_path):
    result = SweepResult(config=_config(), summaries=(),
                         trend=trend_from_summaries([]))
    paths = emit_outputs(result, tmp_path / "out")
    table = paths["sweep_table.csv"].read_text(encoding="utf-8")
    assert table.count("\n") == 1
    assert paths["summaries.jsonl"].read_bytes() == b""
    curves = paths["exit_curves.csv"].read_text(encoding="utf-8").splitlines()
    assert curves[0] == "checkpoint_fraction"
    assert len(curves) == 22
    trend = json.loads(paths["trend.json"].read_text(encoding="utf-8"))
    assert trend["applicable"] is False
    assert verify_manifest(tmp_path / "out")


def test_exit_curves_start_full_and_never_rise(tmp_path):
    result = sweep(_config())
    paths = emit_outputs(result, tmp_path / "out")
    lines = paths["exit_curves.csv"].read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][0] == "0.00" and rows[-1][0] == "1.00"
    for col in range(1, len(rows[0])):
        series = [float(r[col]) for r in rows]
        assert series[0] == 1.0
        assert all(b <= a for a, b in zip(series, series[1:]))


def test_trajectories_accumulate_per_worker(tmp_path):
    cfg = _config(dispatch="shared")
    posts = _corpus(cfg)
    _, log = run_condition(cfg, 2, 0, posts)
    result = sweep(cfg)
    paths = emit_outputs(result, tmp_path / "out", trajectory_log=log)
    lines = paths["trajectories.csv"].read_text(encoding="utf-8").splitlines()
    assert lines[0] == "worker_id,event_time_ms,cumulative_annotations"
    seen: dict[int, tuple[int, int]] = {}
    for line in lines[1:]:
        wid, t, total = (int(x) for x in line.split(","))
        last_t, last_total = seen.get(wid, (0, 0))
        assert t >= last_t
        assert total == last_total + 1
        seen[wid] = (t, total)
    per_worker = {e.worker_id: e for e in log.final_ranking.entries}
    for wid, (_, total) in seen.items():
        assert per_worker[wid].annotations == total
