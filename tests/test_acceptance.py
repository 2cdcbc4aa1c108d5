"""Release gates: every numbered criterion the package must meet to ship.

Each test is marked with ``criterion(number, description)``; the conftest
hook prints one PASS/FAIL line per criterion at the end of the run.  The
stated tolerances and time budgets are asserted, not aspirational.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import optimize, stats

from contestsim import (AnnotationEvent, ContestConfig, WorkerProfile,
                        anova_f, fit_two_state, holding_time,
                        negative_log_likelihood, nll_gradient,
                        parse_experiment_config, read_experiment_config,
                        recovery_experiment, replay_validate, run_contest,
                        sweep, total_contest_time, warp_out_rate)
from contestsim.cli import main
from contestsim.inference import FeatureNorms

SCALED = """\
config_version=1
n_workers=20
n_posts=1520
window_size=200
task_unit_time_s=10.0
task_unit_size=10
arrival_rate=20.0
prize_value=0.10
base_points=10
quality_constraint=0
reduction_rate=10.0
spreads=1,5,10
replications=50
master_seed=0
"""

SMALL = """\
config_version=1
n_workers=4
n_posts=40
window_size=10
task_unit_time_s=5.0
task_unit_size=5
arrival_rate=2.0
prize_value=0.5
base_points=10
quality_constraint=0
reduction_rate=2.0
spreads=1,2
replications=10
master_seed=7
"""

NORMS = FeatureNorms(n_workers=10, horizon_ms=20_000, n_posts=40)


def _with(cfg, **overrides):
    return cfg.__class__(**{**cfg.__dict__, **overrides})


def _random_events(gen, n):
    events, t, remaining = [], 0, n
    for i in range(n):
        eligible = gen.random() < 0.5
        rank = 1 if eligible else int(gen.integers(2, 11))
        holding = int(gen.integers(50, 3000))
        t += holding
        remaining -= 1
        events.append(AnnotationEvent(
            worker_id=0, event_index=i, event_time_ms=t,
            holding_time_ms=holding, post_id=i, annotated_count=1,
            rank_at_event=rank, eligible_at_event=eligible,
            annotations_remaining=remaining))
    return events


@pytest.mark.criterion(1, "fixed-load contest duration is exact")
def test_contest_duration_closed_form():
    assert total_contest_time(7600, 10.0, 200) == 380.0


@pytest.mark.criterion(2, "stream-reduction speed-up is exact")
def test_warp_factor_closed_form():
    assert warp_out_rate(200, 10.0) == 199 / 190


@pytest.mark.criterion(3, "two-state rates recovered within 5% from 1000 "
                          "events per state (100 seeds, under a minute)")
def test_rate_recovery_accuracy():
    start = time.monotonic()
    report = recovery_experiment(None, 2, 1000, range(100),
                                 fixed_rates=(1.66, 1.12))
    elapsed = time.monotonic() - start
    assert report.unidentifiable == 0
    assert len(report.rows) == 200
    assert all(r.n_in >= 1000 and r.n_out >= 1000 for r in report.rows)
    assert report.mean_rel_err_in <= 0.05
    assert report.mean_rel_err_out <= 0.05
    assert elapsed < 60.0


@pytest.mark.criterion(4, "analytic gradient matches central differences to "
                          "1e-6 on 100 random instances")
def test_gradient_against_finite_differences():
    gen = np.random.default_rng(404)
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        events = _random_events(gen, int(gen.integers(3, 40)))
        theta = gen.normal(0.0, 0.5, size=5)
        analytic = nll_gradient(events, theta, NORMS)
        for k in range(5):
            shift = np.zeros(5)
            shift[k] = eps
            hi = negative_log_likelihood(events, theta + shift, "log_linear",
                                         NORMS)
            lo = negative_log_likelihood(events, theta - shift, "log_linear",
                                         NORMS)
            fd = (hi - lo) / (2.0 * eps)
            err = abs(analytic[k] - fd) / max(1.0, abs(analytic[k]), abs(fd))
            worst = max(worst, err)
    assert worst <= 1e-6


@pytest.mark.criterion(5, "closed-form two-state fit matches numerical "
                          "minimization to 1e-6 on 50 random logs")
def test_two_state_fit_against_numerical_optimum():
    gen = np.random.default_rng(505)
    for _ in range(50):
        events = _random_events(gen, int(gen.integers(10, 80)))
        fit = fit_two_state(events)
        for state, lam_hat in ((True, fit.lambda_in_hat),
                               (False, fit.lambda_out_hat)):
            if lam_hat is None:
                continue
            subset = [e for e in events if e.eligible_at_event == state]
            n, total_s = len(subset), sum(e.holding_time_ms
                                          for e in subset) / 1000.0

            def loss(lam):
                return -n * math.log(lam) + lam * total_s

            res = optimize.minimize_scalar(loss, bounds=(1e-6, 1e3),
                                           method="bounded",
                                           options={"xatol": 1e-12})
            assert abs(lam_hat - res.x) / res.x <= 1e-6


@pytest.mark.criterion(6, "holding-time sampler: mean within 1% and "
                          "distribution passes a KS test at alpha 0.01")
def test_exponential_sampler_calibration():
    gen = np.random.default_rng(606)
    rate = 0.9
    draws = holding_time(rate, gen, size=1_000_000)
    assert abs(draws.mean() - 1.0 / rate) / (1.0 / rate) < 0.01
    ks = stats.kstest(draws, "expon", args=(0.0, 1.0 / rate))
    assert ks.pvalue > 0.01


@pytest.mark.criterion(7, "mean output rises with the reward spread and the "
                          "null configuration stays flat (under 5 minutes)")
def test_reward_spread_drives_output():
    start = time.monotonic()
    cfg = parse_experiment_config(SCALED)
    result = sweep(cfg)
    trend = result.trend
    assert trend.applicable
    assert trend.strictly_increasing
    assert trend.p_value < 0.05
    assert trend.detected

    null_cfg = _with(cfg, tie_rates=True, base_hazard=0.0)
    null = sweep(null_cfg).trend
    assert not null.detected
    assert null.n_ties == null.n_pairs == 50
    assert null.p_value == 1.0
    assert time.monotonic() - start < 300.0


@pytest.mark.criterion(8, "at least 85% of workers still active at 90% of "
                          "the horizon for every spread (under 2 minutes)")
def test_participation_holds_late():
    start = time.monotonic()
    cfg = _with(parse_experiment_config(SCALED), replications=200)
    result = sweep(cfg)
    by_spread = {}
    for s in result.summaries:
        by_spread.setdefault(s.reward_spread, []).append(
            s.active_worker_counts[18] / cfg.n_workers)
    assert set(by_spread) == {1, 5, 10}
    for spread, fractions in by_spread.items():
        assert len(fractions) == 200
        assert sum(fractions) / len(fractions) >= 0.85
    assert time.monotonic() - start < 120.0


@pytest.mark.criterion(9, "variance-ratio fixture is exact and the statistic "
                          "is shift/scale invariant on 100 random sets")
def test_variance_ratio_exactness_and_invariance():
    assert anova_f([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]).f_value == 13.5
    gen = np.random.default_rng(909)
    for _ in range(100):
        groups = [gen.normal(gen.normal(0, 3), 1.0,
                             size=int(gen.integers(3, 9))).tolist()
                  for _ in range(int(gen.integers(2, 6)))]
        scale = float(gen.uniform(0.2, 5.0))
        shift = float(gen.uniform(-30.0, 30.0))
        moved = [[scale * x + shift for x in g] for g in groups]
        a, b = anova_f(groups), anova_f(moved)
        assert not a.degenerate and not b.degenerate
        assert abs(a.f_value - b.f_value) <= 1e-9 * max(1.0, a.f_value)


@pytest.mark.criterion(10, "two sweeps from one config file produce "
                           "byte-identical output trees")
def test_sweep_byte_reproducibility(tmp_path):
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(SMALL, encoding="utf-8")
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(config_path),
                 "--out-dir", str(dir_a)]) == 0
    assert main(["sweep", "--config", str(config_path),
                 "--out-dir", str(dir_b)]) == 0
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    assert names_a == names_b and names_a
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@pytest.mark.criterion(11, "post conservation and per-worker time accounting "
                           "hold in every dispatch/hazard combination")
def test_conservation_and_time_accounting(make_posts):
    config = ContestConfig(n_workers=6, n_posts=120, window_size=20,
                           task_unit_time_s=5.0, task_unit_size=5,
                           arrival_rate=4.0, reward_spread=1,
                           prize_value=1.0, base_points=10, leaderboard_k=3,
                           quality_constraint=0, reduction_rate=2.0)
    posts = make_posts(120)
    profiles = [WorkerProfile(id=i, skill=0.5, lambda_in=1.2, lambda_out=1.0,
                              exit_threshold=1.0) for i in range(6)]
    for dispatch in ("windowed", "shared"):
        for spread in (1, 2):
            for hazard in (0.0, 1.0):
                cfg = ContestConfig(**{**config.__dict__,
                                       "reward_spread": spread})
                log = run_contest(cfg, profiles, posts, seed=(spread, 17),
                                  dispatch=dispatch, base_hazard=hazard)
                c = log.counters
                assert c.ingested == 120
                assert c.solved + c.dropped + c.pending == c.ingested
                assert c.solved == len(log.events)
                for wid in range(6):
                    mine = [e for e in log.events if e.worker_id == wid]
                    if mine:
                        assert sum(e.holding_time_ms for e in mine) == \
                            mine[-1].event_time_ms
                replay_validate(log, posts)
