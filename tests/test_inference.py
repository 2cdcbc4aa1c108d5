"""Likelihood, gradient, fitting, and rate-recovery tests."""

from __future__ import annotations

import gc
import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from scipy import optimize

from contestsim import (BehaviorPrior, ConfigurationError,
                        DegenerateDataError, FeatureNorms, WorkerProfile,
                        fit_log_linear, fit_two_state, fitted_to_record,
                        negative_log_likelihood, nll_gradient,
                        read_event_log, recovery_experiment, run_contest,
                        write_fitted)
from contestsim import inference
from contestsim.core import decode_json
from contestsim.inference import (_log_linear_data, _recovery_config,
                                  _recovery_posts)

NORMS = FeatureNorms(n_workers=10, horizon_ms=20_000, n_posts=40)


def _random_chain(event_chain, gen, n, p_eligible=0.5):
    specs = []
    for _ in range(n):
        eligible = gen.random() < p_eligible
        rank = 1 if eligible else int(gen.integers(2, 11))
        specs.append((int(gen.integers(50, 3000)), eligible, rank))
    return event_chain(specs)


# --- features ---------------------------------------------------------------

def test_feature_vector_describes_the_interval_start(event_chain):
    (event,) = event_chain([(500, False, 5)], n_posts=8)
    moved = event._replace(event_time_ms=10_500)
    # Elapsed time 10,000 ms and 8 posts remaining at the interval start.
    x, _ = _log_linear_data([moved], NORMS)
    assert tuple(x[0]) == (1.0, 0.5, 0.5, 0.2, 0.0)


def _listed_data(events, norms):
    """The design matrix and holding seconds built one event at a time."""
    x = np.array([norms.vector(e.rank_at_event,
                               e.event_time_ms - e.holding_time_ms,
                               e.annotations_remaining + 1,
                               e.eligible_at_event)
                  for e in events], dtype=float)
    tau = np.array([e.holding_time_ms for e in events], dtype=float) / 1000.0
    return x, tau


def _assert_rows_are_feature_vectors(events, norms):
    for got, want in zip(_log_linear_data(events, norms),
                         _listed_data(events, norms)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_design_rows_are_feature_vectors_on_the_stock_log(stock_log_path):
    log = read_event_log(stock_log_path)
    by_worker = defaultdict(list)
    for e in log.events:
        by_worker[e.worker_id].append(e)
    norms = FeatureNorms.from_log(log)
    assert len(by_worker) == 20
    for events in by_worker.values():
        _assert_rows_are_feature_vectors(events, norms)


@pytest.mark.parametrize("p_eligible", [0.0, 1.0, 0.5],
                         ids=["never eligible", "always eligible", "mixed"])
@pytest.mark.parametrize("norms", [
    NORMS, FeatureNorms(n_workers=7, horizon_ms=19_997, n_posts=43)],
    ids=["round norms", "odd norms"])
def test_design_rows_are_feature_vectors_on_random_chains(
        event_chain, p_eligible, norms):
    gen = np.random.default_rng(71)
    for _ in range(20):
        events = _random_chain(event_chain, gen, int(gen.integers(1, 80)),
                               p_eligible)
        _assert_rows_are_feature_vectors(events, norms)


def test_feature_norms_require_positive_totals():
    for bad in (dict(n_workers=0), dict(horizon_ms=0), dict(n_posts=0),
                dict(n_workers=math.nan), dict(horizon_ms=math.inf),
                dict(n_posts=math.nan)):
        with pytest.raises(ConfigurationError,
                           match="^feature norms must be positive and finite"):
            FeatureNorms(**{**dict(n_workers=2, horizon_ms=1000, n_posts=10),
                            **bad})


# --- negative log likelihood -------------------------------------------------

def test_nll_of_a_unit_event_at_unit_rate_is_one(event_chain):
    events = event_chain([(1000, True)])
    assert negative_log_likelihood(events, (1.0, 1.0)) == 1.0


def test_nll_matches_a_direct_sum(event_chain):
    events = event_chain([(500, True), (2000, False), (250, True)])
    lam_in, lam_out = 2.0, 0.8
    expected = sum(
        -math.log(lam_in if e.eligible_at_event else lam_out)
        + (lam_in if e.eligible_at_event else lam_out) * e.holding_time_ms / 1000.0
        for e in events)
    got = negative_log_likelihood(events, (lam_in, lam_out))
    assert got == pytest.approx(expected, rel=1e-12)


def test_nll_is_additive_over_events(event_chain):
    a = event_chain([(500, True), (700, False)])
    b = event_chain([(300, False)], worker_id=1)
    whole = negative_log_likelihood(list(a) + list(b), (1.5, 1.1))
    parts = (negative_log_likelihood(a, (1.5, 1.1))
             + negative_log_likelihood(b, (1.5, 1.1)))
    assert whole == pytest.approx(parts, rel=1e-12)


def test_nll_of_an_empty_log_is_zero():
    assert negative_log_likelihood([], (1.0, 1.0)) == 0.0
    assert negative_log_likelihood([], [0.0] * 5, "log_linear", NORMS) == 0.0


def test_log_linear_nll_at_zero_theta_is_total_holding_seconds(event_chain):
    events = event_chain([(500, True), (1500, False)])
    got = negative_log_likelihood(events, [0.0] * 5, "log_linear", NORMS)
    assert got == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("rates", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
    (1.0, -math.inf)], ids=["nan in", "nan out", "inf in", "inf out",
                            "-inf out"])
def test_two_state_nll_refuses_non_finite_rates(event_chain, rates):
    events = event_chain([(1000, True), (500, False)])
    with pytest.raises(ConfigurationError, match=(
            "^two-state rates must be positive and finite, got ")):
        negative_log_likelihood(events, rates)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_linear_loss_and_gradient_refuse_a_non_finite_theta(event_chain,
                                                                 bad):
    events = event_chain([(1000, True), (500, False)])
    theta = [0.0, bad, 0.0, 0.0, 0.0]
    message = r"^theta must be finite, got \[0.0, -?(nan|inf), 0.0, 0.0, 0.0\]$"
    with pytest.raises(ConfigurationError, match=message):
        negative_log_likelihood(events, theta, "log_linear", NORMS)
    with pytest.raises(ConfigurationError, match=message):
        nll_gradient(events, theta, NORMS)


@pytest.mark.parametrize("fit", [
    lambda events: negative_log_likelihood(events, (1.0, 1.0)),
    lambda events: negative_log_likelihood(events, [0.0] * 5, "log_linear",
                                           NORMS),
    lambda events: nll_gradient(events, [0.0] * 5, NORMS),
    lambda events: fit_log_linear(events, NORMS),
], ids=["two-state loss", "log-linear loss", "gradient", "log-linear fit"])
def test_losses_and_log_linear_fit_name_the_first_non_positive_holding_time(
        event_chain, fit):
    events = event_chain([(1000, True), (500, False), (700, True),
                          (300, False)], worker_id=4)
    events[2] = events[2]._replace(holding_time_ms=0)
    events[3] = events[3]._replace(holding_time_ms=-5)
    with pytest.raises(DegenerateDataError, match=(
            r"^worker 4, event_index 2: holding_time_ms must be positive, "
            r"got 0$")):
        fit(events)


def test_nll_validation(event_chain):
    events = event_chain([(1000, True)])
    with pytest.raises(ConfigurationError):
        negative_log_likelihood(events, (0.0, 1.0))
    with pytest.raises(ConfigurationError):
        negative_log_likelihood(events, [0.0] * 5, "log_linear")
    with pytest.raises(ConfigurationError):
        negative_log_likelihood(events, [0.0] * 4, "log_linear", NORMS)
    with pytest.raises(ConfigurationError):
        negative_log_likelihood(events, (1.0, 1.0), "cubic")
    with pytest.raises(DegenerateDataError):
        bad = [events[0]._replace(holding_time_ms=0)]
        negative_log_likelihood(bad, (1.0, 1.0))


# --- gradient ----------------------------------------------------------------

def test_gradient_of_an_empty_log_is_zero():
    assert nll_gradient([], [0.0] * 5, NORMS).tolist() == [0.0] * 5


def test_gradient_hand_computed_at_zero_theta(event_chain):
    # One event, tau = 2 s, rate = 1 at theta = 0: gradient is (tau - 1) * x.
    events = event_chain([(2000, False, 5)], n_posts=8)
    g = nll_gradient(events, [0.0] * 5, NORMS)
    np.testing.assert_allclose(g, [1.0, 0.5, 0.0, 0.2, 0.0], rtol=1e-12)


def test_gradient_rejects_wrong_shape(event_chain):
    events = event_chain([(1000, True)])
    with pytest.raises(ConfigurationError):
        nll_gradient(events, [0.0] * 3, NORMS)


def test_gradient_matches_central_differences(event_chain):
    gen = np.random.default_rng(17)
    eps = 1e-5
    for _ in range(20):
        events = _random_chain(event_chain, gen, int(gen.integers(3, 30)))
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
            assert err <= 1e-6


# --- two-state fit ------------------------------------------------------------

def test_two_state_fit_is_count_over_time(event_chain):
    events = event_chain([(500, True)] * 10)
    fit = fit_two_state(events, worker_id=3)
    assert fit.lambda_in_hat == 2.0
    assert fit.lambda_out_hat is None
    assert fit.n_in == 10 and fit.n_out == 0
    assert fit.nll == pytest.approx(10 * (1.0 - math.log(2.0)), rel=1e-12)
    assert fit.converged
    assert fit.worker_id == 3


def test_two_state_fit_separates_the_states(event_chain):
    specs = [(500, True)] * 4 + [(1250, False)] * 6
    fit = fit_two_state(event_chain(specs))
    assert fit.lambda_in_hat == pytest.approx(2.0, rel=1e-12)
    assert fit.lambda_out_hat == pytest.approx(0.8, rel=1e-12)
    expected_nll = (4 * (1 - math.log(2.0)) + 6 * (1 - math.log(0.8)))
    assert fit.nll == pytest.approx(expected_nll, rel=1e-12)


def test_two_state_fit_on_nothing_is_unidentifiable():
    fit = fit_two_state([])
    assert fit.lambda_in_hat is None
    assert fit.lambda_out_hat is None
    assert not fit.converged


def test_two_state_fit_rejects_non_positive_holding(event_chain):
    events = event_chain([(1000, True), (500, False)])
    events[1] = events[1]._replace(holding_time_ms=-3)
    with pytest.raises(DegenerateDataError, match=(
            r"^worker 0, event_index 1: holding_time_ms must be positive, "
            r"got -3$")):
        fit_two_state(events)


def test_two_state_fit_agrees_with_numerical_minimization(event_chain):
    gen = np.random.default_rng(23)
    for _ in range(5):
        events = _random_chain(event_chain, gen, 40)
        fit = fit_two_state(events)
        for state, lam_hat in ((True, fit.lambda_in_hat),
                               (False, fit.lambda_out_hat)):
            subset = [e for e in events if e.eligible_at_event == state]
            if lam_hat is None:
                continue
            total_s = sum(e.holding_time_ms for e in subset) / 1000.0

            def loss(lam, n=len(subset), t=total_s):
                return -n * math.log(lam) + lam * t

            res = optimize.minimize_scalar(loss, bounds=(1e-6, 1e3),
                                           method="bounded",
                                           options={"xatol": 1e-12})
            assert lam_hat == pytest.approx(res.x, rel=1e-6)


def test_two_state_fit_rescales_with_time_units(event_chain):
    base = event_chain([(500, True)] * 4 + [(1250, False)] * 6)
    slowed = [e._replace(holding_time_ms=e.holding_time_ms * 3) for e in base]
    a, b = fit_two_state(base), fit_two_state(slowed)
    assert b.lambda_in_hat == pytest.approx(a.lambda_in_hat / 3, rel=1e-12)
    assert b.lambda_out_hat == pytest.approx(a.lambda_out_hat / 3, rel=1e-12)
    # Scaling time by c shifts the optimal loss by n log c.
    assert b.nll == pytest.approx(a.nll + 10 * math.log(3.0), rel=1e-12)


# --- log-linear fit ------------------------------------------------------------

def test_log_linear_descent_is_monotone(event_chain):
    gen = np.random.default_rng(31)
    events = _random_chain(event_chain, gen, 60)
    fit = fit_log_linear(events, NORMS, max_iters=500)
    assert len(fit.nll_history) >= 2
    assert all(b <= a for a, b in zip(fit.nll_history, fit.nll_history[1:]))
    assert fit.nll == fit.nll_history[-1]
    assert fit.n_in + fit.n_out == 60


def test_log_linear_fit_beats_the_flat_start(event_chain):
    gen = np.random.default_rng(37)
    events = _random_chain(event_chain, gen, 60)
    fit = fit_log_linear(events, NORMS, max_iters=500)
    flat = negative_log_likelihood(events, [0.0] * 5, "log_linear", NORMS)
    assert fit.nll < flat


def test_log_linear_warm_start_is_already_stationary(event_chain):
    gen = np.random.default_rng(41)
    events = _random_chain(event_chain, gen, 40)
    first = fit_log_linear(events, NORMS, tolerance=1e-4, max_iters=50_000)
    assert first.converged
    again = fit_log_linear(events, NORMS, init_theta=first.theta_hat,
                           tolerance=1e-4, max_iters=50_000)
    assert again.converged
    assert again.iterations == 0
    assert again.theta_hat == first.theta_hat


def test_log_linear_converged_means_small_gradient(event_chain):
    gen = np.random.default_rng(43)
    events = _random_chain(event_chain, gen, 40)
    fit = fit_log_linear(events, NORMS, tolerance=1e-4, max_iters=50_000)
    assert fit.converged
    g = nll_gradient(events, fit.theta_hat, NORMS)
    assert float(np.max(np.abs(g))) < 1e-4


def test_log_linear_recovers_state_rates_on_eligibility_only_data(event_chain):
    # Deterministic per-state holding times make the two-state MLE exact;
    # the richer model should agree once fitted on the same data.
    specs = [(500, True), (1250, False)] * 40
    events = event_chain(specs)
    two = fit_two_state(events)
    theta = fit_log_linear(events, NORMS).theta_hat
    for state, lam_hat in ((True, two.lambda_in_hat),
                           (False, two.lambda_out_hat)):
        rates = [math.exp(sum(t * x for t, x in zip(theta, NORMS.vector(
                     e.rank_at_event, e.event_time_ms - e.holding_time_ms,
                     e.annotations_remaining + 1, state))))
                 for e in events if e.eligible_at_event == state]
        assert np.mean(rates) == pytest.approx(lam_hat, rel=0.02)


def _grad_inf_norm(events, fit):
    return float(np.max(np.abs(nll_gradient(events, fit.theta_hat, NORMS))))


def test_log_linear_converges_on_every_stock_worker(stock_log_path):
    log = read_event_log(stock_log_path)
    by_worker = defaultdict(list)
    for e in log.events:
        by_worker[e.worker_id].append(e)
    norms = FeatureNorms.from_log(log)
    assert len(by_worker) == 20
    for wid, events in sorted(by_worker.items()):
        fit = fit_log_linear(events, norms, worker_id=wid)
        grad = nll_gradient(events, fit.theta_hat, norms)
        assert fit.converged and fit.stop_reason == "converged", wid
        assert float(np.max(np.abs(grad))) < 1e-6, wid
        assert fit.iterations <= 20, wid


def test_log_linear_fit_matches_scipy_bfgs(event_chain):
    gen = np.random.default_rng(53)
    for _ in range(100):
        events = _random_chain(event_chain, gen, int(gen.integers(3, 80)))
        fit = fit_log_linear(events, NORMS)
        oracle = optimize.minimize(
            lambda th: negative_log_likelihood(events, th, "log_linear", NORMS),
            np.zeros(5), jac=lambda th: nll_gradient(events, th, NORMS),
            method="BFGS", options={"gtol": 1e-10})
        assert fit.nll == pytest.approx(oracle.fun, rel=1e-9, abs=0.0)
        assert fit.converged or (fit.stop_reason == "stalled"
                                 and _grad_inf_norm(events, fit) <= 1e-5)


def test_log_linear_never_eligible_worker_leaves_eligible_unidentified(
        event_chain):
    gen = np.random.default_rng(59)
    specs = [(int(gen.integers(50, 3000)), False, int(gen.integers(2, 11)))
             for _ in range(50)]
    start = (0.1, -0.2, 0.3, -0.4, 0.5)
    fit = fit_log_linear(event_chain(specs), NORMS, init_theta=start)
    assert fit.converged
    assert fit.stop_reason == "converged"
    assert fit.unidentified == ("eligible",)
    assert fit.theta_hat[4] == start[4]


def test_log_linear_unreachable_tolerance_is_not_reported_converged(
        event_chain):
    # No float gradient gets below 1e-300: the fit must stop on its own and
    # say why, with the loss still non-increasing.
    gen = np.random.default_rng(61)
    events = _random_chain(event_chain, gen, 60)
    fit = fit_log_linear(events, NORMS, tolerance=1e-300)
    assert not fit.converged
    assert fit.stop_reason in ("stalled", "max_iters")
    assert all(b <= a for a, b in zip(fit.nll_history, fit.nll_history[1:]))
    assert _grad_inf_norm(events, fit) < 1e-9


def test_log_linear_max_iters_is_reported(event_chain):
    gen = np.random.default_rng(67)
    events = _random_chain(event_chain, gen, 60)
    fit = fit_log_linear(events, NORMS, max_iters=1)
    assert fit.iterations == 1
    assert not fit.converged
    assert fit.stop_reason == "max_iters"


def test_log_linear_empty_log_is_reported_unconverged():
    fit = fit_log_linear([], NORMS)
    assert fit.theta_hat == (0.0,) * 5
    assert fit.nll == 0.0
    assert not fit.converged
    assert fit.stop_reason == "empty"


def test_log_linear_validation(event_chain):
    events = event_chain([(1000, True)])
    with pytest.raises(ConfigurationError):
        fit_log_linear(events, NORMS, max_iters=0)
    with pytest.raises(ConfigurationError):
        fit_log_linear(events, NORMS, tolerance=0.0)
    with pytest.raises(ConfigurationError):
        fit_log_linear(events, NORMS, init_theta=[0.0, 1.0])


@pytest.mark.parametrize("max_iters", [math.nan, 2.5, True, np.True_, "3",
                                       None, 0, -1])
def test_log_linear_fit_refuses_a_max_iters_that_is_no_positive_integer(
        event_chain, max_iters):
    # A float once failed in `range` with a bare TypeError, and True ran
    # one iteration.
    events = event_chain([(1000, True), (500, False)])
    with pytest.raises(ConfigurationError, match=(
            "^max_iters must be an integer >= 1, got ")):
        fit_log_linear(events, NORMS, max_iters=max_iters)


def test_log_linear_fit_takes_a_numpy_integer_max_iters(event_chain):
    events = event_chain([(1000, True), (500, False)])
    assert (fit_log_linear(events, NORMS, max_iters=np.int64(1))
            == fit_log_linear(events, NORMS, max_iters=1))


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_log_linear_fit_refuses_a_non_finite_tolerance(event_chain, tolerance):
    events = event_chain([(1000, True), (500, False)])
    with pytest.raises(ConfigurationError, match=(
            "^tolerance must be positive and finite, got ")):
        fit_log_linear(events, NORMS, tolerance=tolerance)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_linear_fit_refuses_a_non_finite_start(event_chain, bad):
    # A start the caller chose, not the data, is at fault.
    events = event_chain([(1000, True), (500, False)])
    with pytest.raises(ConfigurationError, match="^init_theta must be finite"):
        fit_log_linear(events, NORMS, init_theta=[bad, 0.0, 0.0, 0.0, 0.0])


# --- fitted-model serialization ---------------------------------------------

def test_fitted_models_round_trip_through_disk(tmp_path, event_chain):
    gen = np.random.default_rng(47)
    events = _random_chain(event_chain, gen, 30)
    fits = [fit_two_state(events, worker_id=0),
            fit_log_linear(events, NORMS, worker_id=1, max_iters=50)]
    path = tmp_path / "fits.jsonl"
    write_fitted(fits, path)
    loaded = [decode_json(line)
              for line in path.read_text("utf-8").splitlines()]
    assert loaded == [fitted_to_record(f) for f in fits]


def test_fit_records_carry_stop_reasons_for_log_linear_only(tmp_path,
                                                            event_chain):
    events = event_chain([(500, False, 4)] * 10)
    log_linear = fit_log_linear(events, NORMS, worker_id=0)
    two_state = fit_two_state(events, worker_id=0)
    record = fitted_to_record(log_linear)
    assert record["stop_reason"] == "converged"
    assert record["unidentified"] == ["eligible"]
    assert "stop_reason" not in fitted_to_record(two_state)
    assert "unidentified" not in fitted_to_record(two_state)
    path = tmp_path / "fits.jsonl"
    write_fitted([log_linear, two_state], path)
    loaded = decode_json(path.read_text("utf-8").splitlines()[0])
    assert loaded["stop_reason"] == "converged"
    assert loaded["unidentified"] == ["eligible"]
    assert all(isinstance(t, float) for t in loaded["theta_hat"])


def test_write_fitted_empty_list_makes_an_empty_file(tmp_path):
    path = tmp_path / "fits.jsonl"
    write_fitted([], path)
    assert path.read_text(encoding="utf-8") == ""


# --- recovery ----------------------------------------------------------------

def test_recovery_validation():
    with pytest.raises(ConfigurationError):
        recovery_experiment(None, 1, 100, [0], fixed_rates=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        recovery_experiment(None, 2, -1, [0], fixed_rates=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        recovery_experiment(None, 2, 100, [0])


@pytest.mark.parametrize("rates", [None, (1.0, 1.0)],
                         ids=["prior", "fixed rates"])
def test_recovery_refuses_a_negative_seed(rates):
    # The seed rule's error, not numpy's bare ValueError.
    with pytest.raises(ConfigurationError, match="^seed must be a "
                       "non-negative integer or a non-empty list of them"):
        recovery_experiment(BehaviorPrior(), 2, 100, [-1], fixed_rates=rates)


@pytest.mark.parametrize("seeds, message", [
    ([], "recovery needs at least one seed"),
    ([0, 1, 0], "recovery seeds must be distinct, got [0, 1, 0]"),
    (iter([3, 3]), "recovery seeds must be distinct, got [3, 3]"),
], ids=["none", "a repeat", "a repeat from an iterator"])
def test_recovery_rejects_an_empty_or_repeated_seed_list(seeds, message):
    with pytest.raises(ConfigurationError) as info:
        recovery_experiment(None, 2, 100, seeds, fixed_rates=(1.0, 1.0))
    assert str(info.value) == message


def test_recovery_checks_its_seeds_when_no_contest_runs():
    with pytest.raises(ConfigurationError, match="^seed must be a "
                       "non-negative integer or a non-empty list of them, "
                       "got -1"):
        recovery_experiment(None, 2, 0, [-1, "x"], fixed_rates=(1.0, 1.0))


def test_recovery_rows_carry_the_seed_rules_ints():
    report = recovery_experiment(None, 2, 0, [np.int64(4)],
                                 fixed_rates=(1.0, 1.0))
    assert [type(row.seed) for row in report.rows] == [int, int]


def test_recovery_refuses_a_numpy_repeat_of_a_seed():
    with pytest.raises(ConfigurationError) as info:
        recovery_experiment(None, 2, 0, [5, np.int64(5)],
                            fixed_rates=(1.0, 1.0))
    assert str(info.value) == "recovery seeds must be distinct, got [5, 5]"


def test_recovery_with_no_data_is_unidentifiable():
    report = recovery_experiment(None, 2, 0, [0, 1],
                                 fixed_rates=(1.66, 1.12))
    assert report.unidentifiable == 4
    assert math.isnan(report.mean_rel_err_in)
    assert math.isnan(report.mean_rel_err_out)


def test_recovery_pools_runs_until_the_target_is_met():
    report = recovery_experiment(None, 2, 300, [0, 1],
                                 fixed_rates=(1.66, 1.12))
    assert len(report.rows) == 4
    assert report.unidentifiable == 0
    for row in report.rows:
        assert row.n_in >= 300 and row.n_out >= 300
        assert row.runs_pooled >= 1
        assert row.rel_err_in < 0.25 and row.rel_err_out < 0.25
    assert report.mean_rel_err_in < 0.10
    assert report.mean_rel_err_out < 0.10
    # Mirrored truth keeps the pair contested.
    assert {((r.true_lambda_in, r.true_lambda_out)) for r in report.rows} == \
        {(1.66, 1.12), (1.12, 1.66)}


@pytest.mark.parametrize("prior, n_workers, target, seeds, fixed_rates", [
    (None, 4, 1000, [0, 1], (1.66, 1.12)),
    (BehaviorPrior(), 5, 300, [7, 8], None),
], ids=["fixed_rates", "prior"])
def test_recovery_fits_equal_a_fit_of_the_pooled_events(
        prior, n_workers, target, seeds, fixed_rates):
    # The pool's totals add the same floats in the same order as a fit of
    # every run's events listed per worker, so the two agree exactly.
    report = recovery_experiment(prior, n_workers, target, seeds,
                                 fixed_rates=fixed_rates)
    posts_per_run = 200 * n_workers
    config = _recovery_config(n_workers, posts_per_run)
    posts = _recovery_posts(posts_per_run)
    for seed in seeds:
        rows = [r for r in report.rows if r.seed == seed]
        assert [r.worker_id for r in rows] == list(range(n_workers))
        profiles = [WorkerProfile(id=r.worker_id, skill=1.0,
                                  lambda_in=r.true_lambda_in,
                                  lambda_out=r.true_lambda_out,
                                  exit_threshold=0.0) for r in rows]
        pooled = defaultdict(list)
        for k in range(rows[0].runs_pooled):
            log = run_contest(config, profiles, posts, seed=(seed, k),
                              dispatch="shared", base_hazard=0.0)
            for e in log.events:
                pooled[e.worker_id].append(e)
        for r in rows:
            fit = fit_two_state(pooled[r.worker_id], worker_id=r.worker_id)
            assert (r.est_lambda_in, r.est_lambda_out, r.n_in, r.n_out) == (
                fit.lambda_in_hat, fit.lambda_out_hat, fit.n_in, fit.n_out)


def test_recovery_takes_fewer_collector_passes_than_runs(collector_passes):
    # A 4-worker run logs 800 events, more records than the young
    # generation holds: a log left to the collector costs a pass a run.
    report, passes = collector_passes(lambda: recovery_experiment(
        None, 4, 500, [0], fixed_rates=(1.66, 1.12)))
    runs = report.rows[0].runs_pooled
    assert runs >= 5
    assert passes < runs


def test_a_failed_recovery_run_leaves_the_collector_as_it_was(
        collector_was_on, monkeypatch):
    seen = []

    def failing(*args, **kwargs):
        seen.append(gc.isenabled())
        raise ConfigurationError("synthetic fault")

    monkeypatch.setattr(inference, "run_contest", failing)
    with pytest.raises(ConfigurationError, match="^synthetic fault$"):
        recovery_experiment(None, 4, 500, [0], fixed_rates=(1.66, 1.12))
    assert seen == [False]
    assert gc.isenabled() is collector_was_on


def test_a_recovery_with_the_collector_off_leaves_no_cyclic_garbage(
        garbage_left):
    report, garbage = garbage_left(lambda: recovery_experiment(
        None, 4, 500, [0], fixed_rates=(1.66, 1.12)))
    assert report.rows[0].runs_pooled >= 5
    assert garbage == 0


def test_recovery_memory_does_not_grow_with_the_target():
    def peak_bytes(target):
        tracemalloc.start()
        try:
            recovery_experiment(None, 4, target, [0],
                                fixed_rates=(1.66, 1.12))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A first run makes the allocations that later runs reuse.
    recovery_experiment(None, 4, 1, [0], fixed_rates=(1.66, 1.12))
    assert peak_bytes(4000) <= 1.5 * peak_bytes(1000)


def test_recovery_error_shrinks_like_root_n():
    targets = (100, 1000, 10_000)
    seeds = range(5)
    means = []
    for target in targets:
        report = recovery_experiment(None, 2, target, seeds,
                                     fixed_rates=(1.66, 1.12))
        assert report.unidentifiable == 0
        means.append((report.mean_rel_err_in + report.mean_rel_err_out) / 2)
    slope = np.polyfit(np.log(targets), np.log(means), 1)[0]
    assert -0.8 < slope < -0.3
    assert means[0] > means[2]
