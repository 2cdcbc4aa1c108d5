"""Rate estimation from contest event logs.

The likelihood of a logged event sequence treats each holding time tau_j
(in seconds) as an exponential draw at rate r_j, giving the negative log
likelihood

    sum_j ( -log r_j + r_j * tau_j ).

Two rate models share that loss: a two-state model (one rate inside the
reward spread, one outside) with a closed-form maximum-likelihood solution,
and a log-linear model r_j = exp(theta . x_j) over standardized leaderboard
features.  The log-linear loss is a Poisson GLM with log exposure tau, so
its Hessian X^T diag(r * tau) X is cheap; it is fitted by damped Newton
steps (iteratively reweighted least squares) with a backtracking line
search.  Each log-linear fit records why it stopped (``stop_reason``) and
which features its data cannot identify (``unidentified``).

A fit reads the fields it needs from its events in one numpy pass
(`_event_columns`) and builds its design matrix from those columns by numpy
arithmetic, so each row equals `FeatureNorms.vector` of its event bit for
bit while ranks, times and counts are integers below 2**53.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import rng as streams
from .core import (ContestConfig, Post, WorkerProfile, canonical_json,
                   collector_paused, quote, write_atomic)
from .errors import ConfigurationError, DegenerateDataError
from .simulate import AnnotationEvent, EventLog, draw_behavior, run_contest

# Fixed, versioned feature layout for the log-linear model.
FEATURE_NAMES = ("intercept", "rank", "elapsed_time", "annotations_remaining",
                 "eligible")

DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITERS = 100
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-20


@dataclass(frozen=True)
class FeatureNorms:
    """Contest totals used to standardize features into [0, 1] ranges."""

    n_workers: int
    horizon_ms: int
    n_posts: int

    def __post_init__(self) -> None:
        if not all(1 <= total < math.inf for total in (
                self.n_workers, self.horizon_ms, self.n_posts)):
            raise ConfigurationError(
                f"feature norms must be positive and finite, got {self}")

    @classmethod
    def from_log(cls, log: EventLog) -> "FeatureNorms":
        return cls(n_workers=log.config.n_workers, horizon_ms=log.horizon_ms,
                   n_posts=log.config.n_posts)

    def vector(self, rank: int, elapsed_ms: int, remaining: int,
               eligible: bool) -> tuple[float, ...]:
        """Standardized features, in `FEATURE_NAMES` order, of a worker at
        ``rank`` ``elapsed_ms`` into the contest with ``remaining`` posts
        left to annotate.  `_log_linear_data` builds these rows for a whole
        event sequence at once."""
        return (1.0, rank / self.n_workers, elapsed_ms / self.horizon_ms,
                remaining / self.n_posts, 1.0 if eligible else 0.0)


@dataclass(frozen=True)
class FittedBehavior:
    """Result of fitting one worker's rate model.

    ``stop_reason`` and ``unidentified`` describe log-linear fits only (two-
    state fits leave them at None and ()): why `fit_log_linear` stopped, and
    the names of the features whose design column is all zero, so the data
    leave that component of theta at its start value.
    """

    worker_id: Optional[int]
    model_kind: str
    lambda_in_hat: Optional[float]
    lambda_out_hat: Optional[float]
    theta_hat: Optional[tuple[float, ...]]
    nll: float
    n_in: int
    n_out: int
    converged: bool
    iterations: int = 0
    nll_history: tuple[float, ...] = field(default=(), repr=False, compare=False)
    stop_reason: Optional[str] = None
    unidentified: tuple[str, ...] = ()


def _non_positive_holding(e: AnnotationEvent) -> DegenerateDataError:
    """The error both fitters raise for the first event whose holding time
    is not positive."""
    return DegenerateDataError(
        f"worker {e.worker_id}, event_index {e.event_index}: "
        f"holding_time_ms must be positive, got {e.holding_time_ms}")


# The fields a fit reads from each event, in `_event_columns` order.
_FIT_FIELDS = itemgetter(*map(AnnotationEvent._fields.index, (
    "event_time_ms", "holding_time_ms", "rank_at_event", "eligible_at_event",
    "annotations_remaining")))


def _event_columns(events: Sequence[AnnotationEvent]) -> np.ndarray:
    """Event times, holding times, ranks, eligibility flags and remaining-
    post counts of a non-empty event sequence: five float columns, read in
    one pass."""
    n = len(events)
    columns = np.fromiter(chain.from_iterable(map(_FIT_FIELDS, events)),
                          float, count=5 * n).reshape(n, 5).T
    holding = columns[1]
    if holding.min() <= 0.0:
        raise _non_positive_holding(events[int(np.argmax(holding <= 0.0))])
    return columns


def _log_linear_data(events: Sequence[AnnotationEvent],
                     norms: Optional[FeatureNorms]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and holding seconds of a non-empty event sequence."""
    if norms is None:
        raise ConfigurationError("log-linear likelihood needs feature norms")
    time, holding, rank, eligible, remaining = _event_columns(events)
    # Each row describes the interval that ended with the event: its rank
    # and eligibility already do, the elapsed time comes from the
    # holding-time recursion, and the remaining-post count is stepped back
    # over the event itself.  The columns are `FeatureNorms.vector`'s.
    x = np.empty((len(events), len(FEATURE_NAMES)))
    x[:, 0] = 1.0
    x[:, 1] = rank / norms.n_workers
    x[:, 2] = (time - holding) / norms.horizon_ms
    x[:, 3] = (remaining + 1.0) / norms.n_posts
    x[:, 4] = eligible
    return x, holding / 1000.0


def _as_theta(theta: Sequence[float], name: str = "theta") -> np.ndarray:
    th = np.array(theta, dtype=float)
    if th.shape != (len(FEATURE_NAMES),):
        raise ConfigurationError(
            f"{name} must have {len(FEATURE_NAMES)} components")
    if not np.isfinite(th).all():
        raise ConfigurationError(f"{name} must be finite, got {th.tolist()}")
    return th


def _log_linear_terms(x: np.ndarray, tau: np.ndarray, theta: np.ndarray
                      ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss, gradient and Hessian of the log-linear model at ``theta``.

    With eta = x theta and expected counts mu = exp(eta) * tau, the loss is
    sum(mu - eta) = sum(tau) + sum(tau * expm1(eta) - eta).  The second sum
    (the loss change from theta = 0) is returned first, then the gradient
    x^T (mu - 1), the Hessian x^T diag(mu) x and mu itself.  The change
    keeps its relative precision however small it is, so passing mu back
    as ``tau`` and a step as ``theta`` gives the loss change of that step
    even where the loss itself cannot resolve it.
    """
    eta = x @ theta
    growth = tau * np.expm1(eta)
    mu = tau + growth
    return float((growth - eta).sum()), x.T @ (mu - 1.0), (x.T * mu) @ x, mu


def negative_log_likelihood(events: Sequence[AnnotationEvent],
                            params: Sequence[float],
                            model_kind: str = "two_state",
                            norms: Optional[FeatureNorms] = None) -> float:
    """Exponential-holding-time loss; 0 by convention for an empty log."""
    if not events:
        return 0.0
    if model_kind == "two_state":
        lam_in, lam_out = params
        if not (0.0 < lam_in < math.inf and 0.0 < lam_out < math.inf):
            raise ConfigurationError(
                "two-state rates must be positive and finite, "
                f"got {lam_in!r} and {lam_out!r}")
        _, holding, _, eligible, _ = _event_columns(events)
        rates = np.where(eligible != 0.0, lam_in, lam_out)
        return float((-np.log(rates) + rates * (holding / 1000.0)).sum())
    if model_kind == "log_linear":
        theta = _as_theta(params)
        x, tau = _log_linear_data(events, norms)
        return float(tau.sum()) + _log_linear_terms(x, tau, theta)[0]
    raise ConfigurationError(f"unknown model kind {model_kind!r}")


def nll_gradient(events: Sequence[AnnotationEvent], theta: Sequence[float],
                 norms: FeatureNorms) -> np.ndarray:
    """Gradient of the log-linear loss: sum_j (r_j tau_j - 1) x_j."""
    th = _as_theta(theta)
    if not events:
        return np.zeros(len(FEATURE_NAMES))
    x, tau = _log_linear_data(events, norms)
    return _log_linear_terms(x, tau, th)[1]


# Sufficient statistics of the two-state fit: the event count and the summed
# holding seconds of each state, indexed by eligibility (0 outside the
# reward spread, 1 inside).
_TwoStateTotals = tuple[list[int], list[float]]


def _add_two_state(totals: Mapping[int, _TwoStateTotals],
                   events: Iterable[AnnotationEvent]) -> None:
    """Add each event, in order, to the totals of its worker:
    ``totals[e.worker_id]``."""
    for e in events:
        ms = e.holding_time_ms
        if ms <= 0:
            raise _non_positive_holding(e)
        counts, seconds = totals[e.worker_id]
        state = e.eligible_at_event
        counts[state] += 1
        seconds[state] += ms / 1000.0


def _finish_two_state(totals: _TwoStateTotals,
                      worker_id: Optional[int]) -> FittedBehavior:
    """Closed-form MLE from the totals: rate per state = count / seconds."""
    (n_out, n_in), (s_out, s_in) = totals
    lam_in = n_in / s_in if n_in else None
    lam_out = n_out / s_out if n_out else None
    nll = 0.0
    for n, lam in ((n_in, lam_in), (n_out, lam_out)):
        if lam is not None:
            # At the MLE, sum(rate * tau) over the state equals its count.
            nll += -n * math.log(lam) + n
    return FittedBehavior(
        worker_id=worker_id, model_kind="two_state",
        lambda_in_hat=lam_in, lambda_out_hat=lam_out, theta_hat=None,
        nll=nll, n_in=n_in, n_out=n_out,
        converged=n_in + n_out > 0,
    )


def fit_two_state(events: Sequence[AnnotationEvent],
                  worker_id: Optional[int] = None) -> FittedBehavior:
    """Closed-form MLE: rate per state = event count / total holding time.

    The fit needs only each state's event count and summed holding
    seconds, which it adds up in one pass over ``events``; every event
    counts, whatever its ``worker_id``.  `recovery_experiment` pools its
    runs into the same per-worker totals, so its memory does not grow
    with the events pooled.  A state with no events is
    unidentifiable and reported as None; the other state's estimate is
    unaffected.
    """
    totals = ([0, 0], [0.0, 0.0])
    _add_two_state(defaultdict(lambda: totals), events)
    return _finish_two_state(totals, worker_id)


def fit_log_linear(events: Sequence[AnnotationEvent], norms: FeatureNorms,
                   worker_id: Optional[int] = None,
                   init_theta: Optional[Sequence[float]] = None,
                   max_iters: int = DEFAULT_MAX_ITERS,
                   tolerance: float = DEFAULT_TOLERANCE) -> FittedBehavior:
    """Damped Newton (IRLS) fit of the log-linear rate model.

    Each iteration solves H d = g for the Newton direction by least squares.
    Its minimum-norm solution leaves the component of an all-zero design
    column (a state the worker never visited) where it started, so a
    rank-deficient Hessian needs no ridge.  A backtracking (Armijo) line
    search starts at the full Newton step and halves it.  It
    tests each step's loss change, computed to its own precision, and the
    fit's ``nll`` is the starting loss plus the accepted changes, so
    ``nll_history`` never increases.  ``stop_reason`` is one of:

    - ``"converged"``: the gradient's infinity norm fell below ``tolerance``;
    - ``"max_iters"``: ``max_iters`` steps were taken without converging;
    - ``"stalled"``: no step length passed the line search, because the
      loss decrease fell below float resolution, and the full Newton step
      either raised the loss or did not shrink the gradient's infinity
      norm (if it did neither, it is taken and the fit goes on);
    - ``"empty"``: there were no events, so nothing is identified.

    Only ``"converged"`` sets ``converged``.
    """
    if (isinstance(max_iters, bool)
            or not isinstance(max_iters, (int, np.integer)) or max_iters < 1):
        raise ConfigurationError(
            f"max_iters must be an integer >= 1, got {quote(max_iters)}")
    if not 0.0 < tolerance < math.inf:
        raise ConfigurationError(
            f"tolerance must be positive and finite, got {tolerance!r}")
    theta = (np.zeros(len(FEATURE_NAMES)) if init_theta is None
             else _as_theta(init_theta, "init_theta"))
    if not events:
        return FittedBehavior(worker_id=worker_id, model_kind="log_linear",
                              lambda_in_hat=None, lambda_out_hat=None,
                              theta_hat=tuple(theta), nll=0.0,
                              n_in=0, n_out=0, converged=False,
                              stop_reason="empty", unidentified=FEATURE_NAMES)

    x, tau = _log_linear_data(events, norms)
    n_in = int(np.count_nonzero(x[:, FEATURE_NAMES.index("eligible")]))
    n_out = len(events) - n_in
    unidentified = tuple(name for name, seen in zip(FEATURE_NAMES,
                                                    x.any(axis=0))
                         if not seen)
    change, g, h, mu = _log_linear_terms(x, tau, theta)
    nll = float(tau.sum()) + change
    if not math.isfinite(nll):
        raise DegenerateDataError("loss is non-finite at the starting point")
    history = [nll]
    stop_reason = "max_iters"
    for iterations in range(max_iters + 1):
        g_norm = float(np.abs(g).max())
        if g_norm < tolerance:
            stop_reason = "converged"
            break
        if iterations == max_iters:
            break
        newton = np.linalg.lstsq(h, g, rcond=None)[0]
        slope = float(g @ newton)
        step, trial = 1.0, None
        while slope > 0.0 and step >= _MIN_STEP:
            # Loss change measured from theta, whose expected counts are mu.
            candidate = _log_linear_terms(x, mu, -step * newton)
            if candidate[0] <= -_ARMIJO_C * step * slope:
                trial = candidate
                break
            step *= 0.5
        if trial is None:
            # No step shows a decrease the loss change can resolve.  The
            # full step is still progress if the loss holds and g shrinks.
            step, trial = 1.0, _log_linear_terms(x, mu, -newton)
            if not (trial[0] <= 0.0
                    and float(np.abs(trial[1]).max()) < g_norm):
                stop_reason = "stalled"
                break
        theta = theta - step * newton
        change, g, h, mu = trial
        nll += change
        history.append(nll)
    return FittedBehavior(
        worker_id=worker_id, model_kind="log_linear",
        lambda_in_hat=None, lambda_out_hat=None, theta_hat=tuple(theta),
        nll=nll, n_in=n_in, n_out=n_out,
        converged=stop_reason == "converged", iterations=iterations,
        nll_history=tuple(history), stop_reason=stop_reason,
        unidentified=unidentified,
    )


# --- serialization ---------------------------------------------------------

def fitted_to_record(fit: FittedBehavior) -> dict:
    record = {
        "worker_id": fit.worker_id,
        "model_kind": fit.model_kind,
        "nll": fit.nll,
        "n_in": fit.n_in,
        "n_out": fit.n_out,
        "converged": fit.converged,
    }
    if fit.model_kind == "two_state":
        record["lambda_in_hat"] = fit.lambda_in_hat
        record["lambda_out_hat"] = fit.lambda_out_hat
    else:
        record["theta_hat"] = list(fit.theta_hat)
        record["stop_reason"] = fit.stop_reason
        record["unidentified"] = list(fit.unidentified)
    return record


def write_fitted(fits: Sequence[FittedBehavior], path: Union[str, Path]) -> None:
    """Write one `fitted_to_record` line per fit.  The file is output
    only: nothing in the package reads it back, and ``iterations`` and
    ``nll_history`` are not written."""
    write_atomic(path, [canonical_json(fitted_to_record(f)) + "\n"
                        for f in fits])


# --- recovery experiments --------------------------------------------------

@dataclass(frozen=True)
class RecoveryRow:
    seed: int
    worker_id: int
    true_lambda_in: float
    true_lambda_out: float
    est_lambda_in: Optional[float]
    est_lambda_out: Optional[float]
    rel_err_in: Optional[float]
    rel_err_out: Optional[float]
    n_in: int
    n_out: int
    runs_pooled: int


@dataclass(frozen=True)
class RecoveryReport:
    rows: tuple[RecoveryRow, ...]
    n_events_target: int
    mean_rel_err_in: float
    mean_rel_err_out: float
    max_rel_err_in: float
    max_rel_err_out: float
    unidentifiable: int


def _recovery_config(n_workers: int, posts_per_run: int) -> ContestConfig:
    # One giant window consumed from a shared pool: the horizon equals the
    # task unit time, chosen long enough that the pool always runs dry.
    horizon_s = float(4 * posts_per_run)
    return ContestConfig(
        n_workers=n_workers, n_posts=posts_per_run,
        window_size=posts_per_run, task_unit_time_s=horizon_s,
        task_unit_size=posts_per_run,
        arrival_rate=posts_per_run / horizon_s,
        reward_spread=max(1, n_workers // 2),
        prize_value=0.0, base_points=10, leaderboard_k=1,
        quality_constraint=0, reduction_rate=2.0,
    )


def _recovery_posts(n_posts: int) -> list[Post]:
    return [Post(id=i, token_count=10, expected_entities=1)
            for i in range(n_posts)]


def recovery_experiment(prior, n_workers: int, n_events_target: int,
                        seeds: Iterable[int], *,
                        fixed_rates: Optional[tuple[float, float]] = None
                        ) -> RecoveryReport:
    """Simulate contests, fit the two-state model, and score the recovery.

    For each seed: draw (or fix) worker rates, pool shared-pool contest runs
    until every worker has ``n_events_target`` events in each eligibility
    state (or a run cap is hit), fit per worker, and record relative errors
    against the generating rates.

    The pool is not a list of events: each run's events are added, in run
    order and then log order, to per-worker totals (the count and holding
    seconds of each state, which are all the two-state fit reads), and the
    run's log is then dropped, with the collector still paused
    (`core.collector_paused`).  Memory therefore does not grow with
    ``n_events_target``, and the fits equal `fit_two_state` on each
    worker's pooled events bit for bit.

    With ``fixed_rates`` the first worker gets exactly that (in, out) pair
    and the remainder get the mirrored pair, which keeps the leaderboard
    contested so both states stay populated.  ``prior`` is consulted only
    when ``fixed_rates`` is None.
    """
    if n_workers < 2:
        raise ConfigurationError("recovery needs at least two workers")
    if n_events_target < 0:
        raise ConfigurationError("n_events_target must be >= 0")
    seeds = [streams.check_seed(seed) for seed in seeds]
    if not seeds:
        raise ConfigurationError("recovery needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"recovery seeds must be distinct, got {seeds}")
    posts_per_run = 200 * n_workers
    config = _recovery_config(n_workers, posts_per_run)
    posts = _recovery_posts(posts_per_run)
    max_runs = 0 if n_events_target == 0 else max(6, -(-n_events_target * 8 // 200))

    rows: list[RecoveryRow] = []
    for seed in seeds:
        if fixed_rates is not None:
            lam_in, lam_out = fixed_rates
            pairs = [(lam_in, lam_out) if i % 2 == 0 else (lam_out, lam_in)
                     for i in range(n_workers)]
        else:
            if prior is None:
                raise ConfigurationError("either prior or fixed_rates is required")
            gen = streams.substream(seed, streams.PROFILES)
            pairs = [draw_behavior(prior, gen) for _ in range(n_workers)]
        profiles = [
            WorkerProfile(id=i, skill=1.0, lambda_in=pairs[i][0],
                          lambda_out=pairs[i][1], exit_threshold=0.0)
            for i in range(n_workers)
        ]
        totals = {w: ([0, 0], [0.0, 0.0]) for w in range(n_workers)}
        runs = 0
        while runs < max_runs:
            # No name keeps the log, so it is freed inside the pause and the
            # collector never walks it.
            with collector_paused():
                _add_two_state(totals, run_contest(
                    config, profiles, posts, seed=(seed, runs),
                    dispatch="shared", base_hazard=0.0).events)
            runs += 1
            if min(min(c) for c, _ in totals.values()) >= n_events_target:
                break
        for w in range(n_workers):
            fit = _finish_two_state(totals[w], w)
            true_in, true_out = pairs[w]
            err_in = (abs(fit.lambda_in_hat - true_in) / true_in
                      if fit.lambda_in_hat is not None else None)
            err_out = (abs(fit.lambda_out_hat - true_out) / true_out
                       if fit.lambda_out_hat is not None else None)
            rows.append(RecoveryRow(
                seed=seed, worker_id=w, true_lambda_in=true_in,
                true_lambda_out=true_out, est_lambda_in=fit.lambda_in_hat,
                est_lambda_out=fit.lambda_out_hat, rel_err_in=err_in,
                rel_err_out=err_out, n_in=fit.n_in, n_out=fit.n_out,
                runs_pooled=runs,
            ))

    errs_in = [r.rel_err_in for r in rows if r.rel_err_in is not None]
    errs_out = [r.rel_err_out for r in rows if r.rel_err_out is not None]
    nan = float("nan")
    return RecoveryReport(
        rows=tuple(rows),
        n_events_target=n_events_target,
        mean_rel_err_in=float(np.mean(errs_in)) if errs_in else nan,
        mean_rel_err_out=float(np.mean(errs_out)) if errs_out else nan,
        max_rel_err_in=float(np.max(errs_in)) if errs_in else nan,
        max_rel_err_out=float(np.max(errs_out)) if errs_out else nan,
        unidentifiable=sum(1 for r in rows
                           if r.rel_err_in is None or r.rel_err_out is None),
    )
