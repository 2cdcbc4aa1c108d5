"""Metric names, units and how the per-layer ones come out of the spans.

End-to-end metrics are measured with tracing off.  Per-layer metrics come
from one traced run; each names the layers (wrapped names) it is built
on, and when one of those no longer exists in contestsim the metric is
reported as absent rather than as a number.  A layer the workload never
reaches reports 0: the count of its calls and the time spent in it.

Totals (``.ms``, ``.calls``) are per pass of the workload; the per-event
and per-call figures divide a layer's time by the work it did.  Span
times are measured times, not reference seconds, except
``trace.overhead_s``.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracing import self_ns

# name, unit, better, bound.  Times are reference seconds (hostspeed.py).
# Over ten seeds the spread between quartiles still reached 0.13 of the
# median, mostly because a workload's input size follows the seed:
# recover_shared pools 226-264 contests and holds their events in memory,
# loglinear_fit's log has 1162-1404 events but costs per iteration.  So
# every bound is the largest allowed.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("events_per_s", "events/s", "higher", 0.25),
)

RUN_CONTEST = "simulate.run_contest"
REPLAY = "simulate.replay_validate"
RUN_CONDITION = "experiment.run_condition"
LOG_LINEAR = "inference.fit_log_linear"
TWO_STATE = "inference.fit_two_state"
RECOVERY = "inference.recovery_experiment"

# name, unit, better, layers the metric is built on
PER_LAYER = (
    ("simulate.run_contest.us_per_event", "us", "lower", (RUN_CONTEST,)),
    ("simulate.run_contest.us_per_event.w200", "us", "lower", (RUN_CONTEST,)),
    ("simulate.run_contest.us_per_event.w1000", "us", "lower",
     (RUN_CONTEST,)),
    ("simulate.run_contest.self_us_per_event", "us", "lower",
     (RUN_CONTEST,)),
    ("simulate.holding_time.calls", "count", "lower",
     ("simulate.holding_time",)),
    ("simulate.holding_time.us_per_call", "us", "lower",
     ("simulate.holding_time",)),
    ("simulate.simulate_annotated_count.calls", "count", "lower",
     ("simulate.simulate_annotated_count",)),
    ("simulate.simulate_annotated_count.us_per_call", "us", "lower",
     ("simulate.simulate_annotated_count",)),
    ("rng.substream.calls", "count", "lower", ("rng.substream",)),
    ("rng.substream.ms_per_contest", "ms", "lower",
     ("rng.substream", RUN_CONTEST)),
    ("simulate.exit_hazard.calls", "count", "lower",
     ("simulate.exit_hazard",)),
    ("core.score_annotation.calls", "count", "lower",
     ("core.score_annotation",)),
    ("core.rank_workers.ms", "ms", "lower", ("core.rank_workers",)),
    ("stream.build_windows.ms", "ms", "lower", ("stream.build_windows",)),
    ("stream.allocate_round_robin.ms", "ms", "lower",
     ("stream.allocate_round_robin",)),
    ("stream.advance_queue.ms", "ms", "lower", ("stream.advance_queue",)),
    ("simulate.write_event_log.us_per_event", "us", "lower",
     ("simulate.write_event_log",)),
    ("simulate.read_event_log.us_per_event", "us", "lower",
     ("simulate.read_event_log",)),
    ("simulate.log_bytes_per_event", "bytes", "lower", ()),
    ("simulate.replay_validate.us_per_event.w200", "us", "lower", (REPLAY,)),
    ("simulate.replay_validate.us_per_event.w1000", "us", "lower", (REPLAY,)),
    ("experiment.run_condition.calls", "count", "lower", (RUN_CONDITION,)),
    ("experiment.run_condition.ms_p50", "ms", "lower", (RUN_CONDITION,)),
    ("experiment.run_condition.ms_p90", "ms", "lower", (RUN_CONDITION,)),
    ("experiment.contests_useful_ratio", "fraction", "higher",
     (RUN_CONDITION,)),
    ("experiment.generate_profiles.ms", "ms", "lower",
     ("experiment.generate_profiles",)),
    ("experiment.summarize.ms", "ms", "lower", ("experiment.summarize",)),
    ("experiment.emit_outputs.ms", "ms", "lower",
     ("experiment.emit_outputs",)),
    ("experiment.trend_from_summaries.ms", "ms", "lower",
     ("experiment.trend_from_summaries",)),
    ("experiment.generate_corpus.ms", "ms", "lower",
     ("experiment.generate_corpus",)),
    ("inference.fit_log_linear.ms_per_fit", "ms", "lower", (LOG_LINEAR,)),
    ("inference.fit_log_linear.iterations_mean", "count", "lower", ()),
    ("inference.fit_log_linear.iterations_max", "count", "lower", ()),
    ("inference.fit_log_linear.grad_inf_norm_max", "norm", "lower", ()),
    ("inference.fit_log_linear.converged_frac", "fraction", "higher", ()),
    ("inference.fit_two_state.us_per_event", "us", "lower", (TWO_STATE,)),
    ("inference.recovery_experiment.contests", "count", "lower",
     (RECOVERY, RUN_CONTEST)),
    ("inference.recovery_experiment.self_ms", "ms", "lower",
     (RECOVERY, RUN_CONTEST, TWO_STATE)),
    ("trace.overhead_s", "s", "lower", ()),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Values the workload's own checks compute, keyed by per-layer metric name.
FROM_CHECKS = {
    "simulate.log_bytes_per_event": "log_bytes_per_event",
    "inference.fit_log_linear.iterations_mean": "iterations_mean",
    "inference.fit_log_linear.iterations_max": "iterations_max",
    "inference.fit_log_linear.grad_inf_norm_max": "grad_inf_norm_max",
    "inference.fit_log_linear.converged_frac": "fit_converged_frac",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def layer_metrics(spans, setup_spans, extra: dict) -> dict[str, float]:
    """Per-layer values of one traced pass, before absent layers are dropped.

    ``spans`` are the pass's spans, ``setup_spans`` those of the traced
    set-up (only corpus generation is read from them), ``extra`` the values
    the workload's checks computed.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    leaf_calls: dict[str, int] = defaultdict(int)
    leaf_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        for name, (calls, ns) in s.leaves.items():
            leaf_calls[name] += calls
            leaf_ns[name] += ns

    def ms(name: str) -> float:
        return sum(s.ns for s in by_name[name]) / 1e6

    def events(group) -> int:
        return sum(s.attrs.get("events", 0) for s in group)

    def us_per_event(group) -> float:
        n = events(group)
        return sum(s.ns for s in group) / 1e3 / n if n else 0.0

    def us_per_call(name: str) -> float:
        calls = leaf_calls[name]
        return leaf_ns[name] / 1e3 / calls if calls else 0.0

    def at_field(name: str, n_workers: int) -> list:
        return [s for s in by_name[name]
                if s.attrs.get("n_workers") == n_workers]

    contests = by_name[RUN_CONTEST]
    contest_events = events(contests)
    conditions = by_name[RUN_CONDITION]
    cells = {tuple(s.attrs["cell"]) for s in conditions if "cell" in s.attrs}
    condition_ms = [s.ns / 1e6 for s in conditions]
    log_linear = by_name[LOG_LINEAR]
    recoveries = by_name[RECOVERY]
    recovery_self_ns = 0
    recovery_contests = 0
    for r in recoveries:
        inside = [s for s in spans if s.parent == r.id]
        recovery_contests += sum(1 for s in inside if s.name == RUN_CONTEST)
        # Pooling and bookkeeping: what is left after the contests and fits.
        recovery_self_ns += r.ns - sum(
            s.ns for s in inside if s.name in (RUN_CONTEST, TWO_STATE))
    corpus_ms = ms("experiment.generate_corpus") + sum(
        s.ns for s in setup_spans
        if s.name == "experiment.generate_corpus") / 1e6

    values = {
        "simulate.run_contest.us_per_event": us_per_event(contests),
        "simulate.run_contest.us_per_event.w200":
            us_per_event(at_field(RUN_CONTEST, 200)),
        "simulate.run_contest.us_per_event.w1000":
            us_per_event(at_field(RUN_CONTEST, 1000)),
        "simulate.run_contest.self_us_per_event":
            (sum(self_ns(s, spans) for s in contests) / 1e3 / contest_events
             if contest_events else 0.0),
        "simulate.holding_time.calls": leaf_calls["simulate.holding_time"],
        "simulate.holding_time.us_per_call":
            us_per_call("simulate.holding_time"),
        "simulate.simulate_annotated_count.calls":
            leaf_calls["simulate.simulate_annotated_count"],
        "simulate.simulate_annotated_count.us_per_call":
            us_per_call("simulate.simulate_annotated_count"),
        "rng.substream.calls": leaf_calls["rng.substream"],
        "rng.substream.ms_per_contest":
            (leaf_ns["rng.substream"] / 1e6 / len(contests)
             if contests else 0.0),
        "simulate.exit_hazard.calls": leaf_calls["simulate.exit_hazard"],
        "core.score_annotation.calls": leaf_calls["core.score_annotation"],
        "core.rank_workers.ms": leaf_ns["core.rank_workers"] / 1e6,
        "stream.build_windows.ms": leaf_ns["stream.build_windows"] / 1e6,
        "stream.allocate_round_robin.ms":
            leaf_ns["stream.allocate_round_robin"] / 1e6,
        "stream.advance_queue.ms": leaf_ns["stream.advance_queue"] / 1e6,
        "simulate.write_event_log.us_per_event":
            us_per_event(by_name["simulate.write_event_log"]),
        "simulate.read_event_log.us_per_event":
            us_per_event(by_name["simulate.read_event_log"]),
        "simulate.replay_validate.us_per_event.w200":
            us_per_event(at_field(REPLAY, 200)),
        "simulate.replay_validate.us_per_event.w1000":
            us_per_event(at_field(REPLAY, 1000)),
        "experiment.run_condition.calls": len(conditions),
        "experiment.run_condition.ms_p50": percentile(condition_ms, 0.5),
        "experiment.run_condition.ms_p90": percentile(condition_ms, 0.9),
        "experiment.contests_useful_ratio":
            len(cells) / len(conditions) if conditions else 0.0,
        "experiment.generate_profiles.ms": ms("experiment.generate_profiles"),
        "experiment.summarize.ms": ms("experiment.summarize"),
        "experiment.emit_outputs.ms": ms("experiment.emit_outputs"),
        "experiment.trend_from_summaries.ms":
            ms("experiment.trend_from_summaries"),
        "experiment.generate_corpus.ms": corpus_ms,
        "inference.fit_log_linear.ms_per_fit":
            ms(LOG_LINEAR) / len(log_linear) if log_linear else 0.0,
        "inference.fit_two_state.us_per_event":
            us_per_event(by_name[TWO_STATE]),
        "inference.recovery_experiment.contests": recovery_contests,
        "inference.recovery_experiment.self_ms": recovery_self_ns / 1e6,
    }
    for name, key in FROM_CHECKS.items():
        values[name] = extra.get(key, 0)
    return values


def absent_metrics(absent_layers) -> list[str]:
    """Per-layer metrics built on a layer that no longer exists."""
    gone = set(absent_layers)
    return [name for name, _, _, layers in PER_LAYER
            if any(layer in gone for layer in layers)]
