"""Contest-based crowdsourcing simulator with behavior inference.

Simulates annotation contests where workers hold rank-dependent exponential
annotation rates, streams posts through timed windows, models dropout under
rank pressure, and fits the generating rates back from the resulting event
logs.
"""

from .core import (ContestConfig, Leaderboard, Post, Ranking, RankEntry,
                   WorkerProfile, rank_workers, score_annotation)
from .errors import (ConfigurationError, ContestError, ContractViolation,
                     DegenerateDataError)
from .experiment import (AnovaResult, ContestSummary, ExperimentConfig,
                         SweepResult, TrendResult, anova_f, emit_outputs,
                         generate_corpus, generate_profiles,
                         parse_experiment_config, read_corpus,
                         read_experiment_config, run_condition,
                         sign_test_one_sided, summarize, sweep,
                         trend_from_summaries, verify_manifest, write_corpus)
from .inference import (FeatureNorms, FittedBehavior, RecoveryReport,
                        RecoveryRow, fit_log_linear, fit_two_state,
                        fitted_to_record, negative_log_likelihood,
                        nll_gradient, recovery_experiment, write_fitted)
from .simulate import (AnnotationEvent, BehaviorPrior, EventLog, ExitEvent,
                       PostCounters, draw_behavior, event_log_lines,
                       exit_hazard, holding_time, read_event_log,
                       replay_validate, run_contest,
                       simulate_annotated_count, write_event_log)
from .stream import (DropQueue, advance_queue, allocate_round_robin,
                     build_windows, total_contest_time, warp_out_rate)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ContestError", "ConfigurationError", "DegenerateDataError",
    "ContractViolation",
    # core
    "Post", "WorkerProfile", "ContestConfig", "RankEntry", "Ranking",
    "score_annotation", "rank_workers", "Leaderboard",
    # stream
    "DropQueue", "build_windows", "allocate_round_robin", "advance_queue",
    "total_contest_time", "warp_out_rate",
    # simulate
    "BehaviorPrior", "AnnotationEvent", "ExitEvent", "PostCounters",
    "EventLog", "draw_behavior", "holding_time", "exit_hazard",
    "simulate_annotated_count", "run_contest", "event_log_lines",
    "write_event_log", "read_event_log", "replay_validate",
    # inference
    "FeatureNorms", "FittedBehavior",
    "negative_log_likelihood", "nll_gradient", "fit_two_state",
    "fit_log_linear", "fitted_to_record", "write_fitted", "RecoveryRow",
    "RecoveryReport",
    "recovery_experiment",
    # experiment
    "ExperimentConfig", "parse_experiment_config", "read_experiment_config",
    "generate_corpus", "write_corpus", "read_corpus", "generate_profiles",
    "ContestSummary", "summarize", "sign_test_one_sided", "TrendResult",
    "trend_from_summaries", "AnovaResult", "anova_f", "SweepResult",
    "run_condition", "sweep", "emit_outputs", "verify_manifest",
]
