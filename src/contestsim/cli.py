"""Command-line front end.

Subcommands cover the full pipeline: corpus generation, single contests,
reward-spread sweeps, rate fitting from logs, simulate-then-fit recovery
checks, and log replay validation.  All failures surface as a message on
stderr and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from .core import canonical_json, json_record, write_atomic
from .errors import ContestError
from .experiment import (emit_outputs, generate_corpus, read_corpus,
                         read_experiment_config, run_condition, sweep,
                         write_corpus, _load_corpus)
from .inference import (FeatureNorms, fit_log_linear, fit_two_state,
                        recovery_experiment, write_fitted)
from .simulate import (BehaviorPrior, read_event_log, replay_validate,
                       write_event_log)


def _parse_seed_list(raw: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise ContestError(f"bad seed list {raw!r}; expected e.g. 0,1,2")


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    posts = generate_corpus(args.n_posts, args.mean_entities, seed=args.seed)
    write_corpus(posts, args.out)
    mean = (sum(p.expected_entities for p in posts) / len(posts)
            if posts else 0.0)
    print(f"wrote {len(posts)} posts to {args.out} "
          f"(mean entities {mean:.3f})")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = read_experiment_config(args.config)
    if args.seed is not None:
        config = type(config)(**{**config.__dict__, "master_seed": args.seed})
    spread = args.spread if args.spread is not None else config.spreads[0]
    corpus = read_corpus(args.corpus) if args.corpus else None
    posts = _load_corpus(config, corpus)
    summary, log = run_condition(config, spread, args.replication, posts)
    write_event_log(log, args.out)
    print(f"spread={spread} annotations={summary.total_annotations} "
          f"exits={summary.n_exits} duration_ms={summary.duration_ms} "
          f"log={args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = read_experiment_config(args.config)
    out_dir = args.out_dir if args.out_dir else config.output_dir
    posts = _load_corpus(config, None)
    result = sweep(config, posts)
    trajectory_log = None
    if args.trajectories:
        _, trajectory_log = run_condition(config, config.spreads[0], 0, posts)
    paths = emit_outputs(result, out_dir, trajectory_log=trajectory_log)
    trend = result.trend
    print(f"ran {len(result.summaries)} contests "
          f"({len(result.errors)} failed) -> {out_dir}")
    for s, m in zip(trend.spreads, trend.mean_total_annotations):
        print(f"  spread {s}: mean total annotations {m:.1f}")
    if trend.applicable:
        print(f"trend: {'detected' if trend.detected else 'not detected'} "
              f"(p={trend.p_value:.4g}, "
              f"monotone={'yes' if trend.strictly_increasing else 'no'})")
    else:
        print("trend: not applicable (single spread)")
    if result.errors:
        print(f"{len(result.errors)} replication(s) failed; "
              f"see {paths.get('errors.jsonl')}", file=sys.stderr)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    log = read_event_log(args.log)
    if (args.worker is not None
            and all(e.worker_id != args.worker for e in log.final_ranking)):
        raise ContestError(f"worker {args.worker} is not in {args.log}")
    by_worker = defaultdict(list)
    for e in log.events:
        by_worker[e.worker_id].append(e)
    worker_ids = ([args.worker] if args.worker is not None
                  else sorted(by_worker))
    norms = FeatureNorms.from_log(log)
    fits = []
    for wid in worker_ids:
        events = by_worker.get(wid, [])
        if args.model == "two_state":
            fits.append(fit_two_state(events, worker_id=wid))
        else:
            fits.append(fit_log_linear(events, norms, worker_id=wid))
    write_fitted(fits, args.out)
    converged = sum(1 for f in fits if f.converged)
    print(f"fitted {len(fits)} worker(s) with {args.model} "
          f"({converged} converged) -> {args.out}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    fixed = None
    if args.lambda_in is not None or args.lambda_out is not None:
        if args.lambda_in is None or args.lambda_out is None:
            raise ContestError("--lambda-in and --lambda-out go together")
        fixed = (args.lambda_in, args.lambda_out)
    prior = BehaviorPrior(gamma_shape=args.gamma_shape,
                          gamma_rate=args.gamma_rate,
                          halfnormal_sigma=args.halfnormal_sigma)
    report = recovery_experiment(prior, args.n_workers, args.target,
                                 _parse_seed_list(args.seeds),
                                 fixed_rates=fixed)
    if args.out:
        record = report.to_record()
        record["rows"] = [json_record(r) for r in report.rows]
        write_atomic(args.out, [canonical_json(record) + "\n"])
    print(f"recovery over {len(report.rows)} fits: "
          f"mean rel err in={report.mean_rel_err_in:.4f} "
          f"out={report.mean_rel_err_out:.4f} "
          f"(unidentifiable: {report.unidentifiable})")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    log = read_event_log(args.log)
    posts = read_corpus(args.corpus)
    replay_validate(log, posts)
    print(f"{args.log}: {len(log.events)} events, {len(log.exits)} exits, "
          f"all invariants hold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contestsim",
        description="Simulate annotation contests and fit worker behavior.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic post corpus")
    p.add_argument("--n-posts", type=int, required=True)
    p.add_argument("--mean-entities", type=float, default=1.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("simulate", help="run one contest and write its log")
    p.add_argument("--config", required=True)
    p.add_argument("--spread", type=int, default=None)
    p.add_argument("--replication", type=int, default=0)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master_seed")
    p.add_argument("--corpus", default=None,
                   help="corpus file overriding the config's corpus setting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the full reward-spread sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None,
                   help="override the config's output_dir")
    p.add_argument("--trajectories", action="store_true",
                   help="also write per-worker trajectories for one contest")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="fit rate models to an event log")
    p.add_argument("--log", required=True)
    p.add_argument("--model", choices=("two_state", "log_linear"),
                   default="two_state")
    p.add_argument("--worker", type=int, default=None,
                   help="fit a single worker instead of all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("recover",
                       help="simulate, fit, and score rate recovery")
    p.add_argument("--n-workers", type=int, default=2)
    p.add_argument("--target", type=int, default=1000,
                   help="events required per eligibility state")
    p.add_argument("--seeds", default="0",
                   help="comma-separated replicate seeds")
    p.add_argument("--lambda-in", type=float, default=None)
    p.add_argument("--lambda-out", type=float, default=None)
    p.add_argument("--gamma-shape", type=float, default=9.0)
    p.add_argument("--gamma-rate", type=float, default=8.0)
    p.add_argument("--halfnormal-sigma", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("validate", help="replay a log and check invariants")
    p.add_argument("--log", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
