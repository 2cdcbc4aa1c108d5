"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: ``setup`` builds the inputs
from the seed (configs, corpora and, for ``loglinear_fit``, one contest
log), then ``run_once`` drives contestsim through its public functions once
and returns the time of that call sequence, measured and in reference
seconds (see :mod:`hostspeed`), together with the checks on what it
produced.  Checks run outside the timed region.

Program functions are always looked up on their module at call time
(``simulate.write_event_log``, not a name bound at import), so the timing
wrappers of :mod:`tracing` see every call.

Pinned digests hold at ``DEFAULT_SEED`` only and were taken from the
program as it stood when the benchmark was added; they are the byte
contract of logs, sweep trees and fit files.  At any other seed the
structural checks still run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from contestsim import cli, experiment, inference, simulate
from hostspeed import Stopwatch

DEFAULT_SEED = 0

# The README's sweep configuration; the seed replaces master_seed.
STOCK_CONFIG = """\
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
master_seed={seed}
"""

STOCK_SUMMARIES = 150
LARGE_FIELD_WORKERS = (200, 1000)
LOGLINEAR_SPREAD = 5
RECOVERY_WORKERS = 4
RECOVERY_TARGET = 4000
RECOVERY_SEEDS = 4
RECOVERY_RATES = (1.66, 1.12)
RECOVERY_TOLERANCE = 0.05
CONVERGED_GRAD_INF_NORM = 1e-6

PINNED_SWEEP_DIGESTS = {
    "exit_curves.csv":
        "0784418e89d558c116f3449f7f98a0f4978f985c0ea221c62b9c12eba9685c40",
    "summaries.jsonl":
        "b020896045726292893d29581d1c7fbae57739e5f5d0180ffebf62701efed6ee",
    "sweep_table.csv":
        "5357588e22d8395ec0a0ba6c659baa50af07f3fe83e7a2c6ce82bd77f5e6ecb8",
    "trajectories.csv":
        "15b65d699df2537a01ebed490c035fefbbfe0313ed47b42b80dce1067ceef818",
    "trend.json":
        "dbeaeefe3d7c54819153c2fc5beb2df4ec97b0ec1fa8b3e767f6db9de7df1c83",
}
PINNED_LARGE_FIELD_LOGS = {
    200: "0bd28b08080e5a9dd39ac81a75393ffa52065b1d62ea255f2d77260c96839435",
    1000: "7a7c947310e42aa3b006f4dff439fb673dc2da179eed81c80c5cf89bdfc96f09",
}
PINNED_TWO_STATE_FITS = (
    "91ba7e1c7d35da91fe91bccb63f9208c9cddf11419fd6a96a89f976ecf76cae6")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def stock_config_text(seed: int, **overrides) -> str:
    lines = STOCK_CONFIG.format(seed=seed).splitlines()
    for key, value in overrides.items():
        lines = [ln for ln in lines if not ln.startswith(f"{key}=")]
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class RepResult:
    """One pass of a workload: its time, its work, and its checks."""

    wall_s: float
    reference_s: float
    events: int
    counts: dict
    checks: list[Check]
    # Values the traced run reports next to its span metrics.
    extra: dict = field(default_factory=dict)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- stock_sweep -----------------------------------------------------------

def check_sweep_dir(out: Path, expected_summaries: int,
                    pinned: Optional[dict]) -> list[Check]:
    """Structural checks on a sweep tree, plus its pinned digests if given."""
    checks = []
    try:
        ok, detail = experiment.verify_manifest(out), ""
    except Exception as exc:  # noqa: BLE001 - a broken tree is a failed check
        ok, detail = False, _failure(exc)
    checks.append(Check("sweep manifest verifies", ok, detail))
    summaries = out / "summaries.jsonl"
    n = (len(summaries.read_text(encoding="utf-8").splitlines())
         if summaries.exists() else 0)
    checks.append(Check(f"sweep has {expected_summaries} summaries",
                        n == expected_summaries, f"found {n}"))
    checks.append(Check("sweep wrote no errors.jsonl",
                        not (out / "errors.jsonl").exists()))
    if pinned is not None:
        try:
            manifest = json.loads((out / "manifest.json").read_text("utf-8"))
            files = manifest["files"]
        except (OSError, ValueError, KeyError) as exc:
            files = {"<unreadable manifest>": _failure(exc)}
        checks.append(Check("sweep digests match the pinned digests",
                            files == pinned))
    return checks


class StockSweep:
    """``contestsim sweep --trajectories`` on the README config, in-process."""

    name = "stock_sweep"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rep = 0

    def setup(self) -> None:
        self.config_path = self.workdir / "sweep.cfg"
        self.config_path.write_text(stock_config_text(self.seed),
                                    encoding="utf-8")
        experiment.read_experiment_config(self.config_path)

    def run_once(self) -> RepResult:
        out = self.workdir / f"sweep-{self.rep}"
        self.rep += 1
        argv = ["sweep", "--config", str(self.config_path),
                "--out-dir", str(out), "--trajectories"]
        clock = Stopwatch()
        with contextlib.redirect_stdout(io.StringIO()), clock:
            status = cli.main(argv)
        checks = [Check("sweep exits with status 0", status == 0,
                        f"status {status}")]
        pinned = PINNED_SWEEP_DIGESTS if self.seed == DEFAULT_SEED else None
        checks += check_sweep_dir(out, STOCK_SUMMARIES, pinned)
        events, contests = 0, 0
        summaries = out / "summaries.jsonl"
        if summaries.exists():
            for line in summaries.read_text(encoding="utf-8").splitlines():
                events += json.loads(line)["total_annotations"]
                contests += 1
        trajectories = out / "trajectories.csv"
        if trajectories.exists():
            rows = trajectories.read_text(encoding="utf-8").splitlines()
            events += len(rows) - 1
            contests += 1
        shutil.rmtree(out, ignore_errors=True)
        return RepResult(wall_s=clock.measured_s,
                         reference_s=clock.reference_s, events=events,
                         counts={"contests": contests}, checks=checks)


# --- large_field -----------------------------------------------------------

def read_and_validate(path: Path, posts) -> tuple[Optional[object], str]:
    """Read a log back and replay it; return (log, "") or (None, why not)."""
    try:
        log = simulate.read_event_log(path)
        simulate.replay_validate(log, posts)
    except Exception as exc:  # noqa: BLE001 - a bad log is a failed check
        return None, _failure(exc)
    return log, ""


def check_log(path: Path, log, error: str, simulated_events: int,
              pinned: Optional[str], label: str) -> list[Check]:
    checks = [Check(f"{label} log replays", log is not None, error)]
    reread = len(log.events) if log is not None else -1
    checks.append(Check(f"{label} log re-reads every event",
                        reread == simulated_events,
                        f"{reread} read, {simulated_events} simulated"))
    if pinned is not None:
        checks.append(Check(f"{label} log matches the pinned sha256",
                            sha256_file(path) == pinned))
    return checks


def large_field_config(seed: int, n_workers: int) -> str:
    # Stock ratios at a larger field: 76 posts and a tenth of a window per
    # worker, one arrival per worker per second, spread a quarter of the field.
    return stock_config_text(
        seed, n_workers=n_workers, n_posts=76 * n_workers,
        window_size=10 * n_workers, arrival_rate=float(n_workers),
        spreads=n_workers // 4, replications=1)


class LargeField:
    """simulate -> write -> read -> validate -> fit at W = 200 and 1000."""

    name = "large_field"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.fields = []
        for w in LARGE_FIELD_WORKERS:
            config = experiment.parse_experiment_config(
                large_field_config(self.seed, w))
            posts = experiment.generate_corpus(
                config.n_posts, config.mean_entities, seed=config.master_seed)
            self.fields.append((w, config, posts))

    def run_once(self) -> RepResult:
        clock = Stopwatch()
        events, fits, log_bytes = 0, 0, 0
        checks: list[Check] = []
        for w, config, posts in self.fields:
            path = self.workdir / f"field-{w}.jsonl"
            with clock:
                _, log = experiment.run_condition(config, config.spreads[0],
                                                  0, posts)
                simulate.write_event_log(log, path)
                reread, error = read_and_validate(path, posts)
                if reread is not None:
                    by_worker = defaultdict(list)
                    for e in reread.events:
                        by_worker[e.worker_id].append(e)
                    for wid in range(config.n_workers):
                        inference.fit_two_state(by_worker[wid], worker_id=wid)
                    fits += config.n_workers
            events += len(log.events)
            log_bytes += path.stat().st_size
            pinned = (PINNED_LARGE_FIELD_LOGS[w]
                      if self.seed == DEFAULT_SEED else None)
            checks += check_log(path, reread, error, len(log.events), pinned,
                                f"W={w}")
            path.unlink()
        return RepResult(wall_s=clock.measured_s,
                         reference_s=clock.reference_s, events=events,
                         counts={"contests": len(self.fields), "fits": fits},
                         checks=checks,
                         extra={"log_bytes_per_event": log_bytes / events})


# --- loglinear_fit ---------------------------------------------------------

def check_log_linear_fit(fit, events, norms) -> tuple[Check, float]:
    """Fit properties, and the gradient infinity norm at the fitted theta."""
    nll0 = inference.negative_log_likelihood(
        events, [0.0] * len(inference.FEATURE_NAMES), "log_linear", norms)
    history = fit.nll_history
    monotone = all(b <= a for a, b in zip(history, history[1:]))
    ok = math.isfinite(fit.nll) and fit.nll <= nll0 and monotone
    grad = float(max(abs(g) for g in
                     inference.nll_gradient(events, fit.theta_hat, norms)))
    return (Check(f"worker {fit.worker_id} log-linear fit: finite nll "
                  "no higher than at theta=0, nll never increases", ok,
                  f"nll {fit.nll!r}, nll0 {nll0!r}, monotone {monotone}"),
            grad)


class LoglinearFit:
    """``contestsim fit`` with both models on one stock contest log."""

    name = "loglinear_fit"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        config = experiment.parse_experiment_config(
            stock_config_text(self.seed))
        posts = experiment.generate_corpus(
            config.n_posts, config.mean_entities, seed=config.master_seed)
        _, log = experiment.run_condition(config, LOGLINEAR_SPREAD, 0, posts)
        self.log_path = self.workdir / "stock-contest.jsonl"
        simulate.write_event_log(log, self.log_path)

    def run_once(self) -> RepResult:
        log_linear_out = self.workdir / "fits-log-linear.jsonl"
        two_state_out = self.workdir / "fits-two-state.jsonl"
        clock = Stopwatch()
        with clock:
            log = simulate.read_event_log(self.log_path)
            by_worker = defaultdict(list)
            for e in log.events:
                by_worker[e.worker_id].append(e)
            norms = inference.FeatureNorms.from_log(log)
            log_linear = [inference.fit_log_linear(by_worker[w], norms,
                                                   worker_id=w)
                          for w in sorted(by_worker)]
            two_state = [inference.fit_two_state(by_worker[w], worker_id=w)
                         for w in sorted(by_worker)]
            inference.write_fitted(log_linear, log_linear_out)
            inference.write_fitted(two_state, two_state_out)

        checks, grads = [], []
        for fit in log_linear:
            check, grad = check_log_linear_fit(fit, by_worker[fit.worker_id],
                                               norms)
            checks.append(check)
            grads.append(grad)
        if self.seed == DEFAULT_SEED:
            checks.append(Check("two-state fits match the pinned sha256",
                                sha256_file(two_state_out)
                                == PINNED_TWO_STATE_FITS))
        converged = sum(1 for g in grads if g < CONVERGED_GRAD_INF_NORM)
        iterations = [f.iterations for f in log_linear]
        return RepResult(
            wall_s=clock.measured_s, reference_s=clock.reference_s,
            events=len(log.events),
            counts={"fits": len(log_linear) + len(two_state)}, checks=checks,
            extra={"fit_converged_frac": converged / len(log_linear),
                   "grad_inf_norm_max": max(grads),
                   "iterations_mean": sum(iterations) / len(iterations),
                   "iterations_max": max(iterations)})


# --- recover_shared --------------------------------------------------------

class RecoverShared:
    """Shared-pool recovery experiment over four seeds from the seed base."""

    name = "recover_shared"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = list(range(seed, seed + RECOVERY_SEEDS))

    def setup(self) -> None:
        pass

    def run_once(self) -> RepResult:
        clock = Stopwatch()
        with clock:
            report = inference.recovery_experiment(
                None, RECOVERY_WORKERS, RECOVERY_TARGET, self.seeds,
                fixed_rates=RECOVERY_RATES)
        checks = [
            Check("recovery: every rate identifiable",
                  report.unidentifiable == 0,
                  f"{report.unidentifiable} unidentifiable"),
            Check(f"recovery: mean rel err in <= {RECOVERY_TOLERANCE}",
                  report.mean_rel_err_in <= RECOVERY_TOLERANCE,
                  repr(report.mean_rel_err_in)),
            Check(f"recovery: mean rel err out <= {RECOVERY_TOLERANCE}",
                  report.mean_rel_err_out <= RECOVERY_TOLERANCE,
                  repr(report.mean_rel_err_out)),
        ]
        runs = {r.seed: r.runs_pooled for r in report.rows}
        return RepResult(
            wall_s=clock.measured_s, reference_s=clock.reference_s,
            events=sum(r.n_in + r.n_out for r in report.rows),
            counts={"contests": sum(runs.values()), "fits": len(report.rows)},
            checks=checks)


WORKLOADS = {w.name: w for w in (StockSweep, LargeField, LoglinearFit,
                                 RecoverShared)}
