"""contestsim benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; contestsim is imported from its ``src``.

Workloads (the reasons are recorded in BENCHMARK.json):

* ``stock_sweep``: ``contestsim sweep --trajectories`` on the README config,
  called in-process through ``cli.main``; 151 contests at W = 20.
* ``large_field``: one windowed contest at W = 200 and one at W = 1000,
  each through run_condition -> write_event_log -> read_event_log ->
  replay_validate -> fit_two_state for every worker.
* ``loglinear_fit``: what ``contestsim fit`` does, with both models, on the
  stock contest log for spread 5, replication 0.
* ``recover_shared``: ``recovery_experiment`` on the shared-pool engine,
  four workers, 4000 events per state, four seeds from the seed base.

Each is a closed loop with one caller in one process with no extra threads.
The seed sets ``master_seed`` (and the recovery seed base); pinned digests
are checked at seed 0 only.

This process only orchestrates.  It times ``SETUP_PROBES`` fresh
interpreters that import contestsim and build the workload's inputs
(``setup_s`` is their median), then starts one more that measures the
workload for ``--seconds`` (see ``child.py``).  Every child gets
OPENBLAS/OMP/MKL threads pinned to 1 in its own environment.

Times in the metrics (``wall_s``, ``setup_s``, and the seconds in
``events_per_s``) are reference seconds: measured wall time scaled by the
host speed sampled meanwhile, so that a shared host's changes of speed
cancel (see ``hostspeed.py``).  The measured times are printed beside them
and kept in the report.  ``wall_s`` is the median over the passes of one
run; a set-up probe is corrected by reference loops run just before and
after it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every output
check is one attempted operation; a failed check is a failed operation.
A full report, and with ``--trace 1`` the spans, is written under
``.perfbench_out/`` in the checkout.  If the workload cannot be set up or
run, the command exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

from hostspeed import reference_loop, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("stock_sweep", "large_field", "loglinear_fit",
                  "recover_shared")
SETUP_PROBES = 5
# Reference loops run before and after each set-up probe.
PROBE_SAMPLES = 5
# Whole-command limit; each child gets what is left of it.
DEADLINE_S = 170.0

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchmarkError(Exception):
    pass


def run_child(argv: list[str], env: dict, deadline: float) -> float:
    """Run ``child.py`` to completion; return its wall time from spawn."""
    left = deadline - monotonic()
    if left <= 0:
        raise BenchmarkError("out of time before starting a child process")
    t0 = perf_counter()
    try:
        done = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child process ran past the {DEADLINE_S:.0f} s "
                             "limit and was killed")
    wall = perf_counter() - t0
    if done.returncode != 0:
        raise BenchmarkError(f"child process failed (status "
                             f"{done.returncode}):\n{done.stderr.strip()}")
    return wall


def timed_probe(argv: list[str], env: dict, deadline: float
                ) -> tuple[float, float]:
    """One set-up probe: (measured seconds, reference seconds)."""
    samples = [reference_loop() for _ in range(PROBE_SAMPLES)]
    wall = run_child(argv, env, deadline)
    samples += [reference_loop() for _ in range(PROBE_SAMPLES)]
    return wall, wall * speed(samples)


def summarize(result: dict, setup: list, trace: int) -> tuple[dict, list]:
    """The metrics for the final line, and the report lines before it."""
    from metrics import END_TO_END, PER_LAYER

    seconds = result["reference_s"]
    eps = [e / s for e, s in zip(result["events"], seconds)]
    end_to_end = {"wall_s": statistics.median(seconds),
                  "setup_s": statistics.median(ref for _, ref in setup),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "events_per_s": statistics.median(eps)}
    measured = {"wall_s": statistics.median(result["wall_s"]),
                "setup_s": statistics.median(wall for wall, _ in setup),
                "events_per_s": statistics.median(
                    e / w for e, w in zip(result["events"], result["wall_s"]))}
    env = result["env"]
    lines = [
        f"env: nproc={env['nproc']} cpus_usable={env['cpus_usable']} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
        f"threads={env['thread_env']}",
        f"work per pass: events={result['events'][0]} "
        + " ".join(f"{k}={v}" for k, v in result["counts"].items())
        + f"; passes={result['passes']}",
    ]
    for name, unit, better, _ in END_TO_END:
        lines.append(f"  {name} = {end_to_end[name]:.6g} {unit} "
                     f"({better} is better)"
                     + (f"; measured {measured[name]:.6g} {unit}"
                        if name in measured else ""))
    if "fit_converged_frac" in result["extra"]:
        lines.append(f"  fit_converged_frac = "
                     f"{result['extra']['fit_converged_frac']:.6g} fraction "
                     "(higher is better)")
    if not trace:
        return {name: {"value": end_to_end[name], "unit": unit}
                for name, unit, _, _ in END_TO_END}, lines
    layers = result["per_layer"]
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        if name in layers:
            metrics[name] = {"value": layers[name], "unit": unit}
            lines.append(f"  {name} = {layers[name]:.6g} {unit}")
        else:
            lines.append(f"  {name} = absent (its layer no longer exists)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    deadline = monotonic() + DEADLINE_S
    env = {**os.environ, **PINNED_ENV}
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = workdir / "result.json"
    try:
        setups = [timed_probe([*common, "--setup-only",
                               "--workdir", str(workdir / f"probe{k}")],
                              env, deadline)
                  for k in range(SETUP_PROBES)]
        trace_out = ["--trace-out", str(OUT / f"{tag}.spans.json")]
        run_child([*common, "--workdir", str(workdir / "run"),
                   "--result", str(result_path),
                   *(trace_out if args.trace else [])], env, deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, lines = summarize(result, setups, args.trace)
    checks = result["checks"]
    failed = [c for c in checks if not c["ok"]]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_probes_measured_and_reference_s": setups, **result}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n",
                                     encoding="utf-8")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    print(f"checks: {len(checks)} attempted, {len(failed)} failed")
    for c in failed:
        print(f"  FAILED {c['name']}: {c['detail']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
