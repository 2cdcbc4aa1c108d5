"""The workload process: set up one workload and measure it.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread in its
environment.  With ``--setup-only`` it imports contestsim, builds the
workload's inputs and exits, so the parent can time set-up from interpreter
start.  Otherwise it sets up again, repeats the workload until the time
budget is spent, and writes what it measured as JSON to ``--result``.

With ``--trace 1`` half the budget is spent untraced and half traced; the
difference of the two median times, in reference seconds, is the tracing
overhead, and the per-layer metrics are medians over the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import contestsim from this checkout's ``src``, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    import contestsim
    origin = Path(contestsim.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"contestsim imported from {origin}, not from "
                         f"{ROOT / 'src'}")
    return contestsim


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat(workload, budget_s: float) -> tuple[list, float]:
    """Run passes until the next one would overrun the budget; at least one.

    Also returns the peak RSS after set-up and the first pass, which does
    not depend on how many passes fit in the budget.
    """
    reps = []
    start = perf_counter()
    while True:
        reps.append(workload.run_once())
        if len(reps) == 1:
            peak = peak_rss_mb()
        typical = statistics.median(r.wall_s for r in reps)
        if perf_counter() - start + typical > budget_s:
            return reps, peak


def traced_passes(workload, budget_s: float, setup_spans: list):
    from metrics import absent_metrics, layer_metrics
    from tracing import Tracer

    passes, per_pass, absent = [], [], []
    start = perf_counter()
    while True:
        tracer = Tracer()
        with tracer:
            root = tracer.open("benchmark.pass")
            rep = workload.run_once()
            tracer.close(root)
        passes.append(rep)
        values = layer_metrics(tracer.spans, setup_spans, rep.extra)
        absent = absent_metrics(tracer.absent)
        per_pass.append({k: v for k, v in values.items() if k not in absent})
        if perf_counter() - start + rep.wall_s > budget_s:
            return passes, per_pass, absent, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        workload.setup()
        return 0

    result = {"env": environment()}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        with tracer:
            root = tracer.open("benchmark.setup")
            workload.setup()
            tracer.close(root)
        setup_spans = tracer.spans
        untraced, peak = repeat(workload, args.seconds / 2)
        traced, per_pass, absent, spans = traced_passes(
            workload, args.seconds / 2, setup_spans)
        checked = untraced + traced
        layers = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        layers["trace.overhead_s"] = (
            statistics.median(r.reference_s for r in traced)
            - statistics.median(r.reference_s for r in untraced))
        result.update(per_layer=layers, absent=absent,
                      traced_passes=len(traced))
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps({
                "setup": [s.to_record() for s in setup_spans],
                "last_pass": [s.to_record() for s in spans],
            }) + "\n", encoding="utf-8")
    else:
        workload.setup()
        untraced, peak = repeat(workload, args.seconds)
        checked = untraced

    # Times come from untraced passes only; every pass's checks count.
    result.update(
        passes=len(untraced),
        wall_s=[r.wall_s for r in untraced],
        reference_s=[r.reference_s for r in untraced],
        events=[r.events for r in untraced],
        counts=untraced[0].counts,
        extra=untraced[0].extra,
        checks=[asdict(c) for r in checked for c in r.checks],
        peak_rss_mb=peak,
    )
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
