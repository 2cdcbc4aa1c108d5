"""Compare the working tree with a base revision on one benchmark workload.

    python3 tools/bench_pairs.py --base REV --workload NAME
        [--seed N] [--seconds S] [--pairs P]

Run from anywhere inside the repository.  The base revision is checked out
into a temporary ``git worktree`` (under ``$TMPDIR``), which is removed on
exit, also when SIGTERM or SIGHUP stops the run.  Each pair runs

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0

once in the base and once in the working tree; the side that runs first
flips from one pair to the next, so a drift in host speed does not favour
either side.

For each end-to-end metric in BENCHMARK.json it prints both sides' median
and quartiles, how many pairs the working tree won, whether the gain rule
holds (at least 9 wins in 10 pairs, and medians further apart, in the
better direction, than the base's interquartile range), and the
no-regression verdict against the metric's ``bound``:

* ``fails``: the change's median is worse than the base's by more than
  ``bound`` times the base median;
* ``unresolved``: otherwise, if the base's interquartile range is wider
  than ``bound`` times its median, unless every change run beats every
  base run;
* ``holds``: otherwise.

Its last line is one JSON object holding every pair's metrics for both
sides and that summary per metric, for a ``BENCH_<n>.json`` record.

It exits 1 if a run fails, or reports ``"correct": false`` or a failed
check; the runs' output is printed first.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


class RunFailed(Exception):
    pass


def exit_on_signal(signum: int, frame) -> None:
    """Raise `SystemExit`, so that ``finally`` blocks run and the base
    worktree is removed."""
    raise SystemExit(128 + signum)


def install_signal_handlers() -> None:
    """Turn SIGTERM and SIGHUP, which would end the process on the spot,
    into `exit_on_signal`."""
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, exit_on_signal)


def run_benchmark(checkout: Path, workload: str, seed: int,
                  seconds: int) -> dict:
    """The metrics of one ``perfbench/run.py`` run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{checkout}: exit {done.returncode}\n"
                        f"{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] > 0:
        raise RunFailed(f"{checkout}: checks failed\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], base: list[dict],
              change: list[dict]) -> dict:
    """Per metric: both sides' median and quartiles, how many pairs the
    working tree won, whether the gain rule holds, and the no-regression
    verdict."""
    pairs = len(base)
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        gap = (bmed - cmed) if lower else (cmed - bmed)
        allowed = metric["bound"] * abs(bmed)
        if -gap > allowed:
            no_regression = "fails"
        elif bq3 - bq1 > allowed and not (
                max(c) < min(b) if lower else min(c) > max(b)):
            no_regression = "unresolved"
        else:
            no_regression = "holds"
        summary[name] = {
            "better": metric["better"],
            "base": {"median": bmed, "q1": bq1, "q3": bq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "relative_change": (cmed - bmed) / bmed,
            "wins": wins,
            "pairs": pairs,
            "gain_rule": wins * 10 >= 9 * pairs and gap > bq3 - bq1,
            "no_regression": no_regression,
        }
    return summary


def report(summary: dict) -> list[str]:
    """One line per metric of `summarize`'s result."""
    lines = []
    for name, s in summary.items():
        b, c = s["base"], s["change"]
        lines.append(
            f"{name:>13} ({s['better']} is better): "
            f"base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
            f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
            f"{s['relative_change']:+.1%}  wins {s['wins']}/{s['pairs']}  "
            f"gain rule {'holds' if s['gain_rule'] else 'fails'}  "
            f"no regression {s['no_regression']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    install_signal_handlers()
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}",
                      cwd=root)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_tree), args.base, cwd=root)
        try:
            runs: dict[Path, list[dict]] = {base_tree: [], root: []}
            for i in range(args.pairs):
                order = (base_tree, root) if i % 2 == 0 else (root, base_tree)
                for checkout in order:
                    runs[checkout].append(run_benchmark(
                        checkout, args.workload, args.seed, args.seconds))
                print(f"pair {i + 1}: " + "  ".join(
                    f"{m['name']} {runs[base_tree][-1][m['name']]:.6g} -> "
                    f"{runs[root][-1][m['name']]:.6g}" for m in metrics),
                    flush=True)
        except RunFailed as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
        finally:
            git("worktree", "remove", "--force", str(base_tree), cwd=root)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"pairs={args.pairs} base={args.base}")
    summary = summarize(metrics, runs[base_tree], runs[root])
    for line in report(summary):
        print(line)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "base": args.base,
        "base_commit": base_commit,
        "pairs": [{"base": b, "change": c}
                  for b, c in zip(runs[base_tree], runs[root])],
        "metrics": summary,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
