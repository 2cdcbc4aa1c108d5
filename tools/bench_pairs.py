"""Compare the working tree with a base revision on one benchmark workload.

    python3 tools/bench_pairs.py --base REV --workload NAME
        [--seed N] [--seconds S] [--pairs P]

Run from anywhere inside the repository.  The base revision is checked out
into a temporary ``git worktree`` (under ``$TMPDIR``), which is removed on
exit.  Each pair runs

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0

once in the base and once in the working tree; the side that runs first
flips from one pair to the next, so a drift in host speed does not favour
either side.

For each end-to-end metric in BENCHMARK.json it prints both sides' median
and quartiles, how many pairs the working tree won, and whether the gain
rule holds: at least 9 wins in 10 pairs, and medians further apart, in the
better direction, than the base's interquartile range.

It exits 1 if a run fails, or reports ``"correct": false`` or a failed
check; the runs' output is printed first.
"""

from __future__ import annotations

import argparse
import json
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


def report(metrics: list[dict], base: list[dict],
           change: list[dict]) -> list[str]:
    """One line per metric: medians, quartiles, wins and the gain rule."""
    pairs = len(base)
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        gap = (bmed - cmed) if lower else (cmed - bmed)
        gain = wins * 10 >= 9 * pairs and gap > bq3 - bq1
        lines.append(
            f"{name:>13} ({metric['better']} is better): "
            f"base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
            f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
            f"{(cmed - bmed) / bmed:+.1%}  wins {wins}/{pairs}  "
            f"gain rule {'holds' if gain else 'fails'}")
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

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
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
    for line in report(metrics, runs[base_tree], runs[root]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
