"""The pair comparison tool's gain and no-regression rules, its signal
handling and the copies that both sides run from.

The tool is loaded from its path.  No benchmark runs here; the copy test
runs git in a repository it makes under ``tmp_path``.
"""

from __future__ import annotations

import importlib.util
import signal
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Ten base runs, 1.00 .. 1.09: interquartile range 0.045 (inclusive method).
BASE = [1.0 + i / 100 for i in range(10)]


def _verdict(bench_pairs, better, base, change, bound=0.25):
    metrics = [{"name": "m", "better": better, "bound": bound}]
    summary = bench_pairs.summarize(metrics, [{"m": v} for v in base],
                                    [{"m": v} for v in change])
    return summary["m"]


def _lower_change(losses):
    """The base runs less 0.1, except that the first ``losses`` pairs go
    0.01 above their base run."""
    return [b + 0.01 if i < losses else b - 0.1 for i, b in enumerate(BASE)]


def test_nine_wins_with_a_gap_wider_than_the_base_iqr_hold(bench_pairs):
    s = _verdict(bench_pairs, "lower", BASE, _lower_change(1))
    assert s["wins"] == 9
    assert s["base"]["median"] - s["change"]["median"] > (
        s["base"]["q3"] - s["base"]["q1"])
    assert s["gain_rule"] is True


def test_eight_wins_fail_however_wide_the_gap(bench_pairs):
    s = _verdict(bench_pairs, "lower", BASE, _lower_change(2))
    assert s["wins"] == 8
    assert s["base"]["median"] - s["change"]["median"] > (
        s["base"]["q3"] - s["base"]["q1"])
    assert s["gain_rule"] is False


def test_ten_wins_fail_with_a_gap_inside_the_base_iqr(bench_pairs):
    s = _verdict(bench_pairs, "lower", BASE, [b - 0.001 for b in BASE])
    assert s["wins"] == 10
    assert s["gain_rule"] is False


@pytest.mark.parametrize("losses, holds", [(1, True), (2, False)])
def test_a_higher_is_better_metric_takes_the_same_rule(bench_pairs, losses,
                                                       holds):
    base = [100.0 + b for b in BASE]
    change = [100.0 + 2 * b - c
              for b, c in zip(BASE, _lower_change(losses))]
    s = _verdict(bench_pairs, "higher", base, change)
    assert s["wins"] == 10 - losses
    assert s["change"]["median"] - s["base"]["median"] > (
        s["base"]["q3"] - s["base"]["q1"])
    assert s["relative_change"] > 0
    assert s["gain_rule"] is holds


# The base median is 1.045, so a bound of 0.25 allows 0.26125 and one of
# 0.01 allows 0.01045, less than the base's interquartile range.
@pytest.mark.parametrize("better, sign", [("lower", 1), ("higher", -1)])
@pytest.mark.parametrize("shift, bound, verdict", [
    (0.0, 0.25, "holds"),
    (0.25, 0.25, "holds"),
    (0.27, 0.25, "fails"),
    (0.0, 0.01, "unresolved"),
    (-0.005, 0.01, "unresolved"),
    (-0.1, 0.01, "holds"),
    (0.02, 0.01, "fails"),
])
def test_no_regression_verdict(bench_pairs, better, sign, shift, bound,
                               verdict):
    """``shift`` moves every change run in the worse direction (a negative
    shift is a gain): by more than the bound fails, inside a base spread
    wider than the bound is unresolved unless every change run beats every
    base run, and anything else holds."""
    change = [b + sign * shift for b in BASE]
    s = _verdict(bench_pairs, better, BASE, change, bound=bound)
    assert s["no_regression"] == verdict


def test_sigterm_and_sighup_raise_system_exit(bench_pairs):
    signums = (signal.SIGTERM, signal.SIGHUP)
    saved = {signum: signal.getsignal(signum) for signum in signums}
    try:
        bench_pairs.install_signal_handlers()
        for signum in signums:
            handler = signal.getsignal(signum)
            with pytest.raises(SystemExit) as info:
                handler(signum, None)
            assert info.value.code == 128 + signum
    finally:
        for signum, handler in saved.items():
            signal.signal(signum, handler)


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@localhost", *args],
        cwd=repo, check=True, text=True, capture_output=True).stdout


def test_both_sides_run_from_temporary_copies(bench_pairs, tmp_path):
    """The base revision and the working tree are each checked out afresh:
    the change side holds the edited, the deleted and the untracked files
    but not the ignored one, and both copies go on exit, leaving the
    repository as it was."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for name, text in [("edited.txt", "committed"), ("deleted.txt", "x"),
                       (".gitignore", "ignored.txt\n")]:
        (repo / name).write_text(text)
    _git(repo, "add", "--all")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "edited.txt").write_text("edited")
    (repo / "deleted.txt").unlink()
    (repo / "untracked.txt").write_text("new")
    (repo / "ignored.txt").write_text("build output")
    head, status = _git(repo, "rev-parse", "HEAD"), _git(repo, "status")

    with bench_pairs.checkouts(repo, "HEAD") as (base, change):
        for tree in (base, change):
            assert tree.is_dir() and not tree.is_relative_to(repo)
        assert base.parent == change.parent
        assert (base / "edited.txt").read_text() == "committed"
        assert (base / "deleted.txt").exists()
        assert not (base / "untracked.txt").exists()
        assert (change / "edited.txt").read_text() == "edited"
        assert not (change / "deleted.txt").exists()
        assert (change / "untracked.txt").read_text() == "new"
        assert not (change / "ignored.txt").exists()
    assert not base.exists() and not change.exists()
    assert not base.parent.exists()
    assert _git(repo, "worktree", "list").count("\n") == 1
    assert _git(repo, "rev-parse", "HEAD") == head
    assert _git(repo, "status") == status
