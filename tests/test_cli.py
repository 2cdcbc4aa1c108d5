"""End-to-end checks of the command-line front end, run in-process, and
one run of ``python -m contestsim`` for its entry point and exit status."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import contestsim
from contestsim import (BehaviorPrior, ConfigurationError, generate_corpus,
                        parse_experiment_config, read_corpus, read_event_log,
                        run_contest, verify_manifest, write_corpus,
                        write_event_log)
from contestsim.cli import build_parser, main
from contestsim.core import decode_json

CONFIG = """\
config_version=1
n_workers=4
n_posts=40
window_size=10
task_unit_time_s=5.0
task_unit_size=5
arrival_rate=2.0
prize_value=0.5
base_points=10
quality_constraint=0
reduction_rate=2.0
spreads=1,2
replications=2
master_seed=7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return path


def _read_fits(path):
    return [decode_json(line) for line in path.read_text("utf-8").splitlines()]


def test_gen_corpus_writes_the_requested_posts(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--n-posts", "30", "--out", str(out)]) == 0
    assert len(read_corpus(out)) == 30
    assert "wrote 30 posts" in capsys.readouterr().out


def test_python_m_contestsim_exits_with_mains_status(tmp_path):
    # `__main__.py` and the process exit code, which in-process calls of
    # `main` never reach.
    env = dict(os.environ,
               PYTHONPATH=str(Path(contestsim.__file__).parents[1]))

    def run(n_posts, out):
        return subprocess.run(
            [sys.executable, "-m", "contestsim", "gen-corpus", "--n-posts",
             n_posts, "--out", out], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60)

    good = run("3", "corpus.jsonl")
    assert (good.returncode, good.stderr) == (0, "")
    assert len(read_corpus(tmp_path / "corpus.jsonl")) == 3
    bad = run("-1", "bad.jsonl")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert re.fullmatch(r"error: [^\n]*\n", bad.stderr)
    assert not (tmp_path / "bad.jsonl").exists()


def test_gen_corpus_rejects_bad_arguments(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    code = main(["gen-corpus", "--n-posts", "-1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()



@pytest.mark.parametrize("mean", ["nan", "inf"])
def test_gen_corpus_rejects_a_non_finite_mean(tmp_path, capsys, mean):
    out = tmp_path / "corpus.jsonl"
    code = main(["gen-corpus", "--n-posts", "5", "--mean-entities", mean,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mean_entities must be positive and finite")
    assert "Traceback" not in err
    assert not out.exists()

def test_simulate_writes_a_readable_log(tmp_path, config_file, capsys):
    out = tmp_path / "contest.jsonl"
    code = main(["simulate", "--config", str(config_file),
                 "--spread", "2", "--out", str(out)])
    assert code == 0
    log = read_event_log(out)
    assert log.config.reward_spread == 2
    assert log.events
    assert "annotations=" in capsys.readouterr().out


def test_simulate_seed_override_changes_the_run(tmp_path, config_file):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", "--config", str(config_file),
                 "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(config_file),
                 "--seed", "99", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_accepts_an_explicit_corpus(tmp_path, config_file):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--seed", "7",
                 "--out", str(corpus)]) == 0
    out = tmp_path / "contest.jsonl"
    assert main(["simulate", "--config", str(config_file),
                 "--corpus", str(corpus), "--out", str(out)]) == 0
    assert read_event_log(out).counters.ingested == 40


def test_sweep_emits_a_verified_tree(tmp_path, config_file, capsys):
    out_dir = tmp_path / "out"
    code = main(["sweep", "--config", str(config_file),
                 "--out-dir", str(out_dir)])
    assert code == 0
    assert verify_manifest(out_dir)
    captured = capsys.readouterr()
    assert "ran 4 contests" in captured.out
    assert "trend:" in captured.out


@pytest.fixture
def overflow_config(tmp_path):
    """A sweep config whose prior draws an infinite outside rate for worker
    1 of replication 3 (seed key 0,3)."""
    path = tmp_path / "overflow.cfg"
    path.write_text(CONFIG.replace("replications=2", "replications=6")
                    .replace("master_seed=7", "master_seed=0")
                    + "halfnormal_sigma=1e308\n", encoding="utf-8")
    return path


OVERFLOW = "worker 1: lambda_out must be finite, got inf"


def test_a_sweep_stops_at_the_first_cell_that_fails(tmp_path, capsys,
                                                     overflow_config):
    out_dir = tmp_path / "out"
    capsys.readouterr()
    code = main(["sweep", "--config", str(overflow_config),
                 "--out-dir", str(out_dir), "--trajectories"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: reward_spread 1, replication 3 "
                            f"(seed key 0,3): {OVERFLOW}\n")
    assert not (out_dir / "manifest.json").exists()
    assert not (out_dir / "errors.jsonl").exists()


def test_simulate_replays_the_cell_a_sweep_stopped_at(tmp_path, capsys,
                                                      overflow_config):
    log_path = tmp_path / "contest.jsonl"
    capsys.readouterr()
    code = main(["simulate", "--config", str(overflow_config),
                 "--spread", "1", "--replication", "3",
                 "--out", str(log_path)])
    assert (code, capsys.readouterr().err) == (2, f"error: {OVERFLOW}\n")
    assert not log_path.exists()


# The sha256 of each file of the ``--trajectories`` sweep of CONFIG; a
# change to the corpus, the engine or the output writers moves them.
PINNED_SWEEP_FILES = {
    "exit_curves.csv":
        "a2f5bf48a82ba309c744757ce3a93e6310fb8d5cbee847bf7c3dc1299d82c9b6",
    "summaries.jsonl":
        "82883012159b498eb5f911cf44d683a4a116bbf178f0e9f74bf4fc0b19d3f225",
    "sweep_table.csv":
        "653939d26b2e36244a875aaf5b27283adb0278a668dfb8bae0d691335afd4757",
    "trajectories.csv":
        "93302a2fd1b4216d77264f67608e85e0aea90c67ea61828aa84306fd5265b66d",
    "trend.json":
        "5c3c7697664192a06df117632b6dafdc491698adf30e628026f806091874a54d",
}


def test_sweep_can_add_trajectories(tmp_path, config_file):
    out_dir = tmp_path / "out"
    code = main(["sweep", "--config", str(config_file),
                 "--out-dir", str(out_dir), "--trajectories"])
    assert code == 0
    assert (out_dir / "trajectories.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    assert "trajectories.csv" in manifest["files"]
    assert verify_manifest(out_dir)
    assert manifest["files"] == PINNED_SWEEP_FILES
    assert {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in PINNED_SWEEP_FILES} == PINNED_SWEEP_FILES


def test_a_sweep_into_a_used_directory_leaves_only_what_it_lists(
        tmp_path, config_file):
    out_dir, fresh = tmp_path / "out", tmp_path / "fresh"
    sweep = ["sweep", "--config", str(config_file), "--out-dir"]
    assert main([*sweep, str(out_dir), "--trajectories"]) == 0
    (out_dir / "notes.txt").write_text("not an output\n", encoding="utf-8")
    assert main([*sweep, str(out_dir)]) == 0
    assert not (out_dir / "trajectories.csv").exists()
    assert verify_manifest(out_dir)
    # A file that is no output of a sweep is left alone.
    assert (out_dir / "notes.txt").read_text("utf-8") == "not an output\n"
    # The same bytes as a sweep into a fresh directory, as pinned.
    assert main([*sweep, str(fresh)]) == 0
    manifest = json.loads((fresh / "manifest.json").read_text("utf-8"))
    assert manifest["files"] == {name: digest for name, digest
                                 in PINNED_SWEEP_FILES.items()
                                 if name != "trajectories.csv"}
    for path in fresh.iterdir():
        assert (out_dir / path.name).read_bytes() == path.read_bytes()


def test_fit_covers_all_workers_or_just_one(tmp_path, config_file):
    log_path = tmp_path / "contest.jsonl"
    assert main(["simulate", "--config", str(config_file),
                 "--out", str(log_path)]) == 0
    all_out = tmp_path / "fits.jsonl"
    assert main(["fit", "--log", str(log_path), "--out", str(all_out)]) == 0
    fits = _read_fits(all_out)
    assert [f["worker_id"] for f in fits] == [0, 1, 2, 3]
    assert all(f["model_kind"] == "two_state" for f in fits)

    one_out = tmp_path / "one.jsonl"
    assert main(["fit", "--log", str(log_path), "--worker", "1",
                 "--model", "log_linear", "--out", str(one_out)]) == 0
    (fit,) = _read_fits(one_out)
    assert fit["worker_id"] == 1
    assert fit["model_kind"] == "log_linear"
    assert len(fit["theta_hat"]) == 5


def test_fit_rejects_a_worker_not_in_the_log(tmp_path, config_file, capsys):
    log_path = tmp_path / "contest.jsonl"
    assert main(["simulate", "--config", str(config_file),
                 "--out", str(log_path)]) == 0
    out = tmp_path / "fits.jsonl"
    code = main(["fit", "--log", str(log_path), "--worker", "99",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "worker 99" in err
    assert not out.exists()


def test_fit_gives_an_idle_worker_an_empty_fit(tmp_path, contest_config,
                                               make_posts, make_profiles):
    # One post in one bin: only one of the three workers ever annotates.
    config = contest_config(n_workers=3, n_posts=1, window_size=1,
                            task_unit_size=1, arrival_rate=0.1)
    log = run_contest(config, make_profiles(3), make_posts(1), seed=0)
    log_path = tmp_path / "contest.jsonl"
    write_event_log(log, log_path)
    idle = ({e.worker_id for e in log.final_ranking}
            - {e.worker_id for e in log.events})
    assert idle
    out = tmp_path / "fits.jsonl"
    for wid in sorted(idle):
        assert main(["fit", "--log", str(log_path), "--worker", str(wid),
                     "--model", "log_linear", "--out", str(out)]) == 0
        (fit,) = _read_fits(out)
        assert (fit["worker_id"], fit["stop_reason"]) == (wid, "empty")
        assert main(["fit", "--log", str(log_path), "--worker", str(wid),
                     "--out", str(out)]) == 0
        (fit,) = _read_fits(out)
        assert (fit["lambda_in_hat"], fit["lambda_out_hat"]) == (None, None)


def test_fit_without_worker_covers_idle_workers(tmp_path, contest_config,
                                                make_posts, make_profiles):
    config = contest_config(n_workers=3, n_posts=1, window_size=1,
                            task_unit_size=1, arrival_rate=0.1)
    log = run_contest(config, make_profiles(3), make_posts(1), seed=0)
    log_path = tmp_path / "contest.jsonl"
    write_event_log(log, log_path)
    (busy,) = {e.worker_id for e in log.events}
    out = tmp_path / "fits.jsonl"
    assert main(["fit", "--log", str(log_path), "--out", str(out)]) == 0
    fits = _read_fits(out)
    assert [f["worker_id"] for f in fits] == [0, 1, 2]
    assert [f["lambda_in_hat"] is None and f["lambda_out_hat"] is None
            for f in fits] == [wid != busy for wid in range(3)]
    assert main(["fit", "--log", str(log_path), "--model", "log_linear",
                 "--out", str(out)]) == 0
    fits = _read_fits(out)
    assert [f["worker_id"] for f in fits] == [0, 1, 2]
    assert [f["stop_reason"] == "empty" for f in fits] == [
        wid != busy for wid in range(3)]


@pytest.mark.parametrize("model", ["two_state", "log_linear"])
def test_fit_names_the_first_non_positive_holding_time(tmp_path, capsys,
                                                       model):
    # CONFIG at master seed 0 and one replication, on the seed-0 corpus,
    # with the first event's holding time set to 0.
    config = tmp_path / "sweep.cfg"
    config.write_text(CONFIG.replace("replications=2", "replications=1")
                      .replace("master_seed=7", "master_seed=0"),
                      encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config), "--corpus", str(corpus),
                 "--out", str(log_path)]) == 0
    lines = log_path.read_text("utf-8").splitlines(keepends=True)
    lines[1] = re.sub(r'"holding_time_ms":[0-9]*', '"holding_time_ms":0',
                      lines[1], count=1)
    log_path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    code = main(["fit", "--log", str(log_path), "--model", model,
                 "--out", str(tmp_path / "fits.jsonl")])
    assert (code, capsys.readouterr().err) == (
        2, "error: worker 0, event_index 0: holding_time_ms must be "
           "positive, got 0\n")


def test_recover_reports_and_saves_the_rows(tmp_path, capsys):
    out = tmp_path / "recovery.json"
    code = main(["recover", "--target", "50", "--seeds", "0",
                 "--lambda-in", "1.66", "--lambda-out", "1.12",
                 "--out", str(out)])
    assert code == 0
    assert "recovery over 2 fits" in capsys.readouterr().out
    record = json.loads(out.read_text("utf-8"))
    assert record["n_events_target"] == 50
    assert len(record["rows"]) == 2
    assert record["unidentifiable"] == 0


def test_recover_requires_both_rate_flags(capsys):
    assert main(["recover", "--lambda-in", "1.66"]) == 2
    assert "go together" in capsys.readouterr().err


def test_recover_rejects_a_malformed_seed_list(capsys):
    code = main(["recover", "--seeds", "0,x", "--target", "10",
                 "--lambda-in", "1.0", "--lambda-out", "1.0"])
    assert code == 2
    assert "bad seed list" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, message", [
    ("", "recovery needs at least one seed"),
    ("0,0", "recovery seeds must be distinct, got [0, 0]"),
], ids=["empty", "repeated"])
def test_recover_rejects_an_empty_or_repeated_seed_list(capsys, seeds,
                                                        message):
    code = main(["recover", "--seeds", seeds, "--target", "10",
                 "--lambda-in", "1.0", "--lambda-out", "1.0"])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))


# `rng.check_seed`'s rule, which every seed and a log header's seed obey.
_SEED_RULE = "a non-negative integer or a non-empty list of them"


@pytest.mark.parametrize("argv, config_seed, message", [
    (["sweep"], -1, "{config}: master_seed must be a non-negative integer, "
                    "got -1"),
    (["simulate"], -1, "{config}: master_seed must be a non-negative "
                       "integer, got -1"),
    (["simulate", "--seed", "-5"], 7,
     "master_seed must be a non-negative integer, got -5"),
    (["simulate", "--replication", "-1"], 7,
     "replication must be a non-negative integer, got -1"),
    (["gen-corpus", "--n-posts", "5", "--seed", "-3"], 7,
     f"seed must be {_SEED_RULE}, got -3"),
    (["recover", "--seeds=-1", "--target", "10"], 7,
     f"seed must be {_SEED_RULE}, got -1"),
], ids=["config sweep", "config simulate", "simulate seed",
        "simulate replication", "gen-corpus seed", "recover seeds"])
def test_a_negative_seed_fails_cleanly(tmp_path, capsys, argv, config_seed,
                                       message):
    config = tmp_path / "seed.cfg"
    config.write_text(CONFIG.replace("master_seed=7",
                                     f"master_seed={config_seed}"),
                      encoding="utf-8")
    out = tmp_path / "out"
    extra = {"sweep": ["--config", str(config), "--out-dir", str(out)],
             "simulate": ["--config", str(config), "--out", str(out)],
             "gen-corpus": ["--out", str(out)], "recover": []}[argv[0]]
    code = main(argv + extra)
    assert (code, capsys.readouterr().err) == (
        2, f"error: {message.format(config=config)}\n")
    assert not out.exists()


def test_recover_rejects_an_infinite_rate(capsys):
    code = main(["recover", "--target", "200", "--seeds", "0",
                 "--lambda-in", "inf", "--lambda-out", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: worker 0: lambda_in must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("dispatch", ["windowed", "shared"])
def test_validate_accepts_an_untouched_log(tmp_path, capsys, dispatch):
    config_file = tmp_path / "sweep.cfg"
    config_file.write_text(CONFIG + f"dispatch={dispatch}\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config_file),
                 "--corpus", str(corpus), "--out", str(log_path)]) == 0
    assert main(["validate", "--log", str(log_path),
                 "--corpus", str(corpus)]) == 0
    assert "all invariants hold" in capsys.readouterr().out


def test_validate_flags_a_doctored_log(tmp_path, config_file, capsys):
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    main(["gen-corpus", "--n-posts", "40", "--seed", "7",
          "--out", str(corpus)])
    main(["simulate", "--config", str(config_file),
          "--corpus", str(corpus), "--out", str(log_path)])
    lines = log_path.read_text("utf-8").splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if "holding_time_ms" in record:
            record["holding_time_ms"] += 1
            record["event_time_ms"] += 1
            lines[i] = json.dumps(record, sort_keys=True,
                                  separators=(",", ":"))
            break
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")



def test_validate_flags_an_exit_inside_the_reward_spread(
        tmp_path, config_file, capsys):
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config_file), "--spread", "2",
                 "--corpus", str(corpus), "--out", str(log_path)]) == 0
    # The leader exits at the horizon, the last checkpoint, at its true
    # rank: only the exit itself is wrong.
    log = read_event_log(log_path)
    assert log.horizon_ms == 20000
    leader = log.final_ranking.entries[0].worker_id
    assert leader not in {x.worker_id for x in log.exits}
    lines = log_path.read_text("utf-8").splitlines()
    lines.insert(-1, json.dumps(
        {"eligible": True, "exit_time_ms": 20000, "rank": 1,
         "worker_id": leader}, sort_keys=True, separators=(",", ":")))
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: log.exits[{len(log.exits)}] (worker {leader}, exit_time_ms "
        "20000): exit inside the reward spread\n")


def test_validate_flags_a_post_annotated_twice(tmp_path, stock_log_path,
                                               capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--n-posts", "1520", "--seed", "0",
                 "--out", str(corpus)]) == 0
    lines = stock_log_path.read_text("utf-8").splitlines()
    first, second = (json.loads(line) for line in lines[1:3])
    assert (first["post_id"], second["post_id"]) == (110, 130)
    second["post_id"] = first["post_id"]
    lines[2] = json.dumps(second, sort_keys=True, separators=(",", ":"))
    log_path = tmp_path / "contest.jsonl"
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: log.events[1] (worker {second['worker_id']}, event_index "
        f"{second['event_index']}): post 110 annotated twice\n")


def test_validate_flags_a_post_outside_the_contest(tmp_path, config_file,
                                                   capsys):
    # The contest runs the corpus's first 40 posts; the other 20 are not in
    # it.  Event 0 is pointed at one of them with the same entity count, so
    # every score stays as it was.
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "60", "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config_file),
                 "--corpus", str(corpus), "--out", str(log_path)]) == 0
    posts = read_corpus(corpus)
    event = json.loads(log_path.read_text("utf-8").splitlines()[1])
    entities = posts[event["post_id"]].expected_entities
    outside = next(p.id for p in posts[40:]
                   if p.expected_entities == entities)
    _edit_line(log_path, 1, lambda record: record.update(post_id=outside))
    capsys.readouterr()
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: log.events[0] (worker {event['worker_id']}, event_index 0): "
        f"worker or post {outside} not in the contest\n")


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:1] + lines, "post ids must be unique"),
    (lambda lines: lines[:-1], "expected 40 posts, got 39"),
], ids=["a repeated post id", "a post short"])
def test_validate_takes_the_contest_posts_of_the_corpus(
        edit, message, tmp_path, contest_files, capsys):
    # The first 40 lines are the contest's posts, as `simulate` takes them.
    corpus, log_path = contest_files
    lines = corpus.read_text("utf-8").splitlines()
    corpus.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    code, err = _run_on_log("validate", corpus, log_path, tmp_path, capsys)
    assert code == 2
    assert err == f"error: {message}\n"


def test_validate_flags_swapped_trailer_rows(tmp_path, config_file, capsys):
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    main(["gen-corpus", "--n-posts", "40", "--seed", "7",
          "--out", str(corpus)])
    main(["simulate", "--config", str(config_file),
          "--corpus", str(corpus), "--out", str(log_path)])
    lines = log_path.read_text("utf-8").splitlines()
    trailer = json.loads(lines[-1])
    rows = trailer["final_ranking"]
    rows[0], rows[1] = rows[1], rows[0]
    lines[-1] = json.dumps(trailer, sort_keys=True, separators=(",", ":"))
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: final_ranking[0] (worker {rows[0]['worker_id']}): ")
    assert "Traceback" not in err

def _doctor_header(log_path, how):
    lines = log_path.read_text("utf-8").splitlines()
    if how == "truncated":
        lines[0] = lines[0][: len(lines[0]) // 2]
    else:
        header = json.loads(lines[0])
        header["config"] = {}
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("how", ["truncated", "empty config"])
@pytest.mark.parametrize("command", ["validate", "fit"])
def test_malformed_log_header_fails_cleanly(tmp_path, config_file, capsys,
                                            how, command):
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config_file),
                 "--corpus", str(corpus), "--out", str(log_path)]) == 0
    _doctor_header(log_path, how)
    capsys.readouterr()
    extra = (["--corpus", str(corpus)] if command == "validate"
             else ["--out", str(tmp_path / "fits.jsonl")])
    code = main([command, "--log", str(log_path)] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{log_path}:1:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("post_id", 1.5), ("rank", "3")])
@pytest.mark.parametrize("command", ["validate", "fit"])
def test_wrong_typed_log_value_fails_cleanly(tmp_path, config_file, capsys,
                                            command, key, value):
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config_file),
                 "--corpus", str(corpus), "--out", str(log_path)]) == 0
    lines = log_path.read_text("utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if '"holding_time_ms"' in line)
    record = json.loads(lines[i])
    record[key] = value
    lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    extra = (["--corpus", str(corpus)] if command == "validate"
             else ["--out", str(tmp_path / "fits.jsonl")])
    code = main([command, "--log", str(log_path)] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{log_path}:{i + 1}: {key} must be an integer" in err
    assert "Traceback" not in err


@pytest.fixture
def contest_files(tmp_path, config_file):
    """The corpus and the log of one small contest."""
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config_file),
                 "--corpus", str(corpus), "--out", str(log_path)]) == 0
    return corpus, log_path


def _edit_line(path, index, edit):
    """Rewrite line ``index`` of ``path`` as ``edit`` leaves its record."""
    lines = path.read_text("utf-8").splitlines()
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def _run_on_log(command, corpus, log_path, tmp_path, capsys):
    """Exit code and stderr of ``command`` on the log."""
    capsys.readouterr()
    extra = (["--corpus", str(corpus)] if command == "validate"
             else ["--out", str(tmp_path / "fits.jsonl")])
    code = main([command, "--log", str(log_path)] + extra)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("log_fixture, key, value, where", [
    ("hazard_log_path", "base_hazard", 0.0, "log.exits[0] (worker 15,"),
    ("stock_log_path", "accuracy_floor", 1.0, "log.events[0] (worker")],
    ids=["base_hazard", "accuracy_floor"])
def test_validate_refuses_a_header_the_body_could_not_come_from(
        request, tmp_path, capsys, log_fixture, key, value, where):
    """Exits at ``base_hazard`` 0, or misses at ``accuracy_floor`` 1."""
    log_path = tmp_path / "contest.jsonl"
    log_path.write_bytes(request.getfixturevalue(log_fixture).read_bytes())
    corpus = tmp_path / "corpus.jsonl"
    n_posts = read_event_log(log_path).config.n_posts
    write_corpus(generate_corpus(n_posts, 1.2, seed=0), corpus)
    assert _run_on_log("validate", corpus, log_path, tmp_path, capsys)[0] == 0
    _edit_line(log_path, 0, lambda record: record.update({key: value}))
    code, err = _run_on_log("validate", corpus, log_path, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"error: {where}")
    assert "Traceback" not in err


# `check_run_arguments`'s rule and `check_header`'s horizon rule, which the
# reader applies to the header.
_DISPATCH_RULE = "unknown dispatch mode"
_HORIZON_RULE = "!= 20000 from the config and windowed dispatch"


@pytest.mark.parametrize("keys, value, what", [
    (["horizon_ms"], "x", "an integer"),
    (["horizon_ms"], 1.5, "an integer"),
    (["horizon_ms"], 7, _HORIZON_RULE),
    (["dispatch"], "mystery", _DISPATCH_RULE),
    (["dispatch"], None, _DISPATCH_RULE),
    (["base_hazard"], "x", "a number"),
    (["base_hazard"], True, "a number"),
    (["accuracy_floor"], None, "a number"),
    (["seed"], "abc", _SEED_RULE),
    (["seed"], [], _SEED_RULE),
    (["seed"], [7, 1.5], _SEED_RULE),
    (["seed"], False, _SEED_RULE),
    (["seed"], -1, _SEED_RULE),
    (["seed"], [0, -1], _SEED_RULE),
    (["counters", "ingested"], "x", "an integer"),
    (["counters", "pending"], None, "an integer"),
    (["config", "n_posts"], 40.0, "an integer"),
    (["config", "reward_spread"], True, "an integer"),
    (["config", "task_unit_time_s"], "x", "a number"),
])
@pytest.mark.parametrize("command", ["validate", "fit"])
def test_wrong_typed_log_header_field_fails_cleanly(
        tmp_path, contest_files, capsys, command, keys, value, what):
    corpus, log_path = contest_files

    def edit(header):
        *path, key = keys
        for part in path:
            header = header[part]
        header[key] = value

    _edit_line(log_path, 0, edit)
    code, err = _run_on_log(command, corpus, log_path, tmp_path, capsys)
    got = json.dumps(value, separators=(",", ":"))
    rule = {_DISPATCH_RULE: f"{what} {got}",
            _HORIZON_RULE: f"{keys[-1]} {got} {what}"}.get(
                what, f"{keys[-1]} must be {what}, got {got}")
    assert code == 2
    assert err == f"error: {log_path}:1: {rule}\n"


@pytest.mark.parametrize("index, key", [(0, "mystery"), (1, "x")],
                         ids=["header", "body"])
@pytest.mark.parametrize("command", ["validate", "fit"])
def test_an_unknown_key_on_a_log_line_fails_cleanly(
        tmp_path, contest_files, capsys, command, index, key):
    corpus, log_path = contest_files
    _edit_line(log_path, index, lambda record: record.update({key: 1}))
    code, err = _run_on_log(command, corpus, log_path, tmp_path, capsys)
    assert (code, err) == (
        2, f'error: {log_path}:{index + 1}: unknown key "{key}"\n')
    assert not (tmp_path / "fits.jsonl").exists()


def test_a_whole_number_field_written_as_an_integer_reads_back(
        tmp_path, contest_config, make_posts, make_profiles, capsys):
    # A library-built config may hold an int where a float is declared;
    # `canonical_json` writes it without a fraction.
    config = contest_config(task_unit_time_s=10)
    posts = make_posts(config.n_posts)
    log = run_contest(config, make_profiles(2), posts, seed=0)
    corpus, log_path = tmp_path / "corpus.jsonl", tmp_path / "contest.jsonl"
    write_corpus(posts, corpus)
    write_event_log(log, log_path)
    assert '"task_unit_time_s":10,' in log_path.read_text("utf-8")
    assert read_event_log(log_path) == log
    for command in ("validate", "fit"):
        assert _run_on_log(command, corpus, log_path, tmp_path,
                           capsys)[0] == 0


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("target", ["log header", "log body", "log exit",
                                    "log trailer", "corpus", "manifest"])
def test_a_non_finite_json_token_fails_cleanly(
        tmp_path, config_file, contest_files, capsys, target, token):
    # `canonical_json` never writes NaN or an infinity, so no reader takes
    # one, wherever it stands.
    corpus, log_path = contest_files
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_file),
                 "--out-dir", str(out)]) == 0
    lines = log_path.read_text("utf-8").splitlines()
    body = [i for i, line in enumerate(lines) if '"holding_time_ms"' in line]
    (exit_line,) = [i for i, line in enumerate(lines)
                    if '"exit_time_ms"' in line]
    path, index, keys, read = {
        "log header": (log_path, 0, ["base_hazard"], read_event_log),
        "log body": (log_path, body[1], ["holding_time_ms"], read_event_log),
        "log exit": (log_path, exit_line, ["exit_time_ms"], read_event_log),
        "log trailer": (log_path, len(lines) - 1, ["final_ranking", 0, "score"],
                        read_event_log),
        "corpus": (corpus, 1, ["token_count"], read_corpus),
        "manifest": (out / "manifest.json", 0, ["files", "trend.json"],
                     lambda path: verify_manifest(path.parent)),
    }[target]

    def edit(record):
        *parents, key = keys
        for part in parents:
            record = record[part]
        record[key] = "TOKEN"

    _edit_line(path, index, edit)
    path.write_text(path.read_text("utf-8").replace('"TOKEN"', token),
                    encoding="utf-8")
    message = f"{path}:{index + 1}: {token} is not a JSON number"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        read(path)
    if target != "manifest":
        capsys.readouterr()
        code = main(["validate", "--log", str(log_path),
                     "--corpus", str(corpus)])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


@pytest.mark.parametrize("rows", ["one more", "one fewer"])
@pytest.mark.parametrize("command", ["validate", "fit"])
def test_trailer_ranking_other_than_n_workers_fails_cleanly(
        tmp_path, contest_files, capsys, command, rows):
    corpus, log_path = contest_files

    def edit(trailer):
        ranking = trailer["final_ranking"]
        if rows == "one more":
            ranking.append({"annotations": 0, "last_scored_ms": None,
                            "score": 0, "worker_id": 999})
        else:
            ranking.pop()

    n_lines = _edit_line(log_path, -1, edit)
    code, err = _run_on_log(command, corpus, log_path, tmp_path, capsys)
    n_ranked = 5 if rows == "one more" else 3
    assert code == 2
    assert err == (f"error: {log_path}:{n_lines}: final_ranking ranks "
                   f"{n_ranked} workers, not n_workers 4\n")


def test_validate_flags_ingested_apart_from_n_posts(tmp_path, contest_files,
                                                    capsys):
    # Raising dropped with ingested keeps the conservation sum.
    corpus, log_path = contest_files

    def edit(header):
        header["counters"]["ingested"] += 7
        header["counters"]["dropped"] += 7

    _edit_line(log_path, 0, edit)
    code, err = _run_on_log("validate", corpus, log_path, tmp_path, capsys)
    assert code == 2
    assert err == "error: counters.ingested 47 != config n_posts 40\n"


def test_validate_flags_a_header_base_hazard_run_contest_refuses(
        tmp_path, contest_files, capsys):
    corpus, log_path = contest_files
    _edit_line(log_path, 0, lambda header: header.update(base_hazard=-5.0))
    code, err = _run_on_log("validate", corpus, log_path, tmp_path, capsys)
    assert (code, err) == (
        2, f"error: {log_path}:1: base_hazard must be finite and >= 0, "
           "got -5.0\n")


@pytest.mark.parametrize("model", ["two_state", "log_linear"])
@pytest.mark.parametrize("forged, rule", [
    ({"base_hazard": -1.0},
     "{path}:1: base_hazard must be finite and >= 0, got -1.0"),
    # The log_linear fit would scale elapsed time by this horizon.
    ({"horizon_ms": 7},
     "{path}:1: horizon_ms 7 != 20000 from the config and windowed dispatch"),
    ({"seed": [0, -1]}, f"{{path}}:1: seed must be {_SEED_RULE}, got [0,-1]"),
], ids=["base_hazard", "horizon_ms", "seed"])
def test_fit_refuses_a_header_that_validate_refuses(
        tmp_path, contest_files, capsys, forged, rule, model):
    corpus, log_path = contest_files
    _edit_line(log_path, 0, lambda header: header.update(forged))
    out = tmp_path / "fits.jsonl"
    capsys.readouterr()
    code = main(["fit", "--log", str(log_path), "--model", model,
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert (code, err) == (2, f"error: {rule.format(path=log_path)}\n")
    assert not out.exists()
    assert _run_on_log("validate", corpus, log_path, tmp_path,
                       capsys) == (code, err)


@pytest.mark.parametrize("after_exits, event_index", [(False, 2), (True, 99)],
                         ids=["first", "after the exits"])
@pytest.mark.parametrize("command", ["validate", "fit"])
def test_an_event_index_out_of_order_names_its_line(
        tmp_path, contest_files, capsys, command, after_exits, event_index):
    # The reader reads a chunk that fails a check again line by line, so
    # the message names the line, also after the exit lines.
    corpus, log_path = contest_files
    lines = log_path.read_text("utf-8").splitlines()
    annotations = [i for i, line in enumerate(lines)
                   if '"holding_time_ms"' in line]
    if after_exits:
        index = annotations[-1]
        assert any('"exit_time_ms"' in line for line in lines[:index])
    else:
        index = next(i for i in annotations if '"event_index":1,' in lines[i])
    worker = json.loads(lines[index])["worker_id"]
    _edit_line(log_path, index,
               lambda record: record.update(event_index=event_index))
    code, err = _run_on_log(command, corpus, log_path, tmp_path, capsys)
    assert (code, err) == (2, f"error: {log_path}:{index + 1}: worker "
                              f"{worker} event_index out of order\n")
    assert not (tmp_path / "fits.jsonl").exists()


def _spread_four_files(tmp_path, dispatch):
    """The corpus and the log of a 4-worker contest at spread 4, so that no
    one exits, and at seed 6, whose last annotation finds no entity."""
    config = tmp_path / "spread4.cfg"
    config.write_text(CONFIG + f"dispatch={dispatch}\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config), "--spread", "4",
                 "--seed", "6", "--corpus", str(corpus),
                 "--out", str(log_path)]) == 0
    return corpus, log_path


@pytest.mark.parametrize("dispatch", ["windowed", "shared"])
def test_validate_flags_a_horizon_apart_from_the_config(tmp_path, capsys,
                                                        dispatch):
    # Both dispatch modes give this config a 20000 ms horizon.
    corpus, log_path = _spread_four_files(tmp_path, dispatch)
    _edit_line(log_path, 0,
               lambda header: header.update(horizon_ms=7 * 20000))
    code, err = _run_on_log("validate", corpus, log_path, tmp_path, capsys)
    assert (code, err) == (2, f"error: {log_path}:1: horizon_ms 140000 != "
                              f"20000 from the config and {dispatch} "
                              "dispatch\n")


@pytest.mark.parametrize("dispatch", ["windowed", "shared"])
def test_validate_flags_an_annotation_after_the_horizon(tmp_path, capsys,
                                                        dispatch):
    # The last annotation scores nothing, so moving it to 50000 ms, with
    # its holding time, leaves every score, rank and trailer row as it was.
    corpus, log_path = _spread_four_files(tmp_path, dispatch)
    lines = log_path.read_text("utf-8").splitlines()
    assert not any('"exit_time_ms"' in line for line in lines)
    last = json.loads(lines[-2])
    assert last["annotated_count"] == 0
    shift = 50000 - last["event_time_ms"]
    _edit_line(log_path, -2, lambda record: record.update(
        event_time_ms=50000,
        holding_time_ms=record["holding_time_ms"] + shift))
    code, err = _run_on_log("validate", corpus, log_path, tmp_path, capsys)
    assert (code, err) == (
        2, f"error: log.events[{len(lines) - 3}] (worker "
           f"{last['worker_id']}, event_index {last['event_index']}): "
           "event after the horizon 20000 ms\n")


@pytest.mark.parametrize("dispatch, shift, message", [
    ("windowed", -1, "dropped 1, pending 1 != 2, 0 under windowed"),
    ("shared", 1, "dropped 1, pending -1 != 0, 0 under shared"),
], ids=["windowed", "shared"])
def test_validate_flags_counters_split_apart_from_the_dispatch(
        tmp_path, capsys, dispatch, shift, message):
    # Moving a post between dropped and pending keeps the conservation sum;
    # the windowed log drops 2 posts, the shared one solves all 40.
    corpus, log_path = _spread_four_files(tmp_path, dispatch)

    def edit(header):
        header["counters"]["dropped"] += shift
        header["counters"]["pending"] -= shift

    _edit_line(log_path, 0, edit)
    code, err = _run_on_log("validate", corpus, log_path, tmp_path, capsys)
    assert (code, err) == (2, f"error: counters {message} dispatch\n")


def test_fit_log_linear_converges_on_every_stock_worker(tmp_path,
                                                       stock_log_path, capsys):
    out = tmp_path / "fits.jsonl"
    assert main(["fit", "--log", str(stock_log_path), "--model", "log_linear",
                 "--out", str(out)]) == 0
    assert "fitted 20 worker(s) with log_linear (20 converged)" in \
        capsys.readouterr().out
    assert all(f["stop_reason"] == "converged" for f in _read_fits(out))


def test_non_utf8_log_fails_cleanly(tmp_path, capsys):
    log_path = tmp_path / "contest.jsonl"
    log_path.write_bytes(b'{"format":\xff\xfe}\n')
    code = main(["fit", "--log", str(log_path),
                 "--out", str(tmp_path / "fits.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_non_utf8_config_fails_cleanly(tmp_path, capsys, command):
    config = tmp_path / "bad.cfg"
    config.write_bytes(CONFIG.encode("utf-8") + b"# caf\xe9\n")
    extra = (["--out", str(tmp_path / "contest.jsonl")]
             if command == "simulate" else ["--out-dir", str(tmp_path / "out")])
    code = main([command, "--config", str(config)] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{config}: not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_non_finite_config_value_fails_cleanly(tmp_path, capsys, command):
    config = tmp_path / "bad.cfg"
    config.write_text(CONFIG.replace("task_unit_time_s=5.0",
                                     "task_unit_time_s=inf"), encoding="utf-8")
    extra = (["--out", str(tmp_path / "contest.jsonl")]
             if command == "simulate" else ["--out-dir", str(tmp_path / "out")])
    code = main([command, "--config", str(config)] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "task_unit_time_s must be finite" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("bad_line", [
    b'{"id":3,"token_count":10',
    b'{"id":3,"token_count":10}',
    b'{"id":3,"token_count":"10","expected_entities":1}',
    b'{"id":3,"token_count":10.5,"expected_entities":1}',
    b'[3,10,1]',
    b'{"id":3,"token_count":10,"expected_entities":\xff}',
])
def test_malformed_corpus_fails_cleanly(tmp_path, config_file, capsys,
                                        bad_line):
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    assert main(["gen-corpus", "--n-posts", "40", "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["simulate", "--config", str(config_file),
                 "--corpus", str(corpus), "--out", str(log_path)]) == 0
    lines = corpus.read_bytes().splitlines()
    lines[2] = bad_line
    corpus.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    where = "not UTF-8" if b"\xff" in bad_line else f"{corpus}:3:"
    assert where in err
    assert "Traceback" not in err


def test_validate_refuses_a_bad_byte_past_the_first_block(tmp_path,
                                                          stock_log_path,
                                                          capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--n-posts", "1520", "--seed", "0",
                 "--out", str(corpus)]) == 0
    assert main(["validate", "--log", str(stock_log_path),
                 "--corpus", str(corpus)]) == 0
    data = stock_log_path.read_bytes()
    at = data.index(b'"post_id":', 100_000) + len(b'"post_id":')
    log_path = tmp_path / "late.jsonl"
    log_path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    capsys.readouterr()
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log_path}: not UTF-8 text: ")
    assert "Traceback" not in err


def test_missing_files_fail_cleanly(tmp_path, capsys):
    code = main(["fit", "--log", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "fits.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_write_failures_fail_cleanly(tmp_path, config_file, capsys):
    out = tmp_path / "missing" / "contest.jsonl"
    code = main(["simulate", "--config", str(config_file),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("parent, reason", [
    ("missing", "[Errno 2] No such file or directory"),
    ("a-file", "[Errno 20] Not a directory"),
], ids=["missing-parent", "file-parent"])
@pytest.mark.parametrize("argv", [
    ["gen-corpus", "--n-posts", "3"],
    ["recover", "--target", "0", "--lambda-in", "1", "--lambda-out", "2"],
], ids=["gen-corpus", "recover"])
def test_a_failed_write_names_the_path_given(tmp_path, capsys, argv, parent,
                                             reason):
    (tmp_path / "a-file").touch()
    out = tmp_path / parent / "x.jsonl"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {reason}: {str(out)!r}\n"


def test_option_defaults_are_the_library_defaults():
    parser = build_parser()
    recover = parser.parse_args(["recover"])
    assert BehaviorPrior(
        gamma_shape=recover.gamma_shape, gamma_rate=recover.gamma_rate,
        halfnormal_sigma=recover.halfnormal_sigma) == BehaviorPrior()
    assert parse_experiment_config(CONFIG).prior == BehaviorPrior()
    corpus = parser.parse_args(["gen-corpus", "--n-posts", "1", "--out", "x"])
    assert corpus.mean_entities == parse_experiment_config(CONFIG).mean_entities


def test_unknown_arguments_exit_via_argparse(config_file):
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(config_file), "--bogus"])
    with pytest.raises(SystemExit):
        main(["gen-corpus"])
    with pytest.raises(SystemExit):
        main([])


def test_validate_names_a_misplaced_exit_line(tmp_path, capsys,
                                             spread_two_contest):
    # The last exit line moved from line 168 to just before the trailer.
    log, posts = spread_two_contest()
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    write_corpus(posts, corpus)
    write_event_log(log, log_path)
    lines = log_path.read_text("utf-8").splitlines()
    exit_line = lines.pop(167)
    lines.insert(len(lines) - 1, exit_line)
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log_path}:{len(lines) - 1}: exit of worker 0")
    assert "Traceback" not in err


def test_recover_out_is_json_without_nan(tmp_path, capsys):
    out = tmp_path / "recovery.json"
    assert main(["recover", "--target", "0", "--seeds", "0",
                 "--lambda-in", "1", "--lambda-out", "2",
                 "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    record = json.loads(out.read_text(encoding="utf-8"),
                        parse_constant=reject)
    assert record["mean_rel_err_in"] is None
    assert record["n_rows"] == len(record["rows"]) == 2
    assert record["unidentifiable"] == 2


# The sha256 of each `recover --out` file, two runs drawn from the default
# prior.  A change to the engine, the fit or the pooling of runs moves them.
PINNED_RECOVER_FILES = {
    "--target 200 --seeds 0,1":
        "be330560bff3a843edd008d540160da56a449b22802dd91783a875af5d8ca9f6",
    "--n-workers 5 --target 300 --seeds 7,8":
        "d1fea56f1e75a3a1504033d0c40938e31db0f89ab8af0f055423edcb7605eed6",
}


@pytest.mark.parametrize("args", sorted(PINNED_RECOVER_FILES))
def test_recover_out_bytes_are_pinned(tmp_path, capsys, args):
    out = tmp_path / "recovery.json"
    assert main(["recover", *args.split(), "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == PINNED_RECOVER_FILES[args])


def test_recover_out_holds_the_report_and_row_fields(tmp_path, capsys):
    out = tmp_path / "recovery.json"
    assert main(["recover", "--target", "10", "--seeds", "0",
                 "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    # RecoveryReport's fields, plus n_rows.
    assert sorted(record) == [
        "max_rel_err_in", "max_rel_err_out", "mean_rel_err_in",
        "mean_rel_err_out", "n_events_target", "n_rows", "rows",
        "unidentifiable"]
    # RecoveryRow's fields.
    for row in record["rows"]:
        assert sorted(row) == [
            "est_lambda_in", "est_lambda_out", "n_in", "n_out", "rel_err_in",
            "rel_err_out", "runs_pooled", "seed", "true_lambda_in",
            "true_lambda_out", "worker_id"]


def test_a_config_error_names_the_file_and_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(CONFIG.replace("n_posts=40", "n_posts=forty"),
                      encoding="utf-8")
    code = main(["sweep", "--config", str(config),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:3: n_posts must be an integer")



@pytest.mark.parametrize("old, new, field", [
    ("task_unit_size=5", "task_unit_size=20", "task_unit_size"),
    ("master_seed=7", "master_seed=7\ngamma_shape=-1.0", "gamma_shape"),
    ("master_seed=7", "master_seed=7\nbase_hazard=-1", "base_hazard"),
    ("task_unit_time_s=5.0", "task_unit_time_s=0.0004", "task_unit_time_s"),
    # A shared horizon of 40 * 0.001 / 100000 s rounds to 0 ms.
    ("window_size=10\ntask_unit_time_s=5.0",
     "window_size=100000\ntask_unit_time_s=0.001\ndispatch=shared", "n_posts"),
], ids=["task unit", "prior", "hazard", "sub-ms unit", "zero shared horizon"])
def test_a_contest_level_config_fault_stops_the_sweep(tmp_path, capsys, old,
                                                      new, field):
    config = tmp_path / "bad.cfg"
    config.write_text(CONFIG.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(config), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: {field} ")
    assert "Traceback" not in err
    assert not out.exists()

def test_validate_names_a_doctored_exit(tmp_path, capsys,
                                        spread_two_contest):
    # The first exit moved off its 12000 ms checkpoint and given rank 1
    # while still flagged as outside the spread of 2.
    log, posts = spread_two_contest()
    corpus = tmp_path / "corpus.jsonl"
    log_path = tmp_path / "contest.jsonl"
    write_corpus(posts, corpus)
    write_event_log(log, log_path)
    assert main(["validate", "--log", str(log_path),
                 "--corpus", str(corpus)]) == 0
    lines = log_path.read_text("utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if '"exit_time_ms"' in line)
    assert lines[i] == ('{"eligible":false,"exit_time_ms":12000,"rank":6,'
                        '"worker_id":4}')
    lines[i] = '{"eligible":false,"exit_time_ms":12001,"rank":1,"worker_id":4}'
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["validate", "--log", str(log_path), "--corpus", str(corpus)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: log.exits[0] (worker 4, exit_time_ms 12001)")
    assert "Traceback" not in err
