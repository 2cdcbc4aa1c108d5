"""End-to-end checks of the command-line front end, run in-process."""

from __future__ import annotations

import hashlib
import json

import pytest

from contestsim import (read_corpus, read_event_log, read_fitted,
                        run_contest, verify_manifest, write_corpus,
                        write_event_log)
from contestsim.cli import main

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


def test_gen_corpus_writes_the_requested_posts(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--n-posts", "30", "--out", str(out)]) == 0
    assert len(read_corpus(out)) == 30
    assert "wrote 30 posts" in capsys.readouterr().out


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


def test_fit_covers_all_workers_or_just_one(tmp_path, config_file):
    log_path = tmp_path / "contest.jsonl"
    assert main(["simulate", "--config", str(config_file),
                 "--out", str(log_path)]) == 0
    all_out = tmp_path / "fits.jsonl"
    assert main(["fit", "--log", str(log_path), "--out", str(all_out)]) == 0
    fits = read_fitted(all_out)
    assert [f.worker_id for f in fits] == [0, 1, 2, 3]
    assert all(f.model_kind == "two_state" for f in fits)

    one_out = tmp_path / "one.jsonl"
    assert main(["fit", "--log", str(log_path), "--worker", "1",
                 "--model", "log_linear", "--out", str(one_out)]) == 0
    (fit,) = read_fitted(one_out)
    assert fit.worker_id == 1
    assert fit.model_kind == "log_linear"
    assert fit.theta_hat is not None


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
        (fit,) = read_fitted(out)
        assert (fit.worker_id, fit.stop_reason) == (wid, "empty")
        assert main(["fit", "--log", str(log_path), "--worker", str(wid),
                     "--out", str(out)]) == 0
        (fit,) = read_fitted(out)
        assert (fit.lambda_in_hat, fit.lambda_out_hat) == (None, None)


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
    fits = read_fitted(out)
    assert [f.worker_id for f in fits] == [0, 1, 2]
    assert [f.lambda_in_hat is None and f.lambda_out_hat is None
            for f in fits] == [wid != busy for wid in range(3)]
    assert main(["fit", "--log", str(log_path), "--model", "log_linear",
                 "--out", str(out)]) == 0
    fits = read_fitted(out)
    assert [f.worker_id for f in fits] == [0, 1, 2]
    assert [f.stop_reason == "empty" for f in fits] == [
        wid != busy for wid in range(3)]


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


def test_recover_rejects_an_infinite_rate(capsys):
    code = main(["recover", "--target", "200", "--seeds", "0",
                 "--lambda-in", "inf", "--lambda-out", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: worker 0: lambda_in must be finite")
    assert "Traceback" not in err


def test_validate_accepts_an_untouched_log(tmp_path, config_file, capsys):
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


_SEED_RULE = "an integer or a non-empty list of integers"


@pytest.mark.parametrize("keys, value, what", [
    (["horizon_ms"], "x", "an integer"),
    (["horizon_ms"], 1.5, "an integer"),
    (["dispatch"], "mystery", '"windowed" or "shared"'),
    (["dispatch"], None, '"windowed" or "shared"'),
    (["base_hazard"], "x", "a number"),
    (["base_hazard"], True, "a number"),
    (["accuracy_floor"], None, "a number"),
    (["seed"], "abc", _SEED_RULE),
    (["seed"], [], _SEED_RULE),
    (["seed"], [7, 1.5], _SEED_RULE),
    (["seed"], False, _SEED_RULE),
    (["counters", "ingested"], "x", "an integer"),
    (["counters", "pending"], None, "an integer"),
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
    assert code == 2
    assert err == (f"error: {log_path}:1: {keys[-1]} must be {what}, "
                   f"got {json.dumps(value, separators=(',', ':'))}\n")


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


def test_fit_log_linear_converges_on_every_stock_worker(tmp_path,
                                                       stock_log_path, capsys):
    out = tmp_path / "fits.jsonl"
    assert main(["fit", "--log", str(stock_log_path), "--model", "log_linear",
                 "--out", str(out)]) == 0
    assert "fitted 20 worker(s) with log_linear (20 converged)" in \
        capsys.readouterr().out
    assert all(f.stop_reason == "converged" for f in read_fitted(out))


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
], ids=["task unit", "prior", "hazard"])
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
