"""Self-tests of the benchmark: names, checks, wrappers and spans.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from child import ROOT, import_program

import_program()

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from contestsim import cli, experiment, inference, simulate  # noqa: E402
from tracing import WRAPPED, Tracer, self_ns  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
MODULES = sorted({module for module, *_ in WRAPPED})

# A field of four small enough to sweep in well under a second.
SMALL = dict(n_workers=4, n_posts=80, window_size=40, arrival_rate=4.0,
             spreads="1,2", replications=2)


def small_sweep(tmp_path: Path) -> Path:
    config = tmp_path / "small.cfg"
    config.write_text(workloads.stock_config_text(3, **SMALL),
                      encoding="utf-8")
    out = tmp_path / "sweep"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--config", str(config), "--out-dir",
                         str(out), "--trajectories"]) == 0
    return out


def small_log(tmp_path: Path):
    config = experiment.parse_experiment_config(
        workloads.stock_config_text(3, **SMALL))
    posts = experiment.generate_corpus(config.n_posts, config.mean_entities,
                                       seed=config.master_seed)
    _, log = experiment.run_condition(config, 2, 0, posts)
    path = tmp_path / "small.jsonl"
    simulate.write_event_log(log, path)
    return path, posts, log


def failed(checks) -> int:
    return sum(1 for c in checks if not c.ok)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared == metrics.UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds == {name: bound for name, _, _, bound in metrics.END_TO_END}
    for name in declared:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    values = metrics.layer_metrics([], [], {})
    names = {name for name, *_ in metrics.PER_LAYER}
    assert set(values) | {"trace.overhead_s"} == names


def test_a_doctored_log_byte_fails_its_checks(tmp_path):
    path, posts, log = small_log(tmp_path)
    reread, error = workloads.read_and_validate(path, posts)
    clean = workloads.check_log(path, reread, error, len(log.events),
                                workloads.sha256_file(path), "small")
    assert failed(clean) == 0

    data = bytearray(path.read_bytes())
    at = data.index(b'"holding_time_ms":') + len(b'"holding_time_ms":')
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    pinned = workloads.sha256_file(path)
    path.write_bytes(bytes(data))
    reread, error = workloads.read_and_validate(path, posts)
    checks = workloads.check_log(path, reread, error, len(log.events),
                                 pinned, "small")
    assert reread is None and error
    # Replay, re-read count and pinned digest each count as a failed operation.
    assert failed(checks) == 3


def test_a_manifest_with_one_altered_digest_fails_its_check(tmp_path):
    out = small_sweep(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert failed(workloads.check_sweep_dir(out, 4, manifest["files"])) == 0

    name = sorted(manifest["files"])[0]
    digest = manifest["files"][name]
    manifest["files"][name] = ("0" if digest[0] != "0" else "1") + digest[1:]
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    checks = workloads.check_sweep_dir(out, 4, None)
    assert [c.name for c in checks if not c.ok] == ["sweep manifest verifies"]


def module_attributes():
    return {m: dict(vars(importlib.import_module(f"contestsim.{m}")))
            for m in MODULES}


def test_wrappers_leave_module_attributes_as_they_found_them():
    before = module_attributes()
    with Tracer() as tracer:
        during = module_attributes()
        assert not tracer.absent
    after = module_attributes()
    for module, attrs in before.items():
        assert after[module].keys() == attrs.keys()
        for name, value in attrs.items():
            assert after[module][name] is value, f"{module}.{name}"
    replaced = sum(during[m][a] is not before[m][a] for m, a, *_ in WRAPPED)
    assert replaced == len(WRAPPED)


def test_a_missing_wrapped_name_is_absent_not_a_crash(monkeypatch):
    monkeypatch.delattr(simulate, "replay_validate")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["simulate.replay_validate"]
    assert metrics.absent_metrics(tracer.absent) == [
        "simulate.replay_validate.us_per_event.w200",
        "simulate.replay_validate.us_per_event.w1000",
    ]
    assert not hasattr(simulate, "replay_validate")


def test_children_of_each_traced_span_sum_to_no_more_than_the_span(tmp_path):
    with Tracer() as tracer:
        root = tracer.open("benchmark.pass")
        small_sweep(tmp_path)
        path, posts, _ = small_log(tmp_path)
        reread, _ = workloads.read_and_validate(path, posts)
        norms = inference.FeatureNorms.from_log(reread)
        events = [e for e in reread.events if e.worker_id == 0]
        inference.fit_log_linear(events, norms, worker_id=0, max_iters=50)
        inference.fit_two_state(events, worker_id=0)
        inference.recovery_experiment(None, 2, 50, [0],
                                      fixed_rates=(1.66, 1.12))
        tracer.close(root)
    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"cli.main", "simulate.run_contest", "simulate.replay_validate",
            "inference.recovery_experiment"} <= names
    for span in spans:
        assert span.end_ns >= span.start_ns
        assert self_ns(span, spans) >= 0, span.name
    values = metrics.layer_metrics(spans, [], {})
    assert values["experiment.run_condition.calls"] == 6
    assert values["experiment.contests_useful_ratio"] == 4 / 6
    assert values["simulate.holding_time.calls"] > 0


def test_stopwatch_takes_out_its_sampling_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.Stopwatch()
    with clock:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.5:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # One sample either side of the region and at least two inside it.
    assert len(clock.samples) >= 4
    assert 0.45 < clock.measured_s < clock.wall_s
    assert clock.reference_s > 0


def test_run_fails_without_printing_a_result_when_the_program_is_missing(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recover_shared",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_declared_metrics_last(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recover_shared",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(last["metrics"]) == {name for name, *_ in table}
    for name, value in last["metrics"].items():
        assert value["unit"] == metrics.UNITS[name]
