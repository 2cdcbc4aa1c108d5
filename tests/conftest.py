"""Shared test fixtures and the acceptance-gate summary hook."""

from __future__ import annotations

import gc

import pytest

from contestsim import (AnnotationEvent, ContestConfig, Post, WorkerProfile,
                        generate_corpus, parse_experiment_config,
                        run_condition, run_contest, write_event_log)

# The README's sweep configuration.
README_CONFIG = """\
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
master_seed=0
"""

# Populated by the criterion marker hook below; printed once per run so the
# release gates are visible as a block regardless of verbosity flags.
_acceptance: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, description): release-gate check reported in the "
        "acceptance summary")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, description = marker.args
    if report.when == "call" or report.outcome == "failed":
        _acceptance[number] = (description, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_acceptance):
        description, outcome = _acceptance[number]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status}  {description}")


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector_was_on(request):
    """Switch the cyclic collector on or off for a test; restore it after."""
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_on else gc.disable)()


@pytest.fixture
def collector_passes():
    """``run(call)``: call ``call()`` with the collector on, from an empty
    young generation, and return its result and how many collections
    started during it.  The collector's switch is restored after."""

    def run(call):
        was_on = gc.isenabled()
        starts = []

        def note(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.collect()
        gc.callbacks.append(note)
        try:
            result = call()
        finally:
            gc.callbacks.remove(note)
            (gc.enable if was_on else gc.disable)()
        return result, len(starts)

    return run


@pytest.fixture
def garbage_left():
    """``run(call)``: call ``call()`` with the collector off, after a full
    collection, and return its result and the number of unreachable
    objects a collection then finds.  The collector's switch is restored
    after."""

    def run(call):
        was_on = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            result = call()
            return result, gc.collect()
        finally:
            (gc.enable if was_on else gc.disable)()

    return run


@pytest.fixture
def make_posts():
    """Factory for uniform post lists."""

    def build(n, *, expected=1, tokens=10, start_id=0):
        return [Post(id=start_id + i, token_count=tokens,
                     expected_entities=expected)
                for i in range(n)]

    return build


@pytest.fixture
def make_profiles():
    """Factory for identical worker profiles (ids 0..n-1)."""

    def build(n, *, lambda_in=1.2, lambda_out=1.0, skill=1.0,
              exit_threshold=0.0):
        return [WorkerProfile(id=i, skill=skill, lambda_in=lambda_in,
                              lambda_out=lambda_out,
                              exit_threshold=exit_threshold)
                for i in range(n)]

    return build


@pytest.fixture
def contest_config():
    """Factory for a small, load-feasible contest configuration."""

    def build(**overrides):
        base = dict(n_workers=2, n_posts=40, window_size=10,
                    task_unit_time_s=10.0, task_unit_size=10,
                    arrival_rate=1.0, reward_spread=1, prize_value=1.0,
                    base_points=10, leaderboard_k=3, quality_constraint=0,
                    reduction_rate=2.0)
        base.update(overrides)
        return ContestConfig(**base)

    return build


@pytest.fixture
def event_chain():
    """Build a consistent single-worker event sequence from (holding, eligible)
    pairs, with the holding-time recursion and remaining-post countdown
    satisfied by construction."""

    def build(specs, *, worker_id=0, n_posts=None):
        events = []
        t = 0
        remaining = len(specs) if n_posts is None else n_posts
        for i, spec in enumerate(specs):
            holding, eligible = int(spec[0]), bool(spec[1])
            rank = int(spec[2]) if len(spec) > 2 else (1 if eligible else 3)
            t += holding
            remaining -= 1
            events.append(AnnotationEvent(
                worker_id=worker_id, event_index=i, event_time_ms=t,
                holding_time_ms=holding, post_id=i, annotated_count=1,
                rank_at_event=rank, eligible_at_event=eligible,
                annotations_remaining=remaining))
        return events

    return build


@pytest.fixture(scope="session")
def stock_log_path(tmp_path_factory):
    """Log of the README config's contest at spread 5, replication 0."""
    cfg = parse_experiment_config(README_CONFIG)
    posts = generate_corpus(cfg.n_posts, cfg.mean_entities,
                            seed=cfg.master_seed)
    _, log = run_condition(cfg, 5, 0, posts)
    path = tmp_path_factory.mktemp("stock") / "stock.jsonl"
    write_event_log(log, path)
    return path


@pytest.fixture(scope="session")
def hazard_log_path(tmp_path_factory):
    """Log of the README config's contest at spread 1, replication 0, at
    ``base_hazard`` 1.0: 15 exits, the first of worker 15 at 12000 ms."""
    cfg = parse_experiment_config(README_CONFIG + "base_hazard=1.0\n")
    posts = generate_corpus(cfg.n_posts, cfg.mean_entities,
                            seed=cfg.master_seed)
    _, log = run_condition(cfg, 1, 0, posts)
    path = tmp_path_factory.mktemp("hazard") / "hazard.jsonl"
    write_event_log(log, path)
    return path


@pytest.fixture(scope="session")
def shared_log_path(tmp_path_factory):
    """Log of the README config's contest at spread 5, replication 0, with
    shared dispatch and a 0.25 accuracy floor."""
    cfg = parse_experiment_config(
        README_CONFIG + "dispatch=shared\naccuracy_floor=0.25\n")
    posts = generate_corpus(cfg.n_posts, cfg.mean_entities,
                            seed=cfg.master_seed)
    _, log = run_condition(cfg, 5, 0, posts)
    path = tmp_path_factory.mktemp("shared") / "shared.jsonl"
    write_event_log(log, path)
    return path


@pytest.fixture
def spread_two_contest():
    """Run a 6-worker, spread-2 contest under a heavy exit hazard; returns
    (log, posts).  At seed 4 its exits are worker 4 at 12000 ms (rank 6),
    then workers 2, 3 and 0, all outside the spread."""

    def run(seed=4):
        config = ContestConfig(n_workers=6, n_posts=240, window_size=20,
                               task_unit_time_s=5.0, task_unit_size=5,
                               arrival_rate=4.0, reward_spread=2,
                               prize_value=1.0, base_points=10,
                               leaderboard_k=3, quality_constraint=0,
                               reduction_rate=2.0)
        profiles = [WorkerProfile(id=i, skill=0.6, lambda_in=1.1,
                                  lambda_out=0.9, exit_threshold=1.0)
                    for i in range(6)]
        posts = [Post(id=i, token_count=10, expected_entities=i % 3)
                 for i in range(240)]
        log = run_contest(config, profiles, posts, seed=seed, base_hazard=1.0)
        return log, posts

    return run
