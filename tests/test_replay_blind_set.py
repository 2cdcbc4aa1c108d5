"""Replay's blind set: the single-field edits of a log that `read_event_log`
and `replay_validate` both accept, pinned to a written allow-list.

Two small contests with exits, one per dispatch mode, are written; then
each header scalar, each ``config`` and ``counters`` field, and each field
of a fixed sample of body lines is edited alone: ±1 on a number, a flipped
flag, and the other dispatch mode.  Every edit that passes both checks
must be on the list, with its reason, and every entry must still pass.  So
a new blind spot fails this test, and so does a closed gap left listed.
"""

from __future__ import annotations

import json

from contestsim import (ContestConfig, ContestError, Post, WorkerProfile,
                        event_log_lines, read_event_log, replay_validate,
                        run_contest)
from contestsim.core import canonical_json

# Every how many annotation lines one is edited; every exit line is.
_SAMPLE_STEP = 16
_BOTH = ("windowed", "shared")


def _entries(reason, logs, record, field, edits=("+1", "-1")):
    return {(log, record, field, edit): reason
            for log in logs for edit in edits}


_SAME_MISS = ("a miss moved to another count that a miss of its post gives, "
              "for the same points")
# (log, record, field, edit): why read and replay accept it.
_ALLOWED = {
    # Inert by design.
    **_entries("only summarize reads it", _BOTH, "config", "prize_value"),
    **_entries("only summarize reads it (-1 is negative, and refused)", _BOTH,
               "config", "quality_constraint", ("+1",)),
    **_entries("a shared pool is dealt in no task units", ("shared",),
               "config", "task_unit_size"),
    **_entries(_SAME_MISS, ("windowed",), "annotation", "annotated_count"),
    **_entries(_SAME_MISS, ("shared",), "annotation", "annotated_count",
               ("+1",)),
    # Inert until item 13: no stage reads them.
    **_entries("item 13: changes no event", _BOTH, "config", "arrival_rate"),
    **_entries("item 13: changes no event", _BOTH, "config", "leaderboard_k"),
    **_entries("item 13: changes no event", _BOTH, "config",
               "reduction_rate"),
    # Gaps until item 11: replay does not rebuild the deal.
    **_entries("item 11: the windowed deal is not rebuilt", ("windowed",),
               "config", "task_unit_size"),
    **_entries("item 11: 240 posts in windows of 21 still take 12 task "
               "units, so the horizon holds", ("windowed",), "config",
               "window_size", ("+1",)),
    **_entries("item 11: no post is held to the bin it was dealt from",
               ("windowed",), "annotation", "post_id", ("-1",)),
    **_entries("item 11: every post was solved, so the counters fit either "
               "mode, and the horizons are equal", ("shared",), "header",
               "dispatch", ("other mode",)),
    # Seen only by a re-run (item 26): replay draws nothing.
    **_entries("item 26: replay does not redraw", _BOTH, "header", "seed"),
    **_entries("item 26: no exit is held to its hazard (-1 gives 0, where "
               "an exit is refused)", _BOTH, "header", "base_hazard",
               ("+1",)),
}


def _contest(dispatch):
    """A 6-worker, spread-2 contest over 240 posts at seed 4, with exits:
    4 of them windowed, where 61 posts drop, and 3 shared, where every post
    is solved.  Returns its log's lines and its posts."""
    config = ContestConfig(n_workers=6, n_posts=240, window_size=20,
                           task_unit_time_s=5.0, task_unit_size=5,
                           arrival_rate=4.0, reward_spread=2, prize_value=1.0,
                           base_points=10, leaderboard_k=3,
                           quality_constraint=0, reduction_rate=2.0)
    profiles = [WorkerProfile(id=i, skill=0.6, lambda_in=1.1, lambda_out=0.9,
                              exit_threshold=1.0) for i in range(6)]
    posts = [Post(id=i, token_count=10, expected_entities=i % 3)
             for i in range(240)]
    log = run_contest(config, profiles, posts, seed=4, dispatch=dispatch,
                      base_hazard=1.0)
    assert log.exits
    return list(event_log_lines(log)), posts


def _edits(record):
    """(field, edit, new value) for each scalar field of ``record``."""
    for name, value in record.items():
        if type(value) is bool:
            yield name, "flip", not value
        elif type(value) in (int, float):
            yield name, "+1", value + 1
            yield name, "-1", value - 1


def _mutants(lines, dispatch):
    """(record, field, edit) and the edited lines, for each edit."""
    header = json.loads(lines[0])
    scalars = {k: v for k, v in header.items()
               if k not in ("config", "counters")}
    edited = [(("header", name, edit), {**header, name: value})
              for name, edit, value in _edits(scalars)]
    other = _BOTH[1 - _BOTH.index(dispatch)]
    edited.append((("header", "dispatch", "other mode"),
                   {**header, "dispatch": other}))
    for part in ("config", "counters"):
        edited += [((part, name, edit),
                    {**header, part: {**header[part], name: value}})
                   for name, edit, value in _edits(header[part])]
    for key, new in edited:
        yield key, [canonical_json(new), *lines[1:]]

    body = range(1, len(lines) - 1)
    exits = [i for i in body if '"exit_time_ms"' in lines[i]]
    annotations = [i for i in body if i not in exits]
    for i in annotations[::_SAMPLE_STEP] + exits:
        record = json.loads(lines[i])
        kind = "exit" if i in exits else "annotation"
        for name, edit, value in _edits(record):
            yield (kind, name, edit), [*lines[:i],
                                       canonical_json({**record, name: value}),
                                       *lines[i + 1:]]


def test_replay_accepts_exactly_the_listed_single_field_edits(tmp_path):
    accepted = set()
    for dispatch in _BOTH:
        lines, posts = _contest(dispatch)
        path = tmp_path / f"{dispatch}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        replay_validate(read_event_log(path), posts)  # the log as written
        for (record, field, edit), mutant in _mutants(lines, dispatch):
            path.write_text("\n".join(mutant) + "\n", encoding="utf-8")
            try:
                replay_validate(read_event_log(path), posts)
            except ContestError:
                continue
            accepted.add((dispatch, record, field, edit))
    new = sorted(accepted - _ALLOWED.keys())
    closed = sorted(_ALLOWED.keys() - accepted)
    assert not new and not closed, (
        f"accepted but not listed: {new}; listed but refused: {closed}")

