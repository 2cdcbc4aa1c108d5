"""A deliberately naive contest engine: the executable spec of `run_contest`.

It is built only from the package's scalar rules, with nothing buffered,
cached or incremental:

* one `rng.substream` per stream, drawn through `holding_time`,
  `simulate_annotated_count` and one ``random()`` per exit checkpoint;
* `exit_hazard` for every worker still in the contest at a checkpoint;
* a full `rank_workers` sort for every rank it reads;
* `score_annotation`, `build_windows`, `allocate_round_robin` and
  `checkpoint_times`;
* a linear scan for the next event in place of a heap, and a plain count
  of the posts left over at each window close in place of a drop queue.

``tests/test_reference_engine.py`` requires its `EventLog` to equal
`run_contest`'s, so any change to the engine's draws, their order, the tie
rules or the event/checkpoint order shows as a differing log.
"""

from __future__ import annotations

from collections import deque
from math import ceil

from contestsim import rng as streams
from contestsim.core import rank_workers, score_annotation
from contestsim.simulate import (DEFAULT_BASE_HAZARD, AnnotationEvent,
                                 EventLog, ExitEvent, PostCounters,
                                 checkpoint_times, exit_hazard, holding_time,
                                 simulate_annotated_count)
from contestsim.stream import (allocate_round_robin, build_windows,
                               total_contest_time)


def reference_contest(config, profiles, posts, seed, *, dispatch="windowed",
                      base_hazard=DEFAULT_BASE_HAZARD, accuracy_floor=0.0):
    """The log `run_contest` must produce for the same arguments."""
    n, spread = config.n_workers, config.reward_spread
    ids = [p.id for p in profiles]
    event_rng = [streams.substream(seed, streams.EVENTS, i) for i in range(n)]
    count_rng = [streams.substream(seed, streams.COUNTS, i) for i in range(n)]
    exit_rng = [streams.substream(seed, streams.EXITS, i) for i in range(n)]
    score = {w: 0 for w in ids}
    stamp = {w: None for w in ids}
    annotations = {w: 0 for w in ids}
    last_ms = {w: 0 for w in ids}
    alive = {w: True for w in ids}

    def standing(wid):
        """The worker's rank now, and whether it is inside the spread."""
        order = [e.worker_id for e in rank_workers(score, stamp).entries]
        r = order.index(wid) + 1
        return r, r <= spread

    # The standing that governs each worker's next holding time.
    gov = {w: standing(w) for w in ids}
    events, exits = [], []
    solved = checkpoints_run = 0

    unit_ms = int(round(config.task_unit_time_s * 1000.0))
    if dispatch == "windowed":
        windows = build_windows(posts, config.window_size)
        horizon_ms = len(windows) * unit_ms
    else:
        horizon_ms = int(round(total_contest_time(
            config.n_posts, config.task_unit_time_s, config.window_size)
            * 1000.0))
    checkpoints = checkpoint_times(horizon_ms)

    def gap_ms(i):
        _, elig = gov[ids[i]]
        rate = profiles[i].lambda_in if elig else profiles[i].lambda_out
        return max(1, ceil(holding_time(rate, event_rng[i]) * 1000.0))

    def run_checkpoints(before_ms):
        """Run every checkpoint not yet run that falls before ``before_ms``."""
        nonlocal checkpoints_run
        while (checkpoints_run < len(checkpoints)
               and checkpoints[checkpoints_run] < before_ms):
            ci = checkpoints_run
            checkpoints_run += 1
            for i in sorted(range(n), key=lambda i: ids[i]):
                wid = ids[i]
                if not alive[wid]:
                    continue
                u = exit_rng[i].random()
                r, elig = standing(wid)
                h = exit_hazard(r - spread, (ci + 1) / len(checkpoints),
                                profiles[i], n_workers=n,
                                base_hazard=base_hazard)
                if u < h:
                    alive[wid] = False
                    exits.append(ExitEvent(wid, checkpoints[ci], r, elig))

    def run_period(bins, open_ms, close_ms):
        """``bins`` maps profile index to the worker's bin."""
        nonlocal solved
        next_t = {}
        for i in bins:
            t = max(last_ms[ids[i]], open_ms) + gap_ms(i)
            if t <= close_ms:
                next_t[i] = t
        while next_t:
            t, i = min((t, i) for i, t in next_t.items())
            del next_t[i]
            wid = ids[i]
            run_checkpoints(t)
            if not alive[wid] or not bins[i]:
                continue
            post = bins[i].popleft()
            count = simulate_annotated_count(post, profiles[i], count_rng[i],
                                             accuracy_floor)
            solved += 1
            events.append(AnnotationEvent(
                wid, annotations[wid], t, t - last_ms[wid], post.id, count,
                *gov[wid], config.n_posts - solved))
            annotations[wid] += 1
            last_ms[wid] = t
            points = score_annotation(count, post.expected_entities,
                                      config.base_points)
            if points:
                score[wid] += points
                stamp[wid] = t
            gov[wid] = standing(wid)
            if bins[i]:
                t += gap_ms(i)
                if t <= close_ms:
                    next_t[i] = t
        run_checkpoints(close_ms + 1)

    dropped = pending = 0
    if dispatch == "windowed":
        rr_offset = 0
        for index, win in enumerate(windows):
            active = sorted(w for w in ids if alive[w])
            bins = {}
            if active:
                assignments, _, _ = allocate_round_robin(
                    win, active, config.task_unit_size,
                    start_offset=rr_offset)
                rr_offset = (rr_offset + len(assignments)) % len(active)
                for wid, bin_posts in assignments:
                    bins[ids.index(wid)] = deque(bin_posts)
            dropped += len(win) - sum(len(b) for b in bins.values())
            run_period(bins, index * unit_ms, (index + 1) * unit_ms)
            dropped += sum(len(b) for b in bins.values())
    else:
        pool = deque(posts)
        run_period({i: pool for i in range(n)}, 0, horizon_ms)
        pending = len(pool)

    return EventLog(
        config=config, seed=seed, dispatch=dispatch, horizon_ms=horizon_ms,
        base_hazard=base_hazard, accuracy_floor=accuracy_floor,
        events=events, exits=exits,
        final_ranking=rank_workers(score, stamp, annotations),
        counters=PostCounters(ingested=len(posts), solved=solved,
                              dropped=dropped, pending=pending))
