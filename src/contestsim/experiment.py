"""Sweep orchestration: configs, corpora, replications, and output files.

An experiment fixes everything about a contest except the reward spread,
then replicates each spread with common random numbers (profile and event
seeds depend on the replication index, never on the spread) so that paired
comparisons across spreads are sharp.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from . import rng as streams
from .core import (FIELD_TYPES, ContestConfig, Post, TextLines, WorkerProfile,
                   canonical_json, check_object, check_record,
                   collector_paused, decode_json, json_record, quote,
                   require_finite, write_atomic)
from .errors import ConfigurationError, ContestError
from .simulate import (DEFAULT_BASE_HAZARD, N_CHECKPOINTS, AnnotationEvent,
                       BehaviorPrior, EventLog, check_run_arguments,
                       checkpoint_times, draw_behavior, run_contest)

CONFIG_VERSION = 1
TREND_ALPHA = 0.05
MANIFEST_FORMAT = "sweep-outputs-v1"

# Token counts are drawn uniformly from this inclusive range.
TOKEN_RANGE = (5, 30)


def _check_seed_part(name: str, value) -> None:
    """Hold ``value``, one integer of a cell's seed key, to `rng.check_seed`;
    its `ConfigurationError` names ``name``."""
    try:
        streams.check_seed((value,))
    except ConfigurationError:
        raise ConfigurationError(f"{name} must be a non-negative integer, "
                                 f"got {quote(value)}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of a reward-spread sweep."""

    config_version: int
    n_workers: int
    n_posts: int
    window_size: int
    task_unit_time_s: float
    task_unit_size: int
    arrival_rate: float
    prize_value: float
    base_points: int
    quality_constraint: int
    reduction_rate: float
    spreads: tuple[int, ...]
    replications: int
    master_seed: int
    leaderboard_k: int = 3
    gamma_shape: float = BehaviorPrior.gamma_shape
    gamma_rate: float = BehaviorPrior.gamma_rate
    halfnormal_sigma: float = BehaviorPrior.halfnormal_sigma
    base_hazard: float = DEFAULT_BASE_HAZARD
    accuracy_floor: float = 0.0
    mean_entities: float = 1.2
    corpus: str = "generate"
    dispatch: str = "windowed"
    tie_rates: bool = False
    output_dir: str = "out"

    def __post_init__(self) -> None:
        require_finite(self)
        if self.config_version != CONFIG_VERSION:
            raise ConfigurationError(
                f"unsupported config_version {self.config_version}; "
                f"expected {CONFIG_VERSION}")
        _check_seed_part("master_seed", self.master_seed)
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if not self.spreads:
            raise ConfigurationError("spreads must be non-empty")
        if len(set(self.spreads)) != len(self.spreads):
            raise ConfigurationError("spreads must be distinct")
        for s in self.spreads:
            if not 1 <= s <= self.n_workers:
                raise ConfigurationError(
                    f"spread {s} outside [1, n_workers={self.n_workers}]")
        if self.mean_entities <= 0.0:
            raise ConfigurationError("mean_entities must be positive")
        # A fault shared by every contest is the config's, so it is raised
        # here, before any contest runs; none depends on the spread.
        check_run_arguments(self.contest_config(self.spreads[0]),
                            self.dispatch, self.base_hazard,
                            self.accuracy_floor)
        _ = self.prior

    @property
    def prior(self) -> BehaviorPrior:
        return BehaviorPrior(**{f.name: getattr(self, f.name)
                                for f in fields(BehaviorPrior)})

    def contest_config(self, reward_spread: int) -> ContestConfig:
        fixed = {f.name: getattr(self, f.name) for f in fields(ContestConfig)
                 if f.name != "reward_spread"}
        return ContestConfig(reward_spread=reward_spread, **fixed)


def _parse_value(name: str, raw: str, declared: str):
    kind = FIELD_TYPES.get(declared)
    if kind is None:
        return raw
    try:
        return kind.parse(raw)
    except (KeyError, ValueError):
        raise ConfigurationError(
            f"{name} must be {kind.what}, got {raw!r}") from None


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse ``key=value`` lines; ``#`` starts a comment, blanks are skipped.

    An error names ``<string>:line``, or ``<string>`` alone when it is about
    the config as a whole."""
    with TextLines("<string>", "config", text) as lines:
        return _parse_config(lines)


def read_experiment_config(path: Union[str, Path]) -> ExperimentConfig:
    """Read a config file; an error names ``path:line``, or the path alone
    when it is about the config as a whole or the file is not UTF-8 text."""
    with TextLines(path, "config") as text:
        return _parse_config(text)


def _parse_config(text: TextLines) -> ExperimentConfig:
    field_types = {f.name: f.type for f in fields(ExperimentConfig)}
    seen: dict[str, object] = {}
    for text.lineno, line in enumerate(text, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError("expected key=value")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in field_types:
            raise ConfigurationError(f"unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"duplicate key {key!r}")
        if key == "spreads":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ConfigurationError("spreads is empty")
            seen[key] = tuple(_parse_value("spreads", p, "int") for p in parts)
            continue
        seen[key] = _parse_value(key, raw, field_types[key])
    text.lineno = 0
    missing = [f.name for f in fields(ExperimentConfig)
               if f.name not in seen and f.default is MISSING
               and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"missing required keys: {', '.join(missing)}")
    return ExperimentConfig(**seen)  # type: ignore[arg-type]


# --- corpus ----------------------------------------------------------------

def generate_corpus(n_posts: int, mean_entities: float,
                    seed: Union[int, Sequence[int]]) -> list[Post]:
    """Synthetic posts: uniform token counts, Poisson entity counts.

    Entity counts are capped by the token count, which thins the Poisson
    mean slightly; with the default token range the cap is rarely binding.
    Post ``i`` takes the ``i``-th pair of scalar draws
    ``gen.integers(lo, hi + 1)``, ``gen.poisson(mean_entities)``; below
    `rng.POISSON_MULT_MAX` `rng.integer_poisson_draws` rebuilds them from
    raw words, and larger means (finite: NaN and inf are refused) make the
    scalar calls.  The posts are built with the collector paused.
    """
    if n_posts < 0:
        raise ConfigurationError("n_posts must be >= 0")
    if not 0.0 < mean_entities < math.inf:
        raise ConfigurationError("mean_entities must be positive and finite")
    gen = streams.substream(seed, streams.CORPUS)
    lo, hi = TOKEN_RANGE
    with collector_paused():
        if mean_entities < streams.POISSON_MULT_MAX:
            tokens, entities = streams.integer_poisson_draws(
                gen.bit_generator, n_posts, lo, hi - lo + 1, mean_entities)
        else:
            tokens, entities = [], []
            for _ in range(n_posts):
                tokens.append(int(gen.integers(lo, hi + 1)))
                entities.append(int(gen.poisson(mean_entities)))
        return list(map(Post, range(n_posts), tokens,
                        map(min, entities, tokens)))


def write_corpus(posts: Sequence[Post], path: Union[str, Path]) -> None:
    write_atomic(path, (canonical_json(json_record(p)) + "\n" for p in posts))


_CORPUS_FIELDS = {f.name: FIELD_TYPES[f.type] for f in fields(Post)}
_corpus_values = itemgetter(*_CORPUS_FIELDS)


def read_corpus(path: Union[str, Path]) -> list[Post]:
    """Parse a corpus written by `write_corpus`; line i is the i-th arrival.

    A line that is not JSON, lacks a key, holds a key that is no `Post`
    field or a value that is not an integer, or describes an invalid post
    raises `ConfigurationError` naming ``path:line``; a file that is not
    UTF-8 text names the path.
    """
    posts = []
    with TextLines(path, "corpus line") as text:
        for text.lineno, line in enumerate(text, 1):
            obj = decode_json(line)
            check_record(obj, _CORPUS_FIELDS)
            posts.append(Post(*_corpus_values(obj)))
    return posts


# --- profiles --------------------------------------------------------------

def generate_profiles(config: ExperimentConfig,
                      seed: Union[int, Sequence[int]]) -> list[WorkerProfile]:
    """Draw per-worker behavior from the prior; fresh draws per replication.

    With ``tie_rates`` the outside rate is forced equal to the inside rate
    (the null model: eligibility has no behavioral effect).  The same
    number of random draws is consumed either way, so tied and untied runs
    with one seed share every other profile attribute.
    """
    gen = streams.substream(seed, streams.PROFILES)
    prior = config.prior
    profiles = []
    for i in range(config.n_workers):
        lam_in, lam_out = draw_behavior(prior, gen)
        if config.tie_rates:
            lam_out = lam_in
        skill = float(gen.random())
        exit_threshold = float(gen.random())
        profiles.append(WorkerProfile(
            id=i, skill=skill, lambda_in=lam_in, lambda_out=lam_out,
            exit_threshold=exit_threshold,
        ))
    return profiles


# --- per-contest summaries -------------------------------------------------

@dataclass(frozen=True)
class ContestSummary:
    """Scalar outcomes of one simulated contest."""

    reward_spread: int
    replication: int
    total_annotations: int
    distinct_annotations: int
    n_exits: int
    active_worker_counts: tuple[int, ...]  # at 0%, 5%, ..., 100% of horizon
    mean_annotations_per_active: float
    mean_annotation_time_s_per_entity: float
    top1_annotations: int
    top10_annotations: int
    winners: tuple[int, ...]
    payout_total: float
    duration_ms: int


_post_id, _holding_time, _annotated_count = (
    itemgetter(AnnotationEvent._fields.index(name))
    for name in ("post_id", "holding_time_ms", "annotated_count"))


def summarize(log: EventLog, replication: int = 0) -> ContestSummary:
    """The contest's `ContestSummary`.

    ``distinct_annotations`` counts distinct (post, count) pairs.  When no
    post is annotated twice, as in every log `run_contest` writes, that is
    the number of annotations, so the pairs are built only for a log that
    repeats a post."""
    config = log.config
    events = log.events
    total = len(events)
    distinct = total
    if len(set(map(_post_id, events))) != total:
        distinct = len(set(zip(map(_post_id, events),
                               map(_annotated_count, events))))
    exit_times = sorted(x.exit_time_ms for x in log.exits)
    active_counts = [config.n_workers - bisect_right(exit_times, t)
                     for t in (0, *checkpoint_times(log.horizon_ms))]
    n_active_end = config.n_workers - len(log.exits)
    mean_per_active = (total / n_active_end) if n_active_end else float("nan")
    total_entities = sum(map(_annotated_count, events))
    total_seconds = sum(map(_holding_time, events)) / 1000.0
    mean_time = (total_seconds / total_entities) if total_entities else float("nan")
    entries = log.final_ranking.entries
    top1 = entries[0].annotations if entries else 0
    top10 = sum(e.annotations for e in entries[:10])
    qualifying = [e for e in entries if e.annotations >= config.quality_constraint]
    winners = tuple(e.worker_id for e in qualifying[:config.reward_spread])
    return ContestSummary(
        reward_spread=config.reward_spread, replication=replication,
        total_annotations=total, distinct_annotations=distinct,
        n_exits=len(log.exits), active_worker_counts=tuple(active_counts),
        mean_annotations_per_active=mean_per_active,
        mean_annotation_time_s_per_entity=mean_time,
        top1_annotations=top1, top10_annotations=top10,
        winners=winners, payout_total=config.prize_value * len(winners),
        duration_ms=log.horizon_ms,
    )


# --- trend and variance tests ----------------------------------------------

def sign_test_one_sided(diffs: Sequence[float]) -> float:
    """P(at least the observed number of positive signs | fair coin).

    Zero differences are dropped, the usual convention.  An empty or
    all-zero sample gives p = 1.0.
    """
    n = sum(1 for d in diffs if d != 0)
    if n == 0:
        return 1.0
    k = sum(1 for d in diffs if d > 0)
    tail = sum(math.comb(n, i) for i in range(k, n + 1))
    return tail / 2 ** n


@dataclass(frozen=True)
class TrendResult:
    """Does total output increase with the reward spread?"""

    spreads: tuple[int, ...]
    mean_total_annotations: tuple[float, ...]
    strictly_increasing: bool
    n_pairs: int
    n_positive: int
    n_ties: int
    p_value: float
    detected: bool
    applicable: bool


def trend_from_summaries(summaries: Sequence[ContestSummary]) -> TrendResult:
    by_spread: dict[int, dict[int, int]] = defaultdict(dict)
    for s in summaries:
        by_spread[s.reward_spread][s.replication] = s.total_annotations
    spreads = tuple(sorted(by_spread))
    means = tuple(
        sum(by_spread[s].values()) / len(by_spread[s]) for s in spreads)
    if len(spreads) < 2:
        return TrendResult(spreads=spreads, mean_total_annotations=means,
                           strictly_increasing=False, n_pairs=0, n_positive=0,
                           n_ties=0, p_value=1.0, detected=False,
                           applicable=False)
    lo, hi = by_spread[spreads[0]], by_spread[spreads[-1]]
    common = sorted(set(lo) & set(hi))
    diffs = [hi[r] - lo[r] for r in common]
    increasing = all(b > a for a, b in zip(means, means[1:]))
    p = sign_test_one_sided(diffs)
    return TrendResult(
        spreads=spreads, mean_total_annotations=means,
        strictly_increasing=increasing, n_pairs=len(diffs),
        n_positive=sum(1 for d in diffs if d > 0),
        n_ties=sum(1 for d in diffs if d == 0),
        p_value=p, detected=increasing and p < TREND_ALPHA, applicable=True,
    )


class AnovaResult(NamedTuple):
    f_value: float
    df_between: int
    df_within: int
    degenerate: bool


def anova_f(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """One-way fixed-effects F statistic.

    Degenerate inputs are flagged rather than raised: zero within-group
    variance gives +inf when the means differ and NaN when every value is
    identical.
    """
    if len(groups) < 2:
        raise ConfigurationError("anova needs at least two groups")
    if any(len(g) == 0 for g in groups):
        raise ConfigurationError("anova groups must be non-empty")
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    df_between = k - 1
    df_within = n_total - k
    if df_within < 1:
        raise ConfigurationError("anova needs replication within groups")
    grand = math.fsum(math.fsum(g) for g in groups) / n_total
    group_means = [math.fsum(g) / len(g) for g in groups]
    ss_between = math.fsum(len(g) * (m - grand) ** 2
                           for g, m in zip(groups, group_means))
    ss_within = math.fsum(math.fsum((x - m) ** 2 for x in g)
                          for g, m in zip(groups, group_means))
    ms_between = ss_between / df_between
    # Float residue can leave ss_within just above zero for groups that each
    # hold one repeated value, so that case is also decided exactly.
    if ss_within == 0.0 or all(x == g[0] for g in groups for x in g):
        tied = ms_between == 0.0 or len({x for g in groups for x in g}) == 1
        f = float("nan") if tied else float("inf")
        return AnovaResult(f, df_between, df_within, True)
    ms_within = ss_within / df_within
    return AnovaResult(ms_between / ms_within, df_between, df_within, False)


# --- the sweep -------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    summaries: tuple[ContestSummary, ...]
    trend: TrendResult


def _load_corpus(config: ExperimentConfig,
                 posts: Optional[Sequence[Post]]) -> list[Post]:
    if posts is None:
        if config.corpus == "generate":
            posts = generate_corpus(config.n_posts, config.mean_entities,
                                    seed=config.master_seed)
        else:
            posts = read_corpus(config.corpus)
    if len(posts) < config.n_posts:
        raise ConfigurationError(
            f"corpus has {len(posts)} posts; {config.n_posts} required")
    return list(posts[:config.n_posts])


@lru_cache(maxsize=1)
def _profiles(config: ExperimentConfig,
              seed_key: tuple[int, int]) -> tuple[WorkerProfile, ...]:
    """`generate_profiles`, kept for the last (config, seed key): `sweep`
    runs a replication's spreads one after another, so it draws each
    replication's profiles once."""
    return tuple(generate_profiles(config, seed_key))


def run_condition(config: ExperimentConfig, reward_spread: int,
                  replication: int, posts: Sequence[Post]
                  ) -> tuple[ContestSummary, EventLog]:
    """One contest at one spread.  Seeds exclude the spread on purpose:
    replication r sees identical workers and identical random streams at
    every spread, so cross-spread differences are pure treatment effects.
    The replication is held to the seed rule before any draw.
    """
    _check_seed_part("replication", replication)
    seed_key = (config.master_seed, replication)
    profiles = _profiles(config, seed_key)
    contest = config.contest_config(reward_spread)
    log = run_contest(contest, profiles, posts, seed=seed_key,
                      dispatch=config.dispatch, base_hazard=config.base_hazard,
                      accuracy_floor=config.accuracy_floor)
    return summarize(log, replication=replication), log


def sweep(config: ExperimentConfig,
          posts: Optional[Sequence[Post]] = None) -> SweepResult:
    """Run every (spread, replication) cell, or stop at the first that fails.

    Replications run outer and spreads inner, so a replication's profiles
    and seeding words are drawn once and serve each of its spreads; the
    summaries come out in (spread, replication) order all the same.  Each
    cell runs with the collector paused (`core.collector_paused`), and its
    log is dropped before the pause ends.  A `ContestError` from a cell is
    raised again as the same type, its message prefixed with the cell and
    its seed key, so that ``contestsim simulate --spread S --replication
    R`` replays it; a sweep never drops a cell from the paired comparison.
    Any other exception propagates unchanged.
    """
    corpus = _load_corpus(config, posts)
    # Each sweep draws its own profiles, whatever ran before it.
    _profiles.cache_clear()
    # Per spread, the summary of each replication.
    cells: list[list[ContestSummary]] = [[] for _ in config.spreads]
    for rep in range(config.replications):
        for spread, row in zip(config.spreads, cells):
            try:
                # The cell's log dies inside the pause; only its summary
                # leaves, so the collector never walks the log.
                with collector_paused():
                    row.append(run_condition(config, spread, rep, corpus)[0])
            except ContestError as exc:
                raise type(exc)(
                    f"reward_spread {spread}, replication {rep} (seed key "
                    f"{config.master_seed},{rep}): {exc}") from exc
    summaries = tuple(chain.from_iterable(cells))
    return SweepResult(config=config, summaries=summaries,
                       trend=trend_from_summaries(summaries))


# --- output files ----------------------------------------------------------

_SWEEP_COLUMNS = (
    "reward_spread", "replication", "total_annotations",
    "distinct_annotations", "n_exits", "mean_annotations_per_active",
    "mean_annotation_time_s_per_entity", "top1_annotations",
    "top10_annotations", "n_winners", "payout_total", "duration_ms",
)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return "nan" if math.isnan(value) else repr(value)
    return str(value)


def _sweep_table_text(result: SweepResult) -> str:
    rows = [",".join(_SWEEP_COLUMNS)]
    for s in sorted(result.summaries,
                    key=lambda s: (s.reward_spread, s.replication)):
        rows.append(",".join(
            _csv_cell(len(s.winners) if c == "n_winners" else getattr(s, c))
            for c in _SWEEP_COLUMNS))
    return "\n".join(rows) + "\n"


def _exit_curves_text(result: SweepResult) -> str:
    spreads = tuple(sorted({s.reward_spread for s in result.summaries}))
    by_spread: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for s in result.summaries:
        by_spread[s.reward_spread].append(s.active_worker_counts)
    n_workers = result.config.n_workers
    header = ",".join(["checkpoint_fraction",
                       *(f"spread_{s}" for s in spreads)])
    rows = [header]
    for k in range(N_CHECKPOINTS + 1):
        cells = [f"{k / N_CHECKPOINTS:.2f}"]
        for s in spreads:
            curves = by_spread[s]
            mean_active = math.fsum(c[k] for c in curves) / len(curves)
            cells.append(repr(mean_active / n_workers))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _summaries_text(result: SweepResult) -> str:
    return "".join(canonical_json(json_record(s)) + "\n"
                   for s in sorted(result.summaries,
                                   key=lambda s: (s.reward_spread, s.replication)))


def _trajectories_text(log: EventLog) -> str:
    rows = ["worker_id,event_time_ms,cumulative_annotations"]
    cumulative: dict[int, int] = defaultdict(int)
    for e in log.events:
        cumulative[e.worker_id] += 1
        rows.append(f"{e.worker_id},{e.event_time_ms},{cumulative[e.worker_id]}")
    return "\n".join(rows) + "\n"


# Every file that `emit_outputs` may write beside the manifest.
_OUTPUT_NAMES = ("sweep_table.csv", "summaries.jsonl", "exit_curves.csv",
                 "trend.json", "trajectories.csv")


def emit_outputs(result: SweepResult, output_dir: Union[str, Path], *,
                 trajectory_log: Optional[EventLog] = None) -> dict[str, Path]:
    """Write the sweep's files plus a manifest of their sha256 digests.

    Bytes are fully determined by the result object.  A stale
    ``manifest.json`` is removed first, and so is each of `_OUTPUT_NAMES`
    that this run does not write.  Each file is written through
    `write_atomic`, and the manifest is written last, so a write that fails
    part-way leaves a directory that `verify_manifest` does not pass.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload: dict[str, str] = {
        "sweep_table.csv": _sweep_table_text(result),
        "summaries.jsonl": _summaries_text(result),
        "exit_curves.csv": _exit_curves_text(result),
        "trend.json": canonical_json(json_record(result.trend)) + "\n",
    }
    if trajectory_log is not None:
        payload["trajectories.csv"] = _trajectories_text(trajectory_log)

    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for name, text in payload.items()}
    manifest = canonical_json({"format": MANIFEST_FORMAT,
                               "files": digests}) + "\n"

    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    for name in set(_OUTPUT_NAMES) - payload.keys():
        (out / name).unlink(missing_ok=True)
    paths: dict[str, Path] = {}
    for name in sorted(payload):
        paths[name] = out / name
        write_atomic(paths[name], [payload[name]])
    write_atomic(manifest_path, [manifest])
    paths["manifest.json"] = manifest_path
    return paths


def verify_manifest(output_dir: Union[str, Path]) -> bool:
    """Recompute digests for a finished output directory.

    False if a listed file differs from its digest, is missing or cannot be
    read, or is named by anything but a plain file name in the directory;
    also if one of `_OUTPUT_NAMES` is in the directory but not listed.  A
    missing or malformed ``manifest.json`` raises `ConfigurationError`
    naming its path."""
    out = Path(output_dir)
    path = out / "manifest.json"
    if not path.exists():
        raise ConfigurationError(f"{path}: no manifest; the tree is unfinished")
    with TextLines(path, "manifest") as text:
        text.lineno = 1
        manifest = check_object(decode_json("\n".join(text)))
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ConfigurationError("unrecognized manifest format")
        listed = check_object(manifest.get("files"))
        files = listed.items()
    if any(name not in listed and (out / name).exists()
           for name in _OUTPUT_NAMES):
        return False
    for name, digest in files:
        if name in ("", "..") or Path(name).name != name:
            return False
        try:
            data = (out / name).read_bytes()
        except OSError:
            return False
        if hashlib.sha256(data).hexdigest() != digest:
            return False
    return True
