"""Domain model: scoring, ranking, configuration."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, strategies as st

import contestsim
from contestsim import (ConfigurationError, ContestConfig, ContractViolation,
                        Leaderboard, Post, Ranking, RankEntry, WorkerProfile,
                        rank_workers, score_annotation)
from contestsim import core
from contestsim.core import (EXACT_MATCH_MULTIPLIER, TextLines, canonical_json,
                             json_record)


# --- scoring ---------------------------------------------------------------

def test_score_exact_match_earns_bonus_multiple():
    assert score_annotation(3, 3, 10) == 5 * 10
    assert EXACT_MATCH_MULTIPLIER == 5


def test_score_mismatch_earns_base_points():
    assert score_annotation(2, 3, 10) == 10
    assert score_annotation(7, 3, 10) == 10


def test_score_empty_annotation_earns_nothing():
    assert score_annotation(0, 3, 10) == 0
    # An empty annotation never scores, even when the post has no entities.
    assert score_annotation(0, 0, 10) == 0


@given(annotated=st.integers(0, 50), expected=st.integers(0, 50),
       base=st.integers(1, 100))
def test_score_range_is_three_valued(annotated, expected, base):
    assert score_annotation(annotated, expected, base) in (0, base, 5 * base)


def test_score_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        score_annotation(-1, 3, 10)
    with pytest.raises(ConfigurationError):
        score_annotation(1, -3, 10)
    with pytest.raises(ConfigurationError):
        score_annotation(1, 3, 0)


# --- ranking ---------------------------------------------------------------

def test_rank_workers_orders_by_score_then_stamp_then_id():
    ranking = rank_workers(
        scores={1: 50, 2: 50, 3: 100},
        last_scored_ms={1: 1000, 2: 500, 3: 2000},
    )
    assert [e.worker_id for e in ranking] == [3, 2, 1]
    assert ranking.entries == (RankEntry(3, 100, 0, 2000),
                               RankEntry(2, 50, 0, 500),
                               RankEntry(1, 50, 0, 1000))


def test_rank_workers_never_scored_sorts_last():
    ranking = rank_workers(scores={1: 0, 2: 0},
                           last_scored_ms={1: None, 2: 300})
    assert [e.worker_id for e in ranking] == [2, 1]


def test_rank_workers_id_breaks_exact_ties():
    ranking = rank_workers(scores={5: 10, 2: 10},
                           last_scored_ms={5: 100, 2: 100})
    assert [e.worker_id for e in ranking] == [2, 5]


def test_rank_workers_is_deterministic_under_input_order():
    scores = {i: (i * 7) % 5 for i in range(20)}
    stamps = {i: (None if i % 4 == 0 else 100 * i) for i in range(20)}
    a = rank_workers(scores, stamps)
    reversed_scores = dict(reversed(list(scores.items())))
    b = rank_workers(reversed_scores, stamps)
    assert [e.worker_id for e in a] == [e.worker_id for e in b]


def test_rank_workers_validates_key_sets():
    with pytest.raises(ConfigurationError):
        rank_workers({1: 0}, {2: None})
    with pytest.raises(ConfigurationError):
        rank_workers({1: 0}, {1: None}, annotations={2: 1})


def test_ranking_accessors_and_unknown_worker():
    ranking = rank_workers(scores={1: 5, 2: 3}, last_scored_ms={1: 10, 2: 20})
    assert len(ranking) == 2
    assert list(ranking) == list(ranking.entries)
    assert ranking.entries[1] == RankEntry(2, 3, 0, 20)
    assert 99 not in [e.worker_id for e in ranking]


def test_ranking_rejects_duplicate_workers():
    entry = RankEntry(1, 10, 2, 100)
    with pytest.raises(ConfigurationError):
        Ranking(entries=(entry, RankEntry(1, 5, 1, 200)))


def test_fresh_leaderboard_ranks_by_id():
    board = Leaderboard([7, 3, 5])
    assert sorted([7, 3, 5], key=board.rank) == [3, 5, 7]
    assert [board.rank(w) for w in (3, 5, 7)] == [1, 2, 3]


def test_leaderboard_rejects_duplicate_workers():
    with pytest.raises(ConfigurationError):
        Leaderboard([1, 2, 1])


def test_leaderboard_ignores_an_unchanged_score():
    # The stamp records when the score last changed, so a zero-point event
    # must not move the worker behind someone who scored later.
    board = Leaderboard([1, 2])
    board.update(2, 10, 100)
    board.update(1, 10, 200)
    board.update(2, 10, 300)
    assert sorted([1, 2], key=board.rank) == [2, 1]


def test_leaderboard_rejects_a_falling_score():
    # The stamp marks when the score last rose: a fall would put worker 2,
    # with 0 points, ahead of never-scored worker 1.
    board = Leaderboard([1, 2])
    board.update(2, 10, 5)
    with pytest.raises(ContractViolation,
                       match="^worker 2: score fell from 10 to 0$"):
        board.update(2, 0, 6)
    assert board.workers_from(1) == [2, 1]


@pytest.mark.parametrize("call", [lambda board: board.update(3, 10, 5),
                                  lambda board: board.rank(3)],
                         ids=["update", "rank"])
def test_leaderboard_names_a_worker_it_does_not_hold(call):
    board = Leaderboard([1, 2])
    with pytest.raises(ContractViolation,
                       match="^worker 3 is not on the leaderboard$"):
        call(board)


def test_a_rise_that_keeps_the_rank_moves_no_other_worker():
    board = Leaderboard([1, 2, 3, 4, 5])
    board.update(1, 50, 10)
    board.update(2, 30, 20)
    board.update(3, 10, 30)
    # Worker 3 rises to 20, still behind worker 2's 30: the key is replaced
    # in place.  Worker 1 rises at the top, where no key is above.
    assert board.update(3, 20, 40) == 3
    assert board.update(1, 60, 50) == 1
    assert board.workers_from(1) == [1, 2, 3, 4, 5]
    assert [board.rank(w) for w in (1, 2, 3, 4, 5)] == [1, 2, 3, 4, 5]


def test_a_rise_past_several_workers_lands_in_rank_key_order():
    board = Leaderboard([1, 2, 3, 4, 5])
    board.update(1, 50, 10)
    board.update(2, 30, 20)
    board.update(3, 10, 30)
    # Worker 5 passes workers 4, 3 and 2; worker 4 then ties worker 5 at 40,
    # later, and passes 3 and 2 only.
    assert board.update(5, 40, 40) == 2
    assert board.update(4, 40, 50) == 3
    assert board.workers_from(1) == [1, 5, 4, 2, 3]
    # Worker 3 passes everyone, to the top.
    assert board.update(3, 70, 60) == 1
    assert board.workers_from(1) == [3, 1, 5, 4, 2]
    assert board.workers_from(4) == [4, 2]
    assert board.workers_from(6) == []
    with pytest.raises(ContractViolation, match="rank must be >= 1"):
        board.workers_from(0)


def test_equal_ranks_from_one_board_are_one_object():
    # Python caches the ints up to 256 only; ranks past that are shared
    # because the board returns them from its own tuple.
    ids = range(300)
    board = Leaderboard(ids)
    ranks = [board.rank(w) for w in ids]
    assert ranks == list(range(1, 301))
    for w in (256, 280, 299):
        assert board.rank(w) is ranks[w]
        assert board.update(w, 0, 1) is ranks[w]  # an unchanged score
    # Rises past others, then a rise in place: 2 is still behind 5.
    assert board.update(299, 10, 5) is ranks[0]
    assert board.update(298, 5, 6) is ranks[1]
    assert board.update(297, 1, 7) is ranks[2]
    assert board.update(297, 2, 8) is ranks[2]
    assert board.rank(296) is ranks[299]


_updates = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from((0, 0, 10, 50)),
              st.integers(0, 4)),
    max_size=40)


@given(ids=st.lists(st.integers(-20, 20), min_size=1, max_size=6,
                    unique=True),
       updates=_updates)
def test_leaderboard_matches_a_scan_and_rank_workers(ids, updates):
    board = Leaderboard(ids)
    score = {w: 0 for w in ids}
    stamp = {w: None for w in ids}

    def ahead(v, w):
        if score[v] != score[w]:
            return score[v] > score[w]
        sv, sw = stamp[v], stamp[w]
        if sv != sw:
            return sw is None or (sv is not None and sv < sw)
        return v < w

    for who, points, t in updates:
        w = ids[who % len(ids)]
        if points > 0:
            score[w] += points
            stamp[w] = t
        assert board.update(w, score[w], t) == board.rank(w)
        for v in ids:
            assert board.rank(v) == 1 + sum(ahead(u, v) for u in ids if u != v)
        order = [e.worker_id for e in rank_workers(score, stamp)]
        assert sorted(ids, key=board.rank) == order
        for k in range(1, len(ids) + 2):
            assert board.workers_from(k) == order[k - 1:]


# --- input validation ------------------------------------------------------

def test_post_validation():
    with pytest.raises(ConfigurationError):
        Post(id=1, token_count=0, expected_entities=0)
    with pytest.raises(ConfigurationError):
        Post(id=1, token_count=5, expected_entities=6)


def test_a_post_has_no_dict_and_equal_posts_hash_equal():
    post = Post(id=3, token_count=10, expected_entities=2)
    twin = Post(id=3, token_count=10, expected_entities=2)
    assert not hasattr(post, "__dict__")
    assert post == twin and hash(post) == hash(twin)
    assert post != Post(id=3, token_count=10, expected_entities=1)


POST_FIELDS = ("id", "token_count", "expected_entities")


@pytest.mark.parametrize("fields, message", [
    ((1, 0, 0), "post 1: token_count must be >= 1"),
    ((1, 5, 6), "post 1: expected_entities must lie in [0, token_count]"),
    ((2, 5, -1), "post 2: expected_entities must lie in [0, token_count]"),
])
def test_a_bad_post_names_its_fault(fields, message):
    for build in (lambda: Post(*fields),
                  lambda: Post(**dict(zip(POST_FIELDS, fields))),
                  lambda: replace(Post(fields[0], 5, 0),
                                  **dict(zip(POST_FIELDS[1:], fields[1:])))):
        with pytest.raises(ConfigurationError) as err:
            build()
        assert str(err.value) == message


def test_a_post_built_by_position_or_keyword_is_the_dataclass():
    post = Post(3, 10, 2)
    assert post == Post(id=3, token_count=10, expected_entities=2)
    assert post == Post(3, expected_entities=2, token_count=10)
    assert (post.id, post.token_count, post.expected_entities) == (3, 10, 2)
    assert repr(post) == "Post(id=3, token_count=10, expected_entities=2)"
    assert hash(post) == hash((3, 10, 2))
    assert [f.name for f in dataclasses.fields(Post)] == list(POST_FIELDS)
    assert replace(post, token_count=20) == Post(3, 20, 2)
    with pytest.raises(TypeError):
        Post(3, 10)


def test_a_post_refuses_assignment():
    post = Post(3, 10, 2)
    # A name that is no field is refused the same way, not by a TypeError
    # from the generated methods' ``super()``.
    for name in (*POST_FIELDS, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(post, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(post, name)
    assert post == Post(3, 10, 2)
    assert not hasattr(post, "extra")


def test_a_post_survives_pickle_and_copy():
    post = Post(3, 10, 2)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(post, protocol))
        assert (twin, type(twin)) == (post, Post), protocol
    for twin in (copy.copy(post), copy.deepcopy(post)):
        assert (twin, type(twin)) == (post, Post)
    # Still frozen after the round trip.
    with pytest.raises(dataclasses.FrozenInstanceError):
        twin.id = 4


def test_worker_profile_validation():
    ok = dict(id=0, skill=0.5, lambda_in=1.0, lambda_out=1.0)
    WorkerProfile(**ok)
    with pytest.raises(ConfigurationError):
        WorkerProfile(**{**ok, "skill": 1.5})
    with pytest.raises(ConfigurationError):
        WorkerProfile(**{**ok, "lambda_in": 0.0})
    with pytest.raises(ConfigurationError):
        WorkerProfile(**{**ok, "lambda_out": -1.0})
    with pytest.raises(ConfigurationError):
        WorkerProfile(**{**ok, "exit_threshold": 1.5})


@pytest.mark.parametrize("field", ["lambda_in", "lambda_out"])
def test_worker_profile_rejects_a_nan_rate(field):
    ok = dict(id=3, skill=0.5, lambda_in=1.0, lambda_out=1.0)
    with pytest.raises(ConfigurationError, match="worker 3: rates"):
        WorkerProfile(**{**ok, field: float("nan")})


@pytest.mark.parametrize("field, value", [
    ("lambda_in", float("inf")), ("lambda_out", float("inf")),
])
def test_worker_profile_rejects_non_finite_floats(field, value):
    ok = dict(id=3, skill=0.5, lambda_in=1.0, lambda_out=1.0)
    with pytest.raises(ConfigurationError,
                       match=f"worker 3: {field} must be finite"):
        WorkerProfile(**{**ok, field: value})


def test_contest_config_accepts_exactly_provisioned_stream(contest_config):
    # service rate = 10/10 = 1 post/s per worker; arrival 2.0 means the
    # offered load equals the two-worker workforce, which is allowed.
    config = contest_config(arrival_rate=2.0)
    assert config.n_workers == 2


def test_contest_config_rejects_overload(contest_config):
    with pytest.raises(ConfigurationError):
        contest_config(arrival_rate=2.01)


def test_contest_config_rejects_spread_beyond_workforce(contest_config):
    with pytest.raises(ConfigurationError):
        contest_config(reward_spread=3)


def test_contest_config_rejects_oversized_task_unit(contest_config):
    with pytest.raises(ConfigurationError):
        contest_config(task_unit_size=11, window_size=10)


def test_contest_config_rejects_non_positive_fields(contest_config):
    for field, bad in [("n_workers", 0), ("n_posts", 0), ("window_size", 0),
                       ("task_unit_time_s", 0.0), ("arrival_rate", 0.0),
                       ("base_points", 0), ("reward_spread", 0),
                       ("reduction_rate", 0.0), ("quality_constraint", -1),
                       ("prize_value", -1.0)]:
        with pytest.raises(ConfigurationError):
            contest_config(**{field: bad})


@pytest.mark.parametrize("field", ["task_unit_time_s", "arrival_rate",
                                   "prize_value", "reduction_rate",
                                   "n_workers"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_contest_config_rejects_non_finite_fields(contest_config, field, bad):
    # An infinite task-unit time used to divide by zero in the load check.
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        contest_config(**{field: bad})


# --- JSON records ----------------------------------------------------------

@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_writes_no_token_json_lacks(value):
    with pytest.raises(ValueError):
        canonical_json({"x": value})


def test_json_record_writes_nan_as_null():
    @dataclass(frozen=True)
    class Stub:
        a: float
        b: tuple

    record = json_record(Stub(a=float("nan"), b=(1, 2)))
    assert record == {"a": None, "b": (1, 2)}
    assert canonical_json(record) == '{"a":null,"b":[1,2]}'
    assert json_record(Stub(a=0.5, b=())) == {"a": 0.5, "b": ()}


# --- line reader -----------------------------------------------------------

# Pieces of text whose line ends a block edge may split: "\r\n", a lone
# "\r", characters of two to four bytes, and every other line end of
# `str.splitlines` the log writer never writes.
_PIECES = ["a", "{}", "\u00e9", "\u20ac", "\U0001d11e", "\n", "\r", "\r\n",
           "\x85", "\u2028", "\x0c", "\v", "\x1c", "\u2029", " "]


@given(text=st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
       block=st.integers(1, 6))
@example(text="", block=1)
@example(text="ab", block=1)
@example(text="\n\n\n", block=1)
@example(text="a\r\nb\r\n", block=2)
@example(text="ab\rc\r", block=3)
@example(text="\u00e9\u20ac\U0001d11e\n\U0001d11e", block=1)
@example(text="a\x85b\u2028c\x0cd", block=2)
def test_text_lines_yields_splitlines_of_the_file(tmp_path_factory, text,
                                                  block):
    path = tmp_path_factory.mktemp("lines") / "text.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CHARS", block)
        with TextLines(path, "line") as lines:
            assert list(lines) == text.splitlines()
        with TextLines("<string>", "line", text) as lines:
            assert list(lines) == text.splitlines()


def test_a_bad_byte_in_a_later_block_names_the_path_alone(tmp_path):
    path = tmp_path / "late.txt"
    good = b"x" * 99 + b"\n"
    path.write_bytes(good * 2000 + b"\xff\n")
    read = 0
    with pytest.raises(ConfigurationError) as info:
        with TextLines(path, "line") as lines:
            for lines.lineno, _ in enumerate(lines, 1):
                read += 1
    assert read > core._BLOCK_CHARS // len(good)
    assert str(info.value).startswith(f"{path}: not UTF-8 text: ")


@pytest.mark.parametrize("fault", ["malformed line", "not UTF-8"])
def test_the_file_closes_when_a_read_raises(tmp_path, monkeypatch, fault):
    path = tmp_path / "text.txt"
    path.write_bytes(b"1\n2\n" + (b"\xff\n" if fault == "not UTF-8" else b""))
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(core, "open", recording_open, raising=False)
    with pytest.raises(ConfigurationError):
        with TextLines(path, "line") as lines:
            for lines.lineno, line in enumerate(lines, 1):
                if line == "2":
                    raise ValueError("not a line this reader takes")
    assert len(opened) == 1 and opened[0].closed


# --- package exports -------------------------------------------------------

def test_every_exported_name_resolves_once():
    assert len(set(contestsim.__all__)) == len(contestsim.__all__)
    for name in contestsim.__all__:
        assert hasattr(contestsim, name), name
