"""One owner per rule: a pattern that states a rule may match a line of
``src/contestsim`` only in the module that owns the rule, or, for a rule
with no owner, in none.

Each row also carries a planted line that its pattern must match, so a row
that can no longer match anything fails rather than passing unseen.  The
last test holds the names the benchmark's tracer wraps to the package.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[1]
_SRC = _REPO / "src" / "contestsim"

# (owning module or None, pattern, message, a line the pattern must match)
ROWS = [
    ("core.py", r"write_text|write_bytes|os\.replace|open\(",
     "write files through contestsim.core.write_atomic",
     "path.write_text(text)"),
    ("core.py", r"import json|from json",
     "decode JSON through contestsim.core.decode_json",
     "import json"),
    ("core.py", r"read_text|splitlines",
     "read text files through contestsim.core.TextLines",
     "lines = text.splitlines()"),
    (None, r"asdict\(|def to_record",
     "encode records through contestsim.core.json_record",
     "record = dataclasses.asdict(log)"),
    ("core.py", r"import gc|from gc",
     "pause the collector through contestsim.core.collector_paused",
     "import gc"),
    # Thresholds and freezing are process-wide state.
    (None, r"gc\.(set_threshold|freeze)",
     "contestsim leaves the collector's thresholds alone",
     "gc.freeze()"),
    ("core.py", r"\._keys\b|\._key_of\b",
     "read ranks through contestsim.core.Leaderboard's methods",
     "first = board._keys[0]"),
    ("rng.py", r"random_raw|2\.0\*\*-53|2\.0\*\*53",
     "rebuild numpy's draws through contestsim.rng",
     "words = bits.random_raw(32)"),
    ("rng.py", r"SeedSequence|PCG64|default_rng",
     "build generators through contestsim.rng",
     "gen = np.random.default_rng(seed)"),
    ("stream.py", r"start_offset|rr_offset|\bwin(dow)?\[",
     "deal a window through contestsim.stream.allocate_round_robin",
     "first = window[0]"),
    ("core.py", r"FIELD_TYPES\[f\.type\]|FIELD_TYPES\.get\(f\.type",
     "derive a record's field kinds through contestsim.core.field_kinds",
     "kinds = {f.name: FIELD_TYPES[f.type] for f in fields(Post)}"),
]


@pytest.mark.parametrize("owner, pattern, message, planted", ROWS, ids=[
    "writer", "decoder", "line reader", "record encoder", "collector switch",
    "collector thresholds", "leaderboard", "draw layer", "generators",
    "deal", "field kinds"])
def test_only_the_owner_states_the_rule(owner, pattern, message, planted):
    rule = re.compile(pattern)
    assert rule.search(planted), f"{pattern!r} no longer matches {planted!r}"
    modules = sorted(_SRC.glob("*.py"))
    assert owner is None or _SRC / owner in modules
    offenders = [f"{path.name}:{lineno}: {line}"
                 for path in modules if path.name != owner
                 for lineno, line in enumerate(
                     path.read_text(encoding="utf-8").splitlines(), 1)
                 if rule.search(line)]
    assert not offenders, "\n".join([message, *offenders])


def test_every_attribute_the_benchmark_wraps_exists(monkeypatch):
    # The benchmark's tracer wraps the (module, attribute) rows of its
    # ``WRAPPED`` by name and reports a missing one as absent rather than
    # failing, so a deleted hook would otherwise show only in the
    # benchmark's own self-test.  ``tracing.py`` imports only the standard
    # library; its dataclasses need it in `sys.modules` while it runs.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", _REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    hooks = tracing.WRAPPED
    assert hooks
    missing = [f"contestsim.{module}.{attribute}"
               for module, attribute, *_ in hooks
               if not hasattr(importlib.import_module(f"contestsim.{module}"),
                              attribute)]
    assert not missing, missing
