"""Timing wrappers installed on contestsim's module attributes.

The wrappers sit at the names the callers actually look up: the engine
calls ``holding_time`` through its own module namespace, ``substream``
through the ``rng`` module, and ``run_condition`` is looked up in both
``experiment`` and ``cli``.  Nothing inside the program is edited; every
attribute is put back by :meth:`Tracer.uninstall`.

Two kinds of wrapper exist.  A *span* records its own start, end, parent
and a few attributes of the call.  A *leaf* is for functions called once
per event or per worker (random draws, scoring, rank sorts): recording a
span for each would cost more than the call, so a leaf only adds its call
count and time to the span that is open when it runs.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Optional

SPAN = "span"
LEAF = "leaf"


def _events_of_result(args, kwargs, result) -> dict:
    return {"events": len(result.events),
            "n_workers": result.config.n_workers}


def _events_of_log_arg(args, kwargs, result) -> dict:
    log = args[0] if args else kwargs["log"]
    return {"events": len(log.events), "n_workers": log.config.n_workers}


def _events_of_list_arg(args, kwargs, result) -> dict:
    events = args[0] if args else kwargs["events"]
    return {"events": len(events)}


def _log_linear_fit(args, kwargs, result) -> dict:
    events = args[0] if args else kwargs["events"]
    return {"events": len(events), "iterations": result.iterations}


def _cell(signature: inspect.Signature):
    def note(args, kwargs, result) -> dict:
        bound = signature.bind(*args, **kwargs).arguments
        return {"cell": [bound["reward_spread"], bound["replication"]]}
    return note


# (module, attribute looked up by callers, layer name, kind, note).
# A note turns (args, kwargs, result) into attributes kept on the span; it
# runs only after the call has returned.
WRAPPED = (
    ("cli", "main", "cli.main", SPAN, None),
    ("cli", "read_experiment_config", "experiment.read_experiment_config",
     SPAN, None),
    ("cli", "sweep", "experiment.sweep", SPAN, None),
    ("cli", "run_condition", "experiment.run_condition", SPAN, "cell"),
    ("cli", "emit_outputs", "experiment.emit_outputs", SPAN, None),
    ("experiment", "generate_corpus", "experiment.generate_corpus", SPAN, None),
    ("experiment", "run_condition", "experiment.run_condition", SPAN, "cell"),
    ("experiment", "generate_profiles", "experiment.generate_profiles", SPAN,
     None),
    ("experiment", "run_contest", "simulate.run_contest", SPAN,
     _events_of_result),
    ("experiment", "summarize", "experiment.summarize", SPAN, None),
    ("experiment", "trend_from_summaries", "experiment.trend_from_summaries",
     SPAN, None),
    ("inference", "run_contest", "simulate.run_contest", SPAN,
     _events_of_result),
    ("inference", "fit_two_state", "inference.fit_two_state", SPAN,
     _events_of_list_arg),
    ("inference", "fit_log_linear", "inference.fit_log_linear", SPAN,
     _log_linear_fit),
    ("inference", "recovery_experiment", "inference.recovery_experiment",
     SPAN, None),
    ("simulate", "write_event_log", "simulate.write_event_log", SPAN,
     _events_of_log_arg),
    ("simulate", "read_event_log", "simulate.read_event_log", SPAN,
     _events_of_result),
    ("simulate", "replay_validate", "simulate.replay_validate", SPAN,
     _events_of_log_arg),
    ("simulate", "holding_time", "simulate.holding_time", LEAF, None),
    ("simulate", "simulate_annotated_count",
     "simulate.simulate_annotated_count", LEAF, None),
    ("simulate", "exit_hazard", "simulate.exit_hazard", LEAF, None),
    ("simulate", "score_annotation", "core.score_annotation", LEAF, None),
    ("simulate", "rank_workers", "core.rank_workers", LEAF, None),
    ("simulate", "build_windows", "stream.build_windows", LEAF, None),
    ("simulate", "allocate_round_robin", "stream.allocate_round_robin", LEAF,
     None),
    ("simulate", "advance_queue", "stream.advance_queue", LEAF, None),
    ("rng", "substream", "rng.substream", LEAF, None),
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)
    # leaf layer name -> [calls, ns] for leaf calls made while this span was
    # the innermost open one.
    leaves: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start_ns": self.start_ns, "end_ns": self.end_ns,
                "attrs": self.attrs, "leaves": self.leaves}


class Tracer:
    """Installs the wrappers in :data:`WRAPPED` and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._leaf_depth = 0

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(id=len(self.spans), parent=parent, name=name,
                    start_ns=perf_counter_ns())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = perf_counter_ns()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _span_wrapper(self, fn: Callable, name: str, note) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                tracer.close(span)
            if note is not None:
                span.attrs.update(note(args, kwargs, result))
            return result

        return traced

    def _leaf_wrapper(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer._leaf_depth or not tracer.stack:
                # A leaf inside a leaf is already inside the outer leaf's
                # time; adding it again would let children outgrow parents.
                return fn(*args, **kwargs)
            tracer._leaf_depth += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                tracer._leaf_depth -= 1
                acc = tracer.stack[-1].leaves.get(name)
                if acc is None:
                    tracer.stack[-1].leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every name in :data:`WRAPPED` that exists.

        A module or attribute that no longer exists is recorded in
        ``absent`` by its layer name; the metrics built on it are then
        reported as absent, not as zero.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, layer, kind, note in WRAPPED:
            try:
                module = importlib.import_module(f"contestsim.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                if layer not in self.absent:
                    self.absent.append(layer)
                continue
            if kind == LEAF:
                wrapper = self._leaf_wrapper(original, layer)
            else:
                if note == "cell":
                    note = _cell(inspect.signature(original))
                wrapper = self._span_wrapper(original, layer, note)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_ns(span: Span, spans: list[Span]) -> int:
    """Span time not covered by its child spans or its leaf calls."""
    children = sum(s.ns for s in spans if s.parent == span.id)
    leaves = sum(ns for _, ns in span.leaves.values())
    return span.ns - children - leaves

