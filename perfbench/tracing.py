"""Span tracing for the traced run, installed from outside the program.

``Tracer.install_spans`` and ``Tracer.install_counters`` replace functions
on the ``sgcr`` modules with wrappers, and ``uninstall`` puts the originals
back; nothing under ``src/`` knows it is traced. Modules bind names with ``from .x import y``, so each
name is wrapped where its caller looks it up (``sgcr.pipeline.build_index``,
not ``sgcr.retrieval.build_index``).

Two kinds of wrapper:

- a span records name, start, end, parent span and review id, plus the
  thread's CPU clock, and counts toward its caller's covered time;
- a counter only counts calls. It is used for functions called hundreds
  of thousands of times per review (``findings_equivalent``) or for plain
  lookups, where a span would cost more than the work. Its calls' time
  stays in the caller's span.

``ThreadPoolExecutor`` does not carry context into worker threads, so the
executor name on each pooled module is replaced too: the submitting
thread's innermost span becomes the parent of the worker's spans. Reviews
run one at a time, so the tracer's current review id is every span's
review. Self time is computed per thread: a span's duration minus the time
its children on the same thread cover. A parent blocked on a pool's
futures therefore keeps that waiting as self wall time but not as self CPU
time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional


class Span:
    __slots__ = (
        "span_id", "name", "review", "parent", "thread", "start", "end",
        "cpu", "child_wall", "child_cpu", "attrs", "error",
    )

    def __init__(self, span_id: int, name: str, review: int, parent: Optional[int]) -> None:
        self.span_id = span_id
        self.name = name
        self.review = review
        self.parent = parent
        self.thread = threading.get_ident()
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.attrs: dict[str, float] = {}
        self.error: Optional[str] = None
        # The thread clock at the start; _close turns it into the duration.
        self.cpu = time.thread_time()
        self.start = time.perf_counter()
        self.end = 0.0

    @property
    def self_wall(self) -> float:
        return self.end - self.start - self.child_wall

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


# Hooks that read a layer count off a wrapped call's arguments or result.
def _quorum(span: Span, args: tuple, result) -> None:
    span.attrs["candidates"] = sum(len(candidate.findings) for candidate in args[1])
    span.attrs["kept"] = len(result.findings)


def _slots_ok(span: Span, args: tuple, result) -> None:
    span.attrs["slots_ok"] = sum(1 for parsed in result[0] if parsed is not None)


def _cluster_input(span: Span, args: tuple, result) -> None:
    span.attrs["input"] = len(args[0])


def _clusters(span: Span, args: tuple, result) -> None:
    span.attrs["clusters"] = len(result.clusters)


def _patch_attempts(span: Span, args: tuple, result) -> None:
    span.attrs["attempted"] = dict(result.patch_stats).get("attempted", 0)


def _implicit_outcome(span: Span, args: tuple, result) -> None:
    stats = result.stats_dict()
    span.attrs["proposals"] = stats.get("proposals", 0)
    span.attrs["accepted"] = stats.get("accepted", 0)


# ("module:qualified.name", span name, result hook).
SPANS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("sgcr.pipeline:run_review", "pipeline.run_review", None),
    ("sgcr.ingestion:build_review_request", "ingestion.build_request", None),
    ("sgcr.explicit:prompt_block", "ingestion.prompt_block", None),
    ("sgcr.implicit:prompt_block", "ingestion.prompt_block", None),
    ("sgcr.pipeline:prompt_block", "ingestion.prompt_block", None),
    ("sgcr.pipeline:load_library", "specs.load_library", None),
    ("sgcr.explicit:segment_library", "specs.segment", None),
    ("sgcr.explicit:chunk_prompt_text", "specs.chunk_text", None),
    ("sgcr.pipeline:build_index", "retrieval.build_index", None),
    ("sgcr.pipeline:load_index", "retrieval.load_index", None),
    ("sgcr.implicit:retrieve", "retrieval.retrieve", None),
    ("sgcr.explicit:render_prompt", "prompts.render", None),
    ("sgcr.implicit:render_prompt", "prompts.render", None),
    ("sgcr.pipeline:render_prompt", "prompts.render", None),
    ("sgcr.report:render_prompt", "prompts.render", None),
    ("sgcr.explicit:ensemble_parsed", "gateway.ensemble", _slots_ok),
    ("sgcr.implicit:ensemble_parsed", "gateway.ensemble", _slots_ok),
    ("sgcr.pipeline:ensemble_parsed", "gateway.ensemble", _slots_ok),
    ("sgcr.gateway:generate", "gateway.slot", None),
    ("backend:BenchBackend.complete", "backends.call", None),
    ("sgcr.explicit:parse_findings_response", "parsing.parse", None),
    ("sgcr.pipeline:parse_findings_response", "parsing.parse", None),
    ("sgcr.implicit:parse_proposals_response", "parsing.parse", None),
    ("sgcr.implicit:parse_verdict_response", "parsing.parse", None),
    ("sgcr.report:parse_patch_response", "parsing.parse", None),
    ("sgcr.pipeline:run_explicit", "explicit.run", None),
    ("sgcr.explicit:review_chunk_ensemble", "explicit.review_chunk", None),
    ("sgcr.explicit:aggregate_candidates", "explicit.aggregate", _quorum),
    ("sgcr.explicit:synthesize_partials", "explicit.synthesize", None),
    ("sgcr.pipeline:run_implicit", "implicit.run", _implicit_outcome),
    ("sgcr.implicit:propose_issues", "implicit.propose", None),
    ("sgcr.implicit:ground_issue", "implicit.ground", None),
    ("sgcr.implicit:verify_issue", "implicit.verify", None),
    # The explicit pathway's own pairwise clusterer is the same kernel as
    # cluster_findings, so its time belongs to the matching layer.
    ("sgcr.explicit:_cluster_with_instances", "matching.cluster_with_instances", None),
    ("sgcr.report:cluster_findings", "matching.cluster", _cluster_input),
    ("sgcr.pipeline:consolidate", "report.consolidate", _clusters),
    ("sgcr.pipeline:attach_patches", "report.patches", _patch_attempts),
    ("sgcr.pipeline:render_report", "report.render", None),
)

# ("module:qualified.name", counter name).
COUNTERS: tuple[tuple[str, str], ...] = (
    ("sgcr.explicit:findings_equivalent", "matching.pair_checks"),
    ("sgcr.matching:findings_equivalent", "matching.pair_checks"),
    ("sgcr.specs:SpecLibrary.get", "specs.lookups"),
    ("sgcr.specs:SpecLibrary.ids", "specs.lookups"),
    ("sgcr.retrieval:embed_text", "retrieval.embed_calls"),
    ("sgcr.implicit:embed_text", "retrieval.embed_calls"),
)

POOLED_MODULES = ("sgcr.explicit", "sgcr.implicit", "sgcr.gateway", "sgcr.report")


def _resolve(target: str) -> tuple[object, str]:
    """The module or class holding a table entry's name, and the name."""
    module_name, qualified = target.split(":")
    *owners, attribute = qualified.split(".")
    holder = importlib.import_module(module_name)
    for owner in owners:
        holder = getattr(holder, owner)
    return holder, attribute


class Tracer:
    """Spans and counters for a sequence of reviews run one at a time.

    Spans and counters are installed apart: counting every pair check costs
    more than the checks themselves, so counts come from a review of their
    own and the timed reviews carry spans only. Counts do not depend on
    timing, so one counting review gives every review's counts.
    """

    def __init__(self) -> None:
        self.review = 0
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: dict[str, itertools.count] = {}
        self._counter_marks: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "remote", None)

    def _open(self, name: str) -> Span:
        parent = self._current()
        span = Span(next(self._ids), name, self.review, parent.span_id if parent else None)
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_wall += span.end - span.start
            stack[-1].child_cpu += span.cpu
        self.spans.append(span)

    def read_counters(self) -> dict[str, int]:
        """Calls per counter since the last reading.

        Read between reviews, when no pool thread of the program runs.
        """
        reading = {}
        for name, counter in self._counters.items():
            # Reading an itertools.count advances it by one.
            value = next(counter)
            reading[name] = value - self._counter_marks.get(name, 0)
            self._counter_marks[name] = value + 1
        return reading

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, function: Callable, name: str, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if hook is not None:
                hook(span, args, result)
            return result

        return traced

    def _counter_wrapper(self, function: Callable, name: str) -> Callable:
        # next() on an itertools.count is one C call made under the
        # interpreter lock, so threads never lose an increment.
        tick = self._counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(function)
        def counted(*args, **kwargs):
            tick()
            return function(*args, **kwargs)

        return counted

    def _executor_class(self) -> type:
        tracer = self

        class ContextExecutor(ThreadPoolExecutor):
            """Runs each task with the submitting thread's span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()

                def run():
                    saved = getattr(tracer._local, "remote", None)
                    tracer._local.remote = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.remote = saved

                return super().submit(run)

        return ContextExecutor

    def _replace(self, holder: object, attribute: str, value: object) -> None:
        self._saved.append((holder, attribute, holder.__dict__[attribute]))
        setattr(holder, attribute, value)

    def _wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        holder, attribute = _resolve(target)
        if attribute not in vars(holder):
            self.missing.append(target)
            return
        self._replace(holder, attribute, make(getattr(holder, attribute)))

    def install_spans(self) -> None:
        """Wrap every span entry that exists, and the pooled modules' executors."""
        for target, name, hook in SPANS:
            self._wrap(target, lambda original: self._span_wrapper(original, name, hook))
        executor = self._executor_class()
        for module_name in POOLED_MODULES:
            module = importlib.import_module(module_name)
            if "ThreadPoolExecutor" in vars(module):
                self._replace(module, "ThreadPoolExecutor", executor)

    def install_counters(self) -> None:
        """Wrap every counter entry that exists."""
        for target, name in COUNTERS:
            self._wrap(target, lambda original: self._counter_wrapper(original, name))

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._saved):
            setattr(holder, attribute, original)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[int, dict[str, "Totals"]]:
        """Per review id, per span name, the summed figures."""
        result: dict[int, dict[str, Totals]] = collections.defaultdict(
            lambda: collections.defaultdict(Totals)
        )
        for span in self.spans:
            entry = result[span.review][span.name]
            entry.timed = True
            entry.count += 1
            entry.wall += span.end - span.start
            entry.self_wall += span.self_wall
            entry.self_cpu += span.self_cpu
            entry.attrs.update(span.attrs)
            if span.error == "UnparsableResponse":
                entry.attrs["unparsable"] += 1
        return result


class Totals:
    """Count, summed durations and summed attributes of one name in one review.

    ``timed`` is false for counters, which have a count and nothing else.
    """

    __slots__ = ("timed", "count", "wall", "self_wall", "self_cpu", "attrs")

    def __init__(self) -> None:
        self.timed = False
        self.count = 0
        self.wall = 0.0
        self.self_wall = 0.0
        self.self_cpu = 0.0
        self.attrs: collections.Counter = collections.Counter()
