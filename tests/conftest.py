"""Shared test helpers: canned backends, object factories, summary hook."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Mapping, Optional, Union

import sgcr.gateway
import sgcr.pipeline
import sgcr.wire
from sgcr.backends import BaseBackend, MockBackend, ReplayBackend
from sgcr.gateway import ModelRequest, RunScope, canonical_request
from sgcr.ingestion import ReviewRequest, ReviewUnit
from sgcr.retrieval import MockEmbeddingProvider
from sgcr.specs import Specification, SpecLibrary, estimate_tokens
from sgcr.types import Category, Finding, Pathway, Severity

REPO_ROOT = Path(__file__).resolve().parent.parent

GOLDEN_DIR = REPO_ROOT / "tests" / "data" / "golden"

Responder = Union[str, Callable[[ModelRequest], str]]


class CallLog:
    """Backend mixin that keeps every request it is sent, in arrival order.

    Backends themselves keep none, so that a run frees each prompt once its
    call is done; tests that assert on the calls made use this.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.call_log: list[ModelRequest] = []

    def complete(self, request: ModelRequest) -> str:
        with self._lock:
            self.call_log.append(request)
        return super().complete(request)

    def calls_for_role(self, role: object) -> int:
        wanted = getattr(role, "value", role)
        with self._lock:
            return sum(1 for request in self.call_log if request.role == wanted)


def reference_prompt_sha256(prompt: str) -> str:
    """A prompt's digest by definition: its whole UTF-8 bytes hashed in one call."""
    return hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).hexdigest()


def canonical_request_json(request: ModelRequest) -> str:
    """canonical_request as JSON with sorted keys and no whitespace."""
    return json.dumps(canonical_request(request), sort_keys=True, separators=(",", ":"))


def reference_fingerprint(request: Mapping) -> str:
    """The fingerprint by definition, of a request's six canonical fields:
    sha256 of the sorted, compact dump of every field but the prompt, plus
    the prompt's digest as "prompt_sha256"."""
    fields = {name: value for name, value in request.items() if name != "prompt"}
    fields["prompt_sha256"] = reference_prompt_sha256(request["prompt"])
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_generate(monkeypatch) -> list[ModelRequest]:
    """Every request sent through sgcr.gateway.generate from now on.

    Each attempt of every model call goes through it, so on a run its
    length is the number of calls the backend was sent.
    """
    sent: list[ModelRequest] = []
    generate = sgcr.gateway.generate

    def recording_generate(backend, request):
        sent.append(request)
        return generate(backend, request)

    monkeypatch.setattr(sgcr.gateway, "generate", recording_generate)
    return sent


class ConnectionDouble:
    """An http.client connection stand-in: empty replies, or a refused connect.

    Made by open_connection_doubles in place of wire.http_connection; it
    records the url it was opened for and whether it was closed.
    """

    def __init__(self, url: str, refuse: bool) -> None:
        self.url = url
        self.refuse = refuse
        self.closed = False

    def request(self, method, target, body, headers):
        if self.refuse:
            raise ConnectionRefusedError("connection refused")

    def getresponse(self):
        if self.url.endswith("/v1/embeddings"):
            body = {"data": [{"embedding": [1.0, 0.5]}]}
        else:
            body = {"choices": [{"message": {"content": '{"findings": [], "issues": []}'}}]}
        raw = json.dumps(body).encode("utf-8")
        return SimpleNamespace(status=200, will_close=False, read=lambda: raw)

    def close(self):
        self.closed = True


def open_connection_doubles(monkeypatch, refuse: bool = False) -> list[ConnectionDouble]:
    """Every connection an HTTP client opens from now on, as a ConnectionDouble."""
    opened: list[ConnectionDouble] = []

    def http_connection(url, timeout):
        connection = ConnectionDouble(url, refuse)
        opened.append(connection)
        return connection, "/", {}

    monkeypatch.setattr(sgcr.wire, "http_connection", http_connection)
    return opened


class JitteredBackend:
    """A backend that sleeps a seeded random time, up to max_ms, before each call.

    The delay perturbs the thread schedule only, never content, which is how
    the schedule-independence tests shake out ordering bugs.
    """

    def __init__(self, backend, max_ms: float, seed: int) -> None:
        self.backend = backend
        self._max_ms = max_ms
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def complete(self, request: ModelRequest) -> str:
        with self._lock:
            delay = self._rng.uniform(0, self._max_ms) / 1000.0
        if delay:
            time.sleep(delay)
        return self.backend.complete(request)

    def close(self) -> None:
        self.backend.close()


_BUILD_BACKEND = sgcr.pipeline.build_backend


def jitter_built_backends(monkeypatch, max_ms: float, seed: int) -> None:
    """Every backend a run builds from now on is a JitteredBackend(max_ms, seed)."""
    monkeypatch.setattr(
        sgcr.pipeline,
        "build_backend",
        lambda config: JitteredBackend(_BUILD_BACKEND(config), max_ms, seed),
    )


class OrderedScope(RunScope):
    """A run scope that forces the order in which the run sees its calls finish.

    Each call is given a priority when it is submitted, and what the run
    holds is a stand-in future. A finished call is held back until the run
    is still: every thread of the run (the caller and the side thread) is
    blocked in a wait that no released call satisfies, and no call is
    running. Then the held call of highest priority is let through, and
    only the thread it wakes runs until it waits again. So one thread runs
    at a time, and the schedule the run observes is set by the priorities
    alone, not sampled from latencies: submission order reversed, or
    seeded random priorities as in PCT (Burckhardt et al., ASPLOS 2010).
    released lists the submission numbers in the order they were let
    through.
    """

    def __init__(self, priority: Callable[[int], float]) -> None:
        super().__init__()
        self._priority = priority
        self._numbers = itertools.count()
        self._held: list[tuple[float, int, Future, Future]] = []
        self._threads = 1  # the caller's, and the side thread's while it runs
        self._waiting: list[Callable[[], bool]] = []  # the blocked threads' tests
        self.released: list[int] = []

    @classmethod
    def reverse(cls) -> "OrderedScope":
        return cls(lambda number: number)

    @classmethod
    def seeded(cls, seed: int) -> "OrderedScope":
        rng = random.Random(seed)
        return cls(lambda number: rng.random())

    def submit(self, fn, /, *args, **kwargs) -> Future:
        call = super().submit(fn, *args, **kwargs)
        shown = Future()
        with self._changed:
            number = next(self._numbers)
            self._held.append((self._priority(number), number, shown, call))
        return shown

    def beside(self, fn, /, *args, **kwargs) -> Future:
        def counted():
            try:
                return fn(*args, **kwargs)
            finally:
                with self._changed:
                    self._threads -= 1
                    self._changed.notify_all()

        with self._changed:
            self._threads += 1
        return super().beside(counted)

    def _until(self, ready) -> None:
        with self._changed:
            self._waiting.append(ready)
            try:
                while not ready():
                    if self._still():
                        self._release()
                    else:
                        self._changed.wait()
            finally:
                self._waiting.remove(ready)

    def _still(self) -> bool:
        return (
            len(self._waiting) == self._threads
            and bool(self._held)
            and all(call.done() for *_, call in self._held)
            and not any(test() for test in self._waiting)
        )

    def _release(self) -> None:
        held = max(self._held, key=lambda entry: entry[0])
        self._held.remove(held)
        _, number, shown, call = held
        self.released.append(number)
        if call.cancelled():
            shown.cancel()
        elif call.exception() is not None:
            shown.set_exception(call.exception())
        else:
            shown.set_result(call.result())
        self._changed.notify_all()


class LoggedMockBackend(CallLog, MockBackend):
    """MockBackend that keeps a call log."""


class LoggedReplayBackend(CallLog, ReplayBackend):
    """ReplayBackend that keeps a call log."""


class LoggedMockEmbeddingProvider(MockEmbeddingProvider):
    """MockEmbeddingProvider that keeps every text it embeds, in call order.

    Providers themselves keep none, so that a run holds no rule text for
    them; tests that assert on the texts embedded use this.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.call_log: list[str] = []
        self._log_lock = threading.Lock()

    def embed(self, text: str) -> list[float]:
        with self._log_lock:
            self.call_log.append(text)
        return super().embed(text)


class CannedBackend(CallLog, BaseBackend):
    """Scripted backend for targeted tests.

    Responses are keyed by (role, instance_index) first, then by role alone;
    values are either literal text or a callable taking the request. A
    request with no matching key is a test bug and fails loudly. Every
    request is kept in call_log.
    """

    def __init__(self, responses: Mapping[object, Responder]) -> None:
        super().__init__()
        self.responses = dict(responses)

    def _complete(self, request: ModelRequest) -> str:
        for key in ((request.role, request.instance_index), request.role):
            if key in self.responses:
                value = self.responses[key]
                return value(request) if callable(value) else value
        raise AssertionError(
            f"no canned response for role={request.role!r}"
            f" instance={request.instance_index}"
        )


def _fill_range(full: dict, entry: dict) -> dict:
    full.update(entry)
    if "start_line" in entry and "end_line" not in entry:
        full["end_line"] = full["start_line"]
    return full


def findings_json(*entries: dict) -> str:
    """A findings-schema response body with per-entry defaults filled in."""
    built = []
    for entry in entries:
        full = {
            "file": "src/Main.java",
            "start_line": 1,
            "end_line": 1,
            "severity": "medium",
            "description": "placeholder finding",
            "rationale": "",
            "spec_ids": [],
        }
        built.append(_fill_range(full, entry))
    return json.dumps({"findings": built})


def issues_json(*entries: dict) -> str:
    built = []
    for entry in entries:
        full = {
            "file": "src/Main.java",
            "start_line": 1,
            "end_line": 1,
            "description": "placeholder issue",
        }
        built.append(_fill_range(full, entry))
    return json.dumps({"issues": built})


def verdict_json(
    verdict: str = "valid",
    justification: str = "looks real",
    cited: Optional[list[str]] = None,
    severity: Optional[str] = None,
) -> str:
    payload: dict[str, object] = {
        "verdict": verdict,
        "justification": justification,
        "cited_spec_ids": cited or [],
    }
    if severity is not None:
        payload["severity"] = severity
    return json.dumps(payload)


def make_spec(
    spec_id: str,
    severity: Severity = Severity.LOW,
    category: Category = Category.STYLE,
    body: str = "Follow the documented pattern for this rule.",
    title: Optional[str] = None,
    language: str = "java",
    source_path: Optional[str] = None,
    tokens: Optional[int] = None,
) -> Specification:
    title = title if title is not None else f"Rule {spec_id}"
    return Specification(
        id=spec_id,
        title=title,
        body=body,
        category=category,
        severity=severity,
        language=language,
        source_path=source_path or f"{spec_id}.md",
        token_estimate=tokens if tokens is not None else estimate_tokens(title + body),
    )


def make_library(*specs: Specification) -> SpecLibrary:
    return SpecLibrary(specs=tuple(specs))


def make_finding(
    file: str = "src/Main.java",
    start: int = 1,
    end: Optional[int] = None,
    description: str = "unchecked value flows into the call",
    severity: Severity = Severity.MEDIUM,
    pathway: Pathway = Pathway.EXPLICIT,
    **kwargs,
) -> Finding:
    return Finding(
        file=file,
        start_line=start,
        end_line=end if end is not None else start,
        description=description,
        severity=severity,
        pathway=pathway,
        **kwargs,
    )


def make_review_request(
    path: str = "src/Main.java",
    lines: tuple[str, ...] = (
        "public class Main {",
        "    private int value;",
        "    public int read() {",
        "        return value;",
        "    }",
        "}",
    ),
) -> ReviewRequest:
    content = "\n".join(lines)
    unit = ReviewUnit(
        path=path,
        content=content,
        start_line=1,
        changed_ranges=((1, len(lines)),),
    )
    return ReviewRequest(units=(unit,), origin="files")


SPEC_FILE_TEMPLATE = """---
id: {spec_id}
title: {title}
category: {category}
severity: {severity}
language: {language}
---
{body}
"""


def write_spec_file(
    directory: Path,
    spec_id: str,
    title: Optional[str] = None,
    category: str = "style",
    severity: str = "low",
    language: str = "java",
    body: str = "Use the documented pattern.",
    filename: Optional[str] = None,
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (filename or f"{spec_id.replace('.', '-')}.md")
    path.write_text(
        SPEC_FILE_TEMPLATE.format(
            spec_id=spec_id,
            title=title or f"Rule {spec_id}",
            category=category,
            severity=severity,
            language=language,
            body=body,
        ),
        encoding="utf-8",
    )
    return path


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One explicit pass/fail line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                rows.append((nodeid.split("::", 1)[1], outcome))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(rows):
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status} {name}")
