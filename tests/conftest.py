"""Shared test helpers: canned backends, object factories, summary hook."""

from __future__ import annotations

import json
import threading
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Mapping, Optional, Union

import sgcr.gateway
from sgcr.backends import BaseBackend, Jitter, MockBackend, ReplayBackend
from sgcr.gateway import ModelRequest
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


class SessionDouble:
    """A requests.Session stand-in: empty replies, or none, and whether it was closed."""

    def __init__(self, refuse: bool) -> None:
        self.refuse = refuse
        self.closed = False

    def post(self, url, json, headers, timeout):
        import requests

        if self.refuse:
            raise requests.ConnectionError("connection refused")
        if url.endswith("/v1/embeddings"):
            body = {"data": [{"embedding": [1.0, 0.5]}]}
        else:
            body = {"choices": [{"message": {"content": '{"findings": [], "issues": []}'}}]}
        return SimpleNamespace(status_code=200, json=lambda: body, text="")

    def close(self):
        self.closed = True


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

    def __init__(
        self,
        responses: Mapping[object, Responder],
        jitter: Optional[Jitter] = None,
    ) -> None:
        super().__init__(jitter)
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
