"""Request fingerprinting, ensemble dispatch, retries, and the wire protocol."""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import pytest

from conftest import (
    REPO_ROOT,
    CannedBackend,
    LoggedMockBackend,
    LoggedMockEmbeddingProvider,
    LoggedReplayBackend,
    SessionDouble,
    findings_json,
    issues_json,
    make_finding,
    make_library,
    make_review_request,
    make_spec,
    record_generate,
    write_spec_file,
)
from sgcr.backends import (
    HttpBackend,
    MockBackend,
    RecordingBackend,
    ReplayBackend,
    prompt_headers,
)
from sgcr.errors import (
    BackendTimeout,
    EmptyLibrary,
    EnsembleError,
    FixtureMiss,
    IndexLibraryMismatch,
    MalformedSpecFile,
    MalformedWireResponse,
    RequestRejected,
    UnparsableResponse,
    WireError,
)
from sgcr.cli import main
from sgcr.config import RunConfig
from sgcr.gateway import (
    MAX_INFLIGHT,
    SLOT_RETRIES,
    CountedBackend,
    EnsembleConfig,
    ModelRequest,
    PendingEnsemble,
    call_pool,
    canonical_request_json,
    collect_in_order,
    ensemble_requests,
    generate,
    submit_ensemble,
)
import sgcr.backends
import sgcr.explicit
import sgcr.gateway
import sgcr.implicit
import sgcr.ingestion
import sgcr.pipeline
import sgcr.retrieval
from sgcr.explicit import (
    AggregatedReview,
    CandidateReview,
    aggregate_candidates,
    synthesize_partials,
)
from sgcr.implicit import propose_issues
from sgcr.pipeline import run_review
from sgcr.report import FindingCluster, generate_patch
from sgcr.retrieval import (
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    build_index,
    embed_text,
    save_index,
)
from sgcr.prompts import Role
from sgcr.specs import SpecChunk, load_library, segment_library


def test_canonical_json_is_sorted_and_compact():
    request = ModelRequest(role="proposer", prompt="p", temperature=0.5, seed=3)
    expected = json.dumps(
        {
            "role": "proposer",
            "prompt": "p",
            "temperature": 0.5,
            "seed": 3,
            "max_output_tokens": request.max_output_tokens,
            "instance_index": 0,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    assert canonical_request_json(request) == expected


def test_fingerprint_sensitivity():
    base = ModelRequest(role="verifier", prompt="same prompt", seed=1)
    assert ModelRequest(role="verifier", prompt="same prompt", seed=1).fingerprint == base.fingerprint
    for variant in (
        ModelRequest(role="verifier", prompt="same prompt", seed=2),
        ModelRequest(role="verifier", prompt="other prompt", seed=1),
        ModelRequest(role="verifier", prompt="same prompt", seed=1, instance_index=1),
        ModelRequest(role="proposer", prompt="same prompt", seed=1),
    ):
        assert variant.fingerprint != base.fingerprint


def test_model_request_normalizes_enum_role_and_validates():
    request = ModelRequest(role=Role.PROPOSER, prompt="p")
    assert request.role == "proposer"
    with pytest.raises(ValueError):
        ModelRequest(role="proposer", prompt="")
    with pytest.raises(ValueError):
        ModelRequest(role="proposer", prompt="p", temperature=-0.1)
    with pytest.raises(ValueError):
        ModelRequest(role="proposer", prompt="p", instance_index=-1)


def test_ensemble_config_validates_quorum():
    with pytest.raises(ValueError):
        EnsembleConfig(n=2, quorum=3)
    with pytest.raises(ValueError):
        EnsembleConfig(n=0, quorum=0)


def test_ensemble_requests_diversify_seed_and_index():
    base = ModelRequest(role="explicit_reviewer", prompt="p", temperature=0.7)
    requests = ensemble_requests(base, EnsembleConfig(n=3, quorum=2, base_seed=10))
    assert [request.instance_index for request in requests] == [0, 1, 2]
    assert [request.seed for request in requests] == [10, 11, 12]
    assert all(request.prompt == "p" for request in requests)


def test_mock_backend_is_a_pure_function_of_the_request():
    backend = MockBackend()
    request = ModelRequest(role="explicit_reviewer", prompt="FILE f (lines 1..9)\n    1 | x")
    assert generate(backend, request) == generate(backend, request)


# The header rule in its plainest form, as the reference: a header counts at
# the start of the prompt or right after "\n". The mock matches position 0 on
# its own and starts its other patterns with a literal "\n" for speed, and
# must find exactly what these find.
_REFERENCE_FILE_HEADER = re.compile(r"^FILE (\S+) \(lines (\d+)\.\.(\d+)\)", re.MULTILINE)
_REFERENCE_RULE_HEADER = re.compile(r"^RULE (\S+) ", re.MULTILINE)

_LINE_STARTS = ("", "\n", "\r\n", "\r", " ", "    ", "\t", "x ", "1 | ")
_HEADERS = (
    "FILE src/a.py (lines 1..9)",
    "FILE src/naïve_模块.py (lines 12..40)",
    "FILE b.go (lines 7..7)",
    "FILE c.py (lines 10..3)",
    "FILE d.py (lines 3..)",
    "FILE e.py (lines a..9)",
    "FILE f.py (lines 3-9)",
    "FILE g.py (line 3..9)",
    "FILE  h.py (lines 1..2)",
    "FILE i.py(lines 1..2)",
    "FILE",
    "RULE R-1 ",
    "RULE R-1 again",
    "RULE 規則-7 body",
    "RULE ß:λ ",
    "RULE R-2",
    "RULE  R-3 ",
    "RULE\tR-4 ",
    "RULES R-5 ",
    "rule R-6 ",
    "    1 | x = 1",
    "rule text that mentions FILE a.py (lines 1..2) and RULE R-7 mid-line",
)


def _reference_prompt_headers(prompt):
    header = _REFERENCE_FILE_HEADER.search(prompt)
    location = ("unknown", 1, 40)
    if header:
        location = (header.group(1), int(header.group(2)), int(header.group(3)))
    return location, _REFERENCE_RULE_HEADER.findall(prompt)


def _header_prompts(count=300, seed=17):
    """Seeded prompts of headers after every kind of line start, a rule body's
    FILE lines ahead of the code block's, and near-miss header shapes."""
    rng = random.Random(seed)
    prompts = [
        "FILE a.py (lines 1..2)\nRULE R-1 x",
        "RULE R-1 x\nFILE a.py (lines 1..2)",
        "\rFILE a.py (lines 1..2)\rRULE R-1 x",
        "RULE R-1 \nFILE rule_body.py (lines 5..6)\nFILE code.py (lines 1..9)\n    1 | x",
        "",
    ]
    while len(prompts) < count:
        pieces = []
        for _ in range(rng.randrange(1, 16)):
            pieces.append(rng.choice(_LINE_STARTS))
            pieces.append(rng.choice(_HEADERS))
        prompts.append("".join(pieces))
    return prompts


def test_mock_header_scans_find_what_the_multiline_patterns_find():
    prompts = _header_prompts()
    found = [prompt_headers(prompt) for prompt in prompts]
    assert found == [_reference_prompt_headers(prompt) for prompt in prompts]
    # The seeded prompts reach every case the rule separates.
    assert found[0] == found[1] == (("a.py", 1, 2), ["R-1"])  # headers at position 0
    assert found[2] == (("unknown", 1, 40), [])  # a lone "\r" starts no line
    assert found[3][0] == ("rule_body.py", 5, 6)  # the first FILE header wins
    assert any(location[0] == "src/naïve_模块.py" for location, _ in found)
    assert any(ids.count("R-1") > 1 for _, ids in found)  # duplicates kept
    assert any("規則-7" in ids for _, ids in found)


def test_mock_replies_match_the_multiline_patterns_for_every_role(monkeypatch):
    backend = MockBackend()
    requests = [
        ModelRequest(role=role.value, prompt=prompt)
        for prompt in _header_prompts(count=60, seed=29)
        if prompt
        for role in Role
    ]
    replies = [backend.complete(request) for request in requests]
    monkeypatch.setattr(sgcr.backends, "prompt_headers", _reference_prompt_headers)
    assert replies == [backend.complete(request) for request in requests]


def _write_fixture(directory, request, text):
    from sgcr.gateway import canonical_request

    directory.mkdir(parents=True, exist_ok=True)
    fingerprint = request.fingerprint
    payload = {"request": canonical_request(request), "response_text": text}
    (directory / f"{fingerprint}.json").write_text(json.dumps(payload), encoding="utf-8")


def test_replay_missing_fixture_is_a_fixture_miss(tmp_path):
    backend = ReplayBackend(tmp_path)
    request = ModelRequest(role="proposer", prompt="p")
    with pytest.raises(FixtureMiss) as excinfo:
        generate(backend, request)
    assert request.fingerprint in str(excinfo.value)


def test_ensemble_tolerates_failures_within_budget(tmp_path):
    base = ModelRequest(role="verifier", prompt="q", temperature=0.0)
    config = EnsembleConfig(n=3, quorum=2, base_seed=0)
    slots = ensemble_requests(base, config)
    _write_fixture(tmp_path, slots[0], '{"verdict": "valid"}')
    _write_fixture(tmp_path, slots[2], '{"verdict": "invalid"}')
    backend = LoggedReplayBackend(tmp_path)

    from sgcr.parsing import parse_verdict_response

    with call_pool() as pool:
        results = submit_ensemble(pool, backend, base, config, parse_verdict_response).collect()
    assert results[0] is not None and results[2] is not None
    assert results[1] is None
    # A fixture miss is never retried, so exactly one call per slot.
    assert len(backend.call_log) == 3


def test_ensemble_fails_past_budget_with_fingerprints(tmp_path):
    base = ModelRequest(role="verifier", prompt="q")
    config = EnsembleConfig(n=3, quorum=2, base_seed=0)
    slots = ensemble_requests(base, config)
    _write_fixture(tmp_path, slots[0], '{"verdict": "valid"}')
    backend = ReplayBackend(tmp_path)

    from sgcr.parsing import parse_verdict_response

    with pytest.raises(EnsembleError) as excinfo, call_pool() as pool:
        submit_ensemble(pool, backend, base, config, parse_verdict_response).collect()
    message = str(excinfo.value)
    assert slots[1].fingerprint in message
    assert slots[2].fingerprint in message


class _FlakyBackend(CannedBackend):
    """Fails a fixed number of times per slot before succeeding."""

    def __init__(self, failures_before_success, text):
        super().__init__({})
        self.failures_before_success = failures_before_success
        self.text = text
        self.attempts = 0

    def _complete(self, request):
        self.attempts += 1
        if self.attempts <= self.failures_before_success:
            raise WireError("transient")
        return self.text


def test_slot_retries_recover_from_transient_wire_errors():
    backend = _FlakyBackend(SLOT_RETRIES, '{"verdict": "valid"}')
    base = ModelRequest(role="verifier", prompt="q")
    config = EnsembleConfig(n=1, quorum=1)

    from sgcr.parsing import parse_verdict_response

    with call_pool() as pool:
        results = submit_ensemble(pool, backend, base, config, parse_verdict_response).collect()
    assert results[0] is not None
    assert len(backend.call_log) == 1 + SLOT_RETRIES


def test_unparsable_after_retries_exhausts_the_slot():
    backend = CannedBackend({"verifier": "still not json"})
    base = ModelRequest(role="verifier", prompt="q")
    config = EnsembleConfig(n=1, quorum=1)

    from sgcr.parsing import parse_verdict_response

    with pytest.raises(EnsembleError), call_pool() as pool:
        submit_ensemble(pool, backend, base, config, parse_verdict_response).collect()
    assert len(backend.call_log) == 1 + SLOT_RETRIES


class _ChatHandler(BaseHTTPRequestHandler):
    seen: list[dict] = []
    headers_seen: list[dict] = []
    status_plan: list[int] = []
    # Raw JSON text of each embedding reply's vector, served in order.
    embedding_plan: list[str] = []
    # The message content of every chat reply; None echoes seed and temperature.
    chat_content: Optional[str] = None

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append({"path": self.path, "body": body})
        type(self).headers_seen.append(dict(self.headers))
        status = type(self).status_plan.pop(0) if type(self).status_plan else 200
        if status != 200:
            self.send_response(status)
            self.end_headers()
            self.wfile.write(b"{}")
            return
        if self.path == "/v1/embeddings":
            vector = type(self).embedding_plan.pop(0)
            raw = ('{"data": [{"embedding": %s}]}' % vector).encode("utf-8")
        else:
            content = type(self).chat_content
            if content is None:
                content = f"echo seed={body.get('seed')} t={body.get('temperature')}"
            raw = json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture()
def chat_server():
    _ChatHandler.seen = []
    _ChatHandler.headers_seen = []
    _ChatHandler.status_plan = []
    _ChatHandler.embedding_plan = []
    _ChatHandler.chat_content = None
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", _ChatHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_backend_speaks_the_wire_protocol(chat_server):
    base_url, handler = chat_server
    backend = HttpBackend(base_url=base_url, model="m-test", api_key="secret-key")
    request = ModelRequest(role="proposer", prompt="hello wire", temperature=0.7, seed=9)
    text = backend.complete(request)
    assert text == "echo seed=9 t=0.7"
    call = handler.seen[-1]
    assert call["path"] == "/v1/chat/completions"
    assert call["body"]["model"] == "m-test"
    assert call["body"]["messages"] == [{"role": "user", "content": "hello wire"}]
    assert call["body"]["temperature"] == 0.7
    assert call["body"]["seed"] == 9
    assert call["body"]["max_tokens"] == request.max_output_tokens
    assert handler.headers_seen[-1].get("Authorization") == "Bearer secret-key"


def test_http_backend_makes_one_post_per_call(chat_server):
    base_url, handler = chat_server
    backend = HttpBackend(base_url=base_url, model="m", api_key=None)
    request = ModelRequest(role="proposer", prompt="p")
    try:
        for status in (500, 503, 408, 429):
            handler.seen.clear()
            handler.status_plan = [status, 200]
            with pytest.raises(WireError, match=f"status {status}") as raised:
                backend.complete(request)
            assert not isinstance(raised.value, RequestRejected)
            assert len(handler.seen) == 1  # retrying is the gateway's

        handler.seen.clear()
        handler.status_plan = [400]
        with pytest.raises(RequestRejected):
            backend.complete(request)
        assert len(handler.seen) == 1  # no retry on a client error
    finally:
        backend.close()


@pytest.mark.parametrize(
    "status, posts",
    [(400, 1), (401, 1), (404, 1), (408, 1 + SLOT_RETRIES), (429, 1 + SLOT_RETRIES)],
)
def test_a_slot_retries_no_client_error_but_408_and_429(chat_server, status, posts):
    base_url, handler = chat_server
    backend = HttpBackend(base_url=base_url, model="m")
    base = ModelRequest(role="verifier", prompt="q")
    single = EnsembleConfig(n=1, quorum=1)
    try:
        handler.status_plan = [status] * (1 + SLOT_RETRIES)
        with pytest.raises(EnsembleError, match=f"status {status}"), call_pool() as pool:
            submit_ensemble(pool, backend, base, single, lambda text: text).collect()
        assert len(handler.seen) == posts

        handler.seen.clear()
        handler.status_plan = [status] * (1 + SLOT_RETRIES)
        counted = CountedBackend(backend)
        issues = propose_issues(make_review_request(), counted)
        assert (issues, counted.calls, len(handler.seen)) == ([], posts, posts)
    finally:
        backend.close()


def test_a_slot_resends_the_same_request_at_most_1_plus_slot_retries_times(chat_server):
    base_url, handler = chat_server
    backend = HttpBackend(base_url=base_url, model="m")
    base = ModelRequest(role="verifier", prompt="q", seed=4)
    config = EnsembleConfig(n=1, quorum=1, base_seed=4)
    try:
        handler.status_plan = [500] * SLOT_RETRIES + [200]
        counted = CountedBackend(backend)
        with call_pool() as pool:
            results = submit_ensemble(pool, counted, base, config, lambda text: text).collect()
        assert results == ["echo seed=4 t=0.0"]
        assert counted.calls == len(handler.seen) == 1 + SLOT_RETRIES
        assert len({json.dumps(call["body"], sort_keys=True) for call in handler.seen}) == 1

        handler.seen.clear()
        handler.status_plan = [500] * 20
        with pytest.raises(EnsembleError, match="status 500"), call_pool() as pool:
            submit_ensemble(pool, backend, base, config, lambda text: text).collect()
        assert len(handler.seen) == 1 + SLOT_RETRIES
    finally:
        backend.close()


_PATCH_LIBRARY = make_library(make_spec("sec.input"))
_PATCH_FINDING = make_finding(
    start=2, description="field is not thread safe", spec_ids=("sec.input",)
)
_PATCH_REPLY = json.dumps(
    {
        "patch_unified_diff": (
            "--- a/src/Main.java\n+++ b/src/Main.java\n@@ -2,1 +2,1 @@\n"
            "-    private int value;\n+    private volatile int value;\n"
        ),
        "explanation": "guarded the field",
    }
)
_AGGREGATED = {"start_line": 2, "description": "field is never validated"}


def _slot_call(backend):
    base = ModelRequest(role="verifier", prompt="q")
    try:
        with call_pool() as pool:
            results = submit_ensemble(
                pool, backend, base, EnsembleConfig(n=1, quorum=1), lambda text: text
            ).collect()
    except EnsembleError:
        return False
    return results == ["ok"]


def _proposer_call(backend):
    return len(propose_issues(make_review_request(), backend)) == 1


def _patch_call(backend):
    cluster = FindingCluster(
        representative=_PATCH_FINDING, members=(_PATCH_FINDING,), pathways=("explicit",)
    )
    return generate_patch(cluster, make_review_request(), _PATCH_LIBRARY, backend) is not None


def _aggregator_call(backend):
    finding = make_finding(start=2, description=_AGGREGATED["description"])
    candidate = CandidateReview(chunk_ordinal=0, instance_index=0, findings=(finding,))
    try:
        aggregated = aggregate_candidates(
            SpecChunk(ordinal=0, spec_ids=(), token_total=1),
            [candidate],
            EnsembleConfig(n=1, quorum=1),
            mode="model",
            backend=backend,
        )
    except WireError:
        return False
    return len(aggregated.findings) == 1


def _summary_call(backend):
    try:
        report = synthesize_partials(
            [AggregatedReview(0, (), 0)], backend=backend, model_summary=True
        )
    except WireError:
        return False
    return report.summary == "ok"


# call, the message content that call accepts.
_ONE_CALL = {
    "ensemble slot": (_slot_call, "ok"),
    "proposer": (_proposer_call, issues_json({"start_line": 2})),
    "patch": (_patch_call, _PATCH_REPLY),
    "model aggregator": (_aggregator_call, findings_json(_AGGREGATED)),
    "model summary": (_summary_call, "ok"),
}


@pytest.mark.parametrize(
    "plan, recovered, posts",
    [
        ([500] * SLOT_RETRIES, True, 1 + SLOT_RETRIES),
        ([500] * 20, False, 1 + SLOT_RETRIES),
        ([400], False, 1),
    ],
    ids=["recovers", "fails", "rejected"],
)
@pytest.mark.parametrize("kind", list(_ONE_CALL))
def test_every_call_type_is_sent_at_most_1_plus_slot_retries_times(
    chat_server, kind, plan, recovered, posts
):
    base_url, handler = chat_server
    call, content = _ONE_CALL[kind]
    handler.chat_content = content
    handler.status_plan = list(plan)
    backend = HttpBackend(base_url=base_url, model="m")
    try:
        assert call(backend) is recovered
    finally:
        backend.close()
    assert len(handler.seen) == posts


def test_http_embeddings_keep_the_length_of_the_first_reply(chat_server):
    base_url, handler = chat_server
    handler.embedding_plan = ["[0.6, 0.8]", "[0.6, 0.8, 0.0]", "[1, 0]"]
    provider = HttpEmbeddingProvider(base_url=base_url, model="e")
    try:
        assert provider.embed("first") == [0.6, 0.8]
        with pytest.raises(MalformedWireResponse, match="3 values, the first reply had 2"):
            provider.embed("second")
        assert provider.embed("third") == [1.0, 0.0]
    finally:
        provider.close()
    assert provider.dimension == 2


@pytest.mark.parametrize(
    "vector",
    [
        "[0, 0.0]",
        '[0.5, "0.5"]',
        "[0.5, null]",
        "[true, 1]",
        "[NaN, 1.0]",
        "[Infinity, 1.0]",
        "[1e-200, 1e-200]",  # the squares underflow to a zero norm
        "[1e200, 1]",  # the square overflows
        "[" + "9" * 400 + ", 1]",  # an integer no float holds
    ],
    ids=["zeros", "string", "null", "bool", "nan", "infinity", "underflow", "overflow", "huge-int"],
)
def test_http_embeddings_reject_a_vector_that_cannot_be_normalized(chat_server, vector):
    base_url, handler = chat_server
    handler.embedding_plan = [vector]
    provider = HttpEmbeddingProvider(base_url=base_url, model="e")
    try:
        with pytest.raises(MalformedWireResponse):
            provider.embed("text")
    finally:
        provider.close()
    assert provider.dimension == 0


def test_http_embeddings_reject_client_errors_other_than_408_and_429(chat_server):
    base_url, handler = chat_server
    provider = HttpEmbeddingProvider(base_url=base_url, model="e")
    try:
        for status in (400, 401, 404):
            handler.status_plan = [status]
            with pytest.raises(RequestRejected, match=f"status {status}"):
                provider.embed("text")
        for status in (408, 429, 500):
            handler.status_plan = [status]
            with pytest.raises(WireError, match=f"status {status}") as raised:
                provider.embed("text")
            assert not isinstance(raised.value, RequestRejected)
    finally:
        provider.close()
    assert len(handler.seen) == 6


def test_embed_text_retries_a_server_error(chat_server):
    base_url, handler = chat_server
    handler.status_plan = [500]
    handler.embedding_plan = ["[3, 4]"]
    provider = HttpEmbeddingProvider(base_url=base_url, model="e")
    try:
        assert embed_text(provider, "text").values == (0.6, 0.8)
    finally:
        provider.close()
    assert len(handler.seen) == 2


def test_embed_text_stops_after_1_plus_slot_retries_posts(chat_server):
    base_url, handler = chat_server
    handler.status_plan = [500] * 20
    provider = HttpEmbeddingProvider(base_url=base_url, model="e")
    try:
        with pytest.raises(WireError, match="status 500") as raised:
            embed_text(provider, "text")
    finally:
        provider.close()
    assert not isinstance(raised.value, RequestRejected)
    assert len(handler.seen) == 1 + SLOT_RETRIES


def test_embed_text_never_retries_a_rejected_request(chat_server):
    base_url, handler = chat_server
    handler.status_plan = [400]
    provider = HttpEmbeddingProvider(base_url=base_url, model="e")
    try:
        with pytest.raises(RequestRejected, match="status 400"):
            embed_text(provider, "text")
    finally:
        provider.close()
    assert len(handler.seen) == 1


def test_record_then_replay_round_trip(chat_server, tmp_path):
    base_url, _ = chat_server
    fixtures = tmp_path / "fixtures"
    live = HttpBackend(base_url=base_url, model="m", api_key="k")
    recorder = RecordingBackend(live, fixtures)

    requests = [
        ModelRequest(role="proposer", prompt="first", seed=1),
        ModelRequest(role="verifier", prompt="second", seed=2, instance_index=1),
    ]
    recorded = [recorder.complete(request) for request in requests]
    assert len(list(fixtures.glob("*.json"))) == 2

    replayer = ReplayBackend(fixtures)
    replayed = [replayer.complete(request) for request in requests]
    assert replayed == recorded

    stored = json.loads(next(iter(fixtures.glob("*.json"))).read_text(encoding="utf-8"))
    assert set(stored) == {"request", "response_text"}


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 chat and embedding endpoint that records each caller's address."""

    protocol_version = "HTTP/1.1"
    peers: list[tuple[str, int]] = []
    delay_s = 0.0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).peers.append(self.client_address)
        time.sleep(type(self).delay_s)
        if self.path == "/v1/embeddings":
            reply = {"data": [{"embedding": [0.6, 0.8]}]}
        else:
            reply = {"choices": [{"message": {"content": "ok"}}]}
        raw = json.dumps(reply).encode("utf-8")
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
        except (BrokenPipeError, ConnectionResetError):
            pass  # a caller that timed out has hung up

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture()
def keep_alive_server():
    _KeepAliveHandler.peers = []
    _KeepAliveHandler.delay_s = 0.0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", _KeepAliveHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _http_client(base_url, which):
    """The chat backend or the embedding provider, and one call through it."""
    if which == "chat":
        backend = HttpBackend(base_url=base_url, model="m")
        return backend, lambda: backend.complete(ModelRequest(role="proposer", prompt="p"))
    provider = HttpEmbeddingProvider(base_url=base_url, model="e")
    return provider, lambda: provider.embed("text")


def test_http_backend_raises_backend_timeout_after_one_post(keep_alive_server):
    base_url, handler = keep_alive_server
    handler.delay_s = 0.5
    backend = HttpBackend(base_url=base_url, model="m", timeout=0.05)
    try:
        with pytest.raises(BackendTimeout):
            backend.complete(ModelRequest(role="proposer", prompt="p"))
    finally:
        backend.close()
    assert len(handler.peers) == 1


@pytest.mark.parametrize("which", ["chat", "embeddings"])
def test_http_clients_reuse_one_connection(keep_alive_server, which):
    base_url, handler = keep_alive_server
    client, call = _http_client(base_url, which)
    try:
        for _ in range(5):
            call()
    finally:
        client.close()
    assert len(handler.peers) == 5
    assert len(set(handler.peers)) == 1


@pytest.mark.parametrize("which", ["chat", "embeddings"])
def test_http_clients_keep_a_connection_per_call_in_flight(keep_alive_server, which):
    """MAX_INFLIGHT overlapping calls, twice: the second round opens nothing.

    With urllib3's default pool of 10, the first round's extra connections
    are discarded and the second round opens new ones.
    """
    base_url, handler = keep_alive_server
    handler.delay_s = 0.2
    client, call = _http_client(base_url, which)
    try:
        for _ in range(2):
            threads = [threading.Thread(target=call) for _ in range(MAX_INFLIGHT)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        client.close()
    assert len(handler.peers) == 2 * MAX_INFLIGHT
    assert len(set(handler.peers)) <= MAX_INFLIGHT


# -- one call pool per run -------------------------------------------------


class _CountingBackend(LoggedMockBackend):
    """Mock responses after a short sleep; records intervals and peak in flight."""

    def __init__(self, sleep_s=0.005, respond=None):
        super().__init__()
        self.sleep_s = sleep_s
        self.respond = respond or {}
        self.inflight = 0
        self.peak = 0
        self.intervals = []  # (role, start, end)

    def complete(self, request):
        start = time.perf_counter()
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            time.sleep(self.sleep_s)
            return super().complete(request)
        finally:
            with self._lock:
                self.inflight -= 1
                self.intervals.append((request.role, start, time.perf_counter()))

    def _complete(self, request):
        if request.role in self.respond:
            return self.respond[request.role](request)
        return super()._complete(request)

    def span(self, role):
        """(first start, last end) over the role's calls."""
        mine = [(start, end) for name, start, end in self.intervals if name == role]
        assert mine, f"no {role} call was made"
        return min(start for start, _ in mine), max(end for _, end in mine)


def _chunked_config(tmp_path, ensemble_size):
    rules = tmp_path / "rules"
    for number in range(5):
        write_spec_file(rules, f"style.r{number}", body=f"Rule number {number} applies here.")
    config = RunConfig(
        mode="full",
        specs_dir=str(rules),
        ensemble_size=ensemble_size,
        chunk_budget=1,
        score_threshold=-1.0,
        patches=True,
    )
    # More chunks than the four workers the explicit pathway once had.
    assert len(segment_library(load_library(rules), config.chunk_budget)) == 5
    return config


def test_run_review_overlaps_the_pathways_under_one_capped_pool(tmp_path, monkeypatch):
    config = _chunked_config(tmp_path, ensemble_size=8)
    backend = _CountingBackend()
    sent = record_generate(monkeypatch)
    threads_before = threading.active_count()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        final = run_review(config, make_review_request(), backend=backend)
    finally:
        sys.setswitchinterval(switch_interval)

    assert threading.active_count() == threads_before
    # A lost update in call accounting would break this reconciliation.
    pathway_calls = sum(report.stats_dict()["model_calls"] for report in final.pathway_reports)
    assert pathway_calls == len(backend.call_log) - backend.calls_for_role("patch_generator")
    # The benchmark's reconciliation: no patch call was retried here.
    assert pathway_calls + dict(final.patch_stats)["attempted"] == len(backend.call_log)
    # Patch calls included, every call went through gateway.generate.
    assert backend.calls_for_role("patch_generator") > 0
    assert len(sent) == len(backend.call_log)
    assert backend.peak <= MAX_INFLIGHT
    proposer_start, _ = backend.span("proposer")
    _, last_reviewer_end = backend.span("explicit_reviewer")
    assert proposer_start < last_reviewer_end


def test_explicit_quorum_failure_propagates_while_implicit_is_in_flight(tmp_path):
    # 5 chunks x 3 slots leave the proposer a worker whatever the submission
    # order; reviewers answer garbage only once the proposer call is running.
    config = _chunked_config(tmp_path, ensemble_size=3)
    proposer_running = threading.Event()

    def proposer(request):
        proposer_running.set()
        time.sleep(0.2)
        return MockBackend()._complete(request)

    def reviewer(request):
        assert proposer_running.wait(timeout=5)
        return "not json"

    backend = _CountingBackend(respond={"proposer": proposer, "explicit_reviewer": reviewer})
    threads_before = threading.active_count()
    with pytest.raises(EnsembleError, match=r"3 of 3 ensemble calls failed \(quorum 2 unreachable\)"):
        run_review(config, make_review_request(), backend=backend)

    assert threading.active_count() == threads_before
    proposer_start, proposer_end = backend.span("proposer")
    _, last_reviewer_end = backend.span("explicit_reviewer")
    assert proposer_start < last_reviewer_end < proposer_end
    # Calls not yet started when the run failed were cancelled.
    assert backend.calls_for_role("verifier") == 0
    assert backend.calls_for_role("patch_generator") == 0


def test_a_prebuilt_index_of_other_embedding_settings_fails_before_any_call(tmp_path):
    config = _chunked_config(tmp_path, ensemble_size=3)
    index_path = tmp_path / "index.json"
    library = load_library(Path(config.specs_dir))
    save_index(build_index(library, MockEmbeddingProvider(dimension=8)), index_path)
    backend = _CountingBackend()
    with pytest.raises(IndexLibraryMismatch, match="dimension 8"):
        run_review(
            replace(config, index_path=str(index_path)), make_review_request(), backend=backend
        )
    assert backend.call_log == []


# A guard, not a timing: every run below ends in well under a second
# unless a pathway waits for an event that is never set.
RUN_TIMEOUT_S = 60


def _run_review_guarded(config, backend):
    """run_review on a thread of its own: (report, error), or fail on a hang."""
    outcome = {}

    def run():
        try:
            outcome["report"] = run_review(config, make_review_request(), backend=backend)
        except BaseException as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run, name="guarded-run", daemon=True)
    runner.start()
    runner.join(RUN_TIMEOUT_S)
    assert not runner.is_alive(), "run_review hung"
    return outcome.get("report"), outcome.get("error")


class _FirstEmbedProvider(MockEmbeddingProvider):
    """Records how many explicit ensembles were submitted at the first embed."""

    def __init__(self, dimension, submitted):
        super().__init__(dimension=dimension)
        self.submitted = submitted
        self.submitted_at_first_embed = None

    def embed(self, text):
        if self.submitted_at_first_embed is None:
            self.submitted_at_first_embed = len(self.submitted)
        return super().embed(text)


def _record_first_embed(monkeypatch, config):
    submitted = []
    submit = sgcr.explicit.submit_ensemble

    def counting_submit(*args, **kwargs):
        submitted.append(args[2])
        return submit(*args, **kwargs)

    provider = _FirstEmbedProvider(config.embedding_dimension, submitted)
    monkeypatch.setattr(sgcr.explicit, "submit_ensemble", counting_submit)
    monkeypatch.setattr(sgcr.pipeline, "build_provider", lambda config: provider)
    return provider


@pytest.mark.parametrize("ensemble_size", [3, 8])
def test_a_fresh_index_is_built_after_the_first_reviewer_window_is_submitted(
    tmp_path, monkeypatch, ensemble_size
):
    config = _chunked_config(tmp_path, ensemble_size=ensemble_size)
    chunks = len(segment_library(load_library(Path(config.specs_dir)), config.chunk_budget))
    window = min(chunks, MAX_INFLIGHT // ensemble_size)
    provider = _record_first_embed(monkeypatch, config)

    final, error = _run_review_guarded(config, _CountingBackend(sleep_s=0.0))

    assert error is None
    assert provider.submitted_at_first_embed >= window
    assert len(provider.submitted) == chunks
    assert final.pathway_reports[1].stats_dict()["proposals"] > 0


def test_implicit_only_builds_a_fresh_index_without_waiting(tmp_path, monkeypatch):
    config = replace(_chunked_config(tmp_path, ensemble_size=3), mode="implicit_only")
    provider = _record_first_embed(monkeypatch, config)

    final, error = _run_review_guarded(config, _CountingBackend(sleep_s=0.0))

    assert error is None
    assert provider.submitted_at_first_embed == 0
    assert provider.submitted == []
    (implicit,) = final.pathway_reports
    assert implicit.stats_dict()["proposals"] > 0


def test_a_full_run_with_a_prebuilt_index_never_waits_for_the_explicit_pathway(
    tmp_path, monkeypatch
):
    config = _chunked_config(tmp_path, ensemble_size=3)
    index_path = tmp_path / "index.json"
    library = load_library(Path(config.specs_dir))
    save_index(
        build_index(library, MockEmbeddingProvider(dimension=config.embedding_dimension)),
        index_path,
    )
    index_returned = threading.Event()
    explicit_saw_index = []
    run_implicit = sgcr.pipeline.run_implicit
    run_explicit = sgcr.pipeline.run_explicit

    def implicit(request, library, backend, provider, get_index, *args, **kwargs):
        def observed_get_index():
            index = get_index()
            index_returned.set()
            return index

        return run_implicit(
            request, library, backend, provider, observed_get_index, *args, **kwargs
        )

    # The explicit pathway submits nothing until the implicit pathway holds
    # its index: had get_index waited for that submission, the wait below
    # would time out.
    def explicit(*args, **kwargs):
        explicit_saw_index.append(index_returned.wait(RUN_TIMEOUT_S / 2))
        return run_explicit(*args, **kwargs)

    monkeypatch.setattr(sgcr.pipeline, "run_implicit", implicit)
    monkeypatch.setattr(sgcr.pipeline, "run_explicit", explicit)
    final, error = _run_review_guarded(
        replace(config, index_path=str(index_path)), _CountingBackend(sleep_s=0.0)
    )

    assert error is None
    assert explicit_saw_index == [True]
    assert final.clusters


def test_an_explicit_pathway_that_raises_before_submitting_releases_the_index_build(
    tmp_path, monkeypatch
):
    config = _chunked_config(tmp_path, ensemble_size=3)

    def broken_segmentation(library, budget):
        raise RuntimeError("segmentation broke")

    monkeypatch.setattr(sgcr.explicit, "segment_library", broken_segmentation)
    backend = _CountingBackend(sleep_s=0.0)
    threads_before = threading.active_count()

    final, error = _run_review_guarded(config, backend)

    assert final is None
    assert isinstance(error, RuntimeError) and str(error) == "segmentation broke"
    assert threading.active_count() == threads_before
    assert backend.calls_for_role(Role.EXPLICIT_REVIEWER.value) == 0


def test_a_run_whose_explicit_pathway_raises_builds_no_index(tmp_path, monkeypatch):
    config = _chunked_config(tmp_path, ensemble_size=3)
    provider = LoggedMockEmbeddingProvider(dimension=config.embedding_dimension)

    def broken_segmentation(library, budget):
        raise RuntimeError("segmentation broke")

    monkeypatch.setattr(sgcr.explicit, "segment_library", broken_segmentation)
    monkeypatch.setattr(sgcr.pipeline, "build_provider", lambda config: provider)
    threads_before = threading.active_count()

    final, error = _run_review_guarded(config, _CountingBackend(sleep_s=0.0))

    assert final is None
    assert isinstance(error, RuntimeError) and str(error) == "segmentation broke"
    # Five rules: a build would embed five texts, paid calls on http.
    assert provider.call_log == []
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("mode", ["full", "implicit_only"])
@pytest.mark.parametrize(
    "broken, error_type", [("malformed", MalformedSpecFile), ("empty", EmptyLibrary)]
)
def test_a_broken_rule_library_fails_before_any_model_call(tmp_path, mode, broken, error_type):
    rules = tmp_path / "rules"
    rules.mkdir()
    if broken == "malformed":
        write_spec_file(rules, "style.ok", body="A rule that parses.")
        (rules / "broken.md").write_text("no front matter here\n", encoding="utf-8")
    config = RunConfig(mode=mode, specs_dir=str(rules), patches=True)
    backend = _CountingBackend(sleep_s=0.0)
    threads_before = threading.active_count()

    final, error = _run_review_guarded(config, backend)

    assert final is None
    assert isinstance(error, error_type)
    assert backend.call_log == []
    assert threading.active_count() == threads_before


def _record_hashing(monkeypatch):
    """(requests laid out, prompts escaped) by every fingerprint from now on.

    Every fingerprint, a slot's or a single call's, lays out its request
    through canonical_parts once, and escapes its prompt through
    _escape_prompt unless a sibling slot already did.
    """
    hashed, escaped = [], []
    layout, escape = sgcr.gateway.canonical_parts, sgcr.gateway._escape_prompt

    def recording_layout(request):
        hashed.append(request)
        return layout(request)

    def recording_escape(prompt):
        escaped.append(prompt)
        return escape(prompt)

    monkeypatch.setattr(sgcr.gateway, "canonical_parts", recording_layout)
    monkeypatch.setattr(sgcr.gateway, "_escape_prompt", recording_escape)
    return hashed, escaped


def test_a_full_run_renders_the_code_block_once_and_hashes_each_call_once(
    tmp_path, monkeypatch
):
    blocks = []
    render = sgcr.ingestion.prompt_block

    def recording_block(request):
        blocks.append(render(request))
        return blocks[-1]

    monkeypatch.setattr(sgcr.explicit, "prompt_block", recording_block)
    monkeypatch.setattr(sgcr.implicit, "prompt_block", recording_block)
    hashed, escaped = _record_hashing(monkeypatch)
    backend = _CountingBackend(sleep_s=0.0)
    config = _chunked_config(tmp_path, ensemble_size=3)
    final = run_review(config, make_review_request(), backend=backend)

    # Five chunks, the proposer and at least one verifier prompt show the code.
    assert len(blocks) > 6
    assert all(block is blocks[0] for block in blocks)
    assert backend.calls_for_role("patch_generator") > 0
    assert final.clusters
    assert len(hashed) == len(backend.call_log)
    # The slots of an ensemble share their prompt's escape.
    assert set(escaped) == {request.prompt for request in backend.call_log}
    assert len(escaped) < len(hashed)


class _BlindBackend(_CountingBackend):
    """The mock's replies without reading a fingerprint: each is seeded by a
    digest of role, seed, instance and prompt that this backend makes."""

    def _complete(self, request):
        key = f"{request.role}:{request.seed}:{request.instance_index}:{request.prompt}"
        stand_in = SimpleNamespace(
            role=request.role,
            prompt=request.prompt,
            fingerprint=hashlib.sha256(key.encode("utf-8")).hexdigest(),
        )
        return super()._complete(stand_in)


def test_a_full_run_through_a_backend_that_reads_no_fingerprint_hashes_nothing(
    tmp_path, monkeypatch
):
    hashed, escaped = _record_hashing(monkeypatch)
    backend = _BlindBackend(sleep_s=0.0)
    final = run_review(
        _chunked_config(tmp_path, ensemble_size=3), make_review_request(), backend=backend
    )

    assert final.clusters
    assert backend.calls_for_role("patch_generator") > 0
    assert backend.calls_for_role(Role.VERIFIER) > 0
    assert hashed == [] and escaped == []
    assert not any("fingerprint" in vars(request) for request in backend.call_log)


def test_a_slot_is_hashed_only_when_its_backend_reads_the_fingerprint(tmp_path):
    arrivals = []

    class _ArrivalBackend(_CountingBackend):
        def complete(self, request):
            # A read fingerprint is kept in the instance dict.
            arrivals.append((request, "fingerprint" in vars(request)))
            return super().complete(request)

    backend = _ArrivalBackend(sleep_s=0.0)
    run_review(_chunked_config(tmp_path, ensemble_size=3), make_review_request(), backend=backend)

    slots = [
        (request, hashed)
        for request, hashed in arrivals
        if request.role in (Role.EXPLICIT_REVIEWER.value, Role.VERIFIER.value)
    ]
    # Five chunks of three reviewers, and at least one verifier ensemble.
    assert len(slots) >= 5 * 3 + 3
    assert not any(hashed for _, hashed in slots)
    # The mock read every fingerprint, and no slot still holds the escape.
    assert all("fingerprint" in vars(request) for request, _ in slots)
    assert not any("_shared_escape" in vars(request) for request, _ in slots)


def test_an_ensemble_escapes_its_prompt_once_and_frees_it_after_the_last_slot(
    monkeypatch,
):
    hashed, escaped = _record_hashing(monkeypatch)
    base = ModelRequest(role="verifier", prompt="shared \u00e9 prompt", seed=3)
    slots = ensemble_requests(base, EnsembleConfig(n=4, quorum=2, base_seed=9))
    assert escaped == [] and hashed == []

    for position, slot in enumerate(slots):
        assert slot.fingerprint == _reference_fingerprint(slot)
        assert escaped == [base.prompt]
        # Slots not yet hashed still share the escape; hashed ones dropped it.
        holders = [other for other in slots if "_shared_escape" in vars(other)]
        assert holders == slots[position + 1 :]
    assert hashed == slots


def test_slots_hashed_at_once_on_many_threads_all_match_the_reference_dump():
    base = ModelRequest(role="verifier", prompt="x" * 50_000 + "\u4e2d", seed=1)
    ensembles = [
        ensemble_requests(base, EnsembleConfig(n=8, quorum=1, base_seed=seed))
        for seed in range(40)
    ]
    slots = [slot for ensemble in ensembles for slot in ensemble]
    start = threading.Barrier(8)
    read = []

    def hash_every_slot(offset):
        start.wait(timeout=10)
        for slot in slots[offset:] + slots[:offset]:
            read.append((slot, slot.fingerprint))

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hash_every_slot, args=(offset * 37,)) for offset in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)

    assert not any(thread.is_alive() for thread in threads)
    assert len(read) == 8 * len(slots)
    expected = {id(slot): _reference_fingerprint(slot) for slot in slots}
    assert all(fingerprint == expected[id(slot)] for slot, fingerprint in read)
    assert not any("_shared_escape" in vars(slot) for slot in slots)


class _BadFirstReviewerBackend(_CountingBackend):
    """Mock responses, except that the first reviewer call is answered with
    first_reply."""

    def __init__(self, first_reply):
        super().__init__(sleep_s=0.0)
        self.first_reply = first_reply
        self.bad_for = None

    def _complete(self, request):
        if request.role == Role.EXPLICIT_REVIEWER.value:
            with self._lock:
                if self.bad_for is None:
                    self.bad_for = request.fingerprint
                    return self.first_reply
        return super()._complete(request)


def _assert_the_slot_retried_once(tmp_path, backend):
    config = _chunked_config(tmp_path, ensemble_size=3)
    plain = run_review(config, make_review_request(), backend=_CountingBackend(sleep_s=0.0))
    final = run_review(config, make_review_request(), backend=backend)

    sent = [request.fingerprint for request in backend.call_log]
    assert sent.count(backend.bad_for) == 2  # the slot retried once
    assert final.clusters == plain.clusters
    explicit, plain_explicit = final.pathway_reports[0], plain.pathway_reports[0]
    assert explicit.stats_dict()["absent_slots"] == 0
    assert explicit.stats_dict()["model_calls"] == plain_explicit.stats_dict()["model_calls"] + 1


def test_a_reviewer_slot_retries_a_too_deep_reply_and_the_run_completes(tmp_path):
    _assert_the_slot_retried_once(
        tmp_path, _BadFirstReviewerBackend('{"findings": ' + "[" * 100_000)
    )


def test_a_reviewer_slot_retries_a_lone_surrogate_reply_and_the_run_completes(tmp_path):
    reply = findings_json({"description": "unchecked input \ud800"})
    assert "\\ud800" in reply
    _assert_the_slot_retried_once(tmp_path, _BadFirstReviewerBackend(reply))


def test_model_request_fingerprint_is_cached_per_instance():
    base = ModelRequest(role="verifier", prompt="same prompt", seed=1)
    assert "fingerprint" not in vars(base)
    first = base.fingerprint
    assert vars(base)["fingerprint"] is first
    assert base.fingerprint is first
    # replace builds a fresh instance, so a slot never inherits the cache.
    for variant in ensemble_requests(base, EnsembleConfig(n=3, quorum=2, base_seed=5)):
        fresh = ModelRequest(
            role="verifier",
            prompt="same prompt",
            seed=variant.seed,
            instance_index=variant.instance_index,
        )
        assert variant.fingerprint == fresh.fingerprint
        assert variant.fingerprint != base.fingerprint


def test_two_threads_hash_two_requests_at_the_same_time(monkeypatch):
    # Each hash waits inside _digest until the other has entered it too, so
    # a lock shared between requests (functools.cached_property's on Python
    # 3.11) breaks the barrier instead of letting both meet.
    barrier = threading.Barrier(2, timeout=5)
    digest = sgcr.gateway._digest

    def meeting_digest(request, escaped_prompt):
        barrier.wait()
        return digest(request, escaped_prompt)

    monkeypatch.setattr(sgcr.gateway, "_digest", meeting_digest)
    requests = [ModelRequest(role="verifier", prompt=f"prompt {i}") for i in range(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        fingerprints = list(pool.map(lambda request: request.fingerprint, requests))

    assert fingerprints == [_reference_fingerprint(request) for request in requests]
    assert [vars(request)["fingerprint"] for request in requests] == fingerprints


def test_threads_racing_for_the_slots_of_an_ensemble_all_read_the_right_fingerprint():
    # Without a lock, two readers of one slot may both hash it, and a slot
    # whose shared escape another reader took escapes the prompt itself;
    # neither can change the result.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            base = ModelRequest(role="verifier", prompt="p\u00e9" * 5000 + str(round_))
            slots = ensemble_requests(base, EnsembleConfig(n=4, quorum=2, base_seed=round_))
            readers = [slot for slot in slots for _ in range(4)]
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(lambda slot: slot.fingerprint, readers, timeout=30))
            assert seen == [_reference_fingerprint(slot) for slot in readers]
            assert not any("_shared_escape" in vars(slot) for slot in slots)
    finally:
        sys.setswitchinterval(switch)


def test_the_slots_of_an_ensemble_hashed_at_once_escape_their_prompt_once(monkeypatch):
    # Each slot is read once, by a thread of its own, and the threads are
    # let go together: the first to reach the shared escape makes it and
    # its siblings wait for it rather than each escaping a copy.
    _, escaped = _record_hashing(monkeypatch)
    prompts = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            base = ModelRequest(role="verifier", prompt="q\u00e9" * 20_000 + str(round_))
            prompts.append(base.prompt)
            slots = ensemble_requests(base, EnsembleConfig(n=3, quorum=2, base_seed=round_))
            start = threading.Barrier(len(slots))

            def read(slot):
                start.wait(timeout=10)
                return slot.fingerprint

            with ThreadPoolExecutor(max_workers=len(slots)) as pool:
                seen = list(pool.map(read, slots, timeout=30))
            assert seen == [_reference_fingerprint(slot) for slot in slots]
    finally:
        sys.setswitchinterval(switch)

    assert escaped == prompts


def test_a_counted_backend_counts_every_call_made_from_many_threads():
    backend = CannedBackend({"verifier": "ok"})
    counted = CountedBackend(backend)
    request = ModelRequest(role="verifier", prompt="q")
    threads, calls = 8, 400
    start = threading.Barrier(threads)

    def call_many():
        start.wait(timeout=10)
        for _ in range(calls):
            counted.complete(request)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=call_many) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)

    assert not any(worker.is_alive() for worker in workers)
    assert counted.calls == len(backend.call_log) == threads * calls


def _reference_fingerprint(request: ModelRequest) -> str:
    """The fingerprint as first defined: sha256 of the sorted, compact dump."""
    import hashlib

    from sgcr.gateway import canonical_request

    text = json.dumps(canonical_request(request), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _oracle_request_text(rng, length: int) -> str:
    pools = (
        "abcXYZ019 _-.:{}[],",
        '"\\/',
        "".join(map(chr, range(0x20))) + "\x7f",
        "\u00e9\u00fc\u00df\u0130\u4e2d\u6587\u2028\u2029\u00a0\ufeff",
        "\U0001f600\U0001d11e\U00010348\U0010ffff",
        "\ud800\udbff\udc00\udfff",  # lone surrogates: a valid str, escaped by json
    )
    return "".join(rng.choice(rng.choice(pools)) for _ in range(length))


def test_slot_and_single_fingerprints_match_the_reference_dump():
    import random

    rng = random.Random(20261018)
    temperatures = (0, 0.0, 1e-7, 0.7, 2.0)
    seeds = (None, 0, -1, -(2**63), 2**31 - 1, 2**70)
    for case in range(120):
        base = ModelRequest(
            role=_oracle_request_text(rng, rng.randint(1, 12)),
            prompt=_oracle_request_text(rng, rng.choice((1, 2, 50, 3000))),
            temperature=rng.choice(temperatures),
            seed=rng.choice(seeds),
            max_output_tokens=rng.choice((1, 2048, 10**9)),
            instance_index=rng.choice((0, 7)),
        )
        expected_text = json.dumps(
            {
                "role": base.role,
                "prompt": base.prompt,
                "temperature": base.temperature,
                "seed": base.seed,
                "max_output_tokens": base.max_output_tokens,
                "instance_index": base.instance_index,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert canonical_request_json(base) == expected_text, case
        assert base.fingerprint == _reference_fingerprint(base), case
        config = EnsembleConfig(
            n=rng.randint(1, 4), quorum=1, base_seed=rng.choice((0, -5, 2**40))
        )
        for slot in ensemble_requests(base, config):
            # Hashed on first read, from the escape the slots share.
            assert "fingerprint" not in vars(slot)
            assert slot.fingerprint == _reference_fingerprint(slot), case
            assert "fingerprint" in vars(slot)
            fresh = replace(slot, prompt=slot.prompt)
            assert "fingerprint" not in vars(fresh)
            assert fresh.fingerprint == slot.fingerprint, case


def test_full_run_with_patches_is_byte_identical_under_any_schedule(capsys, monkeypatch):
    argv = [
        "review",
        "tests/data/golden/input/Example.java",
        "--specs-dir",
        "sample_specs",
        "--mode",
        "full",
        "--chunk-budget",
        "150",
        "--patches",
    ]
    monkeypatch.chdir(REPO_ROOT)
    assert len(segment_library(load_library(REPO_ROOT / "sample_specs"), 150)) > 4
    monkeypatch.delenv("SGCR_TEST_JITTER", raising=False)
    assert main(argv) == 0
    expected, _ = capsys.readouterr()
    assert json.loads(expected)["clusters"]
    for seed in range(5):
        monkeypatch.setenv("SGCR_TEST_JITTER", f"8:{seed}")
        assert main(argv) == 0
        out, _ = capsys.readouterr()
        assert out == expected, f"jitter seed {seed} changed the report"


@pytest.mark.parametrize("count", [0, 1, 5, 6, 23])
@pytest.mark.parametrize("n", [1, 3, 16, 40])
def test_collect_in_order_keeps_the_slots_on_the_pool_within_max_inflight(count, n):
    submitted = []

    def slot(position):
        time.sleep(0.001 * (position % 4))
        return position

    def submit(position):
        unfinished = sum(len(ensemble.unfinished()) for ensemble in submitted if ensemble)
        assert unfinished == 0 or unfinished + n <= MAX_INFLIGHT
        if position % 5 == 4:
            submitted.append(None)  # nothing to verify: no slots
            return None
        ensemble = PendingEnsemble(
            [pool.submit(slot, position) for _ in range(n)], EnsembleConfig(n=n, quorum=1)
        )
        submitted.append(ensemble)
        return ensemble

    def collect(position, ensemble):
        assert ensemble is submitted[position]
        return position, bool(ensemble and ensemble.unfinished())

    with call_pool() as pool:
        results = collect_in_order(submit, collect, count, n)
        # The first window is on the pool before anything is collected.
        assert len(submitted) >= min(count, max(1, MAX_INFLIGHT // n))
        assert list(results) == [(position, False) for position in range(count)]
    assert len(submitted) == count


def test_collect_in_order_fills_freed_workers_while_the_next_ensemble_to_collect_runs():
    """One slow slot at the head holds back no later ensemble."""
    n, count = 3, 12
    last_started = threading.Event()
    submitted = []

    def slot(position):
        if position == 0:
            # Only reached if every other ensemble got onto the pool meanwhile.
            return last_started.wait(timeout=10)
        if position == count - 1:
            last_started.set()
        return True

    def submit(position):
        ensemble = PendingEnsemble(
            [pool.submit(slot, position) for _ in range(n)], EnsembleConfig(n=n, quorum=1)
        )
        submitted.append(ensemble)
        return ensemble

    with call_pool() as pool:
        results = collect_in_order(
            submit, lambda position, ensemble: ensemble.unfinished(), count, n
        )
        assert len(submitted) >= MAX_INFLIGHT // n
        assert list(results) == [[]] * count
    assert all(future.result() for ensemble in submitted for future in ensemble._futures)


def test_collect_in_order_wakes_when_the_pool_cancels_the_slots_it_waits_for():
    """A run that raises shuts its pool down, cancelling every queued slot."""
    pool = ThreadPoolExecutor(max_workers=1)
    release = threading.Event()
    pool.submit(release.wait, 10)  # the only worker is busy: every slot queues
    outcome = []

    def submit(position):
        return PendingEnsemble([pool.submit(int, position)], EnsembleConfig(n=1, quorum=1))

    def consume():
        results = collect_in_order(
            submit, lambda position, ensemble: ensemble._futures[0].cancelled(), 3, 1
        )
        outcome.extend(results)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    time.sleep(0.05)  # the consumer now waits for the first slot
    pool.shutdown(wait=False, cancel_futures=True)
    consumer.join(timeout=5)
    release.set()
    assert not consumer.is_alive()
    assert outcome == [True, True, True]


@pytest.mark.parametrize("kind", ["mock", "replay", "http", "record"])
def test_a_configured_backend_keeps_no_record_of_the_requests_it_was_sent(kind, tmp_path):
    """A record would keep every prompt sent, each with the code block, alive."""
    config = RunConfig(
        backend=kind,
        fixtures_dir=str(tmp_path),
        base_url="http://127.0.0.1:9",
        specs_dir=str(REPO_ROOT / "sample_specs"),
    )
    backend = sgcr.pipeline.build_backend(config)
    try:
        request = ModelRequest(role=Role.PROPOSER, prompt="p")
        backend._before_call(request)
        assert sys.getrefcount(request) == 2  # the local name and the argument
        assert not hasattr(backend, "call_log")
    finally:
        backend.close()


@pytest.mark.parametrize("refuse", [False, True])
@pytest.mark.parametrize("kind", ["http", "record"])
def test_run_review_closes_the_clients_it_builds_and_only_those(
    kind, refuse, tmp_path, monkeypatch
):
    sessions = []

    def session_double():
        sessions.append(SessionDouble(refuse))
        return sessions[-1]

    monkeypatch.setattr(sgcr.backends, "http_session", session_double)
    monkeypatch.setattr(sgcr.retrieval, "http_session", session_double)
    config = RunConfig(
        backend=kind,
        embedding="http",
        base_url="http://127.0.0.1:9",
        fixtures_dir=str(tmp_path),
        specs_dir=str(REPO_ROOT / "sample_specs"),
    )
    def outcome():
        return pytest.raises(EnsembleError) if refuse else nullcontext()

    with outcome():
        run_review(config, make_review_request())
    # The backend's session and the embedding provider's.
    assert len(sessions) == 2
    assert all(session.closed for session in sessions)

    sessions.clear()
    caller_backend = sgcr.pipeline.build_backend(config)
    with outcome():
        run_review(config, make_review_request(), backend=caller_backend)
    backend_session, provider_session = sessions
    assert not backend_session.closed
    assert provider_session.closed
    caller_backend.close()
    assert backend_session.closed
