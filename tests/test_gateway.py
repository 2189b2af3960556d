"""Request fingerprinting, ensemble dispatch, retries, and the wire protocol."""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import REPO_ROOT, CannedBackend, make_review_request, write_spec_file
from sgcr.backends import (
    WIRE_RETRIES,
    HttpBackend,
    MockBackend,
    RecordingBackend,
    ReplayBackend,
)
from sgcr.errors import (
    EnsembleError,
    FixtureMiss,
    IndexLibraryMismatch,
    UnparsableResponse,
    WireError,
)
from sgcr.cli import main
from sgcr.config import RunConfig
from sgcr.gateway import (
    MAX_INFLIGHT,
    SLOT_RETRIES,
    EnsembleConfig,
    ModelRequest,
    canonical_request_json,
    ensemble_parsed,
    ensemble_requests,
    generate,
    request_fingerprint,
)
from sgcr.pipeline import run_review
from sgcr.retrieval import HttpEmbeddingProvider, MockEmbeddingProvider, build_index, save_index
from sgcr.prompts import Role
from sgcr.specs import load_library, segment_library


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
    assert request_fingerprint(base) == request_fingerprint(base)
    for variant in (
        ModelRequest(role="verifier", prompt="same prompt", seed=2),
        ModelRequest(role="verifier", prompt="other prompt", seed=1),
        ModelRequest(role="verifier", prompt="same prompt", seed=1, instance_index=1),
        ModelRequest(role="proposer", prompt="same prompt", seed=1),
    ):
        assert request_fingerprint(variant) != request_fingerprint(base)


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
    first = generate(backend, request)
    second = generate(backend, request)
    assert first.text == second.text
    assert first.request_fingerprint == second.request_fingerprint


def _write_fixture(directory, request, text):
    from sgcr.gateway import canonical_request

    directory.mkdir(parents=True, exist_ok=True)
    fingerprint = request_fingerprint(request)
    payload = {"request": canonical_request(request), "response_text": text}
    (directory / f"{fingerprint}.json").write_text(json.dumps(payload), encoding="utf-8")


def test_replay_missing_fixture_is_a_fixture_miss(tmp_path):
    backend = ReplayBackend(tmp_path)
    request = ModelRequest(role="proposer", prompt="p")
    with pytest.raises(FixtureMiss) as excinfo:
        generate(backend, request)
    assert request_fingerprint(request) in str(excinfo.value)


def test_ensemble_tolerates_failures_within_budget(tmp_path):
    base = ModelRequest(role="verifier", prompt="q", temperature=0.0)
    config = EnsembleConfig(n=3, quorum=2, base_seed=0)
    slots = ensemble_requests(base, config)
    _write_fixture(tmp_path, slots[0], '{"verdict": "valid"}')
    _write_fixture(tmp_path, slots[2], '{"verdict": "invalid"}')
    backend = ReplayBackend(tmp_path)

    from sgcr.parsing import parse_verdict_response

    results, stats = ensemble_parsed(backend, base, config, parse_verdict_response)
    assert results[0] is not None and results[2] is not None
    assert results[1] is None
    assert stats.failures == 1
    # A fixture miss is never retried, so exactly one call per slot.
    assert stats.calls == 3


def test_ensemble_fails_past_budget_with_fingerprints(tmp_path):
    base = ModelRequest(role="verifier", prompt="q")
    config = EnsembleConfig(n=3, quorum=2, base_seed=0)
    slots = ensemble_requests(base, config)
    _write_fixture(tmp_path, slots[0], '{"verdict": "valid"}')
    backend = ReplayBackend(tmp_path)

    from sgcr.parsing import parse_verdict_response

    with pytest.raises(EnsembleError) as excinfo:
        ensemble_parsed(backend, base, config, parse_verdict_response)
    message = str(excinfo.value)
    assert request_fingerprint(slots[1]) in message
    assert request_fingerprint(slots[2]) in message


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

    results, stats = ensemble_parsed(backend, base, config, parse_verdict_response)
    assert results[0] is not None
    assert stats.calls == 1 + SLOT_RETRIES
    assert stats.failures == 0


def test_unparsable_after_retries_exhausts_the_slot():
    backend = CannedBackend({"verifier": "still not json"})
    base = ModelRequest(role="verifier", prompt="q")
    config = EnsembleConfig(n=1, quorum=1)

    from sgcr.parsing import parse_verdict_response

    with pytest.raises(EnsembleError):
        ensemble_parsed(backend, base, config, parse_verdict_response)
    assert len(backend.call_log) == 1 + SLOT_RETRIES


class _ChatHandler(BaseHTTPRequestHandler):
    seen: list[dict] = []
    headers_seen: list[dict] = []
    status_plan: list[int] = []

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
        reply = {
            "choices": [
                {"message": {"content": f"echo seed={body.get('seed')} t={body.get('temperature')}"}}
            ]
        }
        raw = json.dumps(reply).encode("utf-8")
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
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", _ChatHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


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


def test_http_backend_retries_server_errors_not_client_errors(chat_server):
    base_url, handler = chat_server
    backend = HttpBackend(base_url=base_url, model="m", api_key=None)
    request = ModelRequest(role="proposer", prompt="p")

    handler.status_plan = [500, 500]
    assert backend.complete(request).startswith("echo")
    assert len(handler.seen) == 1 + WIRE_RETRIES

    handler.seen.clear()
    handler.status_plan = [400]
    with pytest.raises(WireError):
        backend.complete(request)
    assert len(handler.seen) == 1  # no retry on a client error


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
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture()
def keep_alive_server():
    _KeepAliveHandler.peers = []
    _KeepAliveHandler.delay_s = 0.0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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


class _CountingBackend(MockBackend):
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


def test_run_review_overlaps_the_pathways_under_one_capped_pool(tmp_path):
    config = _chunked_config(tmp_path, ensemble_size=8)
    backend = _CountingBackend()
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
