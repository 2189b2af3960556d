"""Model backends: http, mock, replay, and record.

All backends keep a thread-safe call log (used by mode-isolation tests) and
accept an optional jitter that sleeps a random, bounded time before each
call; jitter perturbs scheduling only, never content, which is how the
schedule-independence tests shake out ordering bugs.

Mock synthesis rules
--------------------
The mock backend emits a schema-conformant response whose content is a pure
function of the request fingerprint: the fingerprint's leading 64 bits seed
a private RNG, and the prompt is scanned for ``FILE <path> (lines a..b)``
headers and ``RULE <id>`` lines so synthetic findings land on real files
and cite real rule ids when available. Identical requests therefore yield
byte-identical responses; ensemble slots (different seeds, different
fingerprints) yield different ones.

Fixture format (record/replay): one JSON file per request at
``<fixtures_dir>/<fingerprint>.json`` holding ``{"request": <canonical
request object>, "response_text": <string>}``.
"""

from __future__ import annotations

import json
import logging
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import BackendTimeout, FixtureMiss, MalformedWireResponse, WireError
from .gateway import ModelRequest, canonical_request, http_session, request_fingerprint
from .prompts import Role

logger = logging.getLogger(__name__)

WIRE_RETRIES = 2

_FILE_HEADER = re.compile(r"^FILE (\S+) \(lines (\d+)\.\.(\d+)\)", re.MULTILINE)
_RULE_HEADER = re.compile(r"^RULE (\S+) ", re.MULTILINE)

_SEVERITIES = ("critical", "high", "medium", "low")


@dataclass(frozen=True)
class Jitter:
    """Random pre-call delay used to randomize thread completion order."""

    max_ms: float
    seed: int = 0


class BaseBackend:
    """Call logging and jitter shared by every backend."""

    backend_id = "base"

    def __init__(self, jitter: Optional[Jitter] = None) -> None:
        self.call_log: list[ModelRequest] = []
        self._lock = threading.Lock()
        self._jitter = jitter
        self._jitter_rng = random.Random(jitter.seed) if jitter else None

    def complete(self, request: ModelRequest) -> str:
        self._before_call(request)
        return self._complete(request)

    def _before_call(self, request: ModelRequest) -> None:
        with self._lock:
            self.call_log.append(request)
            delay = None
            if self._jitter and self._jitter_rng:
                delay = self._jitter_rng.uniform(0, self._jitter.max_ms) / 1000.0
        if delay:
            time.sleep(delay)

    def _complete(self, request: ModelRequest) -> str:
        raise NotImplementedError

    def calls_for_role(self, role: "Role | str") -> int:
        wanted = role.value if isinstance(role, Role) else role
        with self._lock:
            return sum(1 for request in self.call_log if request.role == wanted)


class MockBackend(BaseBackend):
    """Deterministic synthetic responses derived from request fingerprints."""

    backend_id = "mock"

    def _complete(self, request: ModelRequest) -> str:
        fingerprint = request_fingerprint(request)
        rng = random.Random(int(fingerprint[:16], 16))
        file, low, high = "unknown", 1, 40
        header = _FILE_HEADER.search(request.prompt)
        if header:
            file, low, high = header.group(1), int(header.group(2)), int(header.group(3))
        rule_ids = _RULE_HEADER.findall(request.prompt)

        def location() -> tuple[int, int]:
            start = low + rng.randrange(max(1, high - low + 1))
            return start, min(high, start + rng.randrange(3))

        role = str(request.role)
        if role in (Role.EXPLICIT_REVIEWER.value, Role.AGGREGATOR.value, Role.SYNTHESIZER.value):
            findings = []
            for index in range(1 + rng.randrange(2)):
                start, end = location()
                findings.append(
                    {
                        "file": file,
                        "start_line": start,
                        "end_line": end,
                        "severity": rng.choice(_SEVERITIES),
                        "description": f"synthetic issue {fingerprint[:8]}-{index} near line {start}",
                        "rationale": "deterministic mock output",
                        "spec_ids": [rng.choice(rule_ids)] if rule_ids else [],
                    }
                )
            return json.dumps({"findings": findings})
        if role == Role.PROPOSER.value:
            issues = []
            for index in range(2):
                start, end = location()
                issues.append(
                    {
                        "file": file,
                        "start_line": start,
                        "end_line": end,
                        "description": f"synthetic concern {fingerprint[:8]}-{index} near line {start}",
                    }
                )
            return json.dumps({"issues": issues})
        if role == Role.VERIFIER.value:
            return json.dumps(
                {
                    "verdict": rng.choice(("valid", "valid", "invalid", "uncertain")),
                    "justification": f"synthetic judgment {fingerprint[:8]}",
                    "cited_spec_ids": [rule_ids[0]] if rule_ids else [],
                    "severity": rng.choice(_SEVERITIES),
                }
            )
        # Patch generator: an empty diff, which validation discards. Mock runs
        # exercise the patch plumbing without inventing appliable diffs.
        return json.dumps(
            {"patch_unified_diff": "", "explanation": f"synthetic patch {fingerprint[:8]}"}
        )


class ReplayBackend(BaseBackend):
    """Answer requests from recorded fixtures; a missing fixture is fatal."""

    backend_id = "replay"

    def __init__(self, fixtures_dir: Path, jitter: Optional[Jitter] = None) -> None:
        super().__init__(jitter)
        self.fixtures_dir = Path(fixtures_dir)

    def _complete(self, request: ModelRequest) -> str:
        fingerprint = request_fingerprint(request)
        path = self.fixtures_dir / f"{fingerprint}.json"
        if not path.is_file():
            raise FixtureMiss(fingerprint)
        payload = json.loads(path.read_text(encoding="utf-8"))
        return payload["response_text"]


class HttpBackend(BaseBackend):
    """OpenAI-style chat completions endpoint with bounded retries."""

    backend_id = "http"

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        jitter: Optional[Jitter] = None,
    ) -> None:
        super().__init__(jitter)
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self._session = http_session()

    def close(self) -> None:
        """Close the pooled connections."""
        self._session.close()

    def _complete(self, request: ModelRequest) -> str:
        import requests

        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "seed": request.seed,
            "max_tokens": request.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}/v1/chat/completions"

        last_error: WireError = WireError("no attempt made")
        for attempt in range(1 + WIRE_RETRIES):
            try:
                reply = self._session.post(url, json=body, headers=headers, timeout=self.timeout)
            except requests.Timeout as exc:
                last_error = BackendTimeout(f"{url}: {exc}")
            except requests.RequestException as exc:
                last_error = WireError(f"{url}: {exc}")
            else:
                if reply.status_code >= 500:
                    last_error = WireError(f"{url}: server error {reply.status_code}")
                elif reply.status_code != 200:
                    raise WireError(f"{url}: status {reply.status_code}: {reply.text[:200]}")
                else:
                    return _extract_message(reply)
            if attempt < WIRE_RETRIES:
                logger.warning("wire attempt %d failed (%s), retrying", attempt + 1, last_error)
        raise last_error


def _extract_message(reply) -> str:
    try:
        payload = reply.json()
    except ValueError as exc:
        raise MalformedWireResponse(f"response body is not JSON: {exc}") from exc
    try:
        text = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedWireResponse(f"missing choices[0].message.content: {exc}") from exc
    if not isinstance(text, str):
        raise MalformedWireResponse("choices[0].message.content is not a string")
    return text


class RecordingBackend(BaseBackend):
    """Delegate to another backend and persist each exchange as a fixture."""

    backend_id = "record"

    def __init__(
        self,
        delegate: BaseBackend,
        fixtures_dir: Path,
        jitter: Optional[Jitter] = None,
    ) -> None:
        super().__init__(jitter)
        self.delegate = delegate
        self.fixtures_dir = Path(fixtures_dir)
        self._write_lock = threading.Lock()

    def _complete(self, request: ModelRequest) -> str:
        text = self.delegate._complete(request)
        fingerprint = request_fingerprint(request)
        payload = {"request": canonical_request(request), "response_text": text}
        with self._write_lock:
            self.fixtures_dir.mkdir(parents=True, exist_ok=True)
            path = self.fixtures_dir / f"{fingerprint}.json"
            path.write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
        return text
