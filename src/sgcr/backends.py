r"""Model backends: mock, replay, and record. The http backend is in wire.

Backends keep no record of the requests they were sent: each prompt holds
the whole code block, and a run should free it once its call is done.

Mock synthesis rules
--------------------
The mock backend emits a schema-conformant response whose content is a pure
function of the request fingerprint: the fingerprint's leading 64 bits seed
a private RNG, and the prompt is scanned for ``FILE <path> (lines a..b)``
headers and ``RULE <id> `` lines so synthetic findings land on real files
and cite real rule ids when available. Identical requests therefore yield
byte-identical responses; ensemble slots (different seeds, different
fingerprints) yield different ones.

A header counts only at the start of the prompt or right after ``"\n"``
(not after a lone ``"\r"``, nor indented or mid-line). The first ``FILE``
header wins; ``RULE`` ids come back in prompt order, duplicates kept. Each
header shape is matched once at position 0, and searched for past it by a
pattern that starts with the literal ``"\n"``: the regex engine then jumps
between candidate lines with its literal-prefix search. A pattern starting
with ``^`` under ``re.MULTILINE`` is tried at every character of a prompt
that may hold 48k of them, and an alternation in front (``(?:^|\n)``)
loses the literal prefix too and is slower still. Scanning ``"\n" +
prompt`` instead of the position-0 match costs as little time, but copies
every prompt, and verifier prompts each hold the whole code block. The
slots of an ensemble send one prompt, so the mock takes its headers through
``ModelRequest.per_prompt``: the scan runs once per ensemble, and its
slots share the result.

Fixture format (record/replay): one JSON file per request at
``<fixtures_dir>/<fingerprint>.json`` holding ``{"request": <canonical
request object>, "response_text": <string>}``, written whole or not at all
(``files.write_text_atomic``). The name is the request's fingerprint
(``gateway.request_fingerprint``): the sha256 of the JSON of the request's
fields other than the prompt (instance_index, max_output_tokens, role, seed,
temperature) plus ``"prompt_sha256"``, the sha256 of the prompt's UTF-8
bytes (encoded with ``surrogatepass``), which stands in for the prompt.
The file keeps the whole request, prompt included, so
``tools/rekey_fixtures.py DIR`` can rename a store's files from their own
content whenever the fingerprint's definition changes. The recorder
refuses a request whose prompt or role holds a surrogate pair as two code
points: the fixture's JSON would give the pair back as one, so the file
would re-key to another name and a replay of the request would miss it.
"""

from __future__ import annotations

import json
import random
import re
import threading
from pathlib import Path

from .errors import FixtureMiss, RequestRejected
from .files import write_text_atomic
from .gateway import ModelRequest, canonical_request
from .prompts import Role
from .types import Severity

_FILE_HEADER = r"FILE (\S+) \(lines (\d+)\.\.(\d+)\)"
_RULE_HEADER = r"RULE (\S+) "
_FILE_AT_START, _FILE_AFTER_NEWLINE = re.compile(_FILE_HEADER), re.compile("\n" + _FILE_HEADER)
_RULE_AT_START, _RULE_AFTER_NEWLINE = re.compile(_RULE_HEADER), re.compile("\n" + _RULE_HEADER)
# A high surrogate followed by a low one, which JSON decodes as one code point.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")

_SEVERITIES = tuple(severity.value for severity in Severity)


class BaseBackend:
    """A backend: complete answers a request through the subclass's _complete.

    _lock is for a subclass's own state, shared by the threads calling it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def complete(self, request: ModelRequest) -> str:
        return self._complete(request)

    def close(self) -> None:
        """Release what the backend holds open; most hold nothing."""

    def _complete(self, request: ModelRequest) -> str:
        raise NotImplementedError


def prompt_headers(prompt: str) -> tuple[tuple[str, int, int], list[str]]:
    """The first FILE header's (path, first line, last line), or ("unknown", 1,
    40) without one, and the RULE ids in prompt order (see the module doc)."""
    header = _FILE_AT_START.match(prompt) or _FILE_AFTER_NEWLINE.search(prompt)
    location = ("unknown", 1, 40)
    if header:
        location = (header.group(1), int(header.group(2)), int(header.group(3)))
    first = _RULE_AT_START.match(prompt)
    return location, ([first.group(1)] if first else []) + _RULE_AFTER_NEWLINE.findall(prompt)


class MockBackend(BaseBackend):
    """Deterministic synthetic responses derived from request fingerprints."""

    def _complete(self, request: ModelRequest) -> str:
        fingerprint = request.fingerprint
        rng = random.Random(int(fingerprint[:16], 16))
        (file, low, high), rule_ids = request.per_prompt(prompt_headers)

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

    def __init__(self, fixtures_dir: Path) -> None:
        super().__init__()
        self.fixtures_dir = Path(fixtures_dir)

    def _complete(self, request: ModelRequest) -> str:
        fingerprint = request.fingerprint
        path = self.fixtures_dir / f"{fingerprint}.json"
        if not path.is_file():
            raise FixtureMiss(fingerprint)
        payload = json.loads(path.read_text(encoding="utf-8"))
        return payload["response_text"]


class RecordingBackend(BaseBackend):
    """Delegate to another backend and persist each exchange as a fixture."""

    def __init__(self, delegate: BaseBackend, fixtures_dir: Path) -> None:
        super().__init__()
        self.delegate = delegate
        self.fixtures_dir = Path(fixtures_dir)

    def close(self) -> None:
        """Close the delegate."""
        self.delegate.close()

    def _complete(self, request: ModelRequest) -> str:
        for name in ("prompt", "role"):
            if _SURROGATE_PAIR.search(getattr(request, name)):
                raise RequestRejected(
                    f"cannot record a request whose {name} holds a surrogate pair as two"
                    " code points: its fixture would give them back as one, and miss on replay"
                )
        text = self.delegate.complete(request)
        fingerprint = request.fingerprint
        payload = {"request": canonical_request(request), "response_text": text}
        with self._lock:
            self.fixtures_dir.mkdir(parents=True, exist_ok=True)
            write_text_atomic(
                self.fixtures_dir / f"{fingerprint}.json",
                json.dumps(payload, sort_keys=True, indent=2) + "\n",
            )
        return text
