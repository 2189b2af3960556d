"""The benchmark's model backend: the stock mock plus latency and call records.

``BenchBackend`` subclasses ``sgcr.backends.MockBackend`` and adds:

- a fixed simulated latency, slept after the response is made;
- a record of each call's start and end, the number in flight and the
  prompt characters sent, from which the benchmark derives waves
  (``call_depth``), ``peak_inflight``, waiting time and token cost;
- optionally scripted reviewers and verifiers (``AgreeingReviewer``) whose
  ensemble members agree, so findings reach quorum, patches and the
  clustering kernels in a number that does not depend on the seed.

The simulated model's own CPU time is measured per call with the thread
clock, so it can be told apart from the program's CPU time.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from dataclasses import dataclass, field

from sgcr.backends import MockBackend
from sgcr.gateway import ModelRequest

_FILE_HEADER = re.compile(r"^FILE (\S+) \(lines (\d+)\.\.(\d+)\)", re.MULTILINE)
_RULE_HEADER = re.compile(r"^RULE (\S+) ", re.MULTILINE)

_WORDS = (
    "unchecked", "mutable", "shared", "nullable", "unbounded", "plain", "stale",
    "account", "ledger", "invoice", "payment", "session", "token", "query",
    "cursor", "buffer", "stream", "record", "cache", "lock", "refund", "balance",
    "currency", "audit", "password", "secret", "connection", "pool", "handler",
    "escapes", "leaks", "overflows", "truncates", "races", "skips", "repeats",
    "rounds", "logs", "blocks", "retries", "swallows", "shadows", "ignores",
)
_SEVERITIES = ("critical", "high", "medium", "low")


@dataclass
class CallRecord:
    """Everything the backend saw during one review."""

    intervals: list[tuple[float, float]] = field(default_factory=list)
    prompt_chars: int = 0
    peak_inflight: int = 0
    model_cpu_s: float = 0.0

    @property
    def calls(self) -> int:
        return len(self.intervals)

    def call_depth(self) -> int:
        """Longest chain of calls each starting after the previous one ended."""
        depth_at: list[tuple[float, int]] = []
        best = 0
        for start, end in sorted(self.intervals):
            depth = 1 + max((d for finished, d in depth_at if finished <= start), default=0)
            depth_at.append((end, depth))
            best = max(best, depth)
        return best

    def busy_s(self) -> float:
        """Wall time during which at least one call was in flight."""
        total, covered_to = 0.0, float("-inf")
        for start, end in sorted(self.intervals):
            if end > covered_to:
                total += end - max(start, covered_to)
                covered_to = end
        return total


class AgreeingReviewer:
    """Reviewers that agree, and verifiers with a fixed vote.

    The rule-grounded reviewer role answers with findings drawn from a pool
    that depends only on the reviewed code range, so the same issue comes
    back from every rule chunk and meets itself again in synthesis. Each
    chunk reports ``per_call`` pool issues chosen by the prompt, and each
    ensemble member drops an issue with probability ``DROP``. Verifier
    members 0 and 1 vote valid and the others invalid, so every grounded
    proposal is accepted at quorum 2. Content is a pure function of the
    request; counts do not depend on the seed.
    """

    DROP = 0.12

    def __init__(self, pool_size: int, per_call: int) -> None:
        self.pool_size = pool_size
        self.per_call = per_call
        # Pools are pure functions of their key, so a race between two
        # threads filling the same entry stores equal values.
        self._pools: dict[tuple[str, int, int], list[dict]] = {}

    def respond(self, request: ModelRequest) -> str | None:
        """The scripted answer, or None for roles left to the stock mock."""
        if request.role == "explicit_reviewer":
            return self._findings(request)
        if request.role == "verifier":
            rule_ids = _RULE_HEADER.findall(request.prompt)
            return json.dumps(
                {
                    "verdict": "valid" if request.instance_index < 2 else "invalid",
                    "justification": f"scripted vote {request.instance_index}",
                    "cited_spec_ids": rule_ids[:1],
                    "severity": "high",
                }
            )
        return None

    def _pool(self, file: str, low: int, high: int) -> list[dict]:
        key = (file, low, high)
        if key not in self._pools:
            self._pools[key] = self._make_pool(file, low, high)
        return self._pools[key]

    def _make_pool(self, file: str, low: int, high: int) -> list[dict]:
        rng = random.Random(f"{file}:{low}:{high}")
        pool = []
        for number in range(self.pool_size):
            start = rng.randint(low, max(low, high - 2))
            words = " ".join(rng.sample(_WORDS, 6))
            pool.append(
                {
                    "file": file,
                    "start_line": start,
                    "end_line": min(high, start + rng.randrange(3)),
                    "severity": rng.choice(_SEVERITIES),
                    "description": f"{words} near line {start} case {number}",
                    "rationale": "scripted benchmark reviewer",
                }
            )
        return pool

    def _findings(self, request: ModelRequest) -> str:
        header = _FILE_HEADER.search(request.prompt)
        if header is None:
            return json.dumps({"findings": []})
        pool = self._pool(header.group(1), int(header.group(2)), int(header.group(3)))
        rule_ids = _RULE_HEADER.findall(request.prompt) or [""]
        chunk_key = hashlib.sha256(request.prompt.encode("utf-8")).hexdigest()
        chunk_rng = random.Random(chunk_key)
        member_rng = random.Random(f"{chunk_key}:{request.instance_index}")
        findings = []
        for number in sorted(chunk_rng.sample(range(self.pool_size), self.per_call)):
            cited = chunk_rng.choice(rule_ids)
            if member_rng.random() < self.DROP:
                continue
            findings.append(dict(pool[number], spec_ids=[cited] if cited else []))
        return json.dumps({"findings": findings})


class BenchBackend(MockBackend):
    """Stock mock responses, a fixed latency, and a record of every call."""

    def __init__(self, latency_s: float = 0.0, scripted: AgreeingReviewer | None = None) -> None:
        super().__init__()
        self.latency_s = latency_s
        self.scripted = scripted
        self.record = CallRecord()
        self._inflight = 0

    def complete(self, request: ModelRequest) -> str:
        start = time.perf_counter()
        with self._lock:
            self._inflight += 1
            self.record.peak_inflight = max(self.record.peak_inflight, self._inflight)
            self.record.prompt_chars += len(request.prompt)
        try:
            text = super().complete(request)
            if self.latency_s:
                time.sleep(self.latency_s)
        finally:
            end = time.perf_counter()
            with self._lock:
                self._inflight -= 1
                self.record.intervals.append((start, end))
        return text

    def _complete(self, request: ModelRequest) -> str:
        started = time.thread_time()
        text = self.scripted.respond(request) if self.scripted is not None else None
        if text is None:
            text = super()._complete(request)
        elapsed = time.thread_time() - started
        with self._lock:
            self.record.model_cpu_s += elapsed
        return text
