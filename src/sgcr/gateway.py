"""Model request/response contract, fingerprinting, and ensemble dispatch.

Every model call is described by a ModelRequest; its fingerprint is the
sha256 of the canonical request JSON (sorted keys, prompt hashed verbatim)
and is stable across processes. Fingerprints key the record/replay fixture
store and seed the mock backend, so the whole pipeline can run offline and
deterministically. Only those backends read one, so a request is hashed
when a backend first reads its fingerprint, in the worker making the call,
and never on an HTTP run. An ensemble's slots share one prompt, so the
first slot hashed JSON-escapes it for all of them.

Calls run on one bounded pool per run (call_pool, at most MAX_INFLIGHT in
flight). Ensembles are submit-then-collect: submit_ensemble puts the slots
on the pool and PendingEnsemble.collect gathers them in instance order, so
callers can have many ensembles in flight and still assemble results in a
fixed order; collect_in_order keeps a pool's worth of them in flight.

This module owns every model call. Backends and embedding providers make
one attempt per call; attempt_call holds the only retry loop, so each call
is sent at most 1 + SLOT_RETRIES times. A model call goes through
call_model, which sends each attempt through generate and, when given a
parser, parses inside the loop, so a reply that does not parse is retried.
Each pathway counts the calls it sends with one CountedBackend; no
function returns a count of attempts.

The HTTP wire protocol is written once, in HttpClient, which the http
model backend and the http embedding provider each hold: both endpoints
fail with the same errors, which attempt_call retries the same way.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Generic,
    Iterator,
    Optional,
    Protocol,
    TypeVar,
)

from enum import Enum

from .errors import (
    BackendTimeout,
    EnsembleError,
    MalformedWireResponse,
    RequestRejected,
    SgcrError,
    UnparsableResponse,
    WireError,
)
from .types import Value, memoized, value_class

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

DEFAULT_MAX_OUTPUT_TOKENS = 2048

# Retries per call (ensemble slot, single call or embedding) on transport or
# parse failures, with the same request each time.
SLOT_RETRIES = 2

# Model calls in flight at once, per run, across both pathways and patches.
MAX_INFLIGHT = 16


@value_class
class ModelRequest(Value):
    """One model invocation: role, rendered prompt, and sampling knobs."""

    role: str
    prompt: str
    temperature: float = 0.0
    seed: Optional[int] = None
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS
    instance_index: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.role, Enum):
            object.__setattr__(self, "role", self.role.value)
        if not self.role:
            raise ValueError("role must be non-empty")
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")
        if self.instance_index < 0:
            raise ValueError("instance_index must be non-negative")

    @memoized
    def fingerprint(self) -> str:
        """sha256 of canonical_request_json, computed on first read.

        Only the mock, replay and record backends read it, once per call;
        a retry reads the cached value. The cache lives in the instance
        dict, with no lock shared between requests, so workers hash
        different requests at once; dataclasses.replace builds a fresh
        instance, so a replaced request never inherits another's
        fingerprint. An ensemble slot hashes from the escape it shares
        with its siblings (ensemble_requests).
        """
        shared = vars(self).pop(_SHARED_ESCAPE, None)
        escaped = shared.escaped() if shared is not None else _escape_prompt(self.prompt)
        return _digest(self, escaped)


@value_class
class EnsembleConfig(Value):
    """Size, acceptance quorum, and diversity source for an ensemble."""

    n: int = 3
    quorum: int = 2
    temperature: float = 0.7
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ensemble size must be positive")
        if not 1 <= self.quorum <= self.n:
            raise ValueError(f"quorum must be in 1..{self.n}, got {self.quorum}")


def canonical_request(request: ModelRequest) -> dict:
    return {
        "role": request.role,
        "prompt": request.prompt,
        "temperature": request.temperature,
        "seed": request.seed,
        "max_output_tokens": request.max_output_tokens,
        "instance_index": request.instance_index,
    }


def canonical_parts(request: ModelRequest) -> tuple[str, str]:
    """The canonical request JSON before and after its escaped prompt.

    The one owner of the canonical layout: canonical_request with sorted
    keys (instance_index, max_output_tokens, prompt, role, seed,
    temperature) and no whitespace, each value written by json.dumps, so
    head + json.dumps(prompt) + tail equals json.dumps(canonical_request(r),
    sort_keys=True, separators=(",", ":")).
    """
    head = (
        f'{{"instance_index":{json.dumps(request.instance_index)},'
        f'"max_output_tokens":{json.dumps(request.max_output_tokens)},"prompt":'
    )
    tail = (
        f',"role":{json.dumps(request.role)},"seed":{json.dumps(request.seed)},'
        f'"temperature":{json.dumps(request.temperature)}}}'
    )
    return head, tail


def canonical_request_json(request: ModelRequest) -> str:
    """Sorted, compact JSON of canonical_request; its sha256 is the fingerprint.

    Built from canonical_parts, as the fingerprint is, so the text and the
    hash cannot disagree.
    """
    head, tail = canonical_parts(request)
    return head + json.dumps(request.prompt) + tail


def _escape_prompt(prompt: str) -> bytes:
    # json.dumps escapes every non-ASCII code point, so the text is ASCII.
    return json.dumps(prompt).encode("ascii")


# The instance-dict key under which an ensemble slot holds its _SharedEscape
# until its fingerprint is read. replace() copies fields only, so a replaced
# request never carries it onto another prompt.
_SHARED_ESCAPE = "_shared_escape"


class _SharedEscape:
    """One ensemble prompt's escape, made when the first slot is hashed.

    Each slot drops its reference once it has hashed, so the escape is freed
    with the last one, and never made for slots no backend hashes. The lock
    is the ensemble's own: sibling slots hashed at once wait for one escape
    rather than each making a copy, and no other request waits on it.
    """

    __slots__ = ("_prompt", "_escaped", "_lock")

    def __init__(self, prompt: str) -> None:
        self._prompt = prompt
        self._escaped: Optional[bytes] = None
        self._lock = threading.Lock()

    def escaped(self) -> bytes:
        with self._lock:
            if self._escaped is None:
                self._escaped = _escape_prompt(self._prompt)
            return self._escaped


def _digest(request: ModelRequest, escaped_prompt: bytes) -> str:
    """sha256 of canonical_request_json(request), given its escaped prompt."""
    head, tail = canonical_parts(request)
    digest = hashlib.sha256(head.encode("ascii"))
    digest.update(escaped_prompt)
    digest.update(tail.encode("ascii"))
    return digest.hexdigest()


class ModelBackend(Protocol):
    """Anything that can answer a ModelRequest with raw text."""

    def complete(self, request: ModelRequest) -> str: ...


def generate(backend: ModelBackend, request: ModelRequest) -> str:
    """One attempt: send the request through the backend, return its raw text."""
    return backend.complete(request)


def ensemble_requests(base_request: ModelRequest, config: EnsembleConfig) -> list[ModelRequest]:
    """The n slot requests, differing only in instance_index and seed.

    No slot is hashed here. The shared prompt, most of every slot's
    canonical JSON, gets one lazily made escape (_SharedEscape) that each
    slot holds in its instance dict until its fingerprint is first read.
    """
    shared = _SharedEscape(base_request.prompt)
    slots = []
    for i in range(config.n):
        slot = replace(base_request, instance_index=i, seed=config.base_seed + i)
        vars(slot)[_SHARED_ESCAPE] = shared
        slots.append(slot)
    return slots


T = TypeVar("T")
R = TypeVar("R")


@contextmanager
def call_pool() -> Iterator[Executor]:
    """A run's pool for model and embedding calls: at most MAX_INFLIGHT at once.

    Only leaf tasks go on it (one ensemble slot with its retries, one
    attempt of a single call, one grounding); no task waits on the pool,
    so it cannot deadlock. On exit, queued tasks are cancelled and the
    workers joined, so a run that raised makes no further calls and leaves
    no threads behind.
    """
    pool = ThreadPoolExecutor(max_workers=MAX_INFLIGHT, thread_name_prefix="sgcr-call")
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def http_session() -> requests.Session:
    """A requests.Session for one HTTP client's lifetime, reusing connections.

    Its pool keeps MAX_INFLIGHT connections per host; at urllib3's default
    of 10, the calls a run has in flight beyond that would each open a
    connection, use it once and discard it with a warning. The adapter adds
    no retries of its own. requests is imported here, not at module level,
    so runs that make no HTTP call never load it.
    """
    import requests
    from requests.adapters import HTTPAdapter

    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=MAX_INFLIGHT)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


class HttpClient:
    """One OpenAI-style endpoint: pooled connections, one POST per call.

    post classifies every failure, for the chat and the embedding endpoint
    alike: a timeout raises BackendTimeout; any other transport error, a
    5xx, 408 or 429 raises WireError; any other 4xx, which would be refused
    again if resent, raises RequestRejected; a 200 whose body is not JSON
    raises MalformedWireResponse. Messages name the URL, and a status error
    also the status and the reply's first 200 characters.
    """

    def __init__(self, base_url: str, api_key: Optional[str], timeout: float) -> None:
        self._base_url = base_url.rstrip("/")
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._timeout = timeout
        self._session = http_session()

    def close(self) -> None:
        """Close the pooled connections."""
        self._session.close()

    def post(self, path: str, body: dict) -> object:
        """POST body as JSON to base_url + path; the decoded JSON reply."""
        import requests

        url = self._base_url + path
        try:
            reply = self._session.post(url, json=body, headers=self._headers, timeout=self._timeout)
        except requests.Timeout as exc:
            raise BackendTimeout(f"{url}: {exc}") from exc
        except requests.RequestException as exc:
            raise WireError(f"{url}: {exc}") from exc
        status = reply.status_code
        if status != 200:
            rejected = 400 <= status < 500 and status not in (408, 429)
            raise (RequestRejected if rejected else WireError)(
                f"{url}: status {status}: {reply.text[:200]}"
            )
        try:
            return reply.json()
        except ValueError as exc:
            raise MalformedWireResponse(f"{url}: response body is not JSON: {exc}") from exc


class PooledBackend:
    """A backend whose calls run on a pool, so they count against its cap.

    For the few calls an orchestrating thread makes itself rather than
    through an ensemble.
    """

    def __init__(self, backend: ModelBackend, pool: Executor) -> None:
        self._backend = backend
        self._pool = pool

    def complete(self, request: ModelRequest) -> str:
        return self._pool.submit(self._backend.complete, request).result()


class CountedBackend:
    """A backend that counts every call sent through it, from any thread.

    Each pathway wraps its backend in one, so its model_calls stat counts
    what was sent: retries, failed slots and ensembles that exhausted their
    failure budget included.
    """

    def __init__(self, backend: ModelBackend) -> None:
        self._backend = backend
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, request: ModelRequest) -> str:
        with self._lock:
            self.calls += 1
        return self._backend.complete(request)


def attempt_call(call: Callable[[], T]) -> T:
    """call's value, made with retries; raises the last error.

    The call is attempted up to 1 + SLOT_RETRIES times when the transport
    fails (WireError) or the response does not parse (UnparsableResponse).
    Other errors end it at once: replay lookups are deterministic (a fixture
    miss), a malformed wire reply is a protocol fault, and an endpoint that
    rejected the request (RequestRejected) would reject it again.
    """
    for attempt in range(1, 1 + SLOT_RETRIES):
        try:
            return call()
        except RequestRejected:
            raise
        except (WireError, UnparsableResponse) as exc:
            logger.warning("call attempt %d failed (%s), retrying", attempt, exc)
    return call()


def call_model(
    backend: ModelBackend, request: ModelRequest, parser: Optional[Callable[[str], T]] = None
) -> str | T:
    """One model call under attempt_call: the raw text, or parser's value.

    Each attempt is sent through generate. With a parser, the reply is
    parsed inside the loop, so an unparsable reply is retried (ensemble
    slots and the proposer); without one, only the call is retried and the
    caller parses once.
    """
    if parser is None:
        return attempt_call(lambda: generate(backend, request))
    return attempt_call(lambda: parser(generate(backend, request)))


class PendingEnsemble(Generic[T]):
    """An ensemble whose slots are on a pool; collect() waits for them."""

    def __init__(self, futures: list[Future], config: EnsembleConfig) -> None:
        self._futures = futures
        self._config = config

    def unfinished(self) -> list[Future]:
        """The slots still queued or running; none once collected."""
        return [future for future in self._futures if not future.done()]

    def collect(self) -> list[Optional[T]]:
        """Slot results in instance order, absent slots as None.

        Call once: the futures are released, so a run holds no more raw
        slot results than it has yet to collect. Raises EnsembleError past
        the n - quorum failure budget.
        """
        futures, self._futures = self._futures, []
        results: list[Optional[T]] = []
        errors: list[tuple[int, SgcrError]] = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except SgcrError as exc:
                errors.append((index, exc))
                logger.warning("ensemble slot %d absent: %s", index, exc)
                results.append(None)
        _check_failure_budget(errors, self._config)
        return results


def submit_ensemble(
    pool: Executor,
    backend: ModelBackend,
    base_request: ModelRequest,
    config: EnsembleConfig,
    parser: Callable[[str], T],
) -> PendingEnsemble[T]:
    """Put the n diversified slots on the pool without waiting for them.

    Nothing is hashed here: a slot is hashed in the worker that calls the
    backend, and only if the backend reads its fingerprint.
    """
    slots = ensemble_requests(base_request, config)
    return PendingEnsemble(
        [pool.submit(call_model, backend, request, parser) for request in slots], config
    )


def collect_in_order(
    submit: Callable[[int], Optional[PendingEnsemble]],
    collect: Callable[[int, Optional[PendingEnsemble]], R],
    count: int,
    n: int,
) -> Iterator[R]:
    """collect(i, submit(i)) for i in range(count), in order, a pool's worth ahead.

    submit(i) puts an ensemble of n slots on the pool and returns it, or
    returns None if it puts nothing there. An ensemble is submitted only
    while its slots fit beside the unfinished ones under MAX_INFLIGHT (the
    first is always let through): further ahead its slots would only queue,
    each keeping its prompt alive. At least the first window, MAX_INFLIGHT
    // n ensembles, is submitted before this returns. Afterwards the next is
    submitted as soon as enough slots finish, also while the ensemble to
    collect next is still running, so one slow slot idles no other worker;
    ensembles that finish early keep only their slots' parsed results until
    collected.
    """
    submitted: deque[Optional[PendingEnsemble]] = deque()  # not yet collected
    unfinished: list[Future] = []  # their slots still queued or running
    following = 0  # the next position to submit
    # Set when a slot finishes. A done callback, unlike futures.wait, also
    # fires for a slot that call_pool's shutdown cancels.
    finished = threading.Event()

    def top_up() -> None:
        nonlocal following
        unfinished[:] = [future for future in unfinished if not future.done()]
        while following < count and (not unfinished or len(unfinished) + n <= MAX_INFLIGHT):
            ensemble = submit(following)
            following += 1
            submitted.append(ensemble)
            if ensemble is not None:
                for future in ensemble.unfinished():
                    unfinished.append(future)
                    future.add_done_callback(lambda _: finished.set())

    def results() -> Iterator[R]:
        for position in range(count):
            head = submitted.popleft()
            while head is not None and head.unfinished():
                finished.wait()
                finished.clear()
                top_up()
            result = collect(position, head)
            top_up()
            yield result

    top_up()
    return results()


def _check_failure_budget(errors: list[tuple[int, SgcrError]], config: EnsembleConfig) -> None:
    if len(errors) > config.n - config.quorum:
        detail = "; ".join(f"slot {index}: {exc}" for index, exc in errors)
        raise EnsembleError(
            f"{len(errors)} of {config.n} ensemble calls failed"
            f" (quorum {config.quorum} unreachable): {detail}"
        )
