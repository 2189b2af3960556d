"""Model request/response contract, fingerprinting, and ensemble dispatch.

Every model call is described by a ModelRequest. Its fingerprint, stable
across processes, is the sha256 of the compact, sorted-key JSON of the
request's fields other than the prompt (instance_index, max_output_tokens,
role, seed, temperature) plus "prompt_sha256", the sha256 of the prompt's
UTF-8 bytes, which stands in for the prompt (request_fingerprint). The
prompt is encoded with "surrogatepass", so a lone surrogate still hashes.
Fingerprints key the record/replay fixture store and seed the mock
backend, so the whole pipeline can run offline and deterministically. Only
those backends read one, so a request is hashed when a backend first reads
its fingerprint, in the worker making the call, and never on an HTTP run.
The slots of an ensemble share one SharedPrompt: the first read of any
slot's fingerprint hashes the prompt once, a slice at a time, so no copy of
the whole prompt is made and no slot repeats the pass. A lone request is an
ensemble of one.

A run's calls, threads and waits live in one RunScope (call_pool).
Ensembles are submit-then-collect: submit_ensemble puts the slots on the
pool and PendingEnsemble.collect gathers them in instance order, so
callers can have many ensembles in flight and still assemble results in a
fixed order; collect_in_order keeps a pool's worth of them in flight.

This module owns every model call. Backends and embedding providers make
one attempt per call; attempt_call holds the only retry loop, so each call
is sent at most 1 + SLOT_RETRIES times. A model call goes through
call_model, which sends each attempt through generate and parses the reply
with the caller's parser inside the loop, so a reply that does not parse
is retried, whatever the role. The pipeline hands each pathway one
CountedBackend, which counts the calls it sends; no function returns a
count of attempts. The HTTP
wire protocol, whose failures attempt_call retries, lives in wire.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import replace
from enum import Enum
from typing import Callable, Generic, Iterator, Optional, Protocol, TypeVar

from .errors import EnsembleError, RequestRejected, SgcrError, UnparsableResponse, WireError
from .types import Value

logger = logging.getLogger(__name__)

DEFAULT_MAX_OUTPUT_TOKENS = 2048

# Retries per call (ensemble slot, single call or embedding) on transport or
# parse failures, with the same request each time.
SLOT_RETRIES = 2

# Model calls in flight at once, per run, across both pathways and patches.
MAX_INFLIGHT = 16

# Characters of a prompt encoded and hashed at a time by prompt_sha256.
HASH_SLICE = 16 * 1024

T = TypeVar("T")
R = TypeVar("R")


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

    @property
    def fingerprint(self) -> str:
        """request_fingerprint of the canonical request and the shared prompt digest.

        Only the mock, replay and record backends read it, once per call.
        The prompt is hashed once per SharedPrompt (per_prompt), under its
        lock alone, so workers hash different ensembles at once; each read
        then hashes the slot's small JSON afresh, which needs no cache.
        """
        return request_fingerprint(canonical_request(self), self.per_prompt(prompt_sha256))

    def per_prompt(self, derive: Callable[[str], T]) -> T:
        """derive(self.prompt), computed once for every slot sharing the prompt.

        derive must be a pure function of the prompt that reads no
        fingerprint; its value is shared, so callers must not change it.
        """
        return _shared_prompt(self).derived(derive, self.prompt)


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


# The fields of a canonical request, as a fixture stores it, in sorted order.
CANONICAL_FIELDS = ("instance_index", "max_output_tokens", "prompt", "role", "seed", "temperature")


def canonical_request(request: ModelRequest) -> dict:
    """The canonical request as an object, as a fixture stores it."""
    return {name: getattr(request, name) for name in CANONICAL_FIELDS}


def prompt_sha256(prompt: str) -> str:
    """sha256 of the prompt's UTF-8 bytes, taken a HASH_SLICE at a time.

    UTF-8 encodes each code point on its own, so the slices' bytes join
    into the whole prompt's, which are never held. surrogatepass encodes a
    lone surrogate, which a str may hold, as its three bytes.
    """
    digest = hashlib.sha256()
    for start in range(0, len(prompt), HASH_SLICE):
        digest.update(prompt[start : start + HASH_SLICE].encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def request_fingerprint(canonical: dict, prompt_digest: str) -> str:
    """The fingerprint of a canonical request whose prompt has prompt_digest.

    It is the sha256 of the compact, sorted-key JSON of every canonical
    field but the prompt, plus "prompt_sha256": prompt_digest standing in
    for it. Raises KeyError for a missing field.
    """
    fields = {name: canonical[name] for name in CANONICAL_FIELDS if name != "prompt"}
    fields["prompt_sha256"] = prompt_digest
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SharedPrompt:
    """What the slots of one ensemble share: values derived from their prompt.

    Each slot holds it in its instance dict, not as a field, so it never
    enters eq, hash or repr. derived computes each value once, under the
    lock, held only for that computation: a sibling waits for the value
    rather than repeating it. The prompt digest (prompt_sha256) and the
    mock's header scan are such values.
    """

    __slots__ = ("_lock", "_derived")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._derived: dict[Callable[[str], object], object] = {}

    def derived(self, derive: Callable[[str], T], prompt: str) -> T:
        with self._lock:
            if derive not in self._derived:
                self._derived[derive] = derive(prompt)
            return self._derived[derive]  # type: ignore[return-value]


def _share(slots: list[ModelRequest]) -> SharedPrompt:
    """One SharedPrompt for slots, which differ at most in seed and instance_index."""
    shared = SharedPrompt()
    for slot in slots:
        vars(slot)["_shared_prompt"] = shared
    return shared


def _shared_prompt(request: ModelRequest) -> SharedPrompt:
    """request's SharedPrompt; a lone request is shared as an ensemble of one.

    Two threads first reading a lone request at once may each share it
    anew; each then derives its values, the same ones.
    """
    return vars(request).get("_shared_prompt") or _share([request])


class ModelBackend(Protocol):
    """Anything that can answer a ModelRequest with raw text."""

    def complete(self, request: ModelRequest) -> str: ...


def generate(backend: ModelBackend, request: ModelRequest) -> str:
    """One attempt: send the request through the backend, return its raw text."""
    return backend.complete(request)


def ensemble_requests(base_request: ModelRequest, config: EnsembleConfig) -> list[ModelRequest]:
    """The n slot requests, differing only in instance_index and seed.

    The slots share one SharedPrompt. None is hashed here: the first read of
    any slot's fingerprint hashes the prompt for them all.
    """
    slots = [
        replace(base_request, instance_index=i, seed=config.base_seed + i)
        for i in range(config.n)
    ]
    _share(slots)
    return slots


class RunScope:
    """One run's calls and threads, and the one place the run waits for them.

    - submit puts a leaf task (a slot with its retries, a single call, a
      grounding) on the run's only pool, at most MAX_INFLIGHT in flight;
      no task waits on the pool, so it cannot deadlock.
    - beside runs one pathway on the side thread while the caller runs
      the other.
    - wait and wait_any, the run's only blocking points, go through
      _until, which a test scope overrides to force completion orders.
    - Leaving on an exception cancels the calls not yet started (a waiter
      wakes with CancelledError, a later submit raises it); leaving either
      way joins every thread.
    """

    def __init__(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=MAX_INFLIGHT, thread_name_prefix="sgcr-call")
        self._side: Optional[ThreadPoolExecutor] = None
        # Notified whenever a call or the side thread's task finishes or is
        # cancelled; a done callback, unlike concurrent.futures.wait, also
        # fires for a call the pool's shutdown cancels.
        self._changed = threading.Condition()

    def __enter__(self) -> RunScope:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            self.cancel()
        if self._side is not None:
            self._side.shutdown(wait=True)
        self._pool.shutdown(wait=True, cancel_futures=True)

    def submit(self, fn: Callable[..., T], /, *args, **kwargs) -> Future:
        """fn(*args, **kwargs) on the pool; raises CancelledError once cancelled."""
        try:
            future = self._pool.submit(fn, *args, **kwargs)
        except RuntimeError as exc:  # the pool is shut down: the run was cancelled
            raise CancelledError("the run was cancelled") from exc
        future.add_done_callback(self._notify)
        return future

    def call(self, fn: Callable[..., T], /, *args, **kwargs) -> T:
        """fn(*args, **kwargs) made on the pool, so it counts against its cap."""
        return self.wait(self.submit(fn, *args, **kwargs))

    def beside(self, fn: Callable[..., T], /, *args, **kwargs) -> Future:
        """fn(*args, **kwargs) on the side thread, started on first use."""
        if self._side is None:
            self._side = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sgcr-beside")
        future = self._side.submit(fn, *args, **kwargs)
        future.add_done_callback(self._notify)
        return future

    def wait(self, future: Future) -> T:
        """future's result, once it is done; raises its error."""
        self._until(future.done)
        return future.result()

    def wait_any(self, futures: list[Future]) -> None:
        """Return once any of futures is done."""
        self._until(lambda: any(future.done() for future in futures))

    def cancel(self) -> None:
        """Cancel the calls not yet started, and refuse new ones."""
        self._pool.shutdown(wait=False, cancel_futures=True)

    def _until(self, ready: Callable[[], bool]) -> None:
        with self._changed:
            while not ready():
                self._changed.wait()

    def _notify(self, _: Future) -> None:
        with self._changed:
            self._changed.notify_all()


def call_pool() -> RunScope:
    """A run's scope, to enter with ``with``: ``with call_pool() as pool``."""
    return RunScope()


class CountedBackend:
    """A backend that counts every call sent through it, from any thread.

    The pipeline wraps each pathway's backend in one and makes its count
    the pathway's model_calls stat, so that stat counts what was sent:
    retries, failed slots and ensembles that exhausted their failure budget
    included.
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


def call_model(backend: ModelBackend, request: ModelRequest, parser: Callable[[str], T]) -> T:
    """One model call under attempt_call: parser's value of the reply.

    Each attempt is sent through generate and its reply parsed inside the
    loop, so a reply that does not parse is resent like a failed call,
    for every role alike.
    """
    return attempt_call(lambda: parser(generate(backend, request)))


class PendingEnsemble(Generic[T]):
    """An ensemble whose slots are on a scope's pool; collect() waits for them."""

    def __init__(self, futures: list[Future], config: EnsembleConfig, pool: RunScope) -> None:
        self._futures = futures
        self._config = config
        self._scope = pool

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
                results.append(self._scope.wait(future))
            except SgcrError as exc:
                errors.append((index, exc))
                logger.warning("ensemble slot %d absent: %s", index, exc)
                results.append(None)
        _check_failure_budget(errors, self._config)
        return results


def submit_ensemble(
    pool: RunScope,
    backend: ModelBackend,
    base_request: ModelRequest,
    config: EnsembleConfig,
    parser: Callable[[str], T],
) -> PendingEnsemble[T]:
    """Put the n diversified slots on the pool without waiting for them.

    Nothing is hashed here: the prompt is hashed in the first worker whose
    backend reads a fingerprint, and only then.
    """
    slots = ensemble_requests(base_request, config)
    return PendingEnsemble(
        [pool.submit(call_model, backend, request, parser) for request in slots], config, pool
    )


def collect_in_order(
    submit: Callable[[int], Optional[PendingEnsemble]],
    collect: Callable[[int, Optional[PendingEnsemble]], R],
    count: int,
    n: int,
    *,
    pool: RunScope,
) -> Iterator[R]:
    """collect(i, submit(i)) for i in range(count), in order, a pool's worth ahead.

    submit(i) puts an ensemble of n slots on pool and returns it, or
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

    def top_up() -> None:
        nonlocal following
        unfinished[:] = [future for future in unfinished if not future.done()]
        while following < count and (not unfinished or len(unfinished) + n <= MAX_INFLIGHT):
            ensemble = submit(following)
            following += 1
            submitted.append(ensemble)
            if ensemble is not None:
                unfinished.extend(ensemble.unfinished())

    def results() -> Iterator[R]:
        for position in range(count):
            head = submitted.popleft()
            while head is not None and head.unfinished():
                pool.wait_any(unfinished)
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
