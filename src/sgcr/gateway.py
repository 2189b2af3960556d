"""Model request/response contract, fingerprinting, and ensemble dispatch.

Every model call is described by a ModelRequest; its fingerprint is the
sha256 of the canonical request JSON (sorted keys, prompt hashed verbatim)
and is stable across processes. Fingerprints key the record/replay fixture
store and seed the mock backend, so the whole pipeline can run offline and
deterministically.

Calls run on one bounded pool per run (call_pool, at most MAX_INFLIGHT in
flight). Ensembles are submit-then-collect: submit_ensemble puts the slots
on the pool and PendingEnsemble.collect gathers them in instance order, so
callers can have many ensembles in flight and still assemble results in a
fixed order.
"""

from __future__ import annotations

import hashlib
import json
import logging
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Generic,
    Iterator,
    Optional,
    Protocol,
    TypeVar,
)

from enum import Enum

from .errors import EnsembleError, SgcrError, UnparsableResponse, WireError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

DEFAULT_MAX_OUTPUT_TOKENS = 2048

# Retries per ensemble slot on transport or parse failures, same seed each time.
SLOT_RETRIES = 2

# Model calls in flight at once, per run, across both pathways and patches.
MAX_INFLIGHT = 16


@dataclass(frozen=True)
class ModelRequest:
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


@dataclass(frozen=True)
class ModelResponse:
    """Raw model output plus the identity of the request that produced it."""

    text: str
    backend_id: str
    request_fingerprint: str


@dataclass(frozen=True)
class EnsembleConfig:
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


def canonical_request_json(request: ModelRequest) -> str:
    return json.dumps(canonical_request(request), sort_keys=True, separators=(",", ":"))


def request_fingerprint(request: ModelRequest) -> str:
    return hashlib.sha256(canonical_request_json(request).encode("utf-8")).hexdigest()


class ModelBackend(Protocol):
    """Anything that can answer a ModelRequest with raw text."""

    backend_id: str

    def complete(self, request: ModelRequest) -> str: ...


def generate(backend: ModelBackend, request: ModelRequest) -> ModelResponse:
    """Single-call primitive: dispatch one request via the backend."""
    text = backend.complete(request)
    return ModelResponse(
        text=text,
        backend_id=backend.backend_id,
        request_fingerprint=request_fingerprint(request),
    )


def ensemble_requests(base_request: ModelRequest, config: EnsembleConfig) -> list[ModelRequest]:
    """The n slot requests, differing only in instance_index and seed."""
    return [
        replace(base_request, instance_index=i, seed=config.base_seed + i)
        for i in range(config.n)
    ]


@dataclass
class EnsembleStats:
    """Call accounting for one ensemble invocation."""

    calls: int = 0
    failures: int = 0


T = TypeVar("T")


@contextmanager
def call_pool(workers: int = MAX_INFLIGHT) -> Iterator[Executor]:
    """A bounded pool for model calls: at most MAX_INFLIGHT run at once.

    Only leaf tasks go on it (one ensemble slot, one patch or proposer
    call); no task waits on the pool, so it cannot deadlock. On exit,
    queued tasks are cancelled and the workers joined, so a run that
    raised makes no further calls and leaves no threads behind.
    """
    pool = ThreadPoolExecutor(
        max_workers=max(1, min(workers, MAX_INFLIGHT)), thread_name_prefix="sgcr-call"
    )
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


def use_pool(pool: Optional[Executor], workers: int) -> ContextManager[Executor]:
    """The caller's pool, or a fresh one sized for workers tasks."""
    return nullcontext(pool) if pool is not None else call_pool(workers)


class PooledBackend:
    """A backend whose calls run on a pool, so they count against its cap.

    For the few calls an orchestrating thread makes itself rather than
    through an ensemble.
    """

    def __init__(self, backend: ModelBackend, pool: Executor) -> None:
        self.backend_id = backend.backend_id
        self._backend = backend
        self._pool = pool

    def complete(self, request: ModelRequest) -> str:
        return self._pool.submit(self._backend.complete, request).result()


def _run_slot(
    backend: ModelBackend, request: ModelRequest, parser: Callable[[str], T]
) -> tuple[Optional[T], Optional[SgcrError], int]:
    """One ensemble slot: (parsed value or None, last error, attempts made).

    Attempted up to 1 + SLOT_RETRIES times (same seed) when the transport
    fails or the response does not parse. Other errors, a fixture miss
    among them, are never retried: replay lookups are deterministic.
    """
    last_error: SgcrError = UnparsableResponse("no attempt made")
    for attempt in range(1 + SLOT_RETRIES):
        try:
            return parser(generate(backend, request).text), None, attempt + 1
        except (WireError, UnparsableResponse) as exc:
            last_error = exc
            if attempt < SLOT_RETRIES:
                logger.warning(
                    "slot %d attempt %d failed (%s), retrying",
                    request.instance_index,
                    attempt + 1,
                    exc,
                )
        except SgcrError as exc:
            return None, exc, attempt + 1
    return None, last_error, 1 + SLOT_RETRIES


class PendingEnsemble(Generic[T]):
    """An ensemble whose slots are on a pool; collect() waits for them."""

    def __init__(self, futures: list[Future], config: EnsembleConfig) -> None:
        self._futures = futures
        self._config = config

    def collect(self) -> tuple[list[Optional[T]], EnsembleStats]:
        """Slot results in instance order, absent slots as None.

        Call once: the futures are released, so a run holds no more raw
        slot results than it has yet to collect. Raises EnsembleError past
        the n - quorum failure budget.
        """
        futures, self._futures = self._futures, []
        stats = EnsembleStats()
        results: list[Optional[T]] = []
        errors: list[tuple[int, SgcrError]] = []
        for index, future in enumerate(futures):
            value, error, attempts = future.result()
            stats.calls += attempts
            if error is not None:
                errors.append((index, error))
                stats.failures += 1
                logger.warning("ensemble slot %d absent: %s", index, error)
            results.append(value)
        _check_failure_budget(errors, self._config)
        return results, stats


def submit_ensemble(
    pool: Executor,
    backend: ModelBackend,
    base_request: ModelRequest,
    config: EnsembleConfig,
    parser: Callable[[str], T],
) -> PendingEnsemble[T]:
    """Put the n diversified slots on the pool without waiting for them."""
    return PendingEnsemble(
        [
            pool.submit(_run_slot, backend, request, parser)
            for request in ensemble_requests(base_request, config)
        ],
        config,
    )


def ensemble_parsed(
    backend: ModelBackend,
    base_request: ModelRequest,
    config: EnsembleConfig,
    parser: Callable[[str], T],
) -> tuple[list[Optional[T]], EnsembleStats]:
    """Ensemble dispatch with per-slot parsing and bounded retries.

    Submits every slot to a pool of its own, then collects them: a slot
    that still fails after its retries is marked absent (None). Raises
    EnsembleError past the n - quorum budget.
    """
    with call_pool(config.n) as calls:
        return submit_ensemble(calls, backend, base_request, config, parser).collect()


def _check_failure_budget(errors: list[tuple[int, SgcrError]], config: EnsembleConfig) -> None:
    if len(errors) > config.n - config.quorum:
        detail = "; ".join(f"slot {index}: {exc}" for index, exc in errors)
        raise EnsembleError(
            f"{len(errors)} of {config.n} ensemble calls failed"
            f" (quorum {config.quorum} unreachable): {detail}"
        )
