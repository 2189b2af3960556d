"""Embedding providers and exact top-k cosine retrieval over rule texts.

Retrieval is a linear scan with a full deterministic tie-break (score
descending, then spec id ascending); the library scale this serves is a few
hundred rules, where exactness is cheap and makes oracle testing possible.

The mock provider hashes character trigrams of the lowercased text into d
buckets (sha256 of the trigram, modulo d), counts them, and L2-normalizes;
texts shorter than three characters count as a single trigram. It is
deterministic across processes and needs no tokenizer or network. Each
provider memoizes the bucket of every distinct trigram it has met, so a run
(one provider) hashes each distinct trigram once, not once per occurrence.

A built index stores, beside each vector, the sha256 of the rule text it
embedded (title + body); load_index rejects an index whose digests do not
match the library, so an edited rule is never served a stale vector.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol

from .errors import (
    DimensionMismatch,
    EmptyText,
    IndexLibraryMismatch,
    MalformedWireResponse,
    QueryDimensionMismatch,
    WireError,
)
from .gateway import http_session
from .specs import SpecLibrary, Specification

logger = logging.getLogger(__name__)

DEFAULT_MOCK_DIMENSION = 64
DEFAULT_TOP_K = 5
DEFAULT_SCORE_THRESHOLD = 0.35

# Ends every message that rejects a persisted index.
REBUILD_HINT = "rebuild it with `sgcr specs index`"


@dataclass(frozen=True)
class EmbeddingVector:
    """Unit-norm vector of fixed dimension."""

    values: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)


def normalize(values: list[float]) -> EmbeddingVector:
    norm = math.sqrt(sum(value * value for value in values))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return EmbeddingVector(tuple(value / norm for value in values))


class EmbeddingProvider(Protocol):
    provider_id: str
    dimension: int

    def embed(self, text: str) -> list[float]: ...


class MockEmbeddingProvider:
    """Trigram-count embeddings; see the module docstring for the rule."""

    provider_id = "mock"

    def __init__(self, dimension: int = DEFAULT_MOCK_DIMENSION) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.call_log: list[str] = []
        self._lock = threading.Lock()
        # gram -> trigram_bucket(gram, dimension), filled as grams are met.
        # Pool threads share it without the lock: each slot's value is a
        # pure function of its key, so a race can only compute the same
        # bucket twice, and a single dict read or write is atomic.
        self._buckets: dict[str, int] = {}

    def embed(self, text: str) -> list[float]:
        with self._lock:
            self.call_log.append(text)
        lowered = text.lower()
        if len(lowered) >= 3:
            grams = Counter([lowered[i : i + 3] for i in range(len(lowered) - 2)])
        else:
            grams = Counter([lowered])
        counts = [0.0] * self.dimension
        buckets = self._buckets
        for gram, count in grams.items():
            bucket = buckets.get(gram)
            if bucket is None:
                bucket = buckets[gram] = trigram_bucket(gram, self.dimension)
            counts[bucket] += count
        return counts


def trigram_bucket(gram: str, dimension: int) -> int:
    digest = hashlib.sha256(gram.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimension


class HttpEmbeddingProvider:
    """OpenAI-style /v1/embeddings endpoint; dimension fixed on first call."""

    provider_id = "http"

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.dimension = 0
        self.call_log: list[str] = []
        self._lock = threading.Lock()
        self._session = http_session()

    def close(self) -> None:
        """Close the pooled connections."""
        self._session.close()

    def embed(self, text: str) -> list[float]:
        import requests

        with self._lock:
            self.call_log.append(text)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            reply = self._session.post(
                f"{self.base_url}/v1/embeddings",
                json={"model": self.model, "input": text},
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise WireError(f"embedding request failed: {exc}") from exc
        if reply.status_code != 200:
            raise WireError(f"embedding endpoint status {reply.status_code}")
        try:
            values = reply.json()["data"][0]["embedding"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedWireResponse(f"bad embedding response: {exc}") from exc
        if not isinstance(values, list) or not values:
            raise MalformedWireResponse("embedding is not a non-empty list")
        with self._lock:
            if self.dimension == 0:
                self.dimension = len(values)
        return [float(value) for value in values]


def embed_text(provider: EmbeddingProvider, text: str) -> EmbeddingVector:
    """Embed text and normalize to unit length."""
    if not text:
        raise EmptyText("cannot embed empty text")
    return normalize(provider.embed(text))


@dataclass(frozen=True)
class VectorIndex:
    """Read-only (spec_id, vector) entries in library order.

    digests[i] is rule_digest of the rule entries[i] was embedded from.
    """

    entries: tuple[tuple[str, EmbeddingVector], ...]
    dimension: int
    provider_id: str
    digests: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScoredSpec:
    spec_id: str
    score: float


@dataclass(frozen=True)
class RetrievedSpecSet:
    """Scored spec ids ordered by score descending, ties by id ascending."""

    scored: tuple[ScoredSpec, ...]

    def __len__(self) -> int:
        return len(self.scored)

    def spec_ids(self) -> tuple[str, ...]:
        return tuple(item.spec_id for item in self.scored)


def rule_digest(spec: Specification) -> str:
    """sha256 of the text a rule is embedded from (title + body)."""
    return hashlib.sha256((spec.title + spec.body).encode("utf-8")).hexdigest()


def build_index(library: SpecLibrary, provider: EmbeddingProvider) -> VectorIndex:
    """Embed title + body of every spec, preserving library order."""
    if not library.specs:
        raise ValueError("cannot index an empty library")
    entries = tuple(
        (spec.id, embed_text(provider, spec.title + spec.body)) for spec in library.specs
    )
    return VectorIndex(
        entries=entries,
        dimension=entries[0][1].dimension,
        provider_id=provider.provider_id,
        digests=tuple(rule_digest(spec) for spec in library.specs),
    )


def cosine_similarity(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """Dot product of unit vectors, clamped to [-1, 1]."""
    if u.dimension != v.dimension:
        raise DimensionMismatch(f"dimensions differ: {u.dimension} vs {v.dimension}")
    score = sum(a * b for a, b in zip(u.values, v.values))
    return max(-1.0, min(1.0, score))


def retrieve(
    index: VectorIndex,
    query: EmbeddingVector,
    k: int = DEFAULT_TOP_K,
    threshold: float = DEFAULT_SCORE_THRESHOLD,
) -> RetrievedSpecSet:
    """Exact top-k by cosine score, filtered by score >= threshold."""
    if query.dimension != index.dimension:
        raise QueryDimensionMismatch(
            f"query dimension {query.dimension} != index dimension {index.dimension}"
        )
    if k <= 0:
        return RetrievedSpecSet(scored=())
    scored = [
        ScoredSpec(spec_id=spec_id, score=cosine_similarity(query, vector))
        for spec_id, vector in index.entries
    ]
    kept = [item for item in scored if item.score >= threshold]
    kept.sort(key=lambda item: (-item.score, item.spec_id))
    return RetrievedSpecSet(scored=tuple(kept[:k]))


def save_index(index: VectorIndex, path: Path) -> None:
    payload = {
        "dimension": index.dimension,
        "provider_id": index.provider_id,
        "entries": [
            {"spec_id": spec_id, "sha256": digest, "values": list(vector.values)}
            for (spec_id, vector), digest in zip(index.entries, index.digests, strict=True)
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_index(path: Path, library: SpecLibrary) -> VectorIndex:
    """Load a persisted index, validating it against the library.

    The index must hold exactly the library's ids, one dimension, and for
    every rule the digest of its current title and body; a rule edited
    since the index was built would otherwise be served a stale vector.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        entries = tuple(
            (entry["spec_id"], EmbeddingVector(tuple(float(v) for v in entry["values"])))
            for entry in payload["entries"]
        )
        index = VectorIndex(
            entries=entries,
            dimension=int(payload["dimension"]),
            provider_id=str(payload["provider_id"]),
            digests=tuple(str(entry.get("sha256", "")) for entry in payload["entries"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise IndexLibraryMismatch(
            f"index at {path} is not an index file ({exc!r}); {REBUILD_HINT}"
        ) from exc
    index_ids = {spec_id for spec_id, _ in entries}
    library_ids = set(library.ids())
    if index_ids != library_ids:
        missing = sorted(library_ids - index_ids)
        extra = sorted(index_ids - library_ids)
        raise IndexLibraryMismatch(
            f"index at {path} does not match library (missing: {missing}, extra: {extra});"
            f" {REBUILD_HINT}"
        )
    for _, vector in entries:
        if vector.dimension != index.dimension:
            raise IndexLibraryMismatch(
                f"index at {path} has inconsistent dimensions; {REBUILD_HINT}"
            )
    current = {spec.id: rule_digest(spec) for spec in library.specs}
    changed = sorted(
        spec_id
        for (spec_id, _), digest in zip(entries, index.digests)
        if digest != current[spec_id]
    )
    if changed:
        raise IndexLibraryMismatch(
            f"index at {path} does not hold the current contents of rule(s) {changed};"
            f" {REBUILD_HINT}"
        )
    return index
