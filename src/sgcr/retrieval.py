"""Embedding providers and exact top-k cosine retrieval over rule texts.

Retrieval is a linear scan with a full deterministic tie-break (score
descending, then spec id ascending); the library scale this serves is a few
hundred rules, where exactness is cheap and makes oracle testing possible.
Each row's score is the dot product of two unit vectors, clamped to
[-1, 1]: their cosine similarity, taken as one C-level sum of products
(the tests hold a plain cosine as the reference); only the k rows returned
become ScoredSpec objects.

The mock provider hashes character trigrams of the lowercased text into d
buckets (sha256 of the trigram, modulo d), counts them, and L2-normalizes;
texts shorter than three characters count as a single trigram. It is
deterministic across processes and needs no tokenizer or network. Each
provider memoizes the bucket of every distinct trigram it has met, keyed by
the trigram's three code points as a tuple, so a run (one provider) hashes
each distinct trigram once, not once per occurrence. Forming the trigrams
(zip over the text), looking them up (map over the memo) and counting the
bucket hits (Counter) all run in C; Python runs once per trigram not yet
met and once per distinct bucket hit, at most d times per text. The counts
are small integers, so every float sum is exact and the vectors do not
depend on the order of counting.

The http provider, HttpEmbeddingProvider, is in wire with the rest of
the HTTP wire protocol.

A built index stores, beside each vector, the sha256 of the rule text it
embedded (title + body); load_index rejects an index whose digests do not
match the library, so an edited rule is never served a stale vector.

On disk an index is JSON holding, per rule, its id, that digest and its
vector as base64 of the little-endian IEEE 754 doubles
(``struct.pack("<{d}d", ...)``). The bytes are the floats themselves, so a
loaded index scores exactly as the built one did, and loading parses no
decimal numbers. Indexes written with decimal vectors are rejected with a
hint to rebuild them.
"""

from __future__ import annotations

import binascii
import hashlib
import heapq
import json
import logging
import math
import operator
import struct
from collections import Counter
from itertools import repeat
from pathlib import Path
from typing import Protocol

from .errors import DimensionMismatch, EmptyText, IndexLibraryMismatch, QueryDimensionMismatch
from .files import write_text_atomic
from .gateway import attempt_call
from .specs import SpecLibrary, Specification
from .types import Value, value_class

logger = logging.getLogger(__name__)

DEFAULT_MOCK_DIMENSION = 64
DEFAULT_TOP_K = 5
DEFAULT_SCORE_THRESHOLD = 0.35

# Ends every message that rejects a persisted index.
REBUILD_HINT = "rebuild it with `sgcr specs index`"


@value_class
class EmbeddingVector(Value):
    """Unit-norm vector of fixed dimension."""

    values: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)


def normalize(values: list[float]) -> EmbeddingVector:
    norm = math.sqrt(sum(map(operator.mul, values, values)))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return EmbeddingVector(tuple(map(operator.truediv, values, repeat(norm))))


class EmbeddingProvider(Protocol):
    provider_id: str
    dimension: int

    def embed(self, text: str) -> list[float]: ...

    def close(self) -> None: ...


class MockEmbeddingProvider:
    """Trigram-count embeddings; see the module docstring for the rule."""

    provider_id = "mock"

    def __init__(self, dimension: int = DEFAULT_MOCK_DIMENSION) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._buckets = _BucketMemo(dimension)

    def close(self) -> None:
        """Nothing to release."""

    def embed(self, text: str) -> list[float]:
        lowered = text.lower()
        if len(lowered) >= 3:
            grams = zip(lowered, lowered[1:], lowered[2:])
        else:
            grams = ((lowered,),)
        counts = [0.0] * self.dimension
        for bucket, hits in Counter(map(self._buckets.__getitem__, grams)).items():
            counts[bucket] += hits
        return counts


class _BucketMemo(dict):
    """Trigram code points -> trigram_bucket of their string, filled on a miss.

    Pool threads share it without the lock: a bucket is a pure function of
    its key, so two threads missing the same key at once only compute the
    same bucket twice, and a single dict read or write is atomic. A text
    shorter than three code points is looked up as a 1-tuple, which no
    trigram key equals.
    """

    def __init__(self, dimension: int) -> None:
        super().__init__()
        self.dimension = dimension

    def __missing__(self, key: tuple[str, ...]) -> int:
        bucket = self[key] = trigram_bucket("".join(key), self.dimension)
        return bucket


def trigram_bucket(gram: str, dimension: int) -> int:
    digest = hashlib.sha256(gram.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimension


def embed_text(provider: EmbeddingProvider, text: str) -> EmbeddingVector:
    """Embed text, retrying the provider's one attempt, and normalize it."""
    if not text:
        raise EmptyText("cannot embed empty text")
    return normalize(attempt_call(lambda: provider.embed(text)))


@value_class
class VectorIndex(Value):
    """Read-only (spec_id, vector) entries in library order.

    digests[i] is rule_digest of the rule entries[i] was embedded from.
    """

    entries: tuple[tuple[str, EmbeddingVector], ...]
    dimension: int
    provider_id: str
    digests: tuple[str, ...] = ()


@value_class
class ScoredSpec(Value):
    """One retrieved rule id and its cosine score."""

    spec_id: str
    score: float


@value_class
class RetrievedSpecSet(Value):
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


def retrieve(
    index: VectorIndex,
    query: EmbeddingVector,
    k: int = DEFAULT_TOP_K,
    threshold: float = DEFAULT_SCORE_THRESHOLD,
) -> RetrievedSpecSet:
    """Exact top-k by cosine score, filtered by score >= threshold.

    Each row scores as its cosine similarity with the query: the products
    of their values summed in order, then clamped to [-1, 1] before the
    threshold test. The query's dimension is checked once; a row of another
    length still raises DimensionMismatch. Rows that pass are ranked as
    (-score, spec_id) tuples, and a ScoredSpec is built only for the k
    returned.
    """
    dimension = query.dimension
    if dimension != index.dimension:
        raise QueryDimensionMismatch(
            f"query dimension {dimension} != index dimension {index.dimension}"
        )
    if k <= 0:
        return RetrievedSpecSet(scored=())
    q = query.values
    kept = []
    for spec_id, vector in index.entries:
        row = vector.values
        if len(row) != dimension:
            raise DimensionMismatch(f"dimensions differ: {dimension} vs {len(row)}")
        score = sum(map(operator.mul, q, row))
        # max(-1.0, min(1.0, score)) spelled out; like it, this makes a
        # NaN score 1.0.
        if not score < 1.0:
            score = 1.0
        elif not score > -1.0:
            score = -1.0
        if score >= threshold:
            kept.append((-score, spec_id))
    top = heapq.nsmallest(k, kept)
    return RetrievedSpecSet(scored=tuple(ScoredSpec(spec_id, -negated) for negated, spec_id in top))


def save_index(index: VectorIndex, path: Path) -> None:
    """Write the index as JSON with packed vectors (module docstring), whole
    or not at all (files.write_text_atomic)."""
    packed = struct.Struct(f"<{index.dimension}d")
    payload = {
        "dimension": index.dimension,
        "provider_id": index.provider_id,
        "entries": [
            {
                "spec_id": spec_id,
                "sha256": digest,
                "vector": binascii.b2a_base64(packed.pack(*vector.values), newline=False).decode(),
            }
            for (spec_id, vector), digest in zip(index.entries, index.digests, strict=True)
        ],
    }
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")


def load_index(path: Path, library: SpecLibrary) -> VectorIndex:
    """Load a persisted index, validating it against the library.

    The index must hold exactly the library's ids, every vector exactly
    dimension doubles, and for every rule the digest of its current title
    and body; a rule edited since the index was built would otherwise be
    served a stale vector. A vector holding NaN or an infinity is rejected,
    since retrieval would rank it first for every query. An index whose
    vectors are decimal lists, the format before vectors were packed, is
    rejected: rebuild it.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        raw_entries = payload["entries"]
        if any("values" in entry for entry in raw_entries):
            raise IndexLibraryMismatch(
                f"index at {path} stores its vectors as decimal lists, a format"
                f" this version no longer reads; {REBUILD_HINT}"
            )
        dimension = int(payload["dimension"])
        if dimension < 1:
            raise ValueError(f"dimension {dimension}")
        packed = struct.Struct(f"<{dimension}d")
        entries = []
        for entry in raw_entries:
            # Characters outside the base64 alphabet are skipped; what is
            # left must decode to exactly one vector, checked next.
            raw = binascii.a2b_base64(entry["vector"])
            if len(raw) != packed.size:
                raise IndexLibraryMismatch(
                    f"index at {path} holds a vector of {len(raw)} bytes for rule"
                    f" {entry['spec_id']!r}, not {packed.size} (8 x dimension {dimension});"
                    f" {REBUILD_HINT}"
                )
            values = packed.unpack(raw)
            # One C-level sum per row: a NaN or infinite component makes it
            # non-finite, and a unit vector's sum is at most sqrt(dimension).
            if not math.isfinite(sum(values)):
                raise IndexLibraryMismatch(
                    f"index at {path} holds a non-finite vector for rule"
                    f" {entry['spec_id']!r}; {REBUILD_HINT}"
                )
            entries.append((entry["spec_id"], EmbeddingVector(values)))
        index = VectorIndex(
            entries=tuple(entries),
            dimension=dimension,
            provider_id=str(payload["provider_id"]),
            digests=tuple(str(entry.get("sha256", "")) for entry in raw_entries),
        )
    except (ValueError, KeyError, TypeError, struct.error) as exc:
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
