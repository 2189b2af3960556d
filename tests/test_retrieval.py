"""Embedding, indexing, and exact top-k retrieval."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import operator
import random
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import REPO_ROOT, LoggedMockEmbeddingProvider, make_library, make_spec
from sgcr.errors import (
    DimensionMismatch,
    EmptyText,
    IndexLibraryMismatch,
    QueryDimensionMismatch,
)
from sgcr.retrieval import (
    DEFAULT_MOCK_DIMENSION,
    REBUILD_HINT,
    EmbeddingVector,
    MockEmbeddingProvider,
    ScoredSpec,
    VectorIndex,
    build_index,
    embed_text,
    load_index,
    normalize,
    retrieve,
    rule_digest,
    save_index,
    trigram_bucket,
)
from sgcr.specs import load_library


def cosine_similarity(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """Dot product of unit vectors, clamped to [-1, 1]: the reference that
    retrieve's scores must equal bit for bit."""
    if u.dimension != v.dimension:
        raise DimensionMismatch(f"dimensions differ: {u.dimension} vs {v.dimension}")
    score = sum(map(operator.mul, u.values, v.values))
    return max(-1.0, min(1.0, score))


def test_trigram_bucket_is_deterministic_and_in_range():
    for gram in ("aaa", "abc", "zzz", "0x!"):
        bucket = trigram_bucket(gram, 64)
        assert bucket == trigram_bucket(gram, 64)
        assert 0 <= bucket < 64
    assert trigram_bucket("aaa", 1) == 0


def test_mock_embedding_repeated_trigram_counts():
    provider = MockEmbeddingProvider(dimension=64)
    raw = provider.embed("aaaa")
    bucket = trigram_bucket("aaa", 64)
    assert raw[bucket] == 2.0
    assert sum(raw) == 2.0
    unit = embed_text(provider, "aaaa")
    assert unit.values[bucket] == pytest.approx(1.0)


def test_mock_embedding_short_text_uses_a_single_gram():
    provider = MockEmbeddingProvider(dimension=16)
    raw = provider.embed("ab")
    assert raw[trigram_bucket("ab", 16)] == 1.0
    assert sum(raw) == 1.0


def test_mock_embedding_lowercases_and_logs():
    provider = LoggedMockEmbeddingProvider(dimension=32)
    assert provider.embed("ABCdef") == provider.embed("abcdef")
    assert provider.call_log == ["ABCdef", "abcdef"]


def _per_trigram_reference(text: str, dimension: int) -> list[float]:
    """The embedding rule spelled out: one sha256 per trigram occurrence."""
    lowered = text.lower()
    if len(lowered) >= 3:
        grams = [lowered[i : i + 3] for i in range(len(lowered) - 2)]
    else:
        grams = [lowered]
    counts = [0.0] * dimension
    for gram in grams:
        digest = hashlib.sha256(gram.encode("utf-8")).digest()
        counts[int.from_bytes(digest[:8], "big") % dimension] += 1.0
    return counts


def _oracle_texts() -> list[str]:
    rng = random.Random(11)
    # "İ" lowercases to two code points, so lowering changes the length and
    # grams must be cut from the lowered text.
    alphabet = "abcAB \tİẞßΣσ中é"
    texts = ["", "a", "Z", "İ", "ab", "İİ", "aaa", "aaaa", "abcabcabc", "AbCaBc" * 9]
    for _ in range(200):
        length = rng.choice((0, 1, 2, 3, 4, rng.randint(5, 120)))
        texts.append("".join(rng.choice(alphabet) for _ in range(length)))
    return texts


def test_mock_embedding_matches_the_per_trigram_reference_on_random_texts():
    texts = _oracle_texts()
    for dimension in (1, 7, 64):
        expected = {text: _per_trigram_reference(text, dimension) for text in texts}
        provider = MockEmbeddingProvider(dimension=dimension)
        for round_seed in range(3):
            order = list(texts)
            random.Random(round_seed).shuffle(order)
            assert [provider.embed(text) for text in order] == [expected[t] for t in order]

    # One provider shared by more threads than cores gives the serial result.
    serial = [_per_trigram_reference(text, 64) for text in texts]
    shared = MockEmbeddingProvider(dimension=64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as workers:
            futures = [
                workers.submit(lambda: [shared.embed(text) for text in texts])
                for _ in range(8)
            ]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 8


def _normalize_reference(values: list[float]) -> tuple[float, ...]:
    """normalize spelled out with generator expressions."""
    norm = math.sqrt(sum(value * value for value in values))
    return tuple(value / norm for value in values)


def _hex(values) -> list[str]:
    return [float.hex(value) for value in values]


@pytest.mark.parametrize("values", [[0.0], [0.0, -0.0, 0.0]])
def test_normalize_refuses_a_zero_vector(values):
    with pytest.raises(ValueError, match="zero vector"):
        normalize(values)


def test_mock_embedding_and_normalize_match_the_references_bit_for_bit():
    # Astral code points, CRLF, tabs, combining marks and "İ" (two code
    # points once lowered), at lengths from 0 to 5,000.
    alphabet = ["a", "B", " ", "\t", "\r\n", "😀", "𝔘", "e\u0301", "\u0300", "İ", "Σ", "ẞ"]
    rng = random.Random(29)
    texts = ["😀𝔘", "😀", "\r\n", "a\r\nb", "\t\t\t", "e\u0301", "İ", "xİ", "x" * 5000]
    for length in (0, 1, 2, 3, 4, 5, 31, 400, 1800, 5000):
        texts.append("".join(rng.choice(alphabet) for _ in range(length))[:length])
    for dimension in (1, 7, 64, 300):
        provider = MockEmbeddingProvider(dimension=dimension)
        for text in texts:
            raw = provider.embed(text)
            assert raw == _per_trigram_reference(text, dimension)
            assert _hex(normalize(raw).values) == _hex(_normalize_reference(raw))

    library = load_library(REPO_ROOT / "sample_specs")
    for dimension in (1, 7, 64, 300):
        index = build_index(library, MockEmbeddingProvider(dimension=dimension))
        for spec, (spec_id, vector) in zip(library.specs, index.entries, strict=True):
            assert spec_id == spec.id
            expected = _normalize_reference(
                _per_trigram_reference(spec.title + spec.body, dimension)
            )
            assert _hex(vector.values) == _hex(expected)


def test_mock_provider_rejects_bad_dimension():
    with pytest.raises(ValueError):
        MockEmbeddingProvider(dimension=0)


def test_embed_text_rejects_empty_and_normalizes():
    provider = MockEmbeddingProvider(dimension=8)
    with pytest.raises(EmptyText):
        embed_text(provider, "")
    vector = embed_text(provider, "select username from accounts")
    norm = math.sqrt(sum(value * value for value in vector.values))
    assert norm == pytest.approx(1.0)


def test_cosine_similarity_examples():
    half = 1.0 / math.sqrt(2.0)
    u = EmbeddingVector((1.0, 0.0, 0.0))
    v = EmbeddingVector((half, half, 0.0))
    assert cosine_similarity(u, v) == pytest.approx(0.7071, abs=1e-4)
    assert cosine_similarity(u, u) == 1.0
    assert cosine_similarity(u, EmbeddingVector((0.0, 1.0, 0.0))) == 0.0
    assert cosine_similarity(u, EmbeddingVector((-1.0, 0.0, 0.0))) == -1.0


def test_cosine_similarity_clamps_and_checks_dimension():
    # Not unit-norm on purpose: the raw dot product exceeds 1.
    assert cosine_similarity(EmbeddingVector((2.0,)), EmbeddingVector((1.0,))) == 1.0
    assert cosine_similarity(EmbeddingVector((-2.0,)), EmbeddingVector((1.0,))) == -1.0
    with pytest.raises(DimensionMismatch):
        cosine_similarity(EmbeddingVector((1.0,)), EmbeddingVector((1.0, 0.0)))


def _index_from_vectors(pairs):
    entries = tuple((spec_id, EmbeddingVector(tuple(values))) for spec_id, values in pairs)
    return VectorIndex(entries=entries, dimension=len(pairs[0][1]), provider_id="mock")


def test_retrieve_orders_by_score_then_id():
    index = _index_from_vectors(
        [
            ("r.low", (0.0, 1.0)),
            ("r.b", (1.0, 0.0)),
            ("r.a", (1.0, 0.0)),
        ]
    )
    query = EmbeddingVector((1.0, 0.0))
    result = retrieve(index, query, k=5, threshold=-1.0)
    assert result.spec_ids() == ("r.a", "r.b", "r.low")
    assert result.scored[0].score == result.scored[1].score == 1.0


def test_retrieve_threshold_is_inclusive_and_k_truncates():
    half = 1.0 / math.sqrt(2.0)
    index = _index_from_vectors(
        [
            ("r.exact", (half, half)),
            ("r.off", (0.0, 1.0)),
            ("r.on", (1.0, 0.0)),
        ]
    )
    query = EmbeddingVector((1.0, 0.0))
    kept = retrieve(index, query, k=5, threshold=cosine_similarity(query, index.entries[0][1]))
    assert kept.spec_ids() == ("r.on", "r.exact")
    top_one = retrieve(index, query, k=1, threshold=-1.0)
    assert top_one.spec_ids() == ("r.on",)
    assert retrieve(index, query, k=0, threshold=-1.0).spec_ids() == ()
    assert len(retrieve(index, query, k=-3, threshold=-1.0)) == 0


def test_retrieve_rejects_query_dimension_mismatch():
    index = _index_from_vectors([("r.one", (1.0, 0.0))])
    with pytest.raises(QueryDimensionMismatch):
        retrieve(index, EmbeddingVector((1.0, 0.0, 0.0)))


def test_build_index_preserves_library_order_and_embeds_title_plus_body():
    library = make_library(
        make_spec("sec.z-rule", body="validate every input"),
        make_spec("arch.a-rule", body="keep modules small"),
    )
    provider = LoggedMockEmbeddingProvider(dimension=32)
    index = build_index(library, provider)
    assert [spec_id for spec_id, _ in index.entries] == [spec.id for spec in library.specs]
    assert provider.call_log == [spec.title + spec.body for spec in library.specs]
    assert index.dimension == 32
    assert index.provider_id == "mock"


def test_build_index_rejects_empty_library():
    from sgcr.specs import SpecLibrary

    with pytest.raises(ValueError):
        build_index(SpecLibrary(specs=()), MockEmbeddingProvider())


def test_save_load_round_trip(tmp_path):
    library = make_library(
        make_spec("r.one", body="first body"),
        make_spec("r.two", body="second body"),
    )
    index = build_index(library, MockEmbeddingProvider(dimension=16))
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path, library)
    assert loaded == index


def test_save_load_round_trips_every_bit_through_packed_vectors(tmp_path):
    library = make_library(make_spec("r.one"), make_spec("r.two"))
    values = [(5e-324, -0.0, 1 / 3, 1e308), (-5e-324, 0.0, -1 / 3, -1e308)]
    index = VectorIndex(
        entries=tuple(
            (spec.id, EmbeddingVector(vector)) for spec, vector in zip(library.specs, values)
        ),
        dimension=4,
        provider_id="mock",
        digests=tuple(rule_digest(spec) for spec in library.specs),
    )
    path = tmp_path / "index.json"
    save_index(index, path)

    stored = json.loads(path.read_text(encoding="utf-8"))["entries"]
    assert [struct.unpack("<4d", base64.b64decode(entry["vector"])) for entry in stored] == values
    loaded = load_index(path, library)
    assert loaded == index
    bits = lambda i: [[value.hex() for value in vector.values] for _, vector in i.entries]
    assert bits(loaded) == bits(index)  # tells -0.0 from 0.0, which == does not


def test_load_index_rejects_decimal_vectors_and_packed_vectors_of_the_wrong_length(tmp_path):
    library = make_library(make_spec("r.one"), make_spec("r.two"))
    index = build_index(library, MockEmbeddingProvider(dimension=3))
    path = tmp_path / "index.json"
    save_index(index, path)
    payload = json.loads(path.read_text(encoding="utf-8"))

    decimal = json.loads(json.dumps(payload))
    for entry, (_, vector) in zip(decimal["entries"], index.entries):
        del entry["vector"]
        entry["values"] = list(vector.values)
    path.write_text(json.dumps(decimal), encoding="utf-8")
    with pytest.raises(IndexLibraryMismatch, match="decimal") as excinfo:
        load_index(path, library)
    assert str(excinfo.value).endswith(REBUILD_HINT)

    for size in (2, 4):
        short = json.loads(json.dumps(payload))
        vector = struct.pack(f"<{size}d", *[0.5] * size)
        short["entries"][1]["vector"] = base64.b64encode(vector).decode()
        path.write_text(json.dumps(short), encoding="utf-8")
        complaint = f"{8 * size} bytes for rule 'r.two'"
        with pytest.raises(IndexLibraryMismatch, match=complaint) as excinfo:
            load_index(path, library)
        assert str(excinfo.value).endswith(REBUILD_HINT)


@pytest.mark.parametrize(
    "values",
    [
        (math.nan,) * 3,
        (math.inf,) * 3,
        (0.5, -math.inf, 0.5),
        (math.inf, -math.inf, 0.0),
        (0.6, math.nan, 0.8),
    ],
    ids=["nan", "inf", "minus-inf", "both-infs", "one-nan"],
)
def test_load_index_rejects_non_finite_vectors(tmp_path, values):
    library = make_library(make_spec("r.one"), make_spec("r.two"), make_spec("r.three"))
    path = tmp_path / "index.json"
    save_index(build_index(library, MockEmbeddingProvider(dimension=3)), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["entries"][1]["vector"] = base64.b64encode(struct.pack("<3d", *values)).decode()
    path.write_text(json.dumps(payload), encoding="utf-8")

    with pytest.raises(IndexLibraryMismatch, match="non-finite vector for rule 'r.two'") as excinfo:
        load_index(path, library)
    assert str(excinfo.value).endswith(REBUILD_HINT)


def test_load_index_rejects_library_mismatch(tmp_path):
    library = make_library(make_spec("r.one"), make_spec("r.two"))
    index = build_index(library, MockEmbeddingProvider(dimension=16))
    path = tmp_path / "index.json"
    save_index(index, path)
    smaller = make_library(make_spec("r.one"))
    with pytest.raises(IndexLibraryMismatch) as excinfo:
        load_index(path, smaller)
    assert "extra: ['r.two']" in str(excinfo.value)


def test_load_index_rejects_edited_rules_and_missing_digests(tmp_path):
    library = make_library(make_spec("r.one"), make_spec("r.two"), make_spec("r.three"))
    path = tmp_path / "index.json"
    save_index(build_index(library, MockEmbeddingProvider(dimension=16)), path)

    edited = make_library(
        make_spec("r.one"),
        make_spec("r.two", body="an edited body"),
        make_spec("r.three", title="An edited title"),
    )
    with pytest.raises(IndexLibraryMismatch) as excinfo:
        load_index(path, edited)
    assert "['r.three', 'r.two']" in str(excinfo.value)
    assert "sgcr specs index" in str(excinfo.value)

    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["entries"][0]["sha256"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IndexLibraryMismatch) as excinfo:
        load_index(path, library)
    assert "['r.one']" in str(excinfo.value)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"entries": [7]}',
        '{"entries": []}',
        '{"entries": [{"spec_id": "r.one", "vector": "AAA"}], "dimension": 1, "provider_id": "m"}',
        '{"entries": [], "dimension": 0, "provider_id": "mock"}',
        '{"entries": [], "dimension": -1, "provider_id": "mock"}',
    ],
)
def test_load_index_rejects_a_file_that_is_not_an_index(tmp_path, text):
    path = tmp_path / "index.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(IndexLibraryMismatch, match="is not an index file"):
        load_index(path, make_library(make_spec("r.one")))


def test_retrieve_matches_brute_force_on_small_random_cases():
    rng = random.Random(7)
    words = ["query", "filter", "stream", "token", "buffer", "cache", "select", "index"]
    provider = MockEmbeddingProvider(dimension=24)
    for _ in range(50):
        size = rng.randint(1, 12)
        pairs = []
        for i in range(size):
            text = " ".join(rng.choices(words, k=rng.randint(1, 5)))
            pairs.append((f"r.{i:02d}", embed_text(provider, text).values))
        index = _index_from_vectors(pairs)
        query = embed_text(provider, " ".join(rng.choices(words, k=3)))
        k = rng.randint(0, size + 2)
        threshold = rng.uniform(-0.2, 0.9)

        def score(vector):
            # The generator-expression dot product, apart from cosine_similarity.
            return max(-1.0, min(1.0, sum(a * b for a, b in zip(query.values, vector.values))))

        oracle = sorted(
            (
                ScoredSpec(spec_id=spec_id, score=score(vector))
                for spec_id, vector in index.entries
            ),
            key=lambda item: (-item.score, item.spec_id),
        )
        oracle = [item for item in oracle if item.score >= threshold][: max(k, 0)]
        assert retrieve(index, query, k=k, threshold=threshold).scored == tuple(oracle)


def test_retrieve_scores_every_row_as_cosine_similarity_does_bit_for_bit():
    rng = random.Random(20261018)

    def vector(dimension):
        # Not unit-norm on purpose: many dot products leave [-1, 1] and are
        # clamped; a NaN component makes a NaN product, which clamps to 1.0.
        values = [rng.uniform(-1.5, 1.5) for _ in range(dimension)]
        if rng.random() < 0.03:
            values[rng.randrange(dimension)] = math.nan
        return tuple(values)

    clamped = exact_threshold = 0
    for _ in range(400):
        dimension = rng.randint(1, 8)
        rows = [vector(dimension) for _ in range(rng.randint(1, 15))]
        rows += rng.sample(rows, rng.randint(0, len(rows)))  # equal scores, tie-broken by id
        index = _index_from_vectors([(f"r.{i:02d}", row) for i, row in enumerate(rows)])
        query = EmbeddingVector(vector(dimension))
        scores = [(spec_id, cosine_similarity(query, row)) for spec_id, row in index.entries]
        threshold = rng.choice(
            [rng.choice(scores)[1], -1.0, 1.0, rng.uniform(-1.5, 1.5), rng.uniform(1.0, 2.0)]
        )
        k = rng.randint(0, len(rows) + 2)
        oracle = sorted(
            (item for item in scores if item[1] >= threshold), key=lambda item: (-item[1], item[0])
        )[: max(k, 0)]
        scored = retrieve(index, query, k=k, threshold=threshold).scored
        assert [(item.spec_id, item.score.hex()) for item in scored] == [
            (spec_id, score.hex()) for spec_id, score in oracle
        ]
        clamped += any(abs(score) == 1.0 for _, score in scores)
        exact_threshold += any(score == threshold for _, score in oracle)
    assert clamped > 50 and exact_threshold > 50, (clamped, exact_threshold)


@pytest.mark.parametrize("row", [(1.0,), (1.0, 0.0, 0.0, 0.0)], ids=["shorter", "longer"])
def test_retrieve_rejects_an_index_row_of_another_length(row):
    index = VectorIndex(
        entries=(("r.a", EmbeddingVector((1.0, 0.0, 0.0))), ("r.b", EmbeddingVector(row))),
        dimension=3,
        provider_id="mock",
    )
    with pytest.raises(DimensionMismatch) as excinfo:
        retrieve(index, EmbeddingVector((0.0, 1.0, 0.0)), threshold=-1.0)
    assert type(excinfo.value) is DimensionMismatch
    assert str(excinfo.value) == f"dimensions differ: 3 vs {len(row)}"
