"""Acceptance gate: one test per [PRIMARY] criterion, named test_criterion_N.

Each test exercises the full stated property at its stated scale and time
budget. The terminal summary hook in conftest.py prints one PASS/FAIL line
per criterion after the run.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from conftest import (
    GOLDEN_DIR,
    REPO_ROOT,
    CannedBackend,
    LoggedMockBackend,
    jitter_built_backends,
    make_finding,
    make_library,
    make_review_request,
    make_spec,
    write_spec_file,
)
from diffgen import random_diff_set, render_unified_diff
from sgcr.cli import main
from sgcr.config import RunConfig
from sgcr.errors import HunkCountMismatch
from sgcr.implicit import decide_quorum
from sgcr.ingestion import (
    FileDiff,
    Hunk,
    apply_file_diff,
    build_review_request,
    parse_unified_diff,
)
from sgcr.report import FindingCluster, dedupe, generate_patch, prioritize
from sgcr.retrieval import (
    EmbeddingVector,
    MockEmbeddingProvider,
    ScoredSpec,
    VectorIndex,
    build_index,
    load_index,
    normalize,
    retrieve,
    save_index,
)
from sgcr.specs import load_library, segment_library
from sgcr.types import (
    CATEGORY_RANK,
    SEVERITY_RANK,
    Category,
    Pathway,
    Severity,
    Verdict,
    VerifierVerdict,
)

GOLDEN_ARGV = [
    "review",
    "tests/data/golden/input/Example.java",
    "--specs-dir",
    "sample_specs",
    "--mode",
    "full",
    "--backend",
    "replay",
    "--fixtures",
    "tests/data/golden/fixtures",
    "--chunk-budget",
    "300",
    "--patches",
]


def test_criterion_1_golden_run_is_byte_deterministic(capsys, monkeypatch):
    """Ten replayed runs under randomized scheduling produce identical bytes."""
    fixtures = sorted((GOLDEN_DIR / "fixtures").glob("*.json"))
    by_role: dict[str, list[dict]] = {}
    for path in fixtures:
        request = json.loads(path.read_text(encoding="utf-8"))["request"]
        by_role.setdefault(request["role"], []).append(request)
    reviewer_chunks = {request["prompt"] for request in by_role["explicit_reviewer"]}
    verifier_issues = {request["prompt"] for request in by_role["verifier"]}
    assert len(reviewer_chunks) >= 2, "need at least two rule chunks in the fixture set"
    assert all(
        sorted(
            request["instance_index"]
            for request in by_role["explicit_reviewer"]
            if request["prompt"] == prompt
        )
        == [0, 1, 2]
        for prompt in reviewer_chunks
    )
    assert len(verifier_issues) >= 3, "need at least three verified issues"
    assert all(
        sorted(
            request["instance_index"]
            for request in by_role["verifier"]
            if request["prompt"] == prompt
        )
        == [0, 1, 2]
        for prompt in verifier_issues
    )

    expected = (GOLDEN_DIR / "expected_report.json").read_text(encoding="utf-8")
    monkeypatch.chdir(REPO_ROOT)
    started = time.monotonic()
    for attempt in range(10):
        jitter_built_backends(monkeypatch, 8, attempt)
        assert main(GOLDEN_ARGV) == 0
        out, _ = capsys.readouterr()
        assert out == expected, f"run {attempt} diverged from the frozen report"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"ten golden runs took {elapsed:.2f}s (budget 5s)"


def test_criterion_2_retrieval_matches_brute_force_oracle():
    """1,000 randomized retrievals agree exactly with a full-sort oracle."""
    rng = random.Random(20260817)
    started = time.monotonic()

    def random_unit_vector(dimension):
        while True:
            raw = [rng.uniform(-1.0, 1.0) for _ in range(dimension)]
            if any(value != 0.0 for value in raw):
                return normalize(raw)

    for trial in range(1000):
        if trial == 0:
            size, dimension = 500, 128  # the stated maxima, exercised outright
        elif trial == 1:
            size, dimension = 500, 8
        elif trial == 2:
            size, dimension = 1, 1
        else:
            size = rng.randint(1, 40)
            dimension = rng.randint(2, 32)

        ids = [f"r.{i:03d}" for i in range(size)]
        rng.shuffle(ids)  # id order must not follow insertion order
        vectors: list[EmbeddingVector] = []
        for position in range(size):
            if vectors and rng.random() < 0.4:
                vectors.append(rng.choice(vectors))  # forced score ties
            else:
                vectors.append(random_unit_vector(dimension))
        index = VectorIndex(
            entries=tuple(zip(ids, vectors)), dimension=dimension, provider_id="mock"
        )

        query = rng.choice(vectors) if rng.random() < 0.3 else random_unit_vector(dimension)
        k = rng.choice([0, 1, size // 2, size, size + 3, rng.randint(1, size + 2)])
        threshold = rng.choice([-1.0, 0.35, rng.uniform(-1.0, 1.0), 1.0])

        # Independent oracle: same arithmetic, full sort, then filter + slice.
        oracle = []
        for spec_id, vector in index.entries:
            score = sum(a * b for a, b in zip(query.values, vector.values))
            score = max(-1.0, min(1.0, score))
            oracle.append(ScoredSpec(spec_id=spec_id, score=score))
        oracle.sort(key=lambda item: (-item.score, item.spec_id))
        expected = tuple(item for item in oracle if item.score >= threshold)[: max(k, 0)]

        actual = retrieve(index, query, k=k, threshold=threshold).scored
        assert actual == expected, (
            f"trial {trial}: size={size} d={dimension} k={k} threshold={threshold}"
        )

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"retrieval oracle took {elapsed:.2f}s (budget 30s)"


def test_criterion_3_segmentation_invariants_hold_on_random_libraries():
    """1,000 random libraries segment with zero invariant violations."""
    rng = random.Random(31337)
    for trial in range(1000):
        count = rng.randint(1, 50)
        specs = [
            make_spec(f"r.{i:03d}", tokens=rng.randint(1, 400)) for i in range(count)
        ]
        library = make_library(*specs)
        budget = rng.randint(1, 600)
        chunks = segment_library(library, budget)

        assert [chunk.ordinal for chunk in chunks] == list(range(len(chunks)))
        flattened = [spec_id for chunk in chunks for spec_id in chunk.spec_ids]
        assert flattened == list(library.ids()), f"trial {trial}: not a partition in order"

        estimates = {spec.id: spec.token_estimate for spec in specs}
        for chunk in chunks:
            assert chunk.spec_ids, f"trial {trial}: empty chunk"
            assert chunk.token_total == sum(estimates[spec_id] for spec_id in chunk.spec_ids)
            assert chunk.token_total <= budget or len(chunk.spec_ids) == 1, (
                f"trial {trial}: over-budget chunk that is not an oversize singleton"
            )
        for current, following in zip(chunks, chunks[1:]):
            first_next = estimates[following.spec_ids[0]]
            assert current.token_total + first_next > budget, (
                f"trial {trial}: chunk {current.ordinal} closed early"
            )


def test_criterion_4_quorum_truth_table_and_monotonicity():
    """Exhaustive verdict combinations for n <= 5 match the counting rule."""
    symbols = (
        None,  # absent slot
        VerifierVerdict(verdict=Verdict.VALID),
        VerifierVerdict(verdict=Verdict.INVALID),
        VerifierVerdict(verdict=Verdict.UNCERTAIN),
    )
    for n in range(1, 6):
        for combo in itertools.product(symbols, repeat=n):
            valid = sum(
                1 for verdict in combo
                if verdict is not None and verdict.verdict is Verdict.VALID
            )
            for quorum in range(1, n + 1):
                expected = valid >= quorum
                assert decide_quorum(combo, quorum) is expected

                if expected:
                    # Upgrading any slot to VALID never revokes acceptance.
                    for position in range(n):
                        upgraded = list(combo)
                        upgraded[position] = VerifierVerdict(verdict=Verdict.VALID)
                        assert decide_quorum(upgraded, quorum) is True


def _random_finding(rng):
    words = ["query", "buffer", "null", "loop", "name", "log", "index", "cast", "lock", "retry"]
    start = rng.randint(1, 15)
    return make_finding(
        file=rng.choice(["a.java", "b.java"]),
        start=start,
        end=start + rng.randint(0, 3),
        description=" ".join(rng.choices(words, k=rng.randint(3, 6))),
        severity=rng.choice(list(Severity)),
        pathway=rng.choice(list(Pathway)),
        category=rng.choice(list(Category)),
        confidence=rng.choice([0.25, 0.5, 0.75, 1.0]),
        spec_ids=tuple(sorted(rng.sample(["r.x", "r.y", "r.z"], rng.randint(0, 2)))),
    )


def _priority_key(cluster):
    representative = cluster.representative
    return (
        SEVERITY_RANK[representative.severity],
        CATEGORY_RANK[representative.category],
        -representative.confidence,
        representative.sort_key(),
    )


def test_criterion_5_dedupe_and_prioritize_properties():
    """Idempotence, permutation invariance, and total order on 1,000 random sets."""
    rng = random.Random(4242)
    for trial in range(1000):
        findings = [_random_finding(rng) for _ in range(rng.randint(2, 10))]

        clusters = prioritize(dedupe(findings))
        assert prioritize(clusters) == clusters, f"trial {trial}: prioritize not idempotent"
        assert sum(len(cluster.members) for cluster in clusters) == len(findings)

        representatives = [cluster.representative for cluster in clusters]
        again = prioritize(dedupe(representatives))
        assert [cluster.representative for cluster in again] == representatives, (
            f"trial {trial}: dedupe not idempotent on representatives"
        )

        shuffled = findings[:]
        rng.shuffle(shuffled)
        reshuffled = prioritize(dedupe(shuffled))
        assert [c.representative for c in reshuffled] == representatives, (
            f"trial {trial}: order of input changed the output"
        )

        keys = [_priority_key(cluster) for cluster in clusters]
        assert keys == sorted(keys), f"trial {trial}: priority order violated"

    # Category rank is part of the contract: security outranks style outright.
    style = FindingCluster(
        representative=make_finding(
            start=1, description="brace style drifts", category=Category.STYLE
        ),
        members=(),
        pathways=("explicit",),
    )
    security = FindingCluster(
        representative=make_finding(
            start=9, description="injection reachable", category=Category.SECURITY
        ),
        members=(),
        pathways=("explicit",),
    )
    assert prioritize([style, security])[0] is security


def test_criterion_6_modes_call_only_their_own_roles(monkeypatch):
    """Call-log isolation per mode; rule text never leaks into discovery prompts."""
    sentinel = "xyzzy_sentinel_rule_token"
    rules = Path.cwd() / "tmp_sentinel_rules"
    import shutil

    shutil.rmtree(rules, ignore_errors=True)
    try:
        write_spec_file(rules, "sec.alpha", category="security", severity="high", body=f"Rule body {sentinel} one.")
        write_spec_file(rules, "style.beta", body=f"Rule body {sentinel} two.")

        provider_builds: list[str] = []
        from sgcr import pipeline as pipeline_module

        real_build_provider = pipeline_module.build_provider

        def counting_build_provider(config):
            provider_builds.append(config.mode)
            return real_build_provider(config)

        monkeypatch.setattr(pipeline_module, "build_provider", counting_build_provider)

        def run_mode(mode):
            backend = LoggedMockBackend()
            config = RunConfig(
                mode=mode,
                specs_dir=str(rules),
                score_threshold=-1.0,
                implicit_soft_fail=False,
            )
            pipeline_module.run_review(config, make_review_request(), backend=backend)
            return backend

        baseline = run_mode("baseline")
        assert len(baseline.call_log) == 1
        assert baseline.call_log[0].role == "explicit_reviewer"
        assert sentinel not in baseline.call_log[0].prompt
        assert provider_builds == []

        explicit = run_mode("explicit_only")
        assert {request.role for request in explicit.call_log} == {"explicit_reviewer"}
        assert all(sentinel in request.prompt for request in explicit.call_log)
        assert provider_builds == []

        implicit = run_mode("implicit_only")
        implicit_roles = {request.role for request in implicit.call_log}
        assert "explicit_reviewer" not in implicit_roles
        assert "proposer" in implicit_roles and "verifier" in implicit_roles
        assert all(
            sentinel not in request.prompt
            for request in implicit.call_log
            if request.role == "proposer"
        )
        assert provider_builds == ["implicit_only"]

        full = run_mode("full")
        full_roles = {request.role for request in full.call_log}
        assert full_roles == {"explicit_reviewer", "proposer", "verifier"}
        assert all(
            sentinel not in request.prompt
            for request in full.call_log
            if request.role == "proposer"
        )
        assert full.calls_for_role("explicit_reviewer") == 3
        assert full.calls_for_role("proposer") == 1
        assert provider_builds == ["implicit_only", "full"]
    finally:
        shutil.rmtree(rules, ignore_errors=True)


def test_criterion_7_diff_round_trips():
    """500 random diff sets survive render -> parse; hand-traced cases hold."""
    assert parse_unified_diff("") == []

    insertion = (
        "--- a/f\n+++ b/f\n@@ -1,4 +1,5 @@\n alpha\n bravo\n+charlie\n delta\n echo\n"
    )
    assert parse_unified_diff(insertion) == [
        FileDiff(
            path="f",
            hunks=(
                Hunk(
                    1,
                    4,
                    1,
                    5,
                    (
                        ("context", "alpha"),
                        ("context", "bravo"),
                        ("added", "charlie"),
                        ("context", "delta"),
                        ("context", "echo"),
                    ),
                ),
            ),
        )
    ]

    with pytest.raises(HunkCountMismatch):
        parse_unified_diff("--- /dev/null\n+++ b/new.txt\n@@ -0,0 +1,3 @@\n+a\n+b\n")

    rng = random.Random(777)
    for trial in range(500):
        diffs = random_diff_set(rng)
        rendered = render_unified_diff(diffs)
        assert parse_unified_diff(rendered) == diffs, f"trial {trial} did not round-trip"


def test_criterion_8_golden_patches_are_safe():
    """Attached patches parse, cite rules, and apply; corrupted diffs are dropped."""
    payload = json.loads(
        (GOLDEN_DIR / "expected_report.json").read_text(encoding="utf-8")
    )
    library = load_library(REPO_ROOT / "sample_specs")
    known = set(library.ids())
    request = build_review_request(paths=[GOLDEN_DIR / "input" / "Example.java"])

    attached = [entry for entry in payload["clusters"] if entry["patch"] is not None]
    dropped = [entry for entry in payload["clusters"] if entry["patch"] is None]
    assert len(attached) == 1, "golden scenario attaches exactly one validated patch"
    assert len(dropped) == 2, "both corrupted patches must have been dropped"
    assert payload["stats"]["patches"] == {
        "attached": 1,
        "attempted": 3,
        "skipped_uncited": 0,
    }

    for entry in attached:
        patch = entry["patch"]
        assert patch["constrained_by"], "patches must cite the rules that constrain them"
        assert set(patch["constrained_by"]) <= known
        diffs = parse_unified_diff(patch["unified_diff"])
        assert len(diffs) == 1 and diffs[0].hunks
        unit = request.units[0]
        patched = apply_file_diff(unit.content, diffs[0])
        assert patched != unit.content, "an applied patch must change the snippet"

    # The drop behavior itself, reproduced live with a corrupted diff.
    library_small = make_library(make_spec("sec.input"))
    cluster = FindingCluster(
        representative=make_finding(
            start=2,
            description="field mutation is not thread safe",
            spec_ids=("sec.input",),
        ),
        members=(),
        pathways=("explicit",),
    )
    corrupted = json.dumps(
        {
            "patch_unified_diff": (
                "--- a/src/Main.java\n+++ b/src/Main.java\n"
                "@@ -2,1 +2,1 @@\n-    not the real line;\n+    private int value;\n"
            ),
            "explanation": "will not apply",
        }
    )
    backend = CannedBackend({"patch_generator": corrupted})
    assert generate_patch(cluster, make_review_request(), library_small, backend) is None


def test_criterion_9_sample_corpus_supports_the_pipeline(capsys, monkeypatch, tmp_path):
    """The shipped 12-rule corpus covers the taxonomy and drives a full run."""
    library = load_library(REPO_ROOT / "sample_specs")
    assert len(library.specs) == 12
    assert {spec.category for spec in library.specs} == set(Category)
    assert {spec.severity for spec in library.specs} == set(Severity)

    monkeypatch.chdir(REPO_ROOT)
    assert main(["specs", "validate", "--specs-dir", "sample_specs"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[-1] == "12 specifications OK"

    index_path = tmp_path / "sample.index.json"
    assert main(
        ["specs", "index", "--specs-dir", "sample_specs", "--output", str(index_path)]
    ) == 0
    capsys.readouterr()
    loaded = load_index(index_path, library)
    assert len(loaded.entries) == 12

    rebuilt = build_index(library, MockEmbeddingProvider())
    assert loaded == rebuilt

    round_trip = tmp_path / "again.index.json"
    save_index(loaded, round_trip)
    assert load_index(round_trip, library) == loaded

    code = main(
        [
            "review",
            "tests/data/golden/input/Example.java",
            "--specs-dir",
            "sample_specs",
            "--mode",
            "full",
            "--patches",
            "--index",
            str(index_path),
        ]
    )
    assert code == 0
    out, _ = capsys.readouterr()
    report = json.loads(out)
    assert set(report) == {"schema_version", "summary", "stats", "clusters"}
    assert report["stats"]["counts"]["total"] == len(report["clusters"])
    assert report["stats"]["mode"] == "full"
