"""Rule-grounded review: ensemble, quorum aggregation, synthesis."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from conftest import (
    GOLDEN_DIR,
    REPO_ROOT,
    CannedBackend,
    JitteredBackend,
    LoggedMockBackend,
    findings_json,
    make_finding,
    make_library,
    make_review_request,
    make_spec,
    record_generate,
)
from sgcr.backends import MockBackend
from sgcr.config import RunConfig
from sgcr.errors import InvalidReviewRequest, NoCandidates, NoPartials, WireError
from sgcr.explicit import (
    AggregatedReview,
    CandidateReview,
    aggregate_candidates,
    review_chunk_ensemble,
    review_chunks,
    run_explicit,
    synthesize_partials,
)
from sgcr.gateway import MAX_INFLIGHT, EnsembleConfig, ModelRequest, call_pool, submit_ensemble
from sgcr.ingestion import build_review_request
from sgcr.parsing import parse_findings_response
from sgcr.pipeline import render_report, run_review
from sgcr.specs import SpecChunk, resolve_category, segment_library
from sgcr.types import Category, Pathway, Severity

LIBRARY = make_library(
    make_spec("sec.input", severity=Severity.HIGH, category=Category.SECURITY),
    make_spec("style.naming", severity=Severity.LOW, category=Category.STYLE),
)

ENSEMBLE = EnsembleConfig(n=3, quorum=2, temperature=0.7, base_seed=0)


def _chunk(*spec_ids, ordinal=0):
    return SpecChunk(ordinal=ordinal, spec_ids=tuple(spec_ids), token_total=10)


def test_resolve_category_prefers_the_highest_ranked_cited_rule():
    assert resolve_category(["style.naming", "sec.input"], LIBRARY) == Category.SECURITY
    assert resolve_category(["style.naming"], LIBRARY) == Category.STYLE
    assert resolve_category(["no.such.rule"], LIBRARY) == Category.MAINTAINABILITY
    assert resolve_category([], LIBRARY) == Category.MAINTAINABILITY


def test_review_chunk_ensemble_normalizes_citations(caplog):
    backend = CannedBackend(
        {
            "explicit_reviewer": findings_json(
                {
                    "severity": "high",
                    "description": "query concatenates raw user input",
                    "spec_ids": ["sec.input", "ghost.rule"],
                }
            )
        }
    )
    request = ModelRequest(role="explicit_reviewer", prompt="review the code", temperature=0.7)
    with caplog.at_level("WARNING", logger="sgcr.parsing"), call_pool() as pool:
        slots = submit_ensemble(
            pool,
            backend,
            request,
            ENSEMBLE,
            lambda text: parse_findings_response(text, Pathway.EXPLICIT, LIBRARY),
        )
        candidates = review_chunk_ensemble(_chunk("sec.input", "style.naming"), slots)
    assert len(backend.call_log) == 3
    assert [candidate.instance_index for candidate in candidates] == [0, 1, 2]
    for candidate in candidates:
        (finding,) = candidate.findings
        assert finding.spec_ids == ("sec.input",)
        assert finding.category == Category.SECURITY
    assert any("ghost.rule" in record.message for record in caplog.records)
    assert sorted(request.seed for request in backend.call_log) == [0, 1, 2]


def _candidate(instance, *findings):
    return CandidateReview(chunk_ordinal=0, instance_index=instance, findings=tuple(findings))


def test_aggregate_deterministic_applies_the_quorum():
    shared = "user input reaches the query unchecked"
    lone = "loop allocates a buffer on every pass"
    candidates = [
        _candidate(0, make_finding(start=4, description=shared), make_finding(start=40, description=lone)),
        _candidate(1, make_finding(start=4, description=shared)),
        _candidate(2, make_finding(start=4, description=shared)),
    ]
    result = aggregate_candidates(_chunk("sec.input"), candidates, ENSEMBLE, library=LIBRARY)
    assert result.n_effective == 3
    (merged,) = result.findings
    assert merged.description == shared
    assert merged.confidence == pytest.approx(1.0)


def test_aggregate_two_of_three_support_sets_confidence():
    shared = "user input reaches the query unchecked"
    candidates = [
        _candidate(0, make_finding(start=4, description=shared, severity=Severity.LOW)),
        _candidate(1, make_finding(start=4, description=shared + " here", severity=Severity.HIGH)),
        _candidate(2),
    ]
    result = aggregate_candidates(_chunk("sec.input"), candidates, ENSEMBLE, library=LIBRARY)
    (merged,) = result.findings
    assert merged.confidence == pytest.approx(2 / 3)
    assert merged.severity == Severity.HIGH  # raised to the group's most severe
    assert merged.description == shared  # wording from the lowest instance


def test_aggregate_duplicates_within_one_instance_do_not_count_twice():
    description = "log statement prints the raw password value"
    candidates = [
        _candidate(
            0,
            make_finding(start=7, description=description),
            make_finding(start=7, end=8, description=description),
        ),
        _candidate(1),
        _candidate(2),
    ]
    result = aggregate_candidates(_chunk("sec.input"), candidates, ENSEMBLE, library=LIBRARY)
    assert result.findings == ()


def test_aggregate_counts_only_present_instances():
    shared = "method name shadows the field name"
    candidates = [
        _candidate(0, make_finding(description=shared)),
        _candidate(2, make_finding(description=shared)),
    ]
    result = aggregate_candidates(_chunk("sec.input"), candidates, ENSEMBLE, library=LIBRARY)
    assert result.n_effective == 2
    (merged,) = result.findings
    assert merged.confidence == pytest.approx(1.0)


def test_aggregate_rejects_empty_input_and_unknown_mode():
    with pytest.raises(NoCandidates):
        aggregate_candidates(_chunk("sec.input"), [], ENSEMBLE)
    with pytest.raises(ValueError):
        aggregate_candidates(_chunk("sec.input"), [_candidate(0)], ENSEMBLE, mode="vote")
    with pytest.raises(ValueError):
        aggregate_candidates(_chunk("sec.input"), [_candidate(0)], ENSEMBLE, mode="model")


def test_aggregate_model_mode_drops_inventions(caplog):
    shared = "user input reaches the query unchecked"
    candidates = [
        _candidate(0, make_finding(start=4, description=shared)),
        _candidate(1, make_finding(start=4, description=shared)),
        _candidate(2),
    ]
    backend = CannedBackend(
        {
            "aggregator": findings_json(
                {"start_line": 4, "end_line": 4, "description": shared},
                {"file": "src/Other.java", "description": "entirely fabricated issue"},
            )
        }
    )
    with caplog.at_level("WARNING", logger="sgcr.explicit"):
        result = aggregate_candidates(
            _chunk("sec.input"), candidates, ENSEMBLE, mode="model", backend=backend, library=LIBRARY
        )
    (merged,) = result.findings
    assert merged.description == shared
    assert merged.confidence == pytest.approx(2 / 3)
    assert any("no candidate support" in record.message for record in caplog.records)
    assert backend.call_log[0].temperature == 0.0


def test_synthesize_collapses_cross_chunk_duplicates_to_maxima():
    wording_a = "query string concatenates request parameters"
    wording_b = "query string concatenates request parameters directly"
    partials = [
        AggregatedReview(
            chunk_ordinal=0,
            findings=(
                make_finding(
                    start=4,
                    description=wording_a,
                    severity=Severity.MEDIUM,
                    confidence=0.5,
                    spec_ids=("sec.input",),
                    category=Category.SECURITY,
                ),
            ),
            n_effective=3,
        ),
        AggregatedReview(
            chunk_ordinal=1,
            findings=(
                make_finding(
                    start=4,
                    description=wording_b,
                    severity=Severity.HIGH,
                    confidence=1.0,
                    spec_ids=("style.naming",),
                    category=Category.STYLE,
                ),
            ),
            n_effective=3,
        ),
    ]
    report = synthesize_partials(partials)
    assert report.pathway == Pathway.EXPLICIT
    (merged,) = report.findings
    assert merged.description == wording_b  # the higher-confidence wording wins
    assert merged.severity == Severity.HIGH
    assert merged.confidence == pytest.approx(1.0)
    assert merged.spec_ids == ("sec.input", "style.naming")
    assert merged.category == Category.SECURITY
    assert report.summary == "1 rule-grounded finding(s) across 2 rule chunk(s)"


def test_synthesize_keeps_distinct_findings_sorted():
    partials = [
        AggregatedReview(
            chunk_ordinal=0,
            findings=(make_finding(file="b.java", start=9, description="late issue in second file"),),
            n_effective=3,
        ),
        AggregatedReview(
            chunk_ordinal=1,
            findings=(make_finding(file="a.java", start=2, description="early issue in first file"),),
            n_effective=3,
        ),
    ]
    report = synthesize_partials(partials)
    assert [finding.file for finding in report.findings] == ["a.java", "b.java"]


def test_merge_winners_and_category_rule_of_aggregation_and_synthesis():
    uncited = "field name hides the outer variable"
    cited = "field name hides the outer variable here"
    candidates = [
        # Instance 0 sorts after instance 1 by location, yet its wording wins.
        _candidate(0, make_finding(start=5, end=6, description=uncited)),
        _candidate(
            1,
            make_finding(
                start=4,
                end=6,
                description=cited,
                spec_ids=("style.naming",),
                category=Category.STYLE,
            ),
        ),
        _candidate(2),
    ]
    (merged,) = aggregate_candidates(
        _chunk("style.naming"), candidates, ENSEMBLE, library=LIBRARY
    ).findings
    assert merged.description == uncited
    assert merged.spec_ids == ("style.naming",)
    assert merged.confidence == pytest.approx(2 / 3)
    # From the cited rules, not the member minimum (the uncited member's
    # maintainability ranks above style).
    assert merged.category == Category.STYLE
    (unresolved,) = aggregate_candidates(_chunk("style.naming"), candidates, ENSEMBLE).findings
    assert unresolved.category == Category.MAINTAINABILITY

    confident = make_finding(start=6, description=cited, confidence=1.0)
    report = synthesize_partials(
        [
            AggregatedReview(chunk_ordinal=0, findings=(merged,), n_effective=3),
            AggregatedReview(chunk_ordinal=1, findings=(confident,), n_effective=3),
        ]
    )
    (synthesized,) = report.findings
    assert synthesized.description == cited  # the highest-confidence member
    assert (synthesized.start_line, synthesized.end_line) == (6, 6)
    assert synthesized.confidence == pytest.approx(1.0)
    assert synthesized.spec_ids == ("style.naming",)
    assert synthesized.category == Category.MAINTAINABILITY


def test_synthesize_requires_partials_and_backend_for_model_summary():
    with pytest.raises(NoPartials):
        synthesize_partials([])
    partial = AggregatedReview(chunk_ordinal=0, findings=(make_finding(),), n_effective=3)
    with pytest.raises(ValueError):
        synthesize_partials([partial], model_summary=True)
    backend = CannedBackend({"synthesizer": " One security issue stands out. \n"})
    report = synthesize_partials([partial], backend=backend, model_summary=True)
    assert report.summary == "One security issue stands out."
    assert backend.call_log[0].temperature == 0.0


def _run_explicit(request, library, backend, chunk_budget, *, pool, **options):
    """review_chunks then run_explicit: the explicit pathway from end to end."""
    reviews = review_chunks(request, library, backend, ENSEMBLE, chunk_budget, pool=pool)
    return run_explicit(reviews, library, ENSEMBLE, pool=pool, **options)


def _two_chunk_library():
    return make_library(
        make_spec("sec.input", severity=Severity.HIGH, category=Category.SECURITY, tokens=100),
        make_spec("style.naming", severity=Severity.LOW, category=Category.STYLE, tokens=100),
    )


def test_run_explicit_reports_stats_and_dedupes_across_chunks():
    library = _two_chunk_library()
    assert len(segment_library(library, 100)) == 2
    backend = CannedBackend(
        {
            "explicit_reviewer": findings_json(
                {"start_line": 2, "end_line": 2, "description": "field is never validated"}
            )
        }
    )
    with call_pool() as pool:
        report = _run_explicit(
            make_review_request(), library, backend, 100, run_id="run-one", pool=pool
        )
    assert len(report.findings) == 1
    stats = report.stats_dict()
    assert stats == {
        "pathway": "explicit",
        "chunks": 2,
        "model_calls": 6,
        "absent_slots": 0,
        "findings": 1,
        "run_id": "run-one",
    }
    assert all(request.temperature == 0.7 for request in backend.call_log)


def test_run_explicit_is_independent_of_scheduling_jitter():
    library = _two_chunk_library()
    responses = {
        "explicit_reviewer": lambda request: findings_json(
            {"start_line": 2, "end_line": 2, "description": "field is never validated"},
            {
                "start_line": 5,
                "end_line": 5,
                "description": "return path skips the bounds check",
                "spec_ids": ["sec.input"],
            },
        )
    }
    with call_pool() as pool:
        plain = _run_explicit(
            make_review_request(), library, CannedBackend(responses), 100, pool=pool
        )
        jittered = _run_explicit(
            make_review_request(),
            library,
            JitteredBackend(CannedBackend(responses), max_ms=6, seed=13),
            100,
            pool=pool,
        )
    assert plain == jittered


def test_run_explicit_rejects_empty_requests():
    from sgcr.ingestion import ReviewRequest

    empty = ReviewRequest(units=(), origin="files")
    with pytest.raises(InvalidReviewRequest), call_pool() as pool:
        review_chunks(empty, LIBRARY, CannedBackend({}), ENSEMBLE, pool=pool)


def test_run_explicit_model_calls_run_on_the_call_pool():
    """Aggregator and summary calls go through the pool, inside its cap."""
    finding = {"start_line": 2, "end_line": 2, "description": "field is never validated"}
    threads = {}

    def answer(text):
        def respond(request):
            threads.setdefault(request.role, set()).add(threading.current_thread().name)
            return text

        return respond

    backend = CannedBackend(
        {
            "explicit_reviewer": answer(findings_json(finding)),
            "aggregator": answer(findings_json(finding)),
            "synthesizer": answer("one grounded finding"),
        }
    )
    with call_pool() as pool:
        report = _run_explicit(
            make_review_request(),
            _two_chunk_library(),
            backend,
            100,
            aggregation_mode="model",
            model_summary=True,
            pool=pool,
        )
    assert report.summary == "one grounded finding"
    assert set(threads) == {"explicit_reviewer", "aggregator", "synthesizer"}
    assert all(name.startswith("sgcr-call") for names in threads.values() for name in names)
    assert backend.calls_for_role("aggregator") == 2


def test_a_slow_head_slot_leaves_no_freed_worker_idle():
    """The first ensemble past the first window starts while chunk 0's slot 0 runs."""
    library = make_library(*(make_spec(f"style.r{number}") for number in range(8)))
    past_window = f"RULE style.r{MAX_INFLIGHT // ENSEMBLE.n} "
    arrived = threading.Event()
    held = []

    def reviewer(request):
        if past_window in request.prompt:
            arrived.set()
        elif "RULE style.r0 " in request.prompt and request.instance_index == 0:
            # A guard, not a timing: that request arrives at once, or only
            # after this slot's ensemble is collected.
            held.append(arrived.wait(timeout=2))
        return findings_json()

    backend = CannedBackend({"explicit_reviewer": reviewer})
    with call_pool() as pool:
        report = _run_explicit(make_review_request(), library, backend, 1, pool=pool)
    assert report.stats_dict()["chunks"] == 8
    assert held == [True]


class _FirstCallFailsBackend(LoggedMockBackend):
    """Mock answers, except that the first call of each listed role fails."""

    def __init__(self, roles):
        super().__init__()
        self._failing = set(roles)

    def _complete(self, request):
        with self._lock:
            fail = request.role in self._failing
            self._failing.discard(request.role)
        if fail:
            raise WireError("transient")
        return super()._complete(request)


@pytest.mark.parametrize("failing_roles", [(), ("aggregator", "synthesizer")])
def test_model_calls_count_aggregator_and_summary_calls_with_their_retries(
    failing_roles, monkeypatch
):
    config = RunConfig(
        mode="explicit_only",
        specs_dir=str(REPO_ROOT / "sample_specs"),
        chunk_budget=150,
        aggregation="model",
        model_summary=True,
    )
    request = build_review_request(paths=[GOLDEN_DIR / "input" / "Example.java"])
    backend = _FirstCallFailsBackend(failing_roles)
    sent = record_generate(monkeypatch)
    final = run_review(config, request, backend=backend)

    assert backend.calls_for_role("aggregator") > 1
    assert backend.calls_for_role("synthesizer") == (2 if failing_roles else 1)
    (report,) = final.pathway_reports
    assert report.stats_dict()["model_calls"] == len(backend.call_log)
    # Every attempt, failed ones included, went through gateway.generate.
    assert len(sent) == len(backend.call_log)


class _EchoAggregatorBackend(MockBackend):
    """Mock answers, except that the aggregator returns every candidate it is shown.

    Candidates from different members only sometimes match, so the kept
    findings carry different supports.
    """

    _HEADER = "Candidate reviews (JSON):\n"

    def _complete(self, request):
        if request.role != "aggregator":
            return super()._complete(request)
        start = request.prompt.index(self._HEADER) + len(self._HEADER)
        reviews, _ = json.JSONDecoder().raw_decode(request.prompt, start)
        return json.dumps({"findings": [f for review in reviews for f in review["findings"]]})


_MODEL_MODE_DIR = REPO_ROOT / "tests" / "data" / "model_mode"


@pytest.mark.parametrize(
    "backend_type, pinned",
    [(MockBackend, "mock_report.json"), (_EchoAggregatorBackend, "echo_report.json")],
)
def test_model_mode_reports_are_byte_identical_to_the_pinned_ones(
    backend_type, pinned, monkeypatch
):
    """Model-mode aggregation and the model summary, on sample_specs.

    The stock mock's aggregator invents every finding (its replies name
    the file "unknown"), so all are dropped; the echoing one keeps them
    with their direct support share as confidence.
    """
    monkeypatch.chdir(REPO_ROOT)
    config = RunConfig(
        mode="explicit_only",
        specs_dir="sample_specs",
        chunk_budget=150,
        aggregation="model",
        model_summary=True,
    )
    request = build_review_request(paths=[Path("tests/data/golden/input/Example.java")])
    text = render_report(run_review(config, request, backend=backend_type()), "json")
    assert text == (_MODEL_MODE_DIR / pinned).read_text(encoding="utf-8")
