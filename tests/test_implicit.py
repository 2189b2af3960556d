"""Discovery review: propose, ground by retrieval, verify by quorum."""

from __future__ import annotations

import json
import random
import string
import threading
import time
import tracemalloc

import pytest

from conftest import (
    GOLDEN_DIR,
    REPO_ROOT,
    CannedBackend,
    LoggedMockBackend,
    LoggedMockEmbeddingProvider,
    LoggedReplayBackend,
    issues_json,
    make_library,
    make_review_request,
    make_spec,
    verdict_json,
)
from sgcr.backends import MockBackend, ReplayBackend
from sgcr.config import RunConfig
from sgcr.errors import FixtureMiss, QueryDimensionMismatch, WireError
from sgcr.gateway import (
    MAX_INFLIGHT,
    SLOT_RETRIES,
    EnsembleConfig,
    ModelRequest,
    call_pool,
    submit_ensemble,
)
from sgcr.implicit import (
    decide_quorum,
    ground_issue,
    propose,
    propose_issues,
    run_implicit,
    verify_issue,
)
from sgcr.ingestion import build_review_request, prompt_block
from sgcr.parsing import parse_verdict_response
from sgcr.pipeline import run_review
from sgcr.retrieval import MockEmbeddingProvider, build_index
from sgcr.types import (
    Category,
    HypotheticalIssue,
    Pathway,
    Severity,
    VerifierVerdict,
    Verdict,
)

ENSEMBLE = EnsembleConfig(n=3, quorum=2, temperature=0.7, base_seed=0)

LIBRARY = make_library(
    make_spec(
        "sec.sql",
        severity=Severity.CRITICAL,
        category=Category.SECURITY,
        title="Parameterize SQL statements",
        body="Never concatenate untrusted values into SQL query strings.",
    ),
    make_spec(
        "perf.loop",
        severity=Severity.MEDIUM,
        category=Category.PERFORMANCE,
        title="Hoist invariant work out of loops",
        body="Move allocation and lookups that do not change out of hot loops.",
    ),
)

PROVIDER = MockEmbeddingProvider(dimension=64)
INDEX = build_index(LIBRARY, PROVIDER)


def _issue(description="query strings concatenate untrusted values into SQL", start=4):
    return HypotheticalIssue(
        file="src/Main.java", start_line=start, end_line=start, description=description
    )


def test_propose_dedupes_and_preserves_order():
    backend = CannedBackend(
        {
            "proposer": issues_json(
                {"start_line": 9, "description": "second issue by position"},
                {"start_line": 2, "description": "first issue by position"},
                {"start_line": 9, "description": "second issue by position"},
            )
        }
    )
    issues = propose_issues(make_review_request(), backend)
    assert len(backend.call_log) == 1
    assert [issue.start_line for issue in issues] == [9, 2]
    assert backend.call_log[0].temperature == 0.7
    assert backend.call_log[0].seed == 0


def test_propose_caps_the_issue_list():
    entries = [{"start_line": i, "description": f"issue number {i}"} for i in range(1, 30)]
    backend = CannedBackend({"proposer": issues_json(*entries)})
    issues = propose_issues(make_review_request(), backend, max_proposals=20)
    assert len(issues) == 20
    assert issues[0].start_line == 1 and issues[-1].start_line == 20


def test_propose_degrades_to_empty_after_retries(caplog):
    backend = CannedBackend({"proposer": "not json at all"})
    with caplog.at_level("WARNING", logger="sgcr.implicit"):
        issues = propose_issues(make_review_request(), backend)
    assert issues == []
    assert len(backend.call_log) == 1 + SLOT_RETRIES
    assert any("proposer failed" in record.message for record in caplog.records)


def test_a_proposer_whose_reply_nests_too_deeply_yields_no_proposals():
    backend = CannedBackend({"proposer": '{"issues": ' + "[" * 100_000})
    issues = propose_issues(make_review_request(), backend)
    assert issues == []
    assert len(backend.call_log) == 1 + SLOT_RETRIES

def test_a_proposer_fixture_miss_is_raised_and_degrades_the_pathway(tmp_path):
    backend = LoggedReplayBackend(tmp_path / "no-fixtures")
    with pytest.raises(FixtureMiss):
        propose_issues(make_review_request(), backend)
    assert len(backend.call_log) == 1  # a replay miss is never retried

    report = _run(ReplayBackend(tmp_path / "no-fixtures"), soft_fail=True)
    assert report.findings == ()
    stats = report.stats_dict()
    assert stats["degraded"] is True
    assert "no replay fixture" in stats["error"]

    with pytest.raises(FixtureMiss):
        _run(ReplayBackend(tmp_path / "no-fixtures"), soft_fail=False)


def test_ground_issue_retrieves_the_matching_rule():
    sql_issue = _issue("sql query string concatenate untrusted values")
    retrieved = ground_issue(sql_issue, PROVIDER, INDEX, k=1, threshold=-1.0)
    assert retrieved.spec_ids() == ("sec.sql",)
    loop_issue = _issue("loops hoist invariant allocation lookups change hot")
    retrieved = ground_issue(loop_issue, PROVIDER, INDEX, k=1, threshold=-1.0)
    assert retrieved.spec_ids() == ("perf.loop",)


def test_ground_issue_threshold_can_empty_the_set():
    retrieved = ground_issue(_issue("zzz qqq xxx"), PROVIDER, INDEX, threshold=0.99)
    assert len(retrieved) == 0


def _verifier_slots(pool, backend):
    request = ModelRequest(role="verifier", prompt="judge the issue", temperature=0.0)
    return submit_ensemble(pool, backend, request, ENSEMBLE, parse_verdict_response)


def test_verify_issue_strips_citations_outside_the_retrieved_set(caplog):
    issue = _issue()
    retrieved = ground_issue(issue, PROVIDER, INDEX, k=1, threshold=-1.0)
    backend = CannedBackend(
        {"verifier": verdict_json(cited=["sec.sql", "perf.loop", "made.up"])}
    )
    with caplog.at_level("WARNING", logger="sgcr.implicit"), call_pool() as pool:
        verdicts = verify_issue(_verifier_slots(pool, backend), retrieved)
    assert len(backend.call_log) == 3
    assert all(verdict.cited_spec_ids == ("sec.sql",) for verdict in verdicts)
    assert [verdict.instance_index for verdict in verdicts] == [0, 1, 2]
    assert any("outside the retrieved set" in record.message for record in caplog.records)


def test_verifier_prompt_shows_scores_and_rule_text():
    issue = _issue("sql query string concatenate untrusted values", start=4)
    retrieved = ground_issue(issue, PROVIDER, INDEX, k=1, threshold=-1.0)
    backend = CannedBackend(
        {
            "proposer": issues_json({"start_line": 4, "description": issue.description}),
            "verifier": verdict_json(),
        }
    )
    _run(backend)
    verifier_calls = [request for request in backend.call_log if request.role == "verifier"]
    prompt = verifier_calls[0].prompt
    assert f"score={retrieved.scored[0].score:.4f}" in prompt
    assert "RULE sec.sql" in prompt
    assert issue.description in prompt
    assert all(request.temperature == 0.0 for request in verifier_calls)


def _verdict(verdict=Verdict.VALID, **kwargs):
    return VerifierVerdict(verdict=verdict, **kwargs)


@pytest.mark.parametrize(
    ("verdicts", "quorum", "expected"),
    [
        ((_verdict(), _verdict(), _verdict(Verdict.INVALID)), 2, True),
        ((_verdict(), _verdict(Verdict.INVALID), _verdict(Verdict.INVALID)), 2, False),
        ((_verdict(), None, _verdict()), 2, True),
        ((_verdict(), None, None), 2, False),
        ((_verdict(Verdict.UNCERTAIN), _verdict(Verdict.UNCERTAIN), _verdict()), 1, True),
        ((None, None, None), 1, False),
        ((), 1, False),
    ],
)
def test_decide_quorum_counts_only_valid_verdicts(verdicts, quorum, expected):
    assert decide_quorum(verdicts, quorum) is expected


def _run(backend, *, library=LIBRARY, index=INDEX, provider=PROVIDER, **kwargs):
    defaults = dict(threshold=-1.0, k=1, soft_fail=False, run_id="run-x")
    defaults.update(kwargs)
    request = make_review_request()
    with call_pool() as pool:
        proposal = propose(request, backend, ENSEMBLE, pool=pool)
        return run_implicit(
            request, library, proposal, provider, index, ENSEMBLE, pool=pool, **defaults
        )


def test_run_implicit_accepts_on_quorum_and_grades_severity_by_cited_rule():
    backend = CannedBackend(
        {
            "proposer": issues_json(
                {
                    "start_line": 4,
                    "description": "sql query string concatenate untrusted values",
                }
            ),
            ("verifier", 0): verdict_json(justification="tainted value reaches execute", cited=["sec.sql"]),
            ("verifier", 1): verdict_json(justification="confirmed on line 4", cited=["sec.sql"]),
            ("verifier", 2): verdict_json(verdict="invalid", justification="cannot confirm"),
        }
    )
    report = _run(backend)
    (finding,) = report.findings
    assert finding.pathway == Pathway.IMPLICIT
    assert finding.severity == Severity.CRITICAL  # taken from the cited rule
    assert finding.category == Category.SECURITY
    assert finding.spec_ids == ("sec.sql",)
    assert finding.confidence == pytest.approx(2 / 3)
    assert finding.rationale == "tainted value reaches execute"  # lowest valid instance
    stats = report.stats_dict()
    assert stats == {
        "pathway": "implicit",
        "proposals": 1,
        "accepted": 1,
        "rejected": 0,
        "ungrounded_skipped": 0,
        "verification_failures": 0,
        "model_calls": 4,
        "run_id": "run-x",
    }
    assert report.summary == "1 verified finding(s) from 1 proposed issue(s)"


def test_run_implicit_severity_falls_back_to_modal_vote_then_low():
    issue_entry = {"start_line": 4, "description": "sql query string concatenate untrusted values"}
    modal_backend = CannedBackend(
        {
            "proposer": issues_json(issue_entry),
            ("verifier", 0): verdict_json(severity="low"),
            ("verifier", 1): verdict_json(severity="high"),
            ("verifier", 2): verdict_json(severity="high"),
        }
    )
    (finding,) = _run(modal_backend).findings
    assert finding.severity == Severity.HIGH
    assert finding.spec_ids == ()

    tied_backend = CannedBackend(
        {
            "proposer": issues_json(issue_entry),
            ("verifier", 0): verdict_json(severity="low"),
            ("verifier", 1): verdict_json(severity="high"),
            ("verifier", 2): verdict_json(verdict="invalid"),
        }
    )
    (finding,) = _run(tied_backend).findings
    assert finding.severity == Severity.HIGH  # ties break toward more severe

    unvoted_backend = CannedBackend(
        {
            "proposer": issues_json(issue_entry),
            "verifier": verdict_json(),
        }
    )
    (finding,) = _run(unvoted_backend).findings
    assert finding.severity == Severity.LOW


def test_run_implicit_rejects_without_quorum():
    backend = CannedBackend(
        {
            "proposer": issues_json(
                {"start_line": 4, "description": "sql query string concatenate untrusted values"}
            ),
            ("verifier", 0): verdict_json(),
            ("verifier", 1): verdict_json(verdict="invalid"),
            ("verifier", 2): verdict_json(verdict="uncertain"),
        }
    )
    report = _run(backend)
    assert report.findings == ()
    stats = report.stats_dict()
    assert stats["accepted"] == 0 and stats["rejected"] == 1


def test_run_implicit_skips_ungrounded_issues_by_default():
    backend = CannedBackend(
        {"proposer": issues_json({"start_line": 2, "description": "qqq zzz xxx"})}
    )
    report = _run(backend, threshold=0.99)
    assert report.findings == ()
    stats = report.stats_dict()
    assert stats["ungrounded_skipped"] == 1
    assert stats["model_calls"] == 1  # proposer only; no verifier calls

    permissive = CannedBackend(
        {
            "proposer": issues_json({"start_line": 2, "description": "qqq zzz xxx"}),
            "verifier": verdict_json(),
        }
    )
    report = _run(permissive, threshold=0.99, allow_ungrounded=True)
    (finding,) = report.findings
    assert finding.spec_ids == ()
    prompt = permissive.call_log[-1].prompt
    assert "(no rules retrieved for this issue)" in prompt


def test_run_implicit_verification_failure_skips_only_that_issue():
    def flaky_verifier(request):
        if "sql query" in request.prompt:
            return verdict_json(cited=["sec.sql"])
        raise AssertionError("unexpected prompt")

    backend = CannedBackend(
        {
            "proposer": issues_json(
                {"start_line": 4, "description": "sql query string concatenate untrusted values"},
                {"start_line": 9, "description": "loops hoist invariant allocation lookups"},
            ),
            "verifier": lambda request: (
                verdict_json(cited=["sec.sql"])
                if "sql query" in request.prompt
                else "never valid json"
            ),
        }
    )
    report = _run(backend, k=1)
    (finding,) = report.findings
    assert finding.start_line == 4
    stats = report.stats_dict()
    assert stats["verification_failures"] == 1
    assert stats["accepted"] == 1


def test_run_implicit_soft_fail_degrades_instead_of_raising():
    backend = CannedBackend(
        {
            "proposer": issues_json(
                {"start_line": 4, "description": "sql query string concatenate untrusted values"}
            )
        }
    )
    narrow_provider = MockEmbeddingProvider(dimension=16)

    with pytest.raises(QueryDimensionMismatch):
        _run(backend, provider=narrow_provider, soft_fail=False)

    report = _run(backend, provider=narrow_provider, soft_fail=True)
    assert report.findings == ()
    assert report.summary == "discovery pathway unavailable for this run"
    stats = report.stats_dict()
    assert stats["degraded"] is True
    assert "dimension" in stats["error"]
    assert stats["run_id"] == "run-x"


def test_run_implicit_handles_zero_proposals():
    backend = CannedBackend({"proposer": json.dumps({"issues": []})})
    report = _run(backend)
    assert report.findings == ()
    stats = report.stats_dict()
    assert stats["proposals"] == 0
    assert stats["model_calls"] == 1


class _SlowProvider(LoggedMockEmbeddingProvider):
    """Mock embeddings that take a while and record how many overlap."""

    def __init__(self, delay_s: float) -> None:
        super().__init__(dimension=PROVIDER.dimension)
        self._lock = threading.Lock()
        self._delay_s = delay_s
        self._inflight = 0
        self.peak_inflight = 0

    def embed(self, text):
        with self._lock:
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
        try:
            time.sleep(self._delay_s)
            return super().embed(text)
        finally:
            with self._lock:
                self._inflight -= 1


def test_run_implicit_grounds_issues_concurrently_on_the_pool():
    entries = [
        {"start_line": line, "description": f"sql query string concatenate untrusted values {line}"}
        for line in range(1, 7)
    ]
    backend = CannedBackend({"proposer": issues_json(*entries), "verifier": verdict_json()})
    slow = _SlowProvider(delay_s=0.05)
    report = _run(backend, provider=slow)
    assert len(slow.call_log) == 6
    assert slow.peak_inflight > 1
    assert [finding.start_line for finding in report.findings] == list(range(1, 7))
    assert report.stats_dict()["model_calls"] == 1 + 6 * ENSEMBLE.n


class _VerifiersFailBackend(LoggedMockBackend):
    """Mock answers for every role but the verifier, whose calls all fail."""

    def _complete(self, request):
        if request.role == "verifier":
            raise WireError("verifier endpoint down")
        return super()._complete(request)


def test_model_calls_count_a_verification_ensemble_that_exhausted_its_budget():
    config = RunConfig(
        mode="implicit_only",
        specs_dir=str(REPO_ROOT / "sample_specs"),
        allow_ungrounded=True,
    )
    request = build_review_request(paths=[GOLDEN_DIR / "input" / "Example.java"])
    backend = _VerifiersFailBackend()
    final = run_review(config, request, backend=backend)

    (report,) = final.pathway_reports
    stats = report.stats_dict()
    assert stats["verification_failures"] == stats["proposals"] > 0
    # Every verifier slot made 1 + SLOT_RETRIES attempts before its ensemble gave up.
    assert backend.calls_for_role("verifier") == (
        stats["proposals"] * config.ensemble_size * (1 + SLOT_RETRIES)
    )
    assert stats["model_calls"] == len(backend.call_log)


class _SlowTwentyProposals(MockBackend):
    """Mock answers after a 200 ms wait, with 20 proposals.

    The wait lets verifier slots queue, as a real model's latency does.
    """

    def _complete(self, request):
        time.sleep(0.2)
        if request.role == "proposer":
            return issues_json(
                *(
                    {"start_line": line, "description": f"value {line} is read unchecked"}
                    for line in range(1, 21)
                )
            )
        return super()._complete(request)


def test_verifier_prompts_alive_at_once_stay_within_the_submission_window():
    rng = random.Random(20261018)
    lines = tuple(
        f"    int v{number} = {''.join(rng.choices(string.ascii_letters, k=rng.randint(20, 60)))};"
        for number in range(12_000)
    )
    request = make_review_request(lines=lines)
    code = len(prompt_block(request))
    config = RunConfig(
        mode="implicit_only",
        specs_dir=str(REPO_ROOT / "sample_specs"),
        allow_ungrounded=True,
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        final = run_review(config, request, backend=_SlowTwentyProposals())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()

    (report,) = final.pathway_reports
    assert report.stats_dict()["proposals"] == 20
    # Each verifier prompt holds a copy of the code block. Submitting only
    # while the slots fit under MAX_INFLIGHT keeps about MAX_INFLIGHT // n
    # of them alive, each with at most one escape, plus the next one being
    # rendered. Submitting all 20 at once, or logging every request the
    # backend is sent, kept about 25 code blocks alive.
    window = MAX_INFLIGHT // config.ensemble_size
    assert peak < (2 * window + 3) * code
