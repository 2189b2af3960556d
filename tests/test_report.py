"""Consolidation, prioritization, patch generation, and rendering."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    GOLDEN_DIR,
    REPO_ROOT,
    CannedBackend,
    make_finding,
    make_library,
    make_review_request,
    make_spec,
)
from sgcr.backends import ReplayBackend
from sgcr.config import RunConfig
from sgcr.errors import FixtureMiss, MalformedWireResponse, SgcrError
from sgcr.ingestion import build_review_request
from sgcr.pipeline import run_review
from sgcr.gateway import call_pool
import sgcr.report
from sgcr.report import (
    FindingCluster,
    attach_patches,
    compute_run_id,
    consolidate,
    dedupe,
    generate_patch,
    prioritize,
    render,
    render_json,
    render_markdown,
    report_payload,
)
from sgcr.types import (
    Category,
    PatchSuggestion,
    Pathway,
    PathwayReport,
    Severity,
    freeze_stats,
)

LIBRARY = make_library(
    make_spec("sec.input", severity=Severity.HIGH, category=Category.SECURITY),
    make_spec("style.naming", severity=Severity.LOW, category=Category.STYLE),
)


def test_compute_run_id_tracks_config_and_content():
    request = make_review_request()
    config = {"mode": "full", "seed": 0}
    first = compute_run_id(request, config)
    assert first == compute_run_id(request, config)
    assert len(first) == 12 and int(first, 16) >= 0
    assert compute_run_id(request, {"mode": "full", "seed": 1}) != first
    other_request = make_review_request(lines=("class Other {", "}"))
    assert compute_run_id(other_request, config) != first


def test_dedupe_groups_equivalent_findings_across_pathways():
    explicit = make_finding(start=4, description="password is written to the log")
    implicit = make_finding(
        start=4,
        description="password is written to the log stream",
        pathway=Pathway.IMPLICIT,
    )
    unrelated = make_finding(start=30, description="loop rebuilds the formatter each pass")
    clusters = dedupe([explicit, implicit, unrelated])
    assert len(clusters) == 2
    merged = next(cluster for cluster in clusters if cluster.duplicates == 1)
    assert merged.pathways == ("explicit", "implicit")
    single = next(cluster for cluster in clusters if cluster.duplicates == 0)
    assert single.pathways == ("explicit",)


def test_representative_takes_best_wording_and_member_maxima():
    weaker_wording = make_finding(
        start=4,
        description="validator skips empty strings entirely",
        severity=Severity.MEDIUM,
        confidence=0.9,
        spec_ids=("style.naming",),
        category=Category.STYLE,
    )
    stronger_wording = make_finding(
        start=4,
        description="validator skips empty strings sometimes",
        severity=Severity.HIGH,
        confidence=0.4,
        pathway=Pathway.IMPLICIT,
        spec_ids=("sec.input",),
        category=Category.SECURITY,
    )
    (cluster,) = dedupe([weaker_wording, stronger_wording])
    representative = cluster.representative
    assert representative.description == stronger_wording.description
    assert representative.severity == Severity.HIGH
    assert representative.confidence == pytest.approx(0.9)
    assert representative.spec_ids == ("sec.input", "style.naming")
    assert representative.category == Category.SECURITY
    assert representative.pathway == Pathway.IMPLICIT


def test_representative_prefers_explicit_on_full_ties():
    explicit = make_finding(start=4, description="shared wording for the tie")
    implicit = make_finding(
        start=4, description="shared wording for the tie", pathway=Pathway.IMPLICIT
    )
    (cluster,) = dedupe([implicit, explicit])
    assert cluster.representative.pathway == Pathway.EXPLICIT


def _cluster(finding):
    return FindingCluster(representative=finding, members=(finding,), pathways=(finding.pathway.value,))


def test_prioritize_orders_by_severity_category_confidence_location():
    low_style = _cluster(
        make_finding(start=1, description="style nit", severity=Severity.LOW, category=Category.STYLE)
    )
    high_security = _cluster(
        make_finding(start=9, description="security hole", severity=Severity.HIGH, category=Category.SECURITY)
    )
    high_style = _cluster(
        make_finding(start=2, description="loud style issue", severity=Severity.HIGH, category=Category.STYLE)
    )
    high_security_low_conf = _cluster(
        make_finding(
            start=3,
            description="security hole maybe",
            severity=Severity.HIGH,
            category=Category.SECURITY,
            confidence=0.5,
        )
    )
    ordered = prioritize([low_style, high_style, high_security_low_conf, high_security])
    assert ordered == [high_security, high_security_low_conf, high_style, low_style]

    tie_a = _cluster(make_finding(file="a.java", start=5, description="same weight issue one"))
    tie_b = _cluster(make_finding(file="b.java", start=5, description="same weight issue two"))
    assert prioritize([tie_b, tie_a]) == [tie_a, tie_b]


def _pathway_report(pathway, findings, run_id="run-1", **extra):
    stats = {"pathway": pathway.value, "run_id": run_id}
    stats.update(extra)
    return PathwayReport(
        pathway=pathway,
        findings=tuple(findings),
        summary=f"{len(findings)} from {pathway.value}",
        stats=freeze_stats(stats),
    )


def test_consolidate_merges_pathways():
    explicit = _pathway_report(
        Pathway.EXPLICIT,
        [make_finding(start=4, description="password is written to the log")],
    )
    implicit = _pathway_report(
        Pathway.IMPLICIT,
        [
            make_finding(
                start=4,
                description="password is written to the log stream",
                pathway=Pathway.IMPLICIT,
            )
        ],
    )
    final = consolidate([explicit, implicit], run_id="run-1", mode="full")
    assert final.run_id == "run-1"
    assert len(final.clusters) == 1
    assert final.clusters[0].pathways == ("explicit", "implicit")
    assert "1 confirmed by both pathways" in final.summary

    swapped = consolidate([implicit, explicit], run_id="run-1", mode="full")
    assert swapped.clusters == final.clusters
    assert swapped.summary == final.summary


def test_consolidate_tolerates_reports_without_run_ids():
    quiet = PathwayReport(pathway=Pathway.EXPLICIT, findings=(make_finding(),))
    final = consolidate([quiet], run_id="run-9", mode="explicit_only")
    assert final.run_id == "run-9"
    assert len(final.clusters) == 1


def test_summary_line_counts_severities_and_pathways():
    explicit = _pathway_report(
        Pathway.EXPLICIT,
        [
            make_finding(start=4, description="first problem here", severity=Severity.CRITICAL),
            make_finding(start=9, description="second problem there", severity=Severity.LOW),
        ],
    )
    final = consolidate([explicit], run_id="run-1", mode="explicit_only")
    assert final.summary == (
        "2 finding(s) after de-duplication (1 critical, 0 high, 0 medium, 1 low);"
        " 2 rule-grounded, 0 discovered, 0 confirmed by both pathways"
    )


VALID_DIFF = (
    "--- a/src/Main.java\n"
    "+++ b/src/Main.java\n"
    "@@ -2,1 +2,1 @@\n"
    "-    private int value;\n"
    "+    private volatile int value;\n"
)


def _patch_response(diff, explanation="guarded the field"):
    return json.dumps({"patch_unified_diff": diff, "explanation": explanation})


def _cited_cluster(**kwargs):
    kwargs.setdefault("start", 2)
    kwargs.setdefault("description", "field mutation is not thread safe")
    kwargs.setdefault("spec_ids", ("sec.input",))
    return _cluster(make_finding(**kwargs))


def test_generate_patch_happy_path():
    backend = CannedBackend({"patch_generator": _patch_response(VALID_DIFF)})
    patch = generate_patch(_cited_cluster(), make_review_request(), LIBRARY, backend)
    assert patch is not None
    assert patch.unified_diff == VALID_DIFF
    assert patch.explanation == "guarded the field"
    assert patch.constrained_by == ("sec.input",)
    request = backend.call_log[0]
    assert request.temperature == 0.0
    assert "RULE sec.input" in request.prompt
    assert "private int value;" in request.prompt


def test_generate_patch_discards_non_applying_diffs(caplog):
    wrong = VALID_DIFF.replace("-    private int value;", "-    private long value;")
    backend = CannedBackend({"patch_generator": _patch_response(wrong)})
    with caplog.at_level("WARNING", logger="sgcr.report"):
        patch = generate_patch(_cited_cluster(), make_review_request(), LIBRARY, backend)
    assert patch is None
    assert any("discarded" in record.message for record in caplog.records)


@pytest.mark.parametrize(
    "diff",
    [
        "",  # no file sections at all
        VALID_DIFF + VALID_DIFF.replace("Main.java", "Other.java"),  # two sections
        "--- a/src/Main.java\n+++ b/src/Main.java\n@@ -2,2 +2,1 @@\n-    private int value;\n",
        "prose, not a diff",
    ],
)
def test_generate_patch_discards_malformed_diffs(diff):
    backend = CannedBackend({"patch_generator": _patch_response(diff)})
    assert generate_patch(_cited_cluster(), make_review_request(), LIBRARY, backend) is None


def test_generate_patch_skips_uncited_clusters_without_calling():
    backend = CannedBackend({})
    uncited = _cited_cluster(spec_ids=())
    assert generate_patch(uncited, make_review_request(), LIBRARY, backend) is None
    unknown = _cited_cluster(spec_ids=("ghost.rule",))
    assert generate_patch(unknown, make_review_request(), LIBRARY, backend) is None
    assert backend.call_log == []


def test_generate_patch_skips_locations_outside_the_request():
    backend = CannedBackend({})
    elsewhere = _cited_cluster(file="src/Elsewhere.java")
    assert generate_patch(elsewhere, make_review_request(), LIBRARY, backend) is None
    assert backend.call_log == []


def test_attach_patches_counts_outcomes_and_keeps_order():
    good = make_finding(
        start=2, description="field mutation is not thread safe", spec_ids=("sec.input",)
    )
    bad = make_finding(
        start=4, end=4, description="return leaks internal state", spec_ids=("style.naming",)
    )
    uncited = make_finding(
        start=5, description="brace style drifts from the file", pathway=Pathway.IMPLICIT
    )
    report = consolidate(
        [
            _pathway_report(Pathway.EXPLICIT, [good, bad]),
            _pathway_report(Pathway.IMPLICIT, [uncited]),
        ],
        run_id="run-1",
        mode="full",
    )

    def patcher(request):
        if "thread safe" in request.prompt:
            return _patch_response(VALID_DIFF)
        return _patch_response("does not even parse")

    backend = CannedBackend({"patch_generator": patcher})
    with call_pool() as pool:
        patched = attach_patches(report, make_review_request(), LIBRARY, backend, pool=pool)
    assert dict(patched.patch_stats) == {"attempted": 2, "attached": 1, "skipped_uncited": 1}
    assert len(backend.call_log) == 2
    by_description = {
        cluster.representative.description: cluster.representative.patch
        for cluster in patched.clusters
    }
    assert by_description["field mutation is not thread safe"] is not None
    assert by_description["return leaks internal state"] is None
    assert by_description["brace style drifts from the file"] is None
    assert [c.representative.description for c in patched.clusters] == [
        c.representative.description for c in report.clusters
    ]



class _FailingPatches(ReplayBackend):
    """The golden replies, except that every patch call raises error."""

    def __init__(self, error: SgcrError) -> None:
        super().__init__(GOLDEN_DIR / "fixtures")
        self.error = error

    def _complete(self, request):
        if request.role == "patch_generator":
            raise self.error
        return super()._complete(request)


def test_a_patch_reply_that_breaks_the_wire_protocol_costs_only_that_patch(monkeypatch):
    # The golden command's settings; its paths are relative to the repository root.
    monkeypatch.chdir(REPO_ROOT)
    config = RunConfig(
        backend="replay",
        specs_dir="sample_specs",
        fixtures_dir="tests/data/golden/fixtures",
        chunk_budget=300,
        patches=True,
    )
    request = build_review_request(paths=[Path("tests/data/golden/input/Example.java")])
    golden = run_review(config, request)
    assert dict(golden.patch_stats)["attached"] == 1

    broken = MalformedWireResponse("missing choices[0].message.content")
    final = run_review(config, request, backend=_FailingPatches(broken))
    assert dict(final.patch_stats) == {"attached": 0, "attempted": 3, "skipped_uncited": 0}
    assert [cluster.representative.patch for cluster in final.clusters] == [None] * 3
    assert [cluster.representative.finding_id for cluster in final.clusters] == [
        cluster.representative.finding_id for cluster in golden.clusters
    ]
    # A missing fixture is still fatal: the replay set is incomplete.
    with pytest.raises(FixtureMiss, match="no-such-fixture"):
        run_review(config, request, backend=_FailingPatches(FixtureMiss("no-such-fixture")))

def test_report_payload_matches_schema_v1():
    finding = make_finding(
        start=2, description="field mutation is not thread safe", spec_ids=("sec.input",)
    )
    report = consolidate(
        [_pathway_report(Pathway.EXPLICIT, [finding], model_calls=3)],
        run_id="run-1",
        mode="explicit_only",
        config_echo={"mode": "explicit_only", "seed": 0},
    )
    backend = CannedBackend({"patch_generator": _patch_response(VALID_DIFF)})
    with call_pool() as pool:
        report = attach_patches(report, make_review_request(), LIBRARY, backend, pool=pool)
    payload = report_payload(report)

    assert set(payload) == {"schema_version", "summary", "stats", "clusters"}
    assert payload["schema_version"] == "1"
    stats = payload["stats"]
    assert set(stats) == {"run_id", "mode", "counts", "pathways", "config", "patches"}
    assert stats["counts"]["total"] == 1
    assert stats["counts"]["by_severity"]["medium"] == 1
    assert stats["counts"]["by_pathway"] == {"explicit": 1, "implicit": 0, "both": 0}
    assert stats["pathways"]["explicit"]["stats"]["model_calls"] == 3
    assert stats["config"] == {"mode": "explicit_only", "seed": 0}
    assert stats["patches"] == {"attempted": 1, "attached": 1, "skipped_uncited": 0}

    (cluster,) = payload["clusters"]
    assert set(cluster) == {"finding", "duplicates", "patch"}
    assert set(cluster["finding"]) == {
        "finding_id",
        "file",
        "start_line",
        "end_line",
        "severity",
        "category",
        "description",
        "rationale",
        "spec_ids",
        "pathway",
        "confidence",
    }
    assert cluster["patch"] == {
        "unified_diff": VALID_DIFF,
        "explanation": "guarded the field",
        "constrained_by": ["sec.input"],
    }


def test_render_json_empty_report():
    report = consolidate([], run_id="run-0", mode="full")
    payload = report_payload(report)
    assert payload["clusters"] == []
    assert payload["stats"]["counts"]["total"] == 0
    assert payload["summary"] == (
        "0 finding(s) after de-duplication (0 critical, 0 high, 0 medium, 0 low);"
        " 0 rule-grounded, 0 discovered, 0 confirmed by both pathways"
    )
    rendered = render_json(report)
    assert rendered.endswith("\n")
    assert json.loads(rendered) == payload
    assert rendered == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _reference_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Pieces that stress the escaper: quotes, backslashes, control, non-ASCII,
# astral and lone-surrogate characters.
_TEXT_PIECES = [
    "",
    "plain words",
    'say "hi"',
    "back\\slash \\n",
    "\t\n\r\x00\x08\x0c\x1f\x7f",
    "caf\u00e9 \u2028\u2029 \u2603",
    "astral \U0001f600\U00010348",
    "lone \ud800 and \udfff",
    "</script>",
]
_FLOATS = [1e-7, 2 / 3, 1e16, -0.0, 0.0, 1.0, 0.1, -2.5e-300, 1.7976931348623157e308,
           float("nan"), float("inf"), float("-inf")]


def _random_text(rng):
    text = "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.3:
        text += chr(rng.choice([rng.randrange(0x20), rng.randrange(0xD800, 0xE000),
                                rng.randrange(0x10000, 0x110000), rng.randrange(0x80, 0x800)]))
    return text


def _random_value(rng, depth=0):
    roll = rng.random()
    if depth < 4 and roll < 0.2:
        return {_random_text(rng): _random_value(rng, depth + 1) for _ in range(rng.randint(0, 5))}
    if depth < 4 and roll < 0.4:
        items = [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 5))]
        return tuple(items) if rng.random() < 0.2 else items
    return rng.choice(
        [
            lambda: _random_text(rng),
            lambda: None,
            lambda: True,
            lambda: False,
            lambda: rng.randint(-(10**20), 10**20),
            lambda: rng.choice([0, 1, -1, 2**63]),
            lambda: rng.choice(_FLOATS),
            lambda: rng.uniform(-1e6, 1e6),
        ]
    )()


def test_render_json_writes_the_bytes_of_json_dumps_on_random_payloads(monkeypatch):
    rng = random.Random(20261018)
    payloads = [{}, [], {"": {}, "a": [], "b": [[], {}]}, {"floats": list(_FLOATS)}]
    payloads += [_random_value(rng) for _ in range(400)]
    for number, payload in enumerate(payloads):
        monkeypatch.setattr(sgcr.report, "report_payload", lambda report: payload)
        assert render_json(None) == _reference_json(payload), f"payload {number}"


def test_render_json_rejects_what_json_cannot_write(monkeypatch):
    # Every key of report_payload is a string; json.dumps would stringify an
    # int key, but the writer takes one as a schema bug and fails loudly.
    for payload in ({"finding": object()}, {1: "not a string key"}):
        monkeypatch.setattr(sgcr.report, "report_payload", lambda report: payload)
        with pytest.raises(TypeError):
            render_json(None)


def _random_report(rng, with_patches):
    findings = [
        make_finding(
            file=rng.choice(["src/Main.java", "src/Caf\u00e9.java"]),
            start=rng.randint(1, 6),
            # content_id hashes the description as UTF-8: no lone surrogates.
            description=_random_text(rng).encode("utf-8", "ignore").decode() or "unchecked",
            severity=rng.choice(list(Severity)),
            pathway=rng.choice(list(Pathway)),
            confidence=rng.choice([1.0, 2 / 3, 0.5, 1e-7]),
            category=rng.choice(list(Category)),
            rationale=_random_text(rng),
            spec_ids=tuple(rng.sample(["sec.input", "style.naming", "x\u00e9"], rng.randint(0, 2))),
        )
        for _ in range(rng.randint(0, 12))
    ]
    reports = [
        _pathway_report(
            pathway,
            [finding for finding in findings if finding.pathway is pathway],
            run_id="",
            model_calls=rng.randint(0, 99),
            note=_random_text(rng),
        )
        for pathway in Pathway
    ]
    echo = {"temperature": rng.choice([0.7, 1e-7, 2 / 3]), "seed": rng.randint(0, 10**20),
            "specs_dir": _random_text(rng), "language": None, "patches": with_patches}
    report = consolidate(reports, run_id="run-x", mode="full", config_echo=echo)
    if not with_patches:
        return report
    clusters = tuple(
        replace(
            cluster,
            representative=replace(
                cluster.representative,
                patch=PatchSuggestion(
                    unified_diff="--- a/f\n+++ b/f\n@@ -1 +1 @@\n-" + _random_text(rng) + "\n",
                    explanation=_random_text(rng),
                    constrained_by=cluster.representative.spec_ids,
                ),
            ),
        )
        if rng.random() < 0.6
        else cluster
        for cluster in report.clusters
    )
    stats = {"attempted": len(clusters), "attached": rng.randint(0, len(clusters)),
             "skipped_uncited": 0}
    return replace(report, clusters=clusters, patch_stats=tuple(sorted(stats.items())))


def test_render_json_writes_the_bytes_of_json_dumps_on_random_reports():
    rng = random.Random(7)
    for trial in range(120):
        report = _random_report(rng, with_patches=trial % 2 == 1)
        assert render_json(report) == _reference_json(report_payload(report)), f"trial {trial}"

def test_render_markdown_sections_and_patch_block():
    critical = make_finding(
        start=4,
        description="request parameters reach the query",
        severity=Severity.CRITICAL,
        category=Category.SECURITY,
        spec_ids=("sec.input",),
        rationale="tainted value reaches execute",
        patch=None,
    )
    low_one = make_finding(
        start=9, description="method name shadows a field", severity=Severity.LOW
    )
    low_two = make_finding(
        start=9,
        description="method name shadows a field name",
        severity=Severity.LOW,
        pathway=Pathway.IMPLICIT,
    )
    report = consolidate(
        [
            _pathway_report(Pathway.EXPLICIT, [critical, low_one]),
            _pathway_report(Pathway.IMPLICIT, [low_two]),
        ],
        run_id="run-1",
        mode="full",
    )
    backend = CannedBackend(
        {
            "patch_generator": lambda request: (
                _patch_response(VALID_DIFF)
                if "query" in request.prompt
                else _patch_response("nope")
            )
        }
    )
    with call_pool() as pool:
        report = attach_patches(
            report,
            make_review_request(),
            make_library(
                make_spec("sec.input", severity=Severity.HIGH, category=Category.SECURITY)
            ),
            backend,
            pool=pool,
        )
    text = render_markdown(report)
    assert text.startswith("# Review report\n")
    assert text.index("## Critical") < text.index("## Low")
    assert "## Medium" not in text
    assert "- **src/Main.java:4** [security]" in text
    assert "rules: sec.input" in text
    assert "rationale: tainted value reaches execute" in text
    assert "confirmed by 2 overlapping finding(s) (explicit, implicit)" in text
    assert "    ```diff" in text
    assert "    +    private volatile int value;" in text


def test_render_dispatches_and_rejects_unknown_formats():
    report = consolidate([], run_id="run-0", mode="full")
    assert render(report, "json") == render_json(report)
    assert render(report, "markdown") == render_markdown(report)
    with pytest.raises(SgcrError):
        render(report, "yaml")
