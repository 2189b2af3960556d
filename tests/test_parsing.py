"""Model response parsers: strict schemas, tolerant of surrounding prose."""

from __future__ import annotations

import json

import pytest

from conftest import findings_json, make_library, make_spec
from sgcr.errors import UnparsableResponse
from sgcr.parsing import (
    extract_json_document,
    parse_findings_response,
    parse_patch_response,
    parse_proposals_response,
    parse_verdict_response,
)
from sgcr.types import Category, Pathway, Severity, Verdict


def test_extract_json_document_tolerates_prose_and_fences():
    text = 'Sure, here is the result:\n```json\n{"findings": []}\n```\nHope that helps.'
    assert extract_json_document(text) == {"findings": []}


def test_extract_json_document_skips_non_object_json():
    assert extract_json_document('[1, 2] then {"a": 1}') == {"a": 1}


def test_extract_json_document_no_object():
    with pytest.raises(UnparsableResponse):
        extract_json_document("no json here at all")
    with pytest.raises(UnparsableResponse):
        extract_json_document("{broken")


# Deeper than the decoder recurses: RecursionError, which is no ValueError.
DEEP_REPLY = '{"findings": ' + "[" * 100_000


@pytest.mark.parametrize(
    "parse",
    [
        lambda text: parse_findings_response(text, Pathway.EXPLICIT),
        parse_proposals_response,
        parse_verdict_response,
        parse_patch_response,
    ],
    ids=["findings", "proposals", "verdict", "patch"],
)
def test_every_parser_calls_too_deep_nesting_unparsable(parse):
    with pytest.raises(UnparsableResponse, match="nested too deeply"):
        parse(DEEP_REPLY)


def test_extract_json_document_stops_at_the_first_too_deep_object(monkeypatch):
    decodes = []
    raw_decode = json.JSONDecoder.raw_decode

    def counting(self, text, index=0):
        decodes.append(index)
        return raw_decode(self, text, index)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
    with pytest.raises(UnparsableResponse):
        extract_json_document('{"a": ' * 100_000)
    assert decodes == [0]  # the 99,999 nested braces are not tried


def _finding_reply(**fields) -> str:
    entry = {
        "file": "src/Main.java",
        "start_line": 1,
        "end_line": 1,
        "severity": "low",
        "description": "unchecked input",
        "rationale": "",
        "spec_ids": [],
    }
    entry.update(fields)
    return json.dumps({"findings": [entry]})


def _issue_reply(**fields) -> str:
    entry = {"file": "src/Main.java", "start_line": 1, "end_line": 1, "description": "d"}
    entry.update(fields)
    return json.dumps({"issues": [entry]})


def _findings(text):
    return parse_findings_response(text, Pathway.EXPLICIT)


# json.dumps writes a lone surrogate as its escape, "\ud800".
LONE_SURROGATE_REPLIES = [
    (_findings, _finding_reply(file="src/\ud800.java")),
    (_findings, _finding_reply(description="x \ud800")),
    (_findings, _finding_reply(rationale="\udfff trailing")),
    (parse_proposals_response, _issue_reply(file="\udc00")),
    (parse_proposals_response, _issue_reply(description="x \udfff")),
    (parse_verdict_response, json.dumps({"verdict": "valid", "justification": "\ud83d"})),
    (
        parse_patch_response,
        json.dumps({"patch_unified_diff": "", "explanation": "half \ude00 a pair"}),
    ),
    # Upper-case escape, and raw surrogate characters rather than escapes.
    (_findings, _finding_reply(description="X").replace("X", "\\uD800")),
    (_findings, json.dumps(json.loads(_finding_reply(description="x \ud800")), ensure_ascii=False)),
]


@pytest.mark.parametrize(
    "parse, text",
    LONE_SURROGATE_REPLIES,
    ids=[
        "findings-file",
        "findings-description",
        "findings-rationale",
        "proposals-file",
        "proposals-description",
        "verdict-justification",
        "patch-explanation",
        "upper-case-escape",
        "raw-character",
    ],
)
def test_every_parser_calls_a_lone_surrogate_unparsable(parse, text):
    with pytest.raises(UnparsableResponse, match="unpaired surrogate"):
        parse(text)


def test_an_escaped_surrogate_pair_parses():
    pair = "\\ud83d\\ude00"
    text = _finding_reply(description="X", rationale="Y").replace("X", pair).replace("Y", pair)
    (finding,) = _findings(text)
    assert finding.description == finding.rationale == "\U0001f600"
    (issue,) = parse_proposals_response(_issue_reply(description="X").replace("X", pair))
    assert issue.description == "\U0001f600"
    verdict = parse_verdict_response('{"verdict": "valid", "justification": "%s"}' % pair)
    assert verdict.justification == "\U0001f600"
    _, explanation = parse_patch_response(
        '{"patch_unified_diff": "", "explanation": "%s"}' % pair
    )
    assert explanation == "\U0001f600"


def test_a_surrogate_outside_the_document_or_behind_a_backslash_parses():
    assert extract_json_document('prose \\ud800 then {"a": 1}') == {"a": 1}
    # An escaped backslash then "ud800": six plain characters.
    assert extract_json_document('{"a": "\\\\ud800"}') == {"a": "\\ud800"}


def test_only_a_reply_with_a_surrogate_escape_has_its_strings_walked(monkeypatch):
    import sgcr.parsing

    walked = []
    walk = sgcr.parsing._has_lone_surrogate

    def counting(document):
        walked.append(document)
        return walk(document)

    monkeypatch.setattr(sgcr.parsing, "_has_lone_surrogate", counting)
    astral = _finding_reply(description="caf\u00e9 \u4e2d \U0001f600")
    _findings(json.dumps(json.loads(astral), ensure_ascii=False))
    _findings(_finding_reply(description="caf\u00e9 \u4e2d"))
    assert walked == []
    _findings(astral)  # json.dumps escapes the astral character as a pair
    assert len(walked) == 1

def test_parse_findings_with_a_library_drops_unknown_ids_and_resolves_category(caplog):
    library = make_library(
        make_spec("sec.input", category=Category.SECURITY),
        make_spec("style.naming", category=Category.STYLE),
    )
    text = findings_json(
        {"start_line": 3, "description": "raw input", "spec_ids": ["ghost.rule", "sec.input"]},
        {"start_line": 5, "description": "odd name", "spec_ids": ["style.naming"]},
        {"start_line": 7, "description": "cites nothing known", "spec_ids": ["ghost.rule"]},
    )
    with caplog.at_level("WARNING", logger="sgcr.parsing"):
        findings = parse_findings_response(text, Pathway.EXPLICIT, library)
    assert [(f.spec_ids, f.category) for f in findings] == [
        (("sec.input",), Category.SECURITY),
        (("style.naming",), Category.STYLE),
        ((), Category.MAINTAINABILITY),
    ]
    warnings = [record.getMessage() for record in caplog.records]
    assert len(warnings) == 2
    assert all("['ghost.rule']" in warning for warning in warnings)
    assert findings[0].finding_id in warnings[0] and findings[2].finding_id in warnings[1]

    # Without a library the ids stay as cited and the category is the default.
    unresolved = parse_findings_response(text, Pathway.EXPLICIT)
    assert unresolved[0].spec_ids == ("ghost.rule", "sec.input")
    assert {f.category for f in unresolved} == {Category.MAINTAINABILITY}
    assert [f.finding_id for f in unresolved] == [f.finding_id for f in findings]


def test_parse_findings_two_valid_sorted():
    text = json.dumps(
        {
            "findings": [
                {
                    "file": "b.java",
                    "start_line": 5,
                    "end_line": 6,
                    "severity": "high",
                    "description": "later file",
                },
                {
                    "file": "a.java",
                    "start_line": 9,
                    "end_line": 9,
                    "severity": "low",
                    "description": "earlier file",
                },
            ]
        }
    )
    findings = parse_findings_response(text, Pathway.EXPLICIT)
    assert [finding.file for finding in findings] == ["a.java", "b.java"]
    assert findings[0].severity is Severity.LOW
    assert all(finding.pathway is Pathway.EXPLICIT for finding in findings)


def test_parse_findings_prose_is_unparsable():
    with pytest.raises(UnparsableResponse):
        parse_findings_response("I could not find any problems.", Pathway.EXPLICIT)


def test_parse_findings_requires_list():
    with pytest.raises(UnparsableResponse):
        parse_findings_response('{"findings": "none"}', Pathway.EXPLICIT)


def test_parse_findings_drops_invalid_entries_keeps_valid(caplog):
    text = json.dumps(
        {
            "findings": [
                {
                    "file": "a.java",
                    "start_line": 9,
                    "end_line": 3,
                    "severity": "low",
                    "description": "inverted range",
                },
                {
                    "file": "a.java",
                    "start_line": 1,
                    "end_line": 2,
                    "severity": "medium",
                    "description": "valid one",
                },
            ]
        }
    )
    with caplog.at_level("WARNING"):
        findings = parse_findings_response(text, Pathway.IMPLICIT)
    assert len(findings) == 1
    assert findings[0].description == "valid one"
    assert "invalid line range" in caplog.text


@pytest.mark.parametrize(
    "entry",
    [
        {"start_line": True, "end_line": 2, "severity": "low", "description": "d", "file": "f"},
        {"start_line": 1, "end_line": 2, "severity": "urgent", "description": "d", "file": "f"},
        {"start_line": 1, "end_line": 2, "severity": "low", "description": "", "file": "f"},
        {"start_line": 1, "end_line": 2, "severity": "low", "description": "d", "file": ""},
        {"start_line": 1, "end_line": 2, "severity": "low", "description": "d", "file": "f", "spec_ids": [1]},
        "not an object",
    ],
)
def test_parse_findings_rejects_each_bad_entry(entry):
    text = json.dumps({"findings": [entry]})
    assert parse_findings_response(text, Pathway.EXPLICIT) == []


def test_parse_findings_non_string_rationale_becomes_empty():
    text = json.dumps(
        {
            "findings": [
                {
                    "file": "f",
                    "start_line": 1,
                    "end_line": 1,
                    "severity": "low",
                    "description": "d",
                    "rationale": 42,
                }
            ]
        }
    )
    assert parse_findings_response(text, Pathway.EXPLICIT)[0].rationale == ""


def test_parse_proposals_empty_list():
    assert parse_proposals_response('{"issues": []}') == []


def test_parse_proposals_preserves_response_order():
    text = json.dumps(
        {
            "issues": [
                {"file": "z.java", "start_line": 9, "end_line": 9, "description": "second file"},
                {"file": "a.java", "start_line": 1, "end_line": 2, "description": "first file"},
            ]
        }
    )
    issues = parse_proposals_response(text)
    assert [issue.file for issue in issues] == ["z.java", "a.java"]


def test_parse_proposals_drops_bad_entries():
    text = json.dumps(
        {
            "issues": [
                {"file": "f", "start_line": 0, "end_line": 1, "description": "bad range"},
                {"file": "f", "start_line": 1, "end_line": 1, "description": "good"},
            ]
        }
    )
    issues = parse_proposals_response(text)
    assert [issue.description for issue in issues] == ["good"]


def test_parse_proposals_requires_list():
    with pytest.raises(UnparsableResponse):
        parse_proposals_response('{"issues": null}')


def test_parse_verdict_valid():
    verdict = parse_verdict_response(
        '{"verdict": "valid", "justification": "yes", "cited_spec_ids": ["r.a"], "severity": "high"}'
    )
    assert verdict.verdict is Verdict.VALID
    assert verdict.justification == "yes"
    assert verdict.cited_spec_ids == ("r.a",)
    assert verdict.severity is Severity.HIGH


def test_parse_verdict_unknown_value_is_unparsable():
    with pytest.raises(UnparsableResponse):
        parse_verdict_response('{"verdict": "maybe"}')


def test_parse_verdict_tolerates_missing_optionals(caplog):
    with caplog.at_level("WARNING"):
        verdict = parse_verdict_response('{"verdict": "uncertain", "severity": "huge"}')
    assert verdict.verdict is Verdict.UNCERTAIN
    assert verdict.justification == ""
    assert verdict.cited_spec_ids == ()
    assert verdict.severity is None
    assert "bad verifier severity" in caplog.text


def test_parse_patch_response():
    diff, explanation = parse_patch_response(
        '{"patch_unified_diff": "--- a/f\\n+++ b/f\\n", "explanation": "fix"}'
    )
    assert diff.startswith("--- a/f")
    assert explanation == "fix"


def test_parse_patch_response_requires_diff_string():
    with pytest.raises(UnparsableResponse):
        parse_patch_response('{"explanation": "no diff"}')
    diff, explanation = parse_patch_response('{"patch_unified_diff": "", "explanation": 3}')
    assert diff == ""
    assert explanation == ""
