"""Model response parsers: strict schemas, tolerant of surrounding prose."""

from __future__ import annotations

import json
import logging
import os
import random
import sys
import threading

import pytest

from conftest import findings_json, make_library, make_spec
from sgcr.errors import SgcrError, UnparsableResponse
from sgcr.parsing import (
    FindingTable,
    extract_json_document,
    parse_findings_response,
    parse_patch_response,
    parse_proposals_response,
    parse_verdict_response,
)
from sgcr.specs import resolve_category
from sgcr.types import (
    Category,
    Finding,
    Pathway,
    Severity,
    Verdict,
    content_id,
)


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


def test_parse_proposals_drops_an_issue_that_is_not_an_object(caplog):
    good = {"file": "f", "start_line": 1, "end_line": 1, "description": "good"}
    text = json.dumps({"issues": ["not an object", good, ["file"], None]})
    with caplog.at_level(logging.WARNING, logger="sgcr.parsing"):
        issues = parse_proposals_response(text)
    assert [issue.description for issue in issues] == ["good"]
    dropped = [r.getMessage() for r in caplog.records if "not an object" in r.getMessage()]
    assert dropped == [f"dropping issue {i}: not an object" for i in (0, 2, 3)]


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


# -- seeded fuzz and the findings-entry oracle ---------------------------

_reference_logger = logging.getLogger("sgcr.parsing")


def _reference_line_range(entry):
    start, end = entry.get("start_line"), entry.get("end_line")
    if not isinstance(start, int) or isinstance(start, bool):
        return None
    if not isinstance(end, int) or isinstance(end, bool):
        return None
    if start < 1 or end < start:
        return None
    return start, end


def _reference_string_list(value):
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        return None
    return value


_REFERENCE_SEVERITIES = {severity.value: severity for severity in Severity}


def _reference_severity(value):
    return _REFERENCE_SEVERITIES.get(value) if isinstance(value, str) else None


def _reference_parse_finding_entry(entry, pathway, position, library):
    """The per-entry parser findings replies were read with, kept as the oracle."""
    if not isinstance(entry, dict):
        _reference_logger.warning("dropping finding %d: not an object", position)
        return None
    file = entry.get("file")
    description = entry.get("description")
    if not isinstance(file, str) or not file:
        _reference_logger.warning("dropping finding %d: missing file", position)
        return None
    if not isinstance(description, str) or not description:
        _reference_logger.warning("dropping finding %d: missing description", position)
        return None
    lines = _reference_line_range(entry)
    if lines is None:
        _reference_logger.warning("dropping finding %d: invalid line range", position)
        return None
    severity = _reference_severity(entry.get("severity"))
    if severity is None:
        _reference_logger.warning(
            "dropping finding %d: bad severity %r", position, entry.get("severity")
        )
        return None
    spec_ids = _reference_string_list(entry.get("spec_ids"))
    if spec_ids is None:
        _reference_logger.warning("dropping finding %d: spec_ids is not a string list", position)
        return None
    rationale = entry.get("rationale")
    if not isinstance(rationale, str):
        rationale = ""
    category = Category.MAINTAINABILITY
    if library is not None:
        if not all(spec_id in library for spec_id in spec_ids):
            kept = [spec_id for spec_id in spec_ids if spec_id in library]
            _reference_logger.warning(
                "finding %s cites unknown rule ids %s; dropping them",
                content_id(file, lines[0], lines[1], description),
                sorted(set(spec_ids) - set(kept)),
            )
            spec_ids = kept
        category = resolve_category(spec_ids, library)
    return Finding(
        file=file,
        start_line=lines[0],
        end_line=lines[1],
        description=description,
        severity=severity,
        pathway=pathway,
        rationale=rationale,
        spec_ids=tuple(spec_ids),
        category=category,
    )


def _reference_parse_findings(text, pathway, library):
    entries = extract_json_document(text).get("findings")
    if not isinstance(entries, list):
        raise UnparsableResponse('response has no "findings" list')
    findings = []
    for position, entry in enumerate(entries):
        finding = _reference_parse_finding_entry(entry, pathway, position, library)
        if finding is not None:
            findings.append(finding)
    return sorted(findings, key=lambda finding: finding.sort_key())


ORACLE_LIBRARY = make_library(
    make_spec("sec.input", category=Category.SECURITY),
    make_spec("style.naming", category=Category.STYLE),
    make_spec("perf.loop", category=Category.PERFORMANCE),
)

# Values each field may take; every type the decoder makes appears.
_ODD = [None, True, False, 0, 1.0, 2.5, "", "x", [], ["x"], {}, {"a": 1}, 10**30, -1]
ENTRY_FIELDS = {
    "file": ["a.java", "src/B.java", "a.java"] + _ODD,
    "description": ["null check missing", "retry without backoff"] + _ODD,
    "start_line": [1, 2, 3, 5, 10**20] + _ODD,
    "end_line": [1, 3, 5, 7, 10**20] + _ODD,
    "severity": ["critical", "high", "medium", "low", "low", "urgent", "HIGH"] + _ODD,
    "spec_ids": [
        [],
        ["sec.input"],
        ["style.naming", "perf.loop"],
        ["ghost.rule"],
        ["sec.input", "ghost.rule", "ghost.rule"],
        "sec.input",
        [1],
        [None],
        ["sec.input", True],
    ]
    + _ODD,
    "rationale": ["because", ""] + _ODD,
}


def _random_entry(rng):
    if rng.random() < 0.05:
        return rng.choice(["not an object", 7, None, True, ["file"], 1.5])
    entry = {}
    for key, values in ENTRY_FIELDS.items():
        # Mostly a well-formed value, so that the later checks are reached.
        if rng.random() < 0.1:
            continue
        entry[key] = rng.choice(values[:3]) if rng.random() < 0.7 else rng.choice(values)
    if rng.random() < 0.2:
        entry["extra"] = rng.choice(_ODD)
    return entry


def _records(caplog):
    return [(record.name, record.levelno, record.getMessage()) for record in caplog.records]


def test_findings_parser_matches_the_per_entry_oracle_on_random_entries(caplog):
    """With a fresh finding table per reply, and with one table per pathway
    and library kept across all replies, as the explicit pathway keeps one:
    the same findings and the same warnings, each logged per entry."""
    rng = random.Random(20261018)
    tables = {}
    shared = []
    for _ in range(400):
        entries = [_random_entry(rng) for _ in range(rng.randint(0, 12))]
        text = json.dumps({"findings": entries})
        pathway = rng.choice(list(Pathway))
        library = rng.choice([None, ORACLE_LIBRARY])
        caplog.clear()
        with caplog.at_level("WARNING", logger="sgcr.parsing"):
            expected = _reference_parse_findings(text, pathway, library)
        expected_records = _records(caplog)
        for table in (None, tables.setdefault((pathway, library is None), FindingTable())):
            caplog.clear()
            with caplog.at_level("WARNING", logger="sgcr.parsing"):
                parsed = parse_findings_response(text, pathway, library, table=table)
            assert parsed == expected, text
            assert [f.finding_id for f in parsed] == [f.finding_id for f in expected]
            assert _records(caplog) == expected_records, text
        shared.extend(parsed)
    # Replies repeated entries, and the kept tables handed back what they held.
    assert len({id(finding) for finding in shared}) < len(shared)


def test_threads_sharing_a_finding_table_get_what_a_fresh_parse_gives():
    """More threads than cores parse agreeing replies through one table while
    the interpreter switches threads every microsecond. A race may build an
    entry's Finding twice, never a different one: each thread gets exactly
    what a parse with a fresh table gives."""
    replies = [
        findings_json(
            *(
                {
                    "start_line": (reply * entry) % 7 + 1,
                    "description": f"issue {entry % 5} of the loop",
                    "severity": ("low", "high")[entry % 2],
                    "spec_ids": [("sec.input", "ghost.rule", "perf.loop")[entry % 3]],
                }
                for entry in range(12)
            )
        )
        for reply in range(6)
    ]
    expected = [parse_findings_response(r, Pathway.EXPLICIT, ORACLE_LIBRARY) for r in replies]
    table = FindingTable()
    workers = min(2 * (os.cpu_count() or 1) + 1, 17)
    start = threading.Barrier(workers)
    mismatches = []

    def parse_all():
        start.wait(timeout=30)
        for _ in range(30):
            for reply, want in zip(replies, expected):
                got = parse_findings_response(reply, Pathway.EXPLICIT, ORACLE_LIBRARY, table=table)
                if got != want or [f.finding_id for f in got] != [f.finding_id for f in want]:
                    mismatches.append(reply)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_all) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert {finding for findings in expected for finding in findings} == {
        finding for key, finding in table.items() if len(key) == 7
    }


def _valid_documents():
    finding = {
        "file": "a.java",
        "start_line": 2,
        "end_line": 3,
        "severity": "high",
        "description": "d",
        "rationale": "r",
        "spec_ids": ["sec.input"],
    }
    issue = {"file": "a.java", "start_line": 2, "end_line": 3, "description": "d"}
    verdict = {
        "verdict": "valid",
        "justification": "j",
        "cited_spec_ids": ["sec.input"],
        "severity": "low",
    }
    patch = {"patch_unified_diff": "--- a\n+++ b\n", "explanation": "e"}
    return {
        "findings": {"findings": [finding, dict(finding, start_line=1)]},
        "findings-library": {"findings": [finding, dict(finding, spec_ids=["ghost"])]},
        "proposals": {"issues": [issue, dict(issue, description="e")]},
        "verdict": verdict,
        "patch": patch,
    }


FUZZ_PARSERS = {
    "findings": lambda text: parse_findings_response(text, Pathway.EXPLICIT),
    "findings-library": lambda text: parse_findings_response(
        text, Pathway.IMPLICIT, ORACLE_LIBRARY
    ),
    "proposals": parse_proposals_response,
    "verdict": parse_verdict_response,
    "patch": parse_patch_response,
}

# Control, astral, surrogate and separator characters, raw and escaped.
_FUZZ_CHARACTERS = [
    "\x00", "\x07", "\x1f", "\x7f", "\x85", "\u2028", "\ufeff", "\U0001f600",
    "\ud800", "\udfff", "\\ud800", "\\u0000", "\\", '"', "{", "}", "[", "]", ",", ":",
]
_FUZZ_VALUES = [
    None, True, False, 0, -1, 1.0, 2.5, 1e308, 10**400 // 10**100, "", "x", "\ud800",
    "\U0001f600", "\x00", [], ["x"], [1], [None], {}, {"verdict": "valid"},
]


def _mutate_value(rng, value, depth=0):
    if isinstance(value, dict) and depth < 3:
        mutated = {}
        for key, item in value.items():
            roll = rng.random()
            if roll < 0.1:
                continue  # missing key
            mutated[key] = _mutate_value(rng, item, depth + 1) if roll < 0.6 else item
        return mutated
    if isinstance(value, list) and depth < 3:
        return [_mutate_value(rng, item, depth + 1) for item in value if rng.random() > 0.1]
    if rng.random() < 0.5:
        return rng.choice(_FUZZ_VALUES)  # a type swap, a bool for an int, a huge number
    return value


def _mutate_text(rng, text):
    roll = rng.random()
    if roll < 0.2:
        return text[: rng.randint(0, len(text))]  # truncation
    if roll < 0.5:
        position = rng.randint(0, len(text))
        return text[:position] + rng.choice(_FUZZ_CHARACTERS) + text[position:]
    if roll < 0.6:
        # Digits too many for int(), or a number too large for a float.
        return text.replace("2", rng.choice(["9" * 5000, "1e400", "-1e400", "2.0"]), 1)
    return text


@pytest.mark.parametrize("name", sorted(FUZZ_PARSERS))
def test_every_parser_raises_only_pipeline_errors_on_fuzzed_replies(name):
    rng = random.Random(f"fuzz:{name}")
    parse = FUZZ_PARSERS[name]
    document = _valid_documents()[name]
    outcomes = {"parsed": 0, "unparsable": 0}
    for _ in range(600):
        mutated = _mutate_value(rng, document)
        text = json.dumps(mutated, ensure_ascii=rng.random() < 0.5)
        text = _mutate_text(rng, text)
        try:
            parse(text)
        except SgcrError:
            outcomes["unparsable"] += 1
        else:
            outcomes["parsed"] += 1
    # Both outcomes occur, so the fuzzing reaches past the decoder.
    assert outcomes["parsed"] and outcomes["unparsable"], outcomes
