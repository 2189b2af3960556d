"""Strict parsers turning raw model text into domain objects.

Parsers are total: any input yields either parsed values or a typed
UnparsableResponse, never an unhandled exception. A response must contain
exactly one readable JSON document (leading prose or code fences before it
are tolerated); within a well-formed document, entries that violate the
schema are dropped with a warning while valid siblings survive.
"""

from __future__ import annotations

import json
import logging
import re
from typing import Optional

from .errors import UnparsableResponse
from .specs import SpecLibrary, resolve_category
from .types import (
    Category,
    Finding,
    HypotheticalIssue,
    Pathway,
    Severity,
    Verdict,
    VerifierVerdict,
    content_id,
    sort_findings,
)

logger = logging.getLogger(__name__)

# Severity by its JSON value, looked up without an Enum call per entry.
_SEVERITY_BY_VALUE = {severity.value: severity for severity in Severity}


def _severity(value: object) -> Optional[Severity]:
    return _SEVERITY_BY_VALUE.get(value) if isinstance(value, str) else None


# A \uD800-\uDFFF escape.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _may_hold_surrogate(text: str) -> bool:
    """Whether text holds a surrogate escape or raw surrogate characters.

    Only such a reply can decode to a string that UTF-8 cannot encode. The
    screen runs in C: a reply with no backslash skips the regex.
    """
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        return True
    return not _encodes(text)


def _has_lone_surrogate(document: dict) -> bool:
    """Whether any key or string value in document fails to encode as UTF-8.

    Walked with a stack, not recursion, so no document the decoder
    accepts is too deep for the walk.
    """
    stack: list = [document]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, str) and not _encodes(value):
            return True
    return False


def extract_json_document(text: str) -> dict:
    """Return the first JSON object found in text, or raise UnparsableResponse.

    A document nested deeper than the decoder can recurse is unparsable as
    a whole: the braces inside it are not tried one by one. So is a
    document holding a string with an unpaired surrogate (a lone
    "\\ud800" escape is valid JSON): such a string cannot be hashed into
    an id or written as UTF-8, so the reply is retried like any other
    that does not parse. Only a reply whose text holds a \\uD800-\\uDFFF
    escape or does not encode as UTF-8 has its strings checked.
    """
    decoder = json.JSONDecoder()
    index = text.find("{")
    while index != -1:
        try:
            value, _ = decoder.raw_decode(text, index)
        except RecursionError:
            raise UnparsableResponse("JSON in model response is nested too deeply") from None
        except ValueError:
            index = text.find("{", index + 1)
            continue
        if isinstance(value, dict):
            if _may_hold_surrogate(text) and _has_lone_surrogate(value):
                raise UnparsableResponse("JSON in model response holds an unpaired surrogate")
            return value
        index = text.find("{", index + 1)
    raise UnparsableResponse("no JSON object found in model response")


def _line_range(entry: dict) -> Optional[tuple[int, int]]:
    start, end = entry.get("start_line"), entry.get("end_line")
    if not isinstance(start, int) or isinstance(start, bool):
        return None
    if not isinstance(end, int) or isinstance(end, bool):
        return None
    if start < 1 or end < start:
        return None
    return start, end


def _string_list(value) -> Optional[list[str]]:
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        return None
    return value


def parse_findings_response(
    text: str, pathway: Pathway, library: Optional[SpecLibrary] = None
) -> list[Finding]:
    """Parse a findings-schema response; invalid entries are dropped.

    With a library, each finding is built once and already normalized:
    cited ids the library does not hold are dropped with a warning, and
    the category is resolved from the ids that remain. Without one, the
    ids are kept as cited and the category is the default.
    """
    document = extract_json_document(text)
    entries = document.get("findings")
    if not isinstance(entries, list):
        raise UnparsableResponse('response has no "findings" list')

    findings: list[Finding] = []
    for position, entry in enumerate(entries):
        finding = _parse_finding_entry(entry, pathway, position, library)
        if finding is not None:
            findings.append(finding)
    return sort_findings(findings)


def _parse_finding_entry(
    entry, pathway: Pathway, position: int, library: Optional[SpecLibrary]
) -> Optional[Finding]:
    if not isinstance(entry, dict):
        logger.warning("dropping finding %d: not an object", position)
        return None
    file = entry.get("file")
    description = entry.get("description")
    if not isinstance(file, str) or not file:
        logger.warning("dropping finding %d: missing file", position)
        return None
    if not isinstance(description, str) or not description:
        logger.warning("dropping finding %d: missing description", position)
        return None
    lines = _line_range(entry)
    if lines is None:
        logger.warning("dropping finding %d: invalid line range", position)
        return None
    severity = _severity(entry.get("severity"))
    if severity is None:
        logger.warning("dropping finding %d: bad severity %r", position, entry.get("severity"))
        return None
    spec_ids = _string_list(entry.get("spec_ids"))
    if spec_ids is None:
        logger.warning("dropping finding %d: spec_ids is not a string list", position)
        return None
    rationale = entry.get("rationale")
    if not isinstance(rationale, str):
        rationale = ""
    category = Category.MAINTAINABILITY
    if library is not None:
        if not all(map(library.__contains__, spec_ids)):
            kept = [spec_id for spec_id in spec_ids if spec_id in library]
            logger.warning(
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


def parse_proposals_response(text: str) -> list[HypotheticalIssue]:
    """Parse a proposer response, preserving response order."""
    document = extract_json_document(text)
    entries = document.get("issues")
    if not isinstance(entries, list):
        raise UnparsableResponse('response has no "issues" list')

    issues: list[HypotheticalIssue] = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            logger.warning("dropping issue %d: not an object", position)
            continue
        file = entry.get("file")
        description = entry.get("description")
        lines = _line_range(entry)
        if not isinstance(file, str) or not file:
            logger.warning("dropping issue %d: missing file", position)
            continue
        if not isinstance(description, str) or not description:
            logger.warning("dropping issue %d: missing description", position)
            continue
        if lines is None:
            logger.warning("dropping issue %d: invalid line range", position)
            continue
        issues.append(
            HypotheticalIssue(
                file=file, start_line=lines[0], end_line=lines[1], description=description
            )
        )
    return issues


def parse_verdict_response(text: str) -> VerifierVerdict:
    """Parse a verifier response; an unknown verdict value is unparsable."""
    document = extract_json_document(text)
    try:
        verdict = Verdict(document.get("verdict"))
    except ValueError:
        raise UnparsableResponse(f"verdict {document.get('verdict')!r} not in valid|invalid|uncertain") from None
    justification = document.get("justification")
    if not isinstance(justification, str):
        justification = ""
    cited = _string_list(document.get("cited_spec_ids"))
    if cited is None:
        logger.warning("verifier cited_spec_ids is not a string list, ignoring")
        cited = []
    severity: Optional[Severity] = None
    raw_severity = document.get("severity")
    if raw_severity is not None:
        severity = _severity(raw_severity)
        if severity is None:
            logger.warning("ignoring bad verifier severity %r", raw_severity)
    return VerifierVerdict(
        verdict=verdict,
        justification=justification,
        cited_spec_ids=tuple(cited),
        severity=severity,
    )


def parse_patch_response(text: str) -> tuple[str, str]:
    """Parse a patch-generator response into (unified_diff, explanation)."""
    document = extract_json_document(text)
    diff = document.get("patch_unified_diff")
    if not isinstance(diff, str):
        raise UnparsableResponse('response has no "patch_unified_diff" string')
    explanation = document.get("explanation")
    if not isinstance(explanation, str):
        explanation = ""
    return diff, explanation
