"""Strict parsers turning raw model text into domain objects.

Parsers are total: any input yields either parsed values or a typed
UnparsableResponse, never an unhandled exception. A response must contain
exactly one readable JSON document (leading prose or code fences before it
are tolerated); within a well-formed document, entries that violate the
schema are dropped with a warning while valid siblings survive.

The findings parser, which reads most of a run's replies, checks each
entry in one inline pass with exact-type tests and builds one Finding per
distinct entry through a FindingTable. The explicit pathway's one table
(explicit.review_chunks) dies with the pathway, and its pool workers share
it without a lock, as they share matching.TokenTable: a race only builds an
equal Finding twice. So an entry that agreeing members repeat is built, and
its location hashed (content_id), once. A call given no table uses a fresh one.
"""

from __future__ import annotations

import json
import logging
import re
from itertools import repeat
from typing import Optional

from .errors import UnparsableResponse
from .specs import SpecLibrary, resolve_category
from .types import (
    SEVERITY_BY_VALUE,
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
        # raw_decode at a "{" returns an object or raises.
        if _may_hold_surrogate(text) and _has_lone_surrogate(value):
            raise UnparsableResponse("JSON in model response holds an unpaired surrogate")
        return value
    raise UnparsableResponse("no JSON object found in model response")


def _string_list(value) -> Optional[list[str]]:
    if value is None:
        return []
    if type(value) is not list or not all(map(isinstance, value, repeat(str))):
        return None
    return value


class FindingTable(dict):
    """Location (file, start, end, description) -> content_id, hashed on a
    miss, and validated entry (location, severity, rationale, kept spec ids)
    -> the Finding built for it. Use a table with one pathway and library.
    """

    def __missing__(self, location: tuple) -> str:
        finding_id = self[location] = content_id(*location)
        return finding_id


def parse_findings_response(
    text: str, pathway: Pathway, library: Optional[SpecLibrary] = None,
    *, table: Optional[FindingTable] = None,
) -> list[Finding]:
    """Parse a findings-schema response; invalid entries are dropped.

    Each entry is checked in one pass, in this order, and the first check
    it fails drops it with a warning: an object; a non-empty string file;
    a non-empty string description; integer start and end lines with
    1 <= start <= end; a known severity; spec_ids absent, null or a list
    of strings. A rationale that is not a string becomes "". The checks
    compare exact types: the decoder makes only dict, list, str, int,
    float, bool and None, and only the exact type rejects true as a line
    number.

    With a library, each finding is built once and already normalized:
    cited ids the library does not hold are dropped with a warning, and
    the category is resolved from the ids that remain. Without one, the
    ids are kept as cited and the category is the default. Warnings are
    logged per entry; an entry the table (module docstring) already holds
    yields the Finding built for it.
    """
    document = extract_json_document(text)
    entries = document.get("findings")
    if type(entries) is not list:
        raise UnparsableResponse('response has no "findings" list')

    if table is None:
        table = FindingTable()
    findings: list[Finding] = []
    for position, entry in enumerate(entries):
        if type(entry) is not dict:
            logger.warning("dropping finding %d: not an object", position)
            continue
        file = entry.get("file")
        if type(file) is not str or not file:
            logger.warning("dropping finding %d: missing file", position)
            continue
        description = entry.get("description")
        if type(description) is not str or not description:
            logger.warning("dropping finding %d: missing description", position)
            continue
        start = entry.get("start_line")
        end = entry.get("end_line")
        if type(start) is not int or type(end) is not int or not 1 <= start <= end:
            logger.warning("dropping finding %d: invalid line range", position)
            continue
        raw_severity = entry.get("severity")
        severity = SEVERITY_BY_VALUE.get(raw_severity) if type(raw_severity) is str else None
        if severity is None:
            logger.warning("dropping finding %d: bad severity %r", position, raw_severity)
            continue
        spec_ids = entry.get("spec_ids")
        if spec_ids is None:
            spec_ids = []
        elif type(spec_ids) is not list or not all(map(isinstance, spec_ids, repeat(str))):
            logger.warning("dropping finding %d: spec_ids is not a string list", position)
            continue
        rationale = entry.get("rationale")
        if type(rationale) is not str:
            rationale = ""
        if library is not None and not all(map(library.__contains__, spec_ids)):
            kept = [spec_id for spec_id in spec_ids if spec_id in library]
            logger.warning(
                "finding %s cites unknown rule ids %s; dropping them",
                table[file, start, end, description],
                sorted(set(spec_ids) - set(kept)),
            )
            spec_ids = kept
        key = (file, start, end, description, severity, rationale, tuple(spec_ids))
        finding = table.get(key)
        if finding is None:
            category = Category.MAINTAINABILITY
            if library is not None:
                category = resolve_category(spec_ids, library)
            finding = table[key] = Finding(
                file, start, end, description, severity, pathway, rationale,
                key[6], 1.0, category, None, table[file, start, end, description],
            )
        findings.append(finding)
    return sort_findings(findings)


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
        start = entry.get("start_line")
        end = entry.get("end_line")
        if not isinstance(file, str) or not file:
            logger.warning("dropping issue %d: missing file", position)
            continue
        if not isinstance(description, str) or not description:
            logger.warning("dropping issue %d: missing description", position)
            continue
        if type(start) is not int or type(end) is not int or not 1 <= start <= end:
            logger.warning("dropping issue %d: invalid line range", position)
            continue
        issues.append(
            HypotheticalIssue(file=file, start_line=start, end_line=end, description=description)
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
        severity = SEVERITY_BY_VALUE.get(raw_severity) if type(raw_severity) is str else None
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
