r"""Every text a model reads: role templates, their blocks, and a header reader.

Each template instructs the model to answer with exactly one JSON document
matching its role's response schema (see parsing). Rendering is a pure
string substitution: identical inputs yield identical prompts, which the
request fingerprinting in the gateway relies on. The blocks (code, rules,
issue, finding, candidates) are written here alone, and the module imports
nothing of sgcr at run time, so any module may import it.

prompt_headers reads back, for the mock backend, what code_block and
rule_text write. A ``FILE`` header's path is everything between ``FILE ``
and the `` (lines a..b)`` that ends its line. code_block writes a path
that holds a control character, ``"`` or ``\`` in git's C-quoted form
(quote_path), so a newline cannot split its header, and prompt_headers
undoes the quoting (unquote_path, which also reads the paths git quotes
in a diff's file headers). A header counts only at the
start of the prompt or right after ``"\n"`` (not after a lone ``"\r"``,
nor indented or mid-line). The first ``FILE`` header wins; ``RULE`` ids
come back in prompt order, duplicates kept. Each header shape is matched
once at position 0, and searched for past it by a pattern that starts with
the literal ``"\n"``: the regex engine then jumps between candidate lines
with its literal-prefix search. A pattern starting with ``^`` under
``re.MULTILINE`` is tried at every character of a prompt that may hold 48k
of them, and an alternation in front (``(?:^|\n)``) loses the literal
prefix too and is slower still. Scanning ``"\n" + prompt`` instead of the
position-0 match costs as little time, but copies every prompt, and
verifier prompts each hold the whole code block.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from string import Template
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # annotations only, as ingestion imports this module
    from .ingestion import ReviewUnit
    from .specs import SpecChunk, SpecLibrary, Specification
    from .types import Finding, HypotheticalIssue


class Role(str, Enum):
    EXPLICIT_REVIEWER = "explicit_reviewer"
    AGGREGATOR = "aggregator"
    PROPOSER = "proposer"
    VERIFIER = "verifier"
    SYNTHESIZER = "synthesizer"
    PATCH_GENERATOR = "patch_generator"


FINDINGS_SCHEMA_NOTE = (
    'Respond with exactly one JSON document and nothing else, of the form:\n'
    '{"findings": [{"file": "path", "start_line": 1, "end_line": 2,\n'
    '  "severity": "critical|high|medium|low", "description": "...",\n'
    '  "rationale": "...", "spec_ids": ["rule-id"]}]}'
)

_TEMPLATES: dict[Role, Template] = {
    Role.EXPLICIT_REVIEWER: Template(
        "You are a code reviewer. Review the code below strictly against the"
        " rules that follow. Report only violations of those rules, citing"
        " the rule ids you relied on in spec_ids, with the file path and"
        " 1-based line range of each violation.\n\n"
        "Rules:\n$specs\n\n"
        "Code under review:\n$code\n\n" + FINDINGS_SCHEMA_NOTE
    ),
    Role.AGGREGATOR: Template(
        "You are merging candidate code reviews produced by independent"
        " reviewers. Merge overlapping suggestions, resolve conflicts, drop"
        " anomalies no reviewer consensus supports, and keep each retained"
        " finding's file, line range, severity, and cited rule ids.\n\n"
        "Candidate reviews (JSON):\n$candidates\n\n" + FINDINGS_SCHEMA_NOTE
    ),
    Role.PROPOSER: Template(
        "You are a code reviewer performing a free-form first pass. Read the"
        " code below and list potential problems: logic errors, risky"
        " patterns, performance traps, or deviations from common best"
        " practice. Do not limit yourself to any rule list.\n\n"
        "Code under review:\n$code\n\n"
        'Respond with exactly one JSON document and nothing else, of the form:\n'
        '{"issues": [{"file": "path", "start_line": 1, "end_line": 2,'
        ' "description": "..."}]}'
    ),
    Role.VERIFIER: Template(
        "You are verifying a hypothetical code review issue. Decide whether"
        " the issue below is a real problem in the code, judged in light of"
        " the project rules provided. Cite only rule ids from the provided"
        " list in cited_spec_ids.\n\n"
        "Hypothetical issue:\n$issue\n\n"
        "Project rules retrieved for this issue:\n$retrieved_specs\n\n"
        "Code under review:\n$code\n\n"
        'Respond with exactly one JSON document and nothing else, of the form:\n'
        '{"verdict": "valid|invalid|uncertain", "justification": "...",\n'
        ' "cited_spec_ids": ["rule-id"], "severity": "critical|high|medium|low"}'
    ),
    Role.SYNTHESIZER: Template(
        "You are combining partial code review reports, each produced against"
        " a different slice of the project rules, into one unified review."
        " Merge duplicates and keep every distinct finding with its file,"
        " line range, severity, and cited rule ids.\n\n"
        "Partial reports (JSON):\n$candidates\n\n" + FINDINGS_SCHEMA_NOTE
    ),
    Role.PATCH_GENERATOR: Template(
        "You are generating a minimal fix for one confirmed review finding."
        " The fix must comply with the rules below. Produce a unified diff"
        " against the code exactly as given (1-based line numbers relative"
        " to the snippet).\n\n"
        "Finding:\n$finding\n\n"
        "Rules constraining the fix:\n$specs\n\n"
        "Code (post-review content):\n$code\n\n"
        'Respond with exactly one JSON document and nothing else, of the form:\n'
        '{"patch_unified_diff": "--- a/...", "explanation": "..."}'
    ),
}


def render_prompt(role: Role, slots: dict[str, str]) -> str:
    """Fill the role's template; a missing slot raises KeyError naming it."""
    return _TEMPLATES[role].substitute(slots)


# git's C quoting (core.quotePath): the letter escapes and the bytes they
# stand for; any other escape is a byte as three octal digits. quote_path
# escapes the control characters, " and \.
_C_LETTERS, _C_BYTES = '\\"abtnvfr', b'\\"\a\b\t\n\v\f\r'
_C_ESCAPED = dict(zip(_C_LETTERS.encode(), _C_BYTES))
_C_QUOTES = {code: f"\\{code:03o}" for code in (*range(0x20), 0x7F)}
_C_QUOTES.update((byte, "\\" + letter) for letter, byte in zip(_C_LETTERS, _C_BYTES))
_QUOTED_PATH = re.compile(r'"((?:[^"\\]|\\(?:[\\"abtnvfr]|[0-3][0-7]{2}))*)"')
_C_ESCAPE = re.compile(rb'\\([\\"abtnvfr]|[0-3][0-7]{2})')


def _unescape(escape: re.Match) -> bytes:
    code = escape.group(1)
    return bytes([int(code, 8) if len(code) == 3 else _C_ESCAPED[code[0]]])


def quote_path(path: str) -> str:
    """path as a FILE header writes it: as it is, or C-quoted as git quotes it
    if it holds a control character, " or \\ (other characters kept)."""
    quoted = path.translate(_C_QUOTES)
    return path if quoted == path else f'"{quoted}"'


def unquote_path(quoted: str) -> str:
    """The path a C-quoted path (quotes included) names: its escapes undone
    and its bytes decoded as UTF-8. Raises ValueError if quoted is not one,
    and UnicodeError (a ValueError) if its bytes are not UTF-8."""
    match = _QUOTED_PATH.fullmatch(quoted)
    if match is None:
        raise ValueError(f"malformed quoted path {quoted}")
    return _C_ESCAPE.sub(_unescape, match.group(1).encode("utf-8")).decode("utf-8")


def code_block(units: Sequence[ReviewUnit]) -> str:
    """The units as numbered text, each under its FILE header and changed lines."""
    parts: list[str] = []
    for unit in units:
        header = f"FILE {quote_path(unit.path)} (lines {unit.start_line}..{unit.end_line()})"
        if unit.changed_ranges:
            spans = ", ".join(f"{start}-{end}" for start, end in unit.changed_ranges)
            header += f"\nChanged lines: {spans}"
        lines = enumerate(unit.content.splitlines(), unit.start_line)
        numbered = "\n".join(f"{number:5d} | {text}" for number, text in lines)
        parts.append(f"{header}\n{numbered}")
    return "\n\n".join(parts)


def rule_text(spec: Specification) -> str:
    """The rule as reviewer, verifier and patch prompts show it."""
    header = f"RULE {spec.id} [{spec.severity.value}/{spec.category.value}] {spec.title}"
    return f"{header}\n{spec.body}"


def rules_block(library: SpecLibrary, ids: Sequence[str], scores: Optional[list] = None) -> str:
    """The rules' texts in order, each looked up through library.get (KeyError
    if it holds no such id). With scores, the retrieval's, each rule sits under
    its score, and an empty retrieval reads as a sentence saying so."""
    if scores is not None and not ids:
        return "(no rules retrieved for this issue)"
    parts = []
    for position, spec_id in enumerate(ids):
        spec = library.get(spec_id)
        if spec is None:
            raise KeyError(f"rules block references unknown spec id {spec_id!r}")
        text = rule_text(spec)
        parts.append(text if scores is None else f"score={scores[position]:.4f}\n{text}")
    return "\n\n".join(parts)


def chunk_prompt_text(library: SpecLibrary, chunk: SpecChunk) -> str:
    """The rules block of one rule chunk (specs.segment_library)."""
    return rules_block(library, chunk.spec_ids)


def issue_block(issue: HypotheticalIssue) -> str:
    """A proposed issue as its verifiers read it."""
    return f"{issue.file} lines {issue.start_line}..{issue.end_line}: {issue.description}"


def finding_block(finding: Finding, snippet_first_line: int) -> str:
    """The finding a patch fixes, as JSON, with the line its snippet starts at."""
    fields = ("file", "start_line", "end_line", "description")
    payload = {name: getattr(finding, name) for name in fields}
    return json.dumps({**payload, "snippet_first_line": snippet_first_line}, sort_keys=True)


def candidates_block(candidates: list) -> str:
    """Candidate findings as the aggregator and synthesizer read them."""
    return json.dumps(candidates, sort_keys=True, indent=2)


_FILE_HEADER = r"FILE (.+) \(lines (\d+)\.\.(\d+)\)(?=\n|\Z)"
_RULE_HEADER = r"RULE (\S+) "
_FILE_AT_START, _FILE_AFTER_NEWLINE = re.compile(_FILE_HEADER), re.compile("\n" + _FILE_HEADER)
_RULE_AT_START, _RULE_AFTER_NEWLINE = re.compile(_RULE_HEADER), re.compile("\n" + _RULE_HEADER)


def prompt_headers(prompt: str) -> tuple[tuple[str, int, int], list[str]]:
    """The first FILE header's (path, first line, last line), or ("unknown", 1,
    40) without one, and the RULE ids in prompt order (see the module doc)."""
    header = _FILE_AT_START.match(prompt) or _FILE_AFTER_NEWLINE.search(prompt)
    location = ("unknown", 1, 40)
    if header:
        path = header.group(1)
        if path.startswith('"'):
            try:
                path = unquote_path(path)
            except ValueError:  # not quote_path's, or it holds a lone surrogate
                pass
        location = (path, int(header.group(2)), int(header.group(3)))
    first = _RULE_AT_START.match(prompt)
    return location, ([first.group(1)] if first else []) + _RULE_AFTER_NEWLINE.findall(prompt)
