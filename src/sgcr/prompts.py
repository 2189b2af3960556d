"""Prompt templates for every model role.

Each template instructs the model to answer with exactly one JSON document
matching its role's response schema (see parsing). Rendering is a pure
string substitution: identical inputs yield identical prompts, which the
request fingerprinting in the gateway relies on.
"""

from __future__ import annotations

from enum import Enum
from string import Template


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
