"""Shared domain types: findings, severities, verdicts, and identity hashing.

A Finding is the atomic unit every pipeline stage produces or consumes;
its identity is a content hash over (file, line range, description) so the
same comment emitted by different ensemble members or pathways collides on
purpose.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Optional, Sequence


class Severity(str, Enum):
    CRITICAL = "critical"
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


# Lower rank sorts first in a prioritized report.
SEVERITY_RANK = {
    Severity.CRITICAL: 0,
    Severity.HIGH: 1,
    Severity.MEDIUM: 2,
    Severity.LOW: 3,
}


class Category(str, Enum):
    SECURITY = "security"
    CORRECTNESS = "correctness"
    PERFORMANCE = "performance"
    BUSINESS_LOGIC = "business_logic"
    MAINTAINABILITY = "maintainability"
    STYLE = "style"


CATEGORY_RANK = {
    Category.SECURITY: 0,
    Category.CORRECTNESS: 1,
    Category.PERFORMANCE: 2,
    Category.BUSINESS_LOGIC: 3,
    Category.MAINTAINABILITY: 4,
    Category.STYLE: 5,
}

# Each member by its value, for parsers that look one up without an Enum
# call per entry.
SEVERITY_BY_VALUE = {severity.value: severity for severity in Severity}
CATEGORY_BY_VALUE = {category.value: category for category in Category}


class Pathway(str, Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


class Verdict(str, Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNCERTAIN = "uncertain"


def content_id(file: str, start_line: int, end_line: int, description: str) -> str:
    """First 12 hex chars of a stable hash over location and description."""
    raw = "\x1f".join((file, str(start_line), str(end_line), description))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class PatchSuggestion:
    """A validated code change proposal attached to a finding or cluster."""

    unified_diff: str
    explanation: str
    constrained_by: tuple[str, ...]


@dataclass(frozen=True)
class Finding:
    """One review comment with location, triage metadata, and provenance.

    confidence is the fraction of ensemble members supporting the finding
    (1.0 for a freshly parsed, not yet aggregated candidate finding).
    category is resolved from the cited specifications once a library is in
    scope; findings citing nothing default to maintainability.

    Every stage builds findings, so __init__ is written by hand rather than
    generated: it checks the line range and confidence, hashes content_id
    only when no finding_id is given, and stores the fields and the sort
    key in one write. Equality, hashing, repr, replace() and immutability
    are the dataclass's, over the twelve fields alone.
    """

    file: str
    start_line: int
    end_line: int
    description: str
    severity: Severity
    pathway: Pathway
    rationale: str = ""
    spec_ids: tuple[str, ...] = ()
    confidence: float = 1.0
    category: Category = Category.MAINTAINABILITY
    patch: Optional[PatchSuggestion] = None
    finding_id: str = field(default="")

    def __init__(
        self,
        file: str,
        start_line: int,
        end_line: int,
        description: str,
        severity: Severity,
        pathway: Pathway,
        rationale: str = "",
        spec_ids: tuple[str, ...] = (),
        confidence: float = 1.0,
        category: Category = Category.MAINTAINABILITY,
        patch: Optional[PatchSuggestion] = None,
        finding_id: str = "",
    ) -> None:
        if start_line < 1 or end_line < start_line:
            raise ValueError(f"invalid line range {start_line}..{end_line} for {file!r}")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        if not finding_id:
            finding_id = content_id(file, start_line, end_line, description)
        # Frozen, so attribute assignment raises: fill the instance dict in
        # one call.
        self.__dict__.update(
            file=file,
            start_line=start_line,
            end_line=end_line,
            description=description,
            severity=severity,
            pathway=pathway,
            rationale=rationale,
            spec_ids=spec_ids,
            confidence=confidence,
            category=category,
            patch=patch,
            finding_id=finding_id,
            _sort_key=(file, start_line, finding_id),
        )

    def sort_key(self) -> tuple[str, int, str]:
        return self._sort_key


_SORT_KEY = attrgetter("_sort_key")


def sort_findings(findings: Sequence[Finding]) -> list[Finding]:
    """Deterministic report order: (file, start_line, finding_id)."""
    return sorted(findings, key=_SORT_KEY)


@dataclass(frozen=True)
class HypotheticalIssue:
    """An unverified issue proposed by the free-form analysis stage."""

    file: str
    start_line: int
    end_line: int
    description: str
    issue_id: str = field(default="")

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.end_line < self.start_line:
            raise ValueError(
                f"invalid line range {self.start_line}..{self.end_line} for {self.file!r}"
            )
        if not self.description:
            raise ValueError("issue description must be non-empty")
        if not self.issue_id:
            object.__setattr__(
                self,
                "issue_id",
                content_id(self.file, self.start_line, self.end_line, self.description),
            )


@dataclass(frozen=True)
class VerifierVerdict:
    """One verifier's judgment of a hypothetical issue."""

    verdict: Verdict
    justification: str = ""
    cited_spec_ids: tuple[str, ...] = ()
    severity: Optional[Severity] = None
    instance_index: int = 0


@dataclass(frozen=True)
class PathwayReport:
    """Output of one review pathway before cross-pathway consolidation."""

    pathway: Pathway
    findings: tuple[Finding, ...]
    summary: str = ""
    stats: tuple[tuple[str, object], ...] = ()

    def stats_dict(self) -> dict[str, object]:
        return dict(self.stats)


def freeze_stats(stats: dict[str, object]) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(stats.items()))


def patch_payload(patch: PatchSuggestion) -> dict[str, object]:
    return {
        "unified_diff": patch.unified_diff,
        "explanation": patch.explanation,
        "constrained_by": list(patch.constrained_by),
    }


def finding_payload(finding: Finding) -> dict[str, object]:
    """JSON-ready mapping for one finding (patches are rendered separately)."""
    return {
        "finding_id": finding.finding_id,
        "file": finding.file,
        "start_line": finding.start_line,
        "end_line": finding.end_line,
        "description": finding.description,
        "severity": finding.severity.value,
        "category": finding.category.value,
        "pathway": finding.pathway.value,
        "confidence": finding.confidence,
        "rationale": finding.rationale,
        "spec_ids": list(finding.spec_ids),
    }
