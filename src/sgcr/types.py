"""Shared domain types: findings, severities, verdicts, and identity hashing.

Every value class derives from Value, whose methods replace the ones the
dataclass decorator would generate for each class (see value_class).

A Finding is the atomic unit every pipeline stage produces or consumes;
its identity is a content hash over (file, line range, description) so the
same comment emitted by different ensemble members or pathways collides on
purpose.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum
from operator import attrgetter
from typing import Any, Optional, Sequence, TypeVar

_MISSING = dataclasses.MISSING

V = TypeVar("V", bound="Value")


class Value:
    """Base of the frozen value classes: one set of methods shared by all.

    A subclass declares its fields as a dataclass does and is decorated
    with @value_class. Construction (positional or keyword arguments,
    defaults, then __post_init__ when the class defines one), equality and
    hashing over the declared fields in order, the dataclass repr and
    immutability are the methods below, so no class needs generated code.
    Anything a class caches in its instance dict under another name never
    enters eq, hash or repr.
    """

    __slots__ = ()
    # Set on each class by value_class.
    _value_names: tuple[str, ...]
    # Every field in order, holding its default or MISSING.
    _value_template: dict[str, Any]
    _value_key: Any
    _value_post_init: bool

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self._value_names
        if kwargs or len(args) != len(names):
            state = self._value_template.copy()
            state.update(zip(names, args))
            state.update(kwargs)
            given = len(args) + len(kwargs)
            if (
                given > len(names)
                or len(state) > len(names)
                or (args and kwargs and not kwargs.keys().isdisjoint(names[: len(args)]))
                or (given < len(names) and any(v is _MISSING for v in state.values()))
            ):
                raise TypeError(self._binding_error(args, kwargs))
            self.__dict__.update(state)
        else:
            self.__dict__.update(zip(names, args))
        if self._value_post_init:
            self.__post_init__()  # type: ignore[attr-defined]

    def _binding_error(self, args: tuple, kwargs: dict[str, Any]) -> str:
        names = self._value_names
        where = f"{type(self).__qualname__}.__init__()"
        if len(args) > len(names):
            return f"{where} takes {len(names)} arguments but {len(args)} were given"
        for name in kwargs:
            if name not in names:
                return f"{where} got an unexpected keyword argument {name!r}"
            if name in names[: len(args)]:
                return f"{where} got multiple values for argument {name!r}"
        template = self._value_template
        unset = [n for n in names[len(args) :] if n not in kwargs and template[n] is _MISSING]
        return f"{where} missing required arguments: {', '.join(map(repr, unset))}"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._value_key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value_key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._value_names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def value_class(cls: type[V]) -> type[V]:
    """Register a Value subclass's fields as dataclass fields.

    dataclasses.fields, replace and asdict then work on it, and the
    dataclass decorator, asked for no methods, generates no function.
    """
    dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    fields = dataclasses.fields(cls)
    if any(f.default_factory is not _MISSING for f in fields):
        raise TypeError(f"{cls.__qualname__}: a Value field takes a plain default")
    names = tuple(f.name for f in fields)
    cls._value_names = names
    cls._value_template = {f.name: f.default for f in fields}
    if len(names) == 1:
        # attrgetter of one name returns the bare value; eq and hash use a tuple.
        one = attrgetter(names[0])
        cls._value_key = staticmethod(lambda instance: (one(instance),))
    else:
        cls._value_key = attrgetter(*names)
    cls._value_post_init = hasattr(cls, "__post_init__")
    return cls


class Severity(str, Enum):
    CRITICAL = "critical"
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


# Lower rank sorts first in a prioritized report: the order Severity declares.
SEVERITY_RANK = {severity: rank for rank, severity in enumerate(Severity)}


class Category(str, Enum):
    SECURITY = "security"
    CORRECTNESS = "correctness"
    PERFORMANCE = "performance"
    BUSINESS_LOGIC = "business_logic"
    MAINTAINABILITY = "maintainability"
    STYLE = "style"


CATEGORY_RANK = {category: rank for rank, category in enumerate(Category)}

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


@value_class
class PatchSuggestion(Value):
    """A validated code change proposal attached to a finding or cluster."""

    unified_diff: str
    explanation: str
    constrained_by: tuple[str, ...]


@value_class
class Finding(Value):
    """One review comment with location, triage metadata, and provenance.

    confidence is the fraction of ensemble members supporting the finding
    (1.0 for a freshly parsed, not yet aggregated candidate finding).
    category is resolved from the cited specifications once a library is in
    scope; findings citing nothing default to maintainability.

    Every stage builds findings, so Finding keeps its own __init__ rather
    than the shared one: it checks the line range and confidence, hashes
    content_id only when no finding_id is given, and stores the fields and
    the sort key in one write. Equality, hashing, repr, replace() and
    immutability come from the shared Value base, over the twelve fields
    alone.
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
    finding_id: str = ""

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


@value_class
class HypotheticalIssue(Value):
    """An unverified issue proposed by the free-form analysis stage."""

    file: str
    start_line: int
    end_line: int
    description: str
    issue_id: str = ""

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


@value_class
class VerifierVerdict(Value):
    """One verifier's judgment of a hypothetical issue."""

    verdict: Verdict
    justification: str = ""
    cited_spec_ids: tuple[str, ...] = ()
    severity: Optional[Severity] = None
    instance_index: int = 0


@value_class
class PathwayReport(Value):
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
