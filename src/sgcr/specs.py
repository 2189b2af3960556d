"""Specification library: loading, validation, and token-budget segmentation.

Rule files are UTF-8 Markdown with a front-matter block::

    ---
    id: sec.sql-injection
    title: Use parameterized SQL statements
    category: security
    severity: critical
    language: java
    ---
    Rule body text ...

The five keys shown are required; unknown keys are ignored with a warning.
Everything after the closing delimiter is the rule body.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

from .errors import DuplicateSpecId, EmptyLibrary, MalformedSpecFile
from .types import Category, Severity

logger = logging.getLogger(__name__)

SPEC_ID_PATTERN = re.compile(r"^[a-z0-9_.-]+$")

REQUIRED_KEYS = ("id", "title", "category", "severity", "language")

DEFAULT_CHUNK_BUDGET = 4000


def estimate_tokens(text: str) -> int:
    """Tokenizer-free size heuristic: ceil(code points / 4)."""
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class Specification:
    """One human-authored review rule with triage metadata."""

    id: str
    title: str
    body: str
    category: Category
    severity: Severity
    language: str
    source_path: str
    token_estimate: int

    def prompt_text(self) -> str:
        """The rule as injected into reviewer and verifier prompts."""
        header = f"RULE {self.id} [{self.severity.value}/{self.category.value}] {self.title}"
        return f"{header}\n{self.body}"


@dataclass(frozen=True)
class SpecLibrary:
    """Ordered, duplicate-free collection of specifications."""

    specs: tuple[Specification, ...]
    language_filter: Optional[str] = None

    def __len__(self) -> int:
        return len(self.specs)

    def __contains__(self, spec_id: object) -> bool:
        return spec_id in self._by_id

    def ids(self) -> tuple[str, ...]:
        return tuple(self._by_id)

    def get(self, spec_id: str) -> Optional[Specification]:
        return self._by_id.get(spec_id)

    @cached_property
    def _by_id(self) -> dict[str, Specification]:
        # Built on first use; cached_property writes the instance dict
        # directly, so it works on a frozen dataclass.
        return {spec.id: spec for spec in self.specs}


@dataclass(frozen=True)
class SpecChunk:
    """A contiguous run of library specs fitting one prompt budget."""

    ordinal: int
    spec_ids: tuple[str, ...]
    token_total: int


def parse_spec_file(path: Path, source_path: str) -> Specification:
    """Parse one rule file; raises MalformedSpecFile with the path on error."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedSpecFile(f"{source_path}: unreadable ({exc})") from exc

    lines = text.splitlines()
    if not lines or lines[0].strip() != "---":
        raise MalformedSpecFile(f"{source_path}: missing opening front-matter delimiter")

    fields: dict[str, str] = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        if line.strip() == "---":
            body_start = i + 1
            break
        if not line.strip():
            continue
        if ":" not in line:
            raise MalformedSpecFile(f"{source_path}: bad front-matter line {i + 1}: {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key not in REQUIRED_KEYS:
            logger.warning("%s: ignoring unknown front-matter key %r", source_path, key)
            continue
        if key in fields:
            raise MalformedSpecFile(f"{source_path}: duplicate front-matter key {key!r}")
        fields[key] = value
    if body_start is None:
        raise MalformedSpecFile(f"{source_path}: missing closing front-matter delimiter")

    missing = [key for key in REQUIRED_KEYS if key not in fields]
    if missing:
        raise MalformedSpecFile(f"{source_path}: missing front-matter keys: {', '.join(missing)}")

    spec_id = fields["id"]
    if not SPEC_ID_PATTERN.match(spec_id):
        raise MalformedSpecFile(f"{source_path}: invalid spec id {spec_id!r}")
    try:
        category = Category(fields["category"])
    except ValueError:
        raise MalformedSpecFile(
            f"{source_path}: invalid category {fields['category']!r}"
        ) from None
    try:
        severity = Severity(fields["severity"])
    except ValueError:
        raise MalformedSpecFile(
            f"{source_path}: invalid severity {fields['severity']!r}"
        ) from None

    title = fields["title"]
    if not title:
        raise MalformedSpecFile(f"{source_path}: empty title")
    body = "\n".join(lines[body_start:]).strip()
    if not body:
        raise MalformedSpecFile(f"{source_path}: empty rule body")

    return Specification(
        id=spec_id,
        title=title,
        body=body,
        category=category,
        severity=severity,
        language=fields["language"].lower(),
        source_path=source_path,
        token_estimate=estimate_tokens(title + body),
    )


def load_library(root_dir: Path, language_filter: Optional[str] = None) -> SpecLibrary:
    """Load every ``*.md`` file under root_dir in deterministic order.

    Ordering is lexicographic by path relative to root_dir, then id, so
    repeated loads of the same tree are identical.
    """
    root_dir = Path(root_dir)
    if not root_dir.is_dir():
        raise FileNotFoundError(f"specification directory not found: {root_dir}")

    entries: list[tuple[str, Path]] = []
    for path in root_dir.rglob("*.md"):
        if path.is_file():
            entries.append((path.relative_to(root_dir).as_posix(), path))
    entries.sort(key=lambda item: item[0])

    specs: list[Specification] = []
    seen: dict[str, str] = {}
    for source_path, path in entries:
        spec = parse_spec_file(path, source_path)
        if spec.id in seen:
            raise DuplicateSpecId(
                f"spec id {spec.id!r} declared in both {seen[spec.id]} and {source_path}"
            )
        seen[spec.id] = source_path
        specs.append(spec)

    specs.sort(key=lambda spec: (spec.source_path, spec.id))
    if language_filter is not None:
        wanted = language_filter.lower()
        specs = [spec for spec in specs if spec.language == wanted]
    if not specs:
        raise EmptyLibrary(
            f"no specifications loaded from {root_dir}"
            + (f" with language filter {language_filter!r}" if language_filter else "")
        )
    return SpecLibrary(specs=tuple(specs), language_filter=language_filter)


def segment_library(library: SpecLibrary, budget: int = DEFAULT_CHUNK_BUDGET) -> list[SpecChunk]:
    """Greedy first-fit partition of the library in load order.

    Specs are appended to the current chunk while the running token total
    stays within budget; a single spec larger than the budget becomes its
    own chunk. A library that fits entirely yields exactly one chunk.
    """
    if budget < 1:
        raise ValueError(f"chunk budget must be >= 1, got {budget}")

    chunks: list[SpecChunk] = []
    current_ids: list[str] = []
    current_total = 0
    for spec in library.specs:
        if current_ids and current_total + spec.token_estimate > budget:
            chunks.append(
                SpecChunk(ordinal=len(chunks), spec_ids=tuple(current_ids), token_total=current_total)
            )
            current_ids = []
            current_total = 0
        current_ids.append(spec.id)
        current_total += spec.token_estimate
    if current_ids:
        chunks.append(
            SpecChunk(ordinal=len(chunks), spec_ids=tuple(current_ids), token_total=current_total)
        )
    return chunks


def chunk_prompt_text(library: SpecLibrary, chunk: SpecChunk) -> str:
    """Concatenated prompt text for every spec in the chunk."""
    parts = []
    for spec_id in chunk.spec_ids:
        spec = library.get(spec_id)
        if spec is None:
            raise KeyError(f"chunk references unknown spec id {spec_id!r}")
        parts.append(spec.prompt_text())
    return "\n\n".join(parts)
