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

A file is read once as bytes and decoded as UTF-8, then split with
str.splitlines, which gives the lines and errors a text-mode read did
(see parse_spec_file). Its front matter is parsed in one loop that strips
each line once, and category and severity are looked up in tables keyed
by their values.
"""

from __future__ import annotations

import errno
import logging
import math
import os
import re
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import DuplicateSpecId, EmptyLibrary, MalformedSpecFile
from .types import CATEGORY_BY_VALUE, CATEGORY_RANK, SEVERITY_BY_VALUE, Category, Severity
from .types import Value, value_class

logger = logging.getLogger(__name__)

SPEC_ID_PATTERN = re.compile(r"^[a-z0-9_.-]+$")

REQUIRED_KEYS = ("id", "title", "category", "severity", "language")

DEFAULT_CHUNK_BUDGET = 4000


def estimate_tokens(text: str) -> int:
    """Tokenizer-free size heuristic: ceil(code points / 4)."""
    return math.ceil(len(text) / 4)


@value_class
class Specification(Value):
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


@value_class
class SpecLibrary(Value):
    """Ordered, duplicate-free collection of specifications."""

    specs: tuple[Specification, ...]

    def __post_init__(self) -> None:
        # Each spec by id, kept in the instance dict, out of eq, hash and repr.
        vars(self)["_by_id"] = {spec.id: spec for spec in self.specs}

    def __len__(self) -> int:
        return len(self.specs)

    def __contains__(self, spec_id: object) -> bool:
        return spec_id in self._by_id

    def ids(self) -> tuple[str, ...]:
        return tuple(self._by_id)

    def get(self, spec_id: str) -> Optional[Specification]:
        return self._by_id.get(spec_id)


def resolve_category(spec_ids: Sequence[str], library: SpecLibrary) -> Category:
    """Highest-ranked category among the cited rules; default maintainability.

    Ids the library does not hold are skipped.
    """
    best: Optional[Category] = None
    for spec_id in spec_ids:
        spec = library.get(spec_id)
        if spec is None:
            continue
        if best is None or CATEGORY_RANK[spec.category] < CATEGORY_RANK[best]:
            best = spec.category
    return Category.MAINTAINABILITY if best is None else best


@value_class
class SpecChunk(Value):
    """A contiguous run of library specs fitting one prompt budget."""

    ordinal: int
    spec_ids: tuple[str, ...]
    token_total: int


def parse_spec_file(path: Union[str, Path], source_path: str) -> Specification:
    """Parse one rule file; raises MalformedSpecFile with the path on error.

    The file is read once as bytes and decoded as UTF-8. Its lines are
    what ``read_text(encoding="utf-8").splitlines()`` gives: text mode
    turns "\\r\\n" and a lone "\\r" into "\\n", and splitlines breaks on
    both as on "\\n", so splitting the undecoded newlines yields the same
    lines. A decoding error is the one read_text raises, since text mode
    decodes a whole-file read in one call too.
    """
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedSpecFile(f"{source_path}: unreadable ({exc})") from exc

    lines = text.splitlines()
    if not lines or lines[0].strip() != "---":
        raise MalformedSpecFile(f"{source_path}: missing opening front-matter delimiter")

    fields: dict[str, str] = {}
    body_start = None
    for i in range(1, len(lines)):
        line = lines[i]
        stripped = line.strip()
        if stripped == "---":
            body_start = i + 1
            break
        if not stripped:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise MalformedSpecFile(f"{source_path}: bad front-matter line {i + 1}: {line!r}")
        key = key.strip()
        if key not in REQUIRED_KEYS:
            logger.warning("%s: ignoring unknown front-matter key %r", source_path, key)
            continue
        if key in fields:
            raise MalformedSpecFile(f"{source_path}: duplicate front-matter key {key!r}")
        fields[key] = value.strip()
    if body_start is None:
        raise MalformedSpecFile(f"{source_path}: missing closing front-matter delimiter")

    missing = [key for key in REQUIRED_KEYS if key not in fields]
    if missing:
        raise MalformedSpecFile(f"{source_path}: missing front-matter keys: {', '.join(missing)}")

    spec_id = fields["id"]
    if not SPEC_ID_PATTERN.match(spec_id):
        raise MalformedSpecFile(f"{source_path}: invalid spec id {spec_id!r}")
    category = CATEGORY_BY_VALUE.get(fields["category"])
    if category is None:
        raise MalformedSpecFile(f"{source_path}: invalid category {fields['category']!r}")
    severity = SEVERITY_BY_VALUE.get(fields["severity"])
    if severity is None:
        raise MalformedSpecFile(f"{source_path}: invalid severity {fields['severity']!r}")

    title = fields["title"]
    if not title:
        raise MalformedSpecFile(f"{source_path}: empty title")
    body = "\n".join(lines[body_start:]).strip()
    if not body:
        raise MalformedSpecFile(f"{source_path}: empty rule body")

    return Specification(
        spec_id,
        title,
        body,
        category,
        severity,
        fields["language"].lower(),
        source_path,
        estimate_tokens(title + body),
    )


# Errors on which pathlib's is_dir and is_file answer False rather than raise.
_ABSENT_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


def _rule_files(prefix: str) -> list[str]:
    """Relative POSIX paths of the ``*.md`` files in the tree at prefix.

    Selects what ``root.rglob("*.md")`` filtered by ``is_file()`` does on
    Python 3.11: hidden directories are searched, symbolic links to
    directories are not descended, a symbolic link to a regular ``.md``
    file is kept, a directory named ``x.md`` is searched but not kept, and
    a directory that cannot be listed is skipped. Each file's path is
    prefix + its relative path.
    """
    found: list[str] = []
    pending = [""]
    while pending:
        relative_dir = pending.pop()
        try:
            with os.scandir(prefix + relative_dir or ".") as entries:
                listed = list(entries)
        except PermissionError:
            continue
        for entry in listed:
            name = entry.name
            try:
                if entry.is_dir(follow_symlinks=False):
                    pending.append(f"{relative_dir}{name}/")
                elif name.endswith(".md") and entry.is_file():
                    found.append(relative_dir + name)
            except OSError as exc:
                if exc.errno not in _ABSENT_ERRNOS:
                    raise
    return found


def load_library(root_dir: Path, language_filter: Optional[str] = None) -> SpecLibrary:
    """Load every ``*.md`` file under root_dir in deterministic order.

    Ordering is lexicographic by path relative to root_dir, then id, so
    repeated loads of the same tree are identical. The tree is walked with
    os.scandir and each file read with open, making no pathlib object per
    file; which files are loaded, their order and the error messages match
    ``root_dir.rglob("*.md")`` filtered by ``is_file()`` (see _rule_files).
    """
    root_dir = Path(root_dir)
    if not root_dir.is_dir():
        raise FileNotFoundError(f"specification directory not found: {root_dir}")

    # The string pathlib puts before a child's name: none below ".", and
    # no second separator after "/" or "//".
    root = str(root_dir)
    prefix = "" if root == "." else root if root.endswith("/") else root + "/"
    entries = sorted(_rule_files(prefix))

    specs: list[Specification] = []
    seen: dict[str, str] = {}
    for source_path in entries:
        spec = parse_spec_file(prefix + source_path, source_path)
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
    return SpecLibrary(specs=tuple(specs))


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
