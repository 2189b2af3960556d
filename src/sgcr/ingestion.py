"""Turn raw inputs (whole files or unified diffs) into a review request.

Diff-origin requests carry the post-image restricted to hunk neighborhoods:
one review unit per merged context window, with line numbers kept in
new-file coordinates (each unit records the absolute line its content
starts at). Whole-file requests are a single unit per file covering
everything.

The diff grammar accepted is the standard unified format (``--- a/...``,
``+++ b/...``, ``@@ -a,b +c,d @@`` headers, markers ' ', '+', '-');
surrounding metadata lines such as ``diff --git`` or ``index ...`` are
tolerated, hunk arithmetic is not negotiable.
"""

from __future__ import annotations

import logging
import re
import threading
from pathlib import Path
from typing import Literal, Optional, Sequence

from .errors import DiffSyntaxError, HunkCountMismatch, InvalidReviewRequest, PatchDoesNotApply
from .types import Value, memoized, value_class

logger = logging.getLogger(__name__)

DEFAULT_CONTEXT_LINES = 10

Marker = Literal["context", "added", "removed"]

_HUNK_HEADER = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")

# Held while a request's code block is rendered, so it is rendered once.
_RENDER_LOCK = threading.Lock()


@value_class
class Hunk(Value):
    """One @@ section of a file diff, with its marked lines."""

    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: tuple[tuple[Marker, str], ...]


@value_class
class FileDiff(Value):
    """One file's section of a unified diff."""

    path: str
    hunks: tuple[Hunk, ...]
    is_new: bool = False
    is_deleted: bool = False


@value_class
class ReviewUnit(Value):
    """One reviewable slice of a file, in new-file line coordinates."""

    path: str
    content: str
    start_line: int
    changed_ranges: tuple[tuple[int, int], ...]

    def line_count(self) -> int:
        return len(self.content.splitlines())

    def end_line(self) -> int:
        return self.start_line + self.line_count() - 1


@value_class
class ReviewRequest(Value):
    """The units under review and whether they came from files or a diff."""

    units: tuple[ReviewUnit, ...]
    origin: Literal["files", "diff"]

    @memoized
    def prompt_block(self) -> str:
        """The units as numbered text, rendered on first use; see prompt_block()."""
        # Both pathways read it at once, so the render and the write to the
        # instance dict happen under one lock; dataclasses.replace builds a
        # fresh instance, with nothing cached.
        with _RENDER_LOCK:
            block = vars(self).get("prompt_block")
            if block is None:
                block = vars(self)["prompt_block"] = _numbered_text(self.units)
        return block


def _numbered_text(units: Sequence[ReviewUnit]) -> str:
    parts: list[str] = []
    for unit in units:
        header = f"FILE {unit.path} (lines {unit.start_line}..{unit.end_line()})"
        if unit.changed_ranges:
            spans = ", ".join(f"{start}-{end}" for start, end in unit.changed_ranges)
            header += f"\nChanged lines: {spans}"
        numbered = "\n".join(
            f"{unit.start_line + offset:5d} | {text}"
            for offset, text in enumerate(unit.content.splitlines())
        )
        parts.append(f"{header}\n{numbered}")
    return "\n\n".join(parts)


def decode_utf8(data: bytes, source: object) -> str:
    """data decoded as UTF-8; raises InvalidReviewRequest naming source if it is not.

    Inputs are read as bytes, because text-mode stdin under a C locale
    passes undecodable bytes on as lone surrogates. Callers split the text
    with str.splitlines, which breaks on "\\r\\n" and a lone "\\r", the
    newlines text mode would have translated.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidReviewRequest(f"{source} is not UTF-8 text: {exc.reason}") from exc


def _strip_diff_path(raw: str) -> str:
    path = raw.split("\t", 1)[0].strip()
    if path.startswith(("a/", "b/")):
        path = path[2:]
    return path


def parse_unified_diff(text: str) -> list[FileDiff]:
    """Parse unified diff text; empty input yields an empty list."""
    lines = text.splitlines()
    diffs: list[FileDiff] = []
    i = 0
    total = len(lines)

    while i < total:
        line = lines[i]
        if not line.startswith("--- "):
            if line.startswith(("+++ ", "@@")):
                raise DiffSyntaxError(f"unexpected {line.split(' ', 1)[0]!r} outside a file section", i + 1)
            if line[:1] in ("+", "-", " ", "\\") and line.strip():
                raise DiffSyntaxError("hunk line outside any hunk", i + 1)
            i += 1  # metadata (diff --git, index, mode lines) or blank
            continue

        old_raw = line[4:]
        if i + 1 >= total or not lines[i + 1].startswith("+++ "):
            raise DiffSyntaxError("'---' header not followed by '+++' header", i + 1)
        new_raw = lines[i + 1][4:]
        i += 2

        is_new = _strip_diff_path(old_raw) == "/dev/null"
        is_deleted = _strip_diff_path(new_raw) == "/dev/null"
        if is_new and is_deleted:
            raise DiffSyntaxError("both sides of the file header are /dev/null", i - 1)
        path = _strip_diff_path(old_raw) if is_deleted else _strip_diff_path(new_raw)
        if not path:
            raise DiffSyntaxError("empty file path in header", i - 1)

        hunks: list[Hunk] = []
        while i < total and lines[i].startswith("@@"):
            hunk, i = _parse_hunk(lines, i)
            if hunks:
                previous = hunks[-1]
                if (
                    hunk.new_start < previous.new_start + previous.new_len
                    or hunk.old_start < previous.old_start + previous.old_len
                ):
                    raise DiffSyntaxError("hunks overlap or are out of order", i)
            hunks.append(hunk)
        if not hunks:
            raise DiffSyntaxError(f"file section for {path!r} has no hunks", i)
        diffs.append(
            FileDiff(path=path, hunks=tuple(hunks), is_new=is_new, is_deleted=is_deleted)
        )
    return diffs


def _parse_hunk(lines: list[str], i: int) -> tuple[Hunk, int]:
    header = _HUNK_HEADER.match(lines[i])
    if header is None:
        raise DiffSyntaxError(f"malformed hunk header {lines[i]!r}", i + 1)
    old_start = int(header.group(1))
    old_len = int(header.group(2)) if header.group(2) is not None else 1
    new_start = int(header.group(3))
    new_len = int(header.group(4)) if header.group(4) is not None else 1
    header_line = i + 1
    i += 1

    body: list[tuple[Marker, str]] = []
    old_seen = new_seen = 0
    while old_seen < old_len or new_seen < new_len:
        if i >= len(lines):
            raise HunkCountMismatch(
                f"hunk at line {header_line} declares -{old_len}/+{new_len}"
                f" but ends after {old_seen} old and {new_seen} new lines",
                header_line,
            )
        line = lines[i]
        marker = line[:1]
        if marker == "\\":
            i += 1  # "\ No newline at end of file"
            continue
        if marker == "+":
            if new_seen >= new_len:
                raise HunkCountMismatch("more added lines than the hunk header declares", i + 1)
            body.append(("added", line[1:]))
            new_seen += 1
        elif marker == "-":
            if old_seen >= old_len:
                raise HunkCountMismatch("more removed lines than the hunk header declares", i + 1)
            body.append(("removed", line[1:]))
            old_seen += 1
        elif marker == " " or line == "":
            if old_seen >= old_len or new_seen >= new_len:
                raise HunkCountMismatch("more context lines than the hunk header declares", i + 1)
            body.append(("context", line[1:]))
            old_seen += 1
            new_seen += 1
        else:
            raise DiffSyntaxError(f"unexpected line inside hunk: {line!r}", i + 1)
        i += 1
    # Trailing no-newline marker belongs to the hunk just finished.
    if i < len(lines) and lines[i].startswith("\\"):
        i += 1
    return Hunk(old_start, old_len, new_start, new_len, tuple(body)), i


def render_unified_diff(diffs: Sequence[FileDiff]) -> str:
    """Render structures back to canonical diff text (explicit counts)."""
    out: list[str] = []
    marker_char = {"context": " ", "added": "+", "removed": "-"}
    for diff in diffs:
        out.append("--- " + ("/dev/null" if diff.is_new else f"a/{diff.path}"))
        out.append("+++ " + ("/dev/null" if diff.is_deleted else f"b/{diff.path}"))
        for hunk in diff.hunks:
            out.append(
                f"@@ -{hunk.old_start},{hunk.old_len} +{hunk.new_start},{hunk.new_len} @@"
            )
            for marker, text in hunk.lines:
                out.append(marker_char[marker] + text)
    return "\n".join(out) + ("\n" if out else "")


def apply_file_diff(content: str, diff: FileDiff) -> str:
    """Apply one file's hunks to content; raise PatchDoesNotApply on mismatch."""
    source = content.splitlines()
    had_trailing_newline = content.endswith("\n")
    result: list[str] = []
    cursor = 0  # 0-based index into source of the next uncopied line

    for hunk in diff.hunks:
        anchor = hunk.old_start - 1 if hunk.old_len > 0 else hunk.old_start
        if anchor < cursor or anchor > len(source):
            raise PatchDoesNotApply(
                f"hunk anchored at line {hunk.old_start} falls outside the content"
            )
        result.extend(source[cursor:anchor])
        cursor = anchor
        for marker, text in hunk.lines:
            if marker == "added":
                result.append(text)
                continue
            if cursor >= len(source):
                raise PatchDoesNotApply("hunk runs past the end of the content")
            if source[cursor] != text:
                raise PatchDoesNotApply(
                    f"{marker} line mismatch at line {cursor + 1}:"
                    f" expected {text!r}, found {source[cursor]!r}"
                )
            if marker == "context":
                result.append(text)
            cursor += 1
    result.extend(source[cursor:])
    return "\n".join(result) + ("\n" if had_trailing_newline else "")


def _added_ranges(hunk: Hunk) -> list[tuple[int, int]]:
    """Consecutive runs of added lines, in new-file coordinates."""
    added: list[int] = []
    new_line = hunk.new_start
    for marker, _ in hunk.lines:
        if marker == "added":
            added.append(new_line)
            new_line += 1
        elif marker == "context":
            new_line += 1
    ranges: list[tuple[int, int]] = []
    for number in added:
        if ranges and number == ranges[-1][1] + 1:
            ranges[-1] = (ranges[-1][0], number)
        else:
            ranges.append((number, number))
    return ranges


def _merge_windows(windows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _units_from_diff(
    diffs: Sequence[FileDiff], repo_root: Path, context_lines: int
) -> list[ReviewUnit]:
    units: list[ReviewUnit] = []
    for diff in sorted(diffs, key=lambda d: d.path):
        if diff.is_deleted:
            logger.info("skipping deleted file %s", diff.path)
            continue
        post_path = repo_root / diff.path
        if not post_path.is_file():
            raise FileNotFoundError(f"post-image file not found: {post_path}")
        post_lines = decode_utf8(post_path.read_bytes(), post_path).splitlines()
        if not post_lines:
            logger.warning("skipping empty post-image file %s", diff.path)
            continue
        file_len = len(post_lines)

        windows: list[tuple[int, int]] = []
        changed: list[tuple[int, int]] = []
        for hunk in diff.hunks:
            anchor_start = max(1, hunk.new_start)
            anchor_end = hunk.new_start + hunk.new_len - 1 if hunk.new_len > 0 else hunk.new_start
            start = max(1, anchor_start - context_lines)
            end = min(file_len, max(anchor_start, anchor_end) + context_lines)
            if start <= end:
                windows.append((start, end))
            changed.extend(_added_ranges(hunk))

        for window_start, window_end in _merge_windows(windows):
            in_window = tuple(
                (max(start, window_start), min(end, window_end))
                for start, end in changed
                if start <= window_end and end >= window_start
            )
            content = "\n".join(post_lines[window_start - 1 : window_end])
            units.append(
                ReviewUnit(
                    path=diff.path,
                    content=content,
                    start_line=window_start,
                    changed_ranges=in_window,
                )
            )
    return units


def build_review_request(
    paths: Optional[Sequence[Path]] = None,
    diff_text: Optional[str] = None,
    repo_root: Optional[Path] = None,
    context_lines: int = DEFAULT_CONTEXT_LINES,
) -> ReviewRequest:
    """Build the request from whole files or from a unified diff.

    Exactly one of paths / diff_text must be given; a path named more than
    once (as Path sees it: "a" and "./a" are one) gives one unit. Diff
    origin reads the post-image files under repo_root (default: current
    directory). A file that is not UTF-8 raises InvalidReviewRequest.
    """
    if (paths is None) == (diff_text is None):
        raise InvalidReviewRequest("provide either file paths or diff text, not both")

    units: list[ReviewUnit] = []
    if paths is not None:
        origin: Literal["files", "diff"] = "files"
        for path in sorted({Path(p) for p in paths}):
            if not path.is_file():
                raise FileNotFoundError(f"input file not found: {path}")
            content_lines = decode_utf8(path.read_bytes(), path).splitlines()
            if not content_lines:
                logger.warning("skipping empty file %s", path)
                continue
            units.append(
                ReviewUnit(
                    path=path.as_posix(),
                    content="\n".join(content_lines),
                    start_line=1,
                    changed_ranges=((1, len(content_lines)),),
                )
            )
    else:
        origin = "diff"
        diffs = parse_unified_diff(diff_text or "")
        units = _units_from_diff(diffs, Path(repo_root or "."), context_lines)

    if not units:
        raise InvalidReviewRequest("no reviewable content in the request")
    return ReviewRequest(units=tuple(units), origin=origin)


def prompt_block(request: ReviewRequest) -> str:
    """Render units as numbered text for model prompts.

    Every prompt of a run shows the same code, so the text is rendered
    once per request (ReviewRequest.prompt_block) and each call returns
    that same string.

    The ``FILE path (lines a..b)`` header shape is load-bearing: the mock
    backend parses it to aim synthetic findings at real locations.
    """
    return request.prompt_block


def unit_for_location(request: ReviewRequest, file: str, line: int) -> Optional[ReviewUnit]:
    """The unit whose window contains (file, line), else the file's first unit."""
    fallback = None
    for unit in request.units:
        if unit.path != file:
            continue
        if fallback is None:
            fallback = unit
        if unit.start_line <= line <= unit.end_line():
            return unit
    return fallback
