"""Turn raw inputs (whole files or unified diffs) into a review request.

Diff-origin requests carry the post-image restricted to hunk neighborhoods:
one review unit per merged context window, with line numbers kept in
new-file coordinates (each unit records the absolute line its content
starts at). Whole-file requests are a single unit per file covering
everything. A unit ends at its last non-empty line, the last line its
content keeps, and its changed ranges end there too.

The diff grammar accepted is the standard unified format (``--- a/...``,
``+++ b/...``, ``@@ -a,b +c,d @@`` headers, markers ' ', '+', '-');
surrounding metadata lines such as ``diff --git`` or ``index ...`` are
tolerated, hunk arithmetic is not negotiable. A path git C-quoted
(``core.quotePath``) is unquoted (prompts.unquote_path).

A ReviewRequest renders its code block (prompts.code_block), the numbered
text every prompt shows, once when it is built, so no later reader renders
or waits for it.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Literal, Optional, Sequence

from .errors import DiffSyntaxError, HunkCountMismatch, InvalidReviewRequest, PatchDoesNotApply
from .prompts import code_block, unquote_path
from .types import Value

logger = logging.getLogger(__name__)

DEFAULT_CONTEXT_LINES = 10

Marker = Literal["context", "added", "removed"]

_HUNK_HEADER = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


class Hunk(Value):
    """One @@ section of a file diff, with its marked lines."""

    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: tuple[tuple[Marker, str], ...]


class FileDiff(Value):
    """One file's section of a unified diff."""

    path: str
    hunks: tuple[Hunk, ...]
    is_new: bool = False
    is_deleted: bool = False


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


class ReviewRequest(Value):
    """The units under review and whether they came from files or a diff."""

    units: tuple[ReviewUnit, ...]
    origin: Literal["files", "diff"]

    def __post_init__(self) -> None:
        # The units as numbered text (see prompt_block()), rendered once with
        # the request and kept in the instance dict, out of eq, hash and
        # repr; dataclasses.replace builds a fresh instance, rendered anew.
        vars(self)["prompt_block"] = code_block(self.units)


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


def _strip_diff_path(raw: str, line_number: int) -> str:
    """The path a file header names, unquoted, without its a/ or b/ prefix.

    A quoted path's escapes are undone and its bytes decoded as UTF-8; a
    malformed one raises DiffSyntaxError naming the header's line.
    """
    path = raw.split("\t", 1)[0].strip()
    if path.startswith('"'):
        try:
            path = unquote_path(path)
        except UnicodeError as exc:
            message = f"quoted path {path} is not UTF-8: {exc.reason}"
            raise DiffSyntaxError(message, line_number) from exc
        except ValueError as exc:
            raise DiffSyntaxError(str(exc), line_number) from exc
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

        if i + 1 >= total or not lines[i + 1].startswith("+++ "):
            raise DiffSyntaxError("'---' header not followed by '+++' header", i + 1)
        old_path = _strip_diff_path(line[4:], i + 1)
        new_path = _strip_diff_path(lines[i + 1][4:], i + 2)
        i += 2

        is_new = old_path == "/dev/null"
        is_deleted = new_path == "/dev/null"
        if is_new and is_deleted:
            raise DiffSyntaxError("both sides of the file header are /dev/null", i - 1)
        path = old_path if is_deleted else new_path
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


def _last_line(lines: Sequence[str], first: int, last: int) -> int:
    """The last non-empty line of first..last (1-based), or first - 1 if none is."""
    while last >= first and not lines[last - 1]:
        last -= 1
    return last


def _read_lines(path: Path, missing: str, empty: str) -> list[str]:
    """The lines of the UTF-8 file at path, up to its last non-empty one.

    A path that is not a file raises FileNotFoundError(missing); a file
    without a non-empty line logs the warning empty and gives no lines.
    """
    if not path.is_file():
        raise FileNotFoundError(missing)
    lines = decode_utf8(path.read_bytes(), path).splitlines()
    last = _last_line(lines, 1, len(lines))
    if not last:
        logger.warning(empty)
    return lines[:last]


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
    root = repo_root.resolve()
    for diff in sorted(diffs, key=lambda d: d.path):
        if diff.is_deleted:
            logger.info("skipping deleted file %s", diff.path)
            continue
        post_path = repo_root / diff.path
        # As git apply does, refuse a "..", absolute or symlinked path out of the root.
        if not post_path.resolve().is_relative_to(root):
            message = f"diff path {diff.path} is outside the repo root {repo_root}"
            raise InvalidReviewRequest(message)
        post_lines = _read_lines(
            post_path,
            f"post-image file not found: {post_path}",
            f"skipping empty post-image file {diff.path}",
        )
        if not post_lines:
            continue

        windows: list[tuple[int, int]] = []
        changed: list[tuple[int, int]] = []
        for hunk in diff.hunks:
            anchor_start = max(1, hunk.new_start)
            anchor_end = hunk.new_start + hunk.new_len - 1 if hunk.new_len > 0 else hunk.new_start
            start = max(1, anchor_start - context_lines)
            end = min(len(post_lines), max(anchor_start, anchor_end) + context_lines)
            if start <= end:
                windows.append((start, end))
            changed.extend(_added_ranges(hunk))

        for window_start, window_end in _merge_windows(windows):
            window_end = _last_line(post_lines, window_start, window_end)
            if window_end < window_start:
                continue  # only empty lines, as in an empty file
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
    directory). A file that is not UTF-8, or a post-image whose resolved
    path is outside the resolved repo_root, raises InvalidReviewRequest.
    """
    if (paths is None) == (diff_text is None):
        raise InvalidReviewRequest("provide either file paths or diff text, not both")

    units: list[ReviewUnit] = []
    if paths is not None:
        origin: Literal["files", "diff"] = "files"
        for path in sorted({Path(p) for p in paths}):
            lines = _read_lines(
                path, f"input file not found: {path}", f"skipping empty file {path}"
            )
            if lines:
                units.append(
                    ReviewUnit(
                        path=path.as_posix(),
                        content="\n".join(lines),
                        start_line=1,
                        changed_ranges=((1, len(lines)),),
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
    """The units as numbered text (prompts.code_block). Every prompt of a run
    shows the same code, so the text is rendered once, when the request is
    built (ReviewRequest.__post_init__), and each call returns that string."""
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
