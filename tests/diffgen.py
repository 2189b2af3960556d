"""Random diffs and a diff renderer, shared by ingestion unit tests and the
acceptance suite."""

from __future__ import annotations

import random
from typing import Sequence

from sgcr.ingestion import FileDiff, Hunk


def render_unified_diff(diffs: Sequence[FileDiff]) -> str:
    """Render structures back to canonical diff text (explicit counts).

    The oracle for parse_unified_diff: parsing its text gives back diffs.
    """
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

_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)


def _line_text(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 4)))


def _hunk_body(rng: random.Random) -> tuple[tuple[str, str], ...]:
    """A mixed body with at least one change and counts derivable from it."""
    body: list[tuple[str, str]] = []
    for _ in range(rng.randint(1, 8)):
        marker = rng.choice(("context", "added", "removed", "context"))
        body.append((marker, _line_text(rng)))
    if all(marker == "context" for marker, _ in body):
        body.append(("added", _line_text(rng)))
    return tuple(body)


def _counts(body: tuple[tuple[str, str], ...]) -> tuple[int, int]:
    old_len = sum(1 for marker, _ in body if marker in ("context", "removed"))
    new_len = sum(1 for marker, _ in body if marker in ("context", "added"))
    return old_len, new_len


def random_file_diff(rng: random.Random, path_hint: str = "") -> FileDiff:
    """One structurally valid FileDiff: ordered, non-overlapping hunks."""
    path = path_hint or f"src/{rng.choice(_WORDS)}/{rng.choice(_WORDS)}.java"
    shape = rng.random()
    if shape < 0.1:
        body = tuple(("added", _line_text(rng)) for _ in range(rng.randint(1, 5)))
        hunk = Hunk(0, 0, 1, len(body), body)
        return FileDiff(path=path, hunks=(hunk,), is_new=True)
    if shape < 0.2:
        body = tuple(("removed", _line_text(rng)) for _ in range(rng.randint(1, 5)))
        hunk = Hunk(1, len(body), 0, 0, body)
        return FileDiff(path=path, hunks=(hunk,), is_deleted=True)

    hunks: list[Hunk] = []
    old_cursor = new_cursor = 1
    for position in range(rng.randint(1, 4)):
        # Later hunks keep a separating line on both sides so a pure
        # insertion (anchored one line back) never touches its predecessor.
        minimum_gap = 0 if position == 0 else 1
        old_cursor += rng.randint(minimum_gap, 6)
        new_cursor += rng.randint(minimum_gap, 6)
        body = _hunk_body(rng)
        old_len, new_len = _counts(body)
        if old_len == 0:
            # Pure insertion anchors after the old line, not at it.
            hunks.append(Hunk(max(old_cursor - 1, 0), 0, new_cursor, new_len, body))
        else:
            hunks.append(Hunk(old_cursor, old_len, new_cursor, new_len, body))
        old_cursor += old_len
        new_cursor += new_len
    return FileDiff(path=path, hunks=tuple(hunks))


def random_diff_set(rng: random.Random) -> list[FileDiff]:
    """1-3 file diffs with distinct paths."""
    count = rng.randint(1, 3)
    diffs = []
    for position in range(count):
        diffs.append(random_file_diff(rng, path_hint=f"src/pkg{position}/File{position}.java"))
    return diffs
