"""Diff parsing, patch application, and review-unit construction."""

from __future__ import annotations

import random

import pytest

from conftest import REPO_ROOT
from diffgen import random_diff_set, render_unified_diff
from sgcr.config import RunConfig
from sgcr.errors import (
    DiffSyntaxError,
    HunkCountMismatch,
    InvalidReviewRequest,
    PatchDoesNotApply,
)
from sgcr.ingestion import (
    FileDiff,
    Hunk,
    ReviewRequest,
    ReviewUnit,
    apply_file_diff,
    build_review_request,
    parse_unified_diff,
    prompt_block,
    unit_for_location,
)
from sgcr.pipeline import render_report, run_review

INSERTION_DIFF = "\n".join(
    [
        "--- a/f",
        "+++ b/f",
        "@@ -1,4 +1,5 @@",
        " alpha",
        " bravo",
        "+charlie",
        " delta",
        " echo",
        "",
    ]
)


def test_parse_empty_diff_yields_nothing():
    assert parse_unified_diff("") == []
    assert parse_unified_diff("\n\n") == []


def test_parse_single_insertion_hand_traced():
    diffs = parse_unified_diff(INSERTION_DIFF)
    assert diffs == [
        FileDiff(
            path="f",
            hunks=(
                Hunk(
                    old_start=1,
                    old_len=4,
                    new_start=1,
                    new_len=5,
                    lines=(
                        ("context", "alpha"),
                        ("context", "bravo"),
                        ("added", "charlie"),
                        ("context", "delta"),
                        ("context", "echo"),
                    ),
                ),
            ),
        )
    ]


def test_parse_truncated_new_file_hunk_hand_traced():
    text = "--- /dev/null\n+++ b/new.txt\n@@ -0,0 +1,3 @@\n+a\n+b\n"
    with pytest.raises(HunkCountMismatch) as excinfo:
        parse_unified_diff(text)
    assert "declares -0/+3" in str(excinfo.value)
    assert "ends after 0 old and 2 new lines" in str(excinfo.value)
    assert excinfo.value.line_number == 3


def test_parse_new_and_deleted_files():
    new = parse_unified_diff("--- /dev/null\n+++ b/new.txt\n@@ -0,0 +1,1 @@\n+hello\n")[0]
    assert new.is_new and not new.is_deleted
    assert new.path == "new.txt"
    deleted = parse_unified_diff("--- a/old.txt\n+++ /dev/null\n@@ -1,1 +0,0 @@\n-bye\n")[0]
    assert deleted.is_deleted and not deleted.is_new
    assert deleted.path == "old.txt"


def test_parse_tolerates_git_metadata_and_no_newline_marker():
    text = "\n".join(
        [
            "diff --git a/f b/f",
            "index 0123abc..456def 100644",
            "--- a/f",
            "+++ b/f",
            "@@ -1,1 +1,1 @@",
            "-old",
            "\\ No newline at end of file",
            "+new",
            "\\ No newline at end of file",
            "",
        ]
    )
    diffs = parse_unified_diff(text)
    assert len(diffs) == 1
    assert diffs[0].hunks[0].lines == (("removed", "old"), ("added", "new"))


def test_parse_defaults_omitted_counts_to_one():
    diffs = parse_unified_diff("--- a/f\n+++ b/f\n@@ -2 +2 @@\n-x\n+y\n")
    hunk = diffs[0].hunks[0]
    assert (hunk.old_start, hunk.old_len, hunk.new_start, hunk.new_len) == (2, 1, 2, 1)


@pytest.mark.parametrize(
    ("text", "fragment"),
    [
        ("+++ b/f\n@@ -1,1 +1,1 @@\n x\n", "outside a file section"),
        ("--- a/f\nnot a header\n", "'---' header not followed by '+++'"),
        ("--- a/f\n+++ b/f\n", "has no hunks"),
        ("--- a/f\n+++ b/f\n@@ bogus @@\n x\n", "malformed hunk header"),
        ("+stray line\n", "hunk line outside any hunk"),
        ("--- /dev/null\n+++ /dev/null\n@@ -1,1 +1,1 @@\n x\n", "both sides"),
        ("--- a/\n+++ b/\n@@ -1,1 +1,1 @@\n x\n", "empty file path"),
        (
            "--- a/f\n+++ b/f\n@@ -5,1 +5,1 @@\n x\n@@ -2,1 +2,1 @@\n y\n",
            "overlap or are out of order",
        ),
        ("--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n?odd\n", "unexpected line inside hunk"),
        ("--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n+a\n+b\n x\n", "more added lines"),
        ("--- a/f\n+++ b/f\n@@ -1,1 +1,2 @@\n x\n y\n", "more context lines"),
        ("--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n-a\n-b\n+x\n", "more removed lines"),
        ('--- "a/f\\q"\n+++ b/f\n@@ -1,1 +1,1 @@\n x\n', "line 1: malformed quoted path"),
        ('--- a/f\n+++ "b/f\n@@ -1,1 +1,1 @@\n x\n', "line 2: malformed quoted path"),
        ('--- a/f\n+++ "b/f\\30o"\n@@ -1,1 +1,1 @@\n x\n', "line 2: malformed quoted path"),
        ('--- a/f\n+++ "b/f" x\n@@ -1,1 +1,1 @@\n x\n', "line 2: malformed quoted path"),
        ('--- a/f\n+++ "b/f\\303"\n@@ -1,1 +1,1 @@\n x\n', 'line 2: quoted path "b/f\\303" is not'),
    ],
)
def test_parse_rejects_malformed_diffs(text, fragment):
    with pytest.raises(DiffSyntaxError) as excinfo:
        parse_unified_diff(text)
    assert fragment in str(excinfo.value)
    assert excinfo.value.line_number >= 1


def test_render_is_canonical_and_parse_inverts_it():
    diffs = parse_unified_diff(INSERTION_DIFF)
    rendered = render_unified_diff(diffs)
    assert rendered == INSERTION_DIFF
    assert parse_unified_diff(rendered) == diffs
    assert render_unified_diff([]) == ""


def test_render_uses_dev_null_for_new_and_deleted():
    new = FileDiff(
        path="n.txt",
        hunks=(Hunk(0, 0, 1, 1, (("added", "x"),)),),
        is_new=True,
    )
    assert render_unified_diff([new]).startswith("--- /dev/null\n+++ b/n.txt\n")
    deleted = FileDiff(
        path="d.txt",
        hunks=(Hunk(1, 1, 0, 0, (("removed", "x"),)),),
        is_deleted=True,
    )
    assert render_unified_diff([deleted]).startswith("--- a/d.txt\n+++ /dev/null\n")


def test_apply_insertion_preserves_trailing_newline():
    diff = parse_unified_diff(INSERTION_DIFF)[0]
    before = "alpha\nbravo\ndelta\necho\n"
    assert apply_file_diff(before, diff) == "alpha\nbravo\ncharlie\ndelta\necho\n"
    patched = apply_file_diff(before.rstrip("\n"), diff)
    assert patched == "alpha\nbravo\ncharlie\ndelta\necho"


def test_apply_pure_insertion_anchors_after_the_stated_line():
    diff = FileDiff(
        path="f",
        hunks=(Hunk(1, 0, 2, 2, (("added", "mid1"), ("added", "mid2"))),),
    )
    assert apply_file_diff("top\nbottom\n", diff) == "top\nmid1\nmid2\nbottom\n"
    at_start = FileDiff(path="f", hunks=(Hunk(0, 0, 1, 1, (("added", "first"),)),))
    assert apply_file_diff("top\n", at_start) == "first\ntop\n"


def test_apply_reports_mismatches():
    removal = FileDiff(path="f", hunks=(Hunk(1, 1, 1, 0, (("removed", "expected"),)),))
    with pytest.raises(PatchDoesNotApply) as excinfo:
        apply_file_diff("actual\n", removal)
    assert "removed line mismatch at line 1" in str(excinfo.value)

    context = FileDiff(path="f", hunks=(Hunk(2, 1, 2, 1, (("context", "nope"),)),))
    with pytest.raises(PatchDoesNotApply):
        apply_file_diff("one\ntwo\n", context)

    past_end = FileDiff(path="f", hunks=(Hunk(9, 1, 9, 1, (("context", "x"),)),))
    with pytest.raises(PatchDoesNotApply) as excinfo:
        apply_file_diff("one\n", past_end)
    assert "falls outside" in str(excinfo.value)

    overrun = FileDiff(
        path="f",
        hunks=(Hunk(1, 2, 1, 2, (("context", "one"), ("context", "two"))),),
    )
    with pytest.raises(PatchDoesNotApply) as excinfo:
        apply_file_diff("one\n", overrun)
    assert "runs past the end" in str(excinfo.value)


def test_build_request_from_files_sorts_and_skips_empty(tmp_path, caplog):
    (tmp_path / "zz.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "aa.py").write_text("print('hi')\n", encoding="utf-8")
    (tmp_path / "empty.py").write_text("", encoding="utf-8")
    paths = [tmp_path / "zz.py", tmp_path / "empty.py", tmp_path / "aa.py"]
    with caplog.at_level("WARNING", logger="sgcr.ingestion"):
        request = build_review_request(paths=paths)
    assert request.origin == "files"
    assert [unit.path for unit in request.units] == [
        (tmp_path / "aa.py").as_posix(),
        (tmp_path / "zz.py").as_posix(),
    ]
    first, second = request.units
    assert first.start_line == 1 and first.changed_ranges == ((1, 1),)
    assert second.changed_ranges == ((1, 2),)
    assert any("empty" in record.message for record in caplog.records)


def test_a_file_named_twice_is_reviewed_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "Main.java").write_text(
        "public class Main {\n    int read() { return value; }\n}\n", encoding="utf-8"
    )
    once = build_review_request(paths=["Main.java"])
    thrice = build_review_request(paths=["Main.java", "Main.java", "./Main.java"])
    assert thrice.units == once.units
    config = RunConfig(specs_dir=str(REPO_ROOT / "sample_specs"))
    assert render_report(run_review(config, thrice), "json") == render_report(
        run_review(config, once), "json"
    )


def test_build_request_input_validation(tmp_path):
    with pytest.raises(InvalidReviewRequest):
        build_review_request()
    with pytest.raises(InvalidReviewRequest):
        build_review_request(paths=[tmp_path / "a.py"], diff_text="x")
    with pytest.raises(FileNotFoundError):
        build_review_request(paths=[tmp_path / "missing.py"])
    empty = tmp_path / "empty.py"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(InvalidReviewRequest):
        build_review_request(paths=[empty])


SIX_LINES = "line one\nline two\nline three\ninserted line\nline five\nline six\n"
SIX_LINE_DIFF = "\n".join(
    [
        "--- a/src/app.py",
        "+++ b/src/app.py",
        "@@ -3,2 +3,3 @@",
        " line three",
        "+inserted line",
        " line five",
        "",
    ]
)


def _six_line_repo(tmp_path):
    target = tmp_path / "src"
    target.mkdir()
    (target / "app.py").write_text(SIX_LINES, encoding="utf-8")
    return tmp_path


def test_build_request_from_diff_windows_hand_traced(tmp_path):
    repo = _six_line_repo(tmp_path)
    tight = build_review_request(diff_text=SIX_LINE_DIFF, repo_root=repo, context_lines=0)
    assert tight.origin == "diff"
    unit = tight.units[0]
    assert (unit.start_line, unit.end_line()) == (3, 5)
    assert unit.content == "line three\ninserted line\nline five"
    assert unit.changed_ranges == ((4, 4),)

    wider = build_review_request(diff_text=SIX_LINE_DIFF, repo_root=repo, context_lines=1)
    unit = wider.units[0]
    assert (unit.start_line, unit.end_line()) == (2, 6)
    assert unit.changed_ranges == ((4, 4),)

    clamped = build_review_request(diff_text=SIX_LINE_DIFF, repo_root=repo, context_lines=99)
    unit = clamped.units[0]
    assert (unit.start_line, unit.end_line()) == (1, 6)


def test_consecutive_added_lines_form_one_changed_range(tmp_path):
    lines = "\n".join(f"line {i}" for i in range(1, 11)) + "\n"
    (tmp_path / "run.py").write_text(lines, encoding="utf-8")
    diff = "\n".join(
        [
            "--- a/run.py",
            "+++ b/run.py",
            "@@ -3,3 +3,5 @@",
            " line 3",
            "-old four",
            "+line 4",
            "+line 5",
            " line 6",
            "+line 7",
            "",
        ]
    )
    request = build_review_request(diff_text=diff, repo_root=tmp_path, context_lines=0)
    (unit,) = request.units
    assert unit.changed_ranges == ((4, 5), (7, 7))


def test_build_request_from_diff_merges_adjacent_windows(tmp_path):
    lines = "\n".join(f"line {i}" for i in range(1, 21)) + "\n"
    (tmp_path / "wide.py").write_text(lines, encoding="utf-8")
    diff = "\n".join(
        [
            "--- a/wide.py",
            "+++ b/wide.py",
            "@@ -2,1 +2,1 @@",
            "-old two",
            "+line 2",
            "@@ -6,1 +6,1 @@",
            "-old six",
            "+line 6",
            "@@ -18,1 +18,1 @@",
            "-old eighteen",
            "+line 18",
            "",
        ]
    )
    request = build_review_request(diff_text=diff, repo_root=tmp_path, context_lines=2)
    spans = [(unit.start_line, unit.end_line()) for unit in request.units]
    assert spans == [(1, 8), (16, 20)]
    assert request.units[0].changed_ranges == ((2, 2), (6, 6))
    assert request.units[1].changed_ranges == ((18, 18),)


def test_build_request_from_diff_skips_deleted_files(tmp_path):
    diff = "--- a/gone.py\n+++ /dev/null\n@@ -1,1 +0,0 @@\n-x\n"
    with pytest.raises(InvalidReviewRequest):
        build_review_request(diff_text=diff, repo_root=tmp_path)


def test_build_request_from_diff_skips_an_empty_post_image(tmp_path, caplog):
    (tmp_path / "emptied.py").write_text("", encoding="utf-8")
    (tmp_path / "kept.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    diff = (
        "--- a/emptied.py\n+++ b/emptied.py\n@@ -1,1 +0,0 @@\n-x = 1\n"
        "--- a/kept.py\n+++ b/kept.py\n@@ -1,1 +1,2 @@\n x = 1\n+y = 2\n"
    )
    with caplog.at_level("WARNING", logger="sgcr.ingestion"):
        request = build_review_request(diff_text=diff, repo_root=tmp_path)
    assert [(unit.path, unit.changed_ranges) for unit in request.units] == [("kept.py", ((2, 2),))]
    assert [record.message for record in caplog.records] == [
        "skipping empty post-image file emptied.py"
    ]


def test_build_request_from_diff_requires_post_image(tmp_path):
    with pytest.raises(FileNotFoundError):
        build_review_request(diff_text=SIX_LINE_DIFF, repo_root=tmp_path)


def test_a_repo_root_reached_through_a_symlink_reads_its_post_images(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "app.py").write_text("first\nsecond\n", encoding="utf-8")
    # A symlink that stays inside the repository is read like any file.
    (repo / "alias.py").symlink_to(repo / "src" / "app.py")
    (tmp_path / "checkout").symlink_to(repo)
    diff = "".join(
        f"--- a/{name}\n+++ b/{name}\n@@ -1,1 +1,2 @@\n first\n+second\n"
        for name in ("alias.py", "src/app.py")
    )
    request = build_review_request(diff_text=diff, repo_root=tmp_path / "checkout")
    assert [(unit.path, unit.content) for unit in request.units] == [
        ("alias.py", "first\nsecond"),
        ("src/app.py", "first\nsecond"),
    ]


def _assert_unit_agrees_with_its_block(request, unit):
    """Header, numbered lines, end_line, changed ranges and unit_for_location
    all describe the same lines."""
    block = prompt_block(request)
    assert f"FILE {unit.path} (lines {unit.start_line}..{unit.end_line()})\n" in block
    numbered = [line for line in block.splitlines() if line[5:8] == " | "]
    assert [int(line[:5]) for line in numbered] == list(range(unit.start_line, unit.end_line() + 1))
    assert unit.content.splitlines() == unit.content.split("\n")
    for start, end in unit.changed_ranges:
        assert unit.start_line <= start <= end <= unit.end_line()
        for line in range(start, end + 1):
            assert unit_for_location(request, unit.path, line) is unit


@pytest.mark.parametrize("empty_lines", [1, 2])
def test_a_file_that_ends_in_empty_lines_ends_at_its_last_text_line(tmp_path, empty_lines):
    path = tmp_path / "A.java"
    path.write_text("class A {\n}\n" + "\n" * empty_lines, encoding="utf-8")
    request = build_review_request(paths=[path])
    (unit,) = request.units
    assert (unit.content, unit.end_line(), unit.changed_ranges) == ("class A {\n}", 2, ((1, 2),))
    assert prompt_block(request).startswith(f"FILE {unit.path} (lines 1..2)\nChanged lines: 1-2\n")
    _assert_unit_agrees_with_its_block(request, unit)


@pytest.mark.parametrize("empty_lines", [1, 2])
def test_a_diff_window_that_ends_in_empty_lines_ends_at_its_last_text_line(tmp_path, empty_lines):
    (tmp_path / "run.py").write_text(
        "line 1\nline 2\nline 3\n" + "\n" * empty_lines + "line 9\n", encoding="utf-8"
    )
    diff = "\n".join(
        ["--- a/run.py", "+++ b/run.py", f"@@ -2,1 +2,{2 + empty_lines} @@", " line 2", "+line 3"]
        + ["+"] * empty_lines
        + [""]
    )
    request = build_review_request(diff_text=diff, repo_root=tmp_path, context_lines=0)
    (unit,) = request.units
    assert (unit.start_line, unit.end_line()) == (2, 3)
    assert unit.content == "line 2\nline 3"
    assert unit.changed_ranges == ((3, 3),)
    _assert_unit_agrees_with_its_block(request, unit)


def test_units_of_only_empty_lines_are_skipped(tmp_path, caplog):
    (tmp_path / "blank.py").write_text("\n\n", encoding="utf-8")
    (tmp_path / "gap.py").write_text("a\n" + "\n" * 5 + "b\n", encoding="utf-8")
    with caplog.at_level("WARNING", logger="sgcr.ingestion"):
        with pytest.raises(InvalidReviewRequest):
            build_review_request(paths=[tmp_path / "blank.py"])
    assert [record.message for record in caplog.records] == [
        f"skipping empty file {tmp_path / 'blank.py'}"
    ]
    caplog.clear()
    diff = (
        "--- a/blank.py\n+++ b/blank.py\n@@ -1,0 +1,2 @@\n+\n+\n"
        "--- a/gap.py\n+++ b/gap.py\n@@ -3,0 +4,1 @@\n+\n@@ -7,0 +7,1 @@\n+b\n"
    )
    with caplog.at_level("WARNING", logger="sgcr.ingestion"):
        request = build_review_request(diff_text=diff, repo_root=tmp_path, context_lines=0)
    assert [(unit.path, unit.start_line, unit.content) for unit in request.units] == [
        ("gap.py", 7, "b")
    ]
    assert [record.message for record in caplog.records] == [
        "skipping empty post-image file blank.py"
    ]


# Headers as git writes them for paths it quotes (core.quotePath): the name
# in C quotes, and a tab after a name that holds a space.
QUOTED_NAMES = {
    'naïve file.py': r'"b/na\303\257ve file.py"' + "\t",
    'say "hi".py': r'"b/say \"hi\".py"' + "\t",
    "back\\slash.py": r'"b/back\\slash.py"',
    "tab\tand\nnewline.py": r'"b/tab\tand\nnewline.py"',
}


def test_diff_paths_that_git_quotes_are_unquoted(tmp_path):
    sections = []
    for name, quoted in QUOTED_NAMES.items():
        (tmp_path / name).write_text("one\ntwo\n", encoding="utf-8")
        sections.append(
            f"diff --git {quoted.replace('b/', 'a/', 1).rstrip()} {quoted.rstrip()}\n"
            f"--- {quoted.replace('b/', 'a/', 1)}\n+++ {quoted}\n@@ -1,1 +1,2 @@\n one\n+two\n"
        )
    diff = "".join(sections)
    assert [file_diff.path for file_diff in parse_unified_diff(diff)] == list(QUOTED_NAMES)
    request = build_review_request(diff_text=diff, repo_root=tmp_path)
    assert [unit.path for unit in request.units] == sorted(QUOTED_NAMES)
    assert all(unit.content == "one\ntwo" for unit in request.units)


def test_prompt_block_exact_layout():
    unit = ReviewUnit(
        path="src/app.py",
        content="first text\nsecond text",
        start_line=3,
        changed_ranges=((4, 4),),
    )
    request = ReviewRequest(units=(unit,), origin="diff")
    assert prompt_block(request) == (
        "FILE src/app.py (lines 3..4)\n"
        "Changed lines: 4-4\n"
        "    3 | first text\n"
        "    4 | second text"
    )


def test_unit_for_location_prefers_containing_window():
    early = ReviewUnit(path="a.py", content="x\ny\nz", start_line=3, changed_ranges=())
    late = ReviewUnit(path="a.py", content="p\nq\nr", start_line=10, changed_ranges=())
    request = ReviewRequest(units=(early, late), origin="diff")
    assert unit_for_location(request, "a.py", 11) is late
    assert unit_for_location(request, "a.py", 4) is early
    assert unit_for_location(request, "a.py", 7) is early  # falls back to the first unit
    assert unit_for_location(request, "b.py", 4) is None


def test_random_diffs_round_trip_through_render_and_parse():
    rng = random.Random(99)
    for _ in range(25):
        diffs = random_diff_set(rng)
        rendered = render_unified_diff(diffs)
        assert parse_unified_diff(rendered) == diffs
