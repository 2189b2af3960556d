"""Prompt blocks, the header reader's round trip, and the module that owns them."""

from __future__ import annotations

import ast

import pytest

from conftest import REPO_ROOT, make_library, make_spec
from sgcr.ingestion import ReviewRequest, ReviewUnit, prompt_block
from sgcr.prompts import Role, code_block, prompt_headers, render_prompt, rules_block
from sgcr.types import Category, Severity


@pytest.mark.parametrize(
    "path",
    [
        "My File.java",
        "src/util (old)/Helper.java",
        "dir (lines 1..2)/a.py",
        "ends with (lines 3..4)",
        "naïve file.py",
        "模块/файл two.go",
        "tab\tand\nnewline.py",
        'say "hi".py',
        "back\\slash.py",
        '"starts quoted".py',
        "bell\a del\x7f unit\x1f.py",
    ],
)
def test_the_header_reader_reads_back_the_first_unit_of_a_code_block(path):
    units = (
        ReviewUnit(path=path, content="a\nb\nc", start_line=7, changed_ranges=((8, 8),)),
        ReviewUnit(path="second.py", content="x", start_line=1, changed_ranges=()),
    )
    library = make_library(make_spec("a.rule"), make_spec("b.rule"))
    prompt = render_prompt(
        Role.EXPLICIT_REVIEWER,
        {
            "code": prompt_block(ReviewRequest(units=units, origin="diff")),
            "specs": rules_block(library, ("a.rule", "b.rule")),
        },
    )
    assert prompt_headers(prompt) == ((path, 7, 9), ["a.rule", "b.rule"])


def test_a_path_git_would_quote_is_written_quoted_on_one_header_line():
    units = (
        ReviewUnit(path="a\tb\nc\\d\"e\x7f.py", content="x", start_line=1, changed_ranges=()),
        ReviewUnit(path="naïve file.py", content="y", start_line=1, changed_ranges=()),
    )
    assert code_block(units).splitlines() == [
        'FILE "a\\tb\\nc\\\\d\\"e\\177.py" (lines 1..1)',
        "    1 | x",
        "",
        "FILE naïve file.py (lines 1..1)",
        "    1 | y",
    ]


def test_rules_block_layouts():
    library = make_library(
        make_spec("a.one", Severity.HIGH, Category.SECURITY, body="First.", title="One"),
        make_spec("b.two", body="Second.", title="Two"),
    )
    assert rules_block(library, ("b.two", "a.one")) == (
        "RULE b.two [low/style] Two\nSecond.\n\nRULE a.one [high/security] One\nFirst."
    )
    assert rules_block(library, ("a.one",), [0.87654]) == (
        "score=0.8765\nRULE a.one [high/security] One\nFirst."
    )
    assert rules_block(library, (), []) == "(no rules retrieved for this issue)"
    with pytest.raises(KeyError):
        rules_block(library, ("a.one", "ghost"))


# What only the prompt text holds: the code block's FILE header, changed lines
# and line gutter, a rule's RULE head, a retrieved rule's score line, and the
# patch finding's snippet line.
_PROMPT_LITERALS = ("FILE ", "RULE ", "Changed lines: ", " | ", "score=", "snippet_first_line")


def _literals_outside_docstrings(path) -> set[str]:
    """Which of _PROMPT_LITERALS the module's string constants, f-string parts
    included, hold outside its docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found.update(literal for literal in _PROMPT_LITERALS if literal in node.value)
    return found


def test_only_the_prompts_module_writes_prompt_text():
    sources = sorted((REPO_ROOT / "src" / "sgcr").glob("*.py"))
    writers = {path.name: _literals_outside_docstrings(path) for path in sources}
    assert writers.pop("prompts.py") == set(_PROMPT_LITERALS)
    assert {name: found for name, found in writers.items() if found} == {}
