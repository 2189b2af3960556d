"""Rule file parsing, library loading, and token-budget segmentation."""

from __future__ import annotations

import errno
import logging
import os
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import make_library, make_spec, write_spec_file
import sgcr.specs
from sgcr.errors import DuplicateSpecId, EmptyLibrary, MalformedSpecFile
from sgcr.prompts import chunk_prompt_text, rule_text
from sgcr.specs import (
    REQUIRED_KEYS,
    SPEC_ID_PATTERN,
    SpecChunk,
    Specification,
    estimate_tokens,
    load_library,
    parse_spec_file,
    segment_library,
)
from sgcr.types import Category, Severity


def test_estimate_tokens_examples():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("a" * 10) == 3


def test_parse_spec_file_happy_path(tmp_path):
    path = write_spec_file(
        tmp_path,
        "sec.sql-injection",
        title="Use parameterized SQL",
        category="security",
        severity="critical",
        body="Never concatenate user input into SQL.",
    )
    spec = parse_spec_file(path, path.name)
    assert spec.id == "sec.sql-injection"
    assert spec.title == "Use parameterized SQL"
    assert spec.category is Category.SECURITY
    assert spec.severity is Severity.CRITICAL
    assert spec.language == "java"
    assert spec.body == "Never concatenate user input into SQL."
    assert spec.token_estimate == estimate_tokens(spec.title + spec.body)


def test_prompt_text_shape():
    spec = make_spec(
        "corr.null-check",
        severity=Severity.HIGH,
        category=Category.CORRECTNESS,
        title="Check for null",
        body="Dereference only after a null check.",
    )
    assert rule_text(spec) == (
        "RULE corr.null-check [high/correctness] Check for null\n"
        "Dereference only after a null check."
    )


@pytest.mark.parametrize(
    "mutation, message_part",
    [
        (lambda text: text.replace("id: x.rule\n", ""), "missing front-matter keys"),
        (lambda text: text.replace("severity: low", "severity: urgent"), "invalid severity"),
        (lambda text: text.replace("category: style", "category: vibes"), "invalid category"),
        (lambda text: text.replace("id: x.rule", "id: X RULE"), "invalid spec id"),
        (lambda text: text.replace("The body.\n", ""), "empty rule body"),
        (lambda text: text.replace("title: T", "title:"), "empty title"),
        (lambda text: "id: x.rule\n" + text, "missing opening front-matter delimiter"),
        (
            lambda text: text.replace("severity: low\n", "severity: low\nseverity: low\n"),
            "duplicate front-matter key",
        ),
        (lambda text: text.replace("\n---\nThe body.\n", "\n"), "missing closing front-matter"),
        (lambda text: text.replace("language: java", "language java"), "bad front-matter line"),
    ],
)
def test_parse_spec_file_rejects(tmp_path, mutation, message_part):
    base = "---\nid: x.rule\ntitle: T\ncategory: style\nseverity: low\nlanguage: java\n---\nThe body.\n"
    path = tmp_path / "rule.md"
    path.write_text(mutation(base), encoding="utf-8")
    with pytest.raises(MalformedSpecFile) as excinfo:
        parse_spec_file(path, "rule.md")
    assert "rule.md" in str(excinfo.value)
    assert message_part in str(excinfo.value)


def test_parse_spec_file_ignores_unknown_keys(tmp_path, caplog):
    path = write_spec_file(tmp_path, "x.rule")
    text = path.read_text(encoding="utf-8").replace(
        "language: java", "language: java\nauthor: somebody"
    )
    path.write_text(text, encoding="utf-8")
    with caplog.at_level("WARNING"):
        spec = parse_spec_file(path, "x.md")
    assert spec.id == "x.rule"
    assert "author" in caplog.text


def test_load_library_orders_by_source_path(tmp_path):
    write_spec_file(tmp_path, "zz.rule", filename="a.md")
    write_spec_file(tmp_path, "aa.rule", filename="b.md")
    library = load_library(tmp_path)
    assert library.ids() == ("zz.rule", "aa.rule")


def test_load_library_walks_subdirectories_deterministically(tmp_path):
    write_spec_file(tmp_path / "sec", "s.one", filename="one.md")
    write_spec_file(tmp_path, "top.rule", filename="top.md")
    write_spec_file(tmp_path / "perf", "p.one", filename="one.md")
    library = load_library(tmp_path)
    assert library.ids() == ("p.one", "s.one", "top.rule")


def test_load_library_duplicate_id_names_both_files(tmp_path):
    write_spec_file(tmp_path, "dup.rule", filename="first.md")
    write_spec_file(tmp_path, "dup.rule", filename="second.md")
    with pytest.raises(DuplicateSpecId) as excinfo:
        load_library(tmp_path)
    assert "first.md" in str(excinfo.value)
    assert "second.md" in str(excinfo.value)


def test_load_library_language_filter(tmp_path):
    for index in range(3):
        write_spec_file(tmp_path, f"java.rule{index}", language="java")
    write_spec_file(tmp_path, "py.rule", language="python")
    assert len(load_library(tmp_path, language_filter="java")) == 3
    assert len(load_library(tmp_path)) == 4
    with pytest.raises(EmptyLibrary):
        load_library(tmp_path, language_filter="go")


def test_load_library_missing_or_empty_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_library(tmp_path / "absent")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(EmptyLibrary):
        load_library(empty)


def _rule_tree(tmp_path):
    """A library tree with every kind of entry the loader must sort out."""
    root = tmp_path / "rules"
    outside = tmp_path / "outside"
    write_spec_file(root, "top.rule", filename="top.md")
    write_spec_file(root / "sub", "sub.rule", filename="b.md")
    write_spec_file(root / "sub" / "deeper", "deep.rule", filename="c.md")
    write_spec_file(root / ".hidden", "hidden.rule", filename="h.md")
    write_spec_file(root / "x.md", "inside-dir.rule", filename="inner.md")
    write_spec_file(root, "dot.rule", filename=".md")
    write_spec_file(root, "upper.rule", filename="README.MD")
    (root / "notes.txt").write_text("not a rule\n", encoding="utf-8")
    write_spec_file(outside, "outside.rule", filename="o.md")
    write_spec_file(outside / "target", "linked-file.rule", filename="t.md")
    (root / "linked").symlink_to(outside, target_is_directory=True)
    (root / "dirlink.md").symlink_to(outside, target_is_directory=True)
    (root / "alias.md").symlink_to(outside / "target" / "t.md")
    (root / "broken.md").symlink_to(tmp_path / "missing.md")
    (root / "loop.md").symlink_to(root / "loop.md")
    return root


def test_load_library_selects_what_rglob_and_is_file_select(tmp_path):
    root = _rule_tree(tmp_path)
    reference = sorted(
        path.relative_to(root).as_posix() for path in root.rglob("*.md") if path.is_file()
    )
    loaded = [spec.source_path for spec in load_library(root).specs]
    assert loaded == reference
    assert loaded == [
        ".hidden/h.md",
        ".md",
        "alias.md",
        "sub/b.md",
        "sub/deeper/c.md",
        "top.md",
        "x.md/inner.md",
    ]


@pytest.mark.parametrize("relative_root", [False, True])
def test_load_library_reports_unreadable_files_as_rglob_paths_did(
    tmp_path, monkeypatch, relative_root
):
    root = _rule_tree(tmp_path)
    (root / "sub" / "bad.md").write_bytes(b"---\nid: \xff\n---\nbody\n")
    if relative_root:
        monkeypatch.chdir(root)
        root = Path(".")
    with pytest.raises(MalformedSpecFile) as excinfo:
        load_library(root)
    with pytest.raises(UnicodeDecodeError) as decode_error:
        (root / "sub" / "bad.md").read_text(encoding="utf-8")
    assert str(excinfo.value) == f"sub/bad.md: unreadable ({decode_error.value})"

    # Running as root, no permission bit makes a file unreadable, so the
    # refusal is injected; its message carries the path the loader opened.
    (root / "sub" / "bad.md").unlink()
    refused = str(root / "sub" / "b.md")

    def refusing_open(path, *args, **kwargs):
        if str(path) == refused or str(path).endswith("sub/b.md"):
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(sgcr.specs, "open", refusing_open, raising=False)
    with pytest.raises(MalformedSpecFile) as excinfo:
        load_library(root)
    expected = PermissionError(errno.EACCES, "Permission denied", refused)
    assert str(excinfo.value) == f"sub/b.md: unreadable ({expected})"


_SCANDIR = os.scandir


def _scandir_with(monkeypatch, refuse_listing=(), entry_errors=None):
    """os.scandir as the loader sees it: listing a directory whose name ends
    with one of refuse_listing raises PermissionError, and asking an entry
    whose name is a key of entry_errors what it is raises that OSError."""
    entry_errors = entry_errors or {}

    class Entry:
        def __init__(self, entry):
            self._entry = entry
            self.name = entry.name

        def is_dir(self, **kwargs):
            if self.name in entry_errors:
                raise entry_errors[self.name]
            return self._entry.is_dir(**kwargs)

        def is_file(self, **kwargs):
            return self._entry.is_file(**kwargs)

    @contextmanager
    def patched(path="."):
        if str(path).rstrip("/").endswith(tuple(refuse_listing)):
            raise PermissionError(errno.EACCES, "Permission denied", path)
        with _SCANDIR(path) as entries:
            yield [Entry(entry) for entry in entries]

    monkeypatch.setattr(os, "scandir", patched)


def test_a_directory_that_cannot_be_listed_is_skipped(tmp_path, monkeypatch):
    root = tmp_path / "rules"
    write_spec_file(root, "top.rule", filename="top.md")
    write_spec_file(root / "locked", "locked.rule", filename="l.md")
    write_spec_file(root / "open", "open.rule", filename="o.md")
    _scandir_with(monkeypatch, refuse_listing=["locked"])
    assert [spec.id for spec in load_library(root).specs] == ["open.rule", "top.rule"]


def test_an_entry_that_vanished_is_skipped_and_any_other_error_is_raised(
    tmp_path, monkeypatch
):
    root = tmp_path / "rules"
    write_spec_file(root, "top.rule", filename="top.md")
    write_spec_file(root, "gone.rule", filename="gone.md")
    gone = FileNotFoundError(errno.ENOENT, "No such file or directory")
    _scandir_with(monkeypatch, entry_errors={"gone.md": gone})
    assert [spec.id for spec in load_library(root).specs] == ["top.rule"]

    failing = OSError(errno.EIO, "Input/output error")
    _scandir_with(monkeypatch, entry_errors={"gone.md": failing})
    with pytest.raises(OSError) as excinfo:
        load_library(root)
    assert excinfo.value is failing


def test_segment_three_specs_budget_250():
    library = make_library(
        make_spec("r.one", tokens=100),
        make_spec("r.two", tokens=100),
        make_spec("r.three", tokens=100),
    )
    chunks = segment_library(library, budget=250)
    assert [chunk.spec_ids for chunk in chunks] == [("r.one", "r.two"), ("r.three",)]
    assert [chunk.token_total for chunk in chunks] == [200, 100]
    assert [chunk.ordinal for chunk in chunks] == [0, 1]


def test_segment_everything_fits_one_chunk():
    library = make_library(make_spec("a", tokens=10), make_spec("b", tokens=20))
    chunks = segment_library(library, budget=30)
    assert len(chunks) == 1
    assert chunks[0].spec_ids == ("a", "b")


def test_segment_oversize_spec_gets_own_chunk():
    library = make_library(
        make_spec("small", tokens=50),
        make_spec("huge", tokens=900),
        make_spec("tail", tokens=50),
    )
    chunks = segment_library(library, budget=500)
    assert [chunk.spec_ids for chunk in chunks] == [("small",), ("huge",), ("tail",)]
    assert chunks[1].token_total == 900


def test_segment_rejects_non_positive_budget():
    with pytest.raises(ValueError):
        segment_library(make_library(make_spec("a")), budget=0)


def test_segment_invariants_randomized():
    rng = random.Random(20260817)
    for _ in range(200):
        count = rng.randint(0, 25)
        specs = [make_spec(f"r.{i:02d}", tokens=rng.randint(1, 300)) for i in range(count)]
        library = make_library(*specs)
        budget = rng.randint(1, 400)
        chunks = segment_library(library, budget)
        flattened = [spec_id for chunk in chunks for spec_id in chunk.spec_ids]
        assert flattened == list(library.ids())
        assert [chunk.ordinal for chunk in chunks] == list(range(len(chunks)))
        for chunk in chunks:
            assert chunk.spec_ids
            members = [library.get(spec_id).token_estimate for spec_id in chunk.spec_ids]
            assert chunk.token_total == sum(members)
            assert chunk.token_total <= budget or len(chunk.spec_ids) == 1


def test_chunk_prompt_text_concatenates_rules():
    library = make_library(
        make_spec("a.one", body="First body."),
        make_spec("b.two", body="Second body."),
    )
    chunk = SpecChunk(ordinal=0, spec_ids=("a.one", "b.two"), token_total=1)
    text = chunk_prompt_text(library, chunk)
    assert "RULE a.one" in text
    assert "First body." in text
    assert text.index("a.one") < text.index("b.two")


def test_chunk_prompt_text_unknown_id():
    library = make_library(make_spec("a.one"))
    chunk = SpecChunk(ordinal=0, spec_ids=("ghost",), token_total=1)
    with pytest.raises(KeyError):
        chunk_prompt_text(library, chunk)


# -- rule-file oracle -------------------------------------------------------

_reference_logger = logging.getLogger("sgcr.specs")


def _reference_parse_spec_file(path, source_path):
    """The text-mode rule-file parser rule files were read with, kept as the oracle."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedSpecFile(f"{source_path}: unreadable ({exc})") from exc

    lines = text.splitlines()
    if not lines or lines[0].strip() != "---":
        raise MalformedSpecFile(f"{source_path}: missing opening front-matter delimiter")

    fields = {}
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
            _reference_logger.warning("%s: ignoring unknown front-matter key %r", source_path, key)
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


# Every line boundary str.splitlines knows; "\n" most often.
LINE_BREAKS = ["\n"] * 12 + [
    "\r\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]
PADDING = ["", "", "", " ", "  ", "\t", " \t "]
FIELD_VALUES = {
    "id": ["sec.sql-injection", "r.one_2", "x.rule", "X RULE", "", "a/b", "dup.\u00e9"],
    "title": ["Use parameterized SQL", "Check: twice", "", "caf\u00e9 \U0001f600", "T"],
    "category": [category.value for category in Category] + ["vibes", "Security", ""],
    "severity": [severity.value for severity in Severity] + ["urgent", "LOW", ""],
    "language": ["java", "Python", "GO", ""],
}
BODY_WORDS = ["never", "concatenate", "input", "---", "", "caf\u00e9", "\U0001f600", "a: b"]
# A stray lead byte, a truncated sequence, an encoded surrogate, an overlong form.
UNDECODABLE = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


def _pick(rng, values, common=0.75):
    return values[0] if rng.random() < common else rng.choice(values)


def _random_rule_file(rng) -> bytes:
    delimiter = lambda: _pick(rng, PADDING, 0.6) + "---" + _pick(rng, PADDING, 0.6)
    lines = [delimiter() if rng.random() < 0.95 else rng.choice(["--", "", "id: x.rule"])]
    keys = list(REQUIRED_KEYS)
    rng.shuffle(keys)
    for key in keys:
        roll = rng.random()
        if roll < 0.04:
            continue  # missing key
        value = _pick(rng, FIELD_VALUES[key], 0.85)
        line = f"{_pick(rng, PADDING)}{key}{_pick(rng, PADDING)}:{_pick(rng, PADDING)}{value}"
        lines.append(line + _pick(rng, PADDING))
        if roll > 0.97:
            lines.append(line)  # duplicate key
        if rng.random() < 0.08:
            extra = ["", "   ", "author: somebody", " tags : a, b", "language java"]
            lines.append(rng.choice(extra))
    if rng.random() < 0.95:
        lines.append(delimiter())
    for _ in range(rng.choice([0, 1, 2, 5, 20, 200])):
        words = [rng.choice(BODY_WORDS) for _ in range(rng.randint(0, 12))]
        lines.append(_pick(rng, PADDING) + " ".join(words))
    text = lines[0]
    for line in lines[1:]:
        text += _pick(rng, LINE_BREAKS, 0.8) + line
    if rng.random() < 0.5:
        text += _pick(rng, LINE_BREAKS, 0.8)
    data = text.encode("utf-8")
    if rng.random() < 0.05:
        data = b"\xef\xbb\xbf" + data  # a byte-order mark
    if rng.random() < 0.06:
        position = rng.randint(0, len(data))
        data = data[:position] + rng.choice(UNDECODABLE) + data[position:]
    return data


def _outcome(parse, path, caplog):
    caplog.clear()
    with caplog.at_level("WARNING", logger="sgcr.specs"):
        try:
            result = ("spec", parse(path, "rules/r.md"))
        except Exception as exc:  # compared by type and message
            result = (type(exc), str(exc))
    records = [(record.name, record.levelno, record.getMessage()) for record in caplog.records]
    return result, records


# The start of each rejection message after the path.
REJECTIONS = (
    "unreadable (",
    "missing opening front-matter delimiter",
    "bad front-matter line",
    "duplicate front-matter key",
    "missing closing front-matter delimiter",
    "missing front-matter keys",
    "invalid spec id",
    "invalid category",
    "invalid severity",
    "empty title",
    "empty rule body",
)


def test_parse_spec_file_matches_the_text_mode_oracle_on_random_files(tmp_path, caplog):
    rng = random.Random(20261018)
    path = tmp_path / "r.md"
    seen = set()
    for _ in range(1500):
        data = _random_rule_file(rng)
        path.write_bytes(data)
        expected = _outcome(_reference_parse_spec_file, path, caplog)
        assert _outcome(parse_spec_file, path, caplog) == expected, data
        (kind, detail), _ = expected
        if kind == "spec":
            seen.add("spec")
        else:
            message = detail.removeprefix("rules/r.md: ")
            seen.update(prefix for prefix in REJECTIONS if message.startswith(prefix))
    # Parsed rules and every kind of rejection were generated.
    assert seen == {"spec", *REJECTIONS}


def test_parse_spec_file_reports_a_late_undecodable_byte_as_read_text_does(tmp_path):
    # Past the 8 KiB a buffered text reader decodes at a time.
    path = tmp_path / "r.md"
    path.write_bytes(
        b"---\nid: x.rule\ntitle: T\ncategory: style\nseverity: low\nlanguage: java\n---\n"
        + "caf\u00e9 body line\r\n".encode("utf-8") * 2000
        + b"\xe2\x82"
    )
    with pytest.raises(UnicodeDecodeError) as decode_error:
        path.read_text(encoding="utf-8")
    with pytest.raises(MalformedSpecFile) as excinfo:
        parse_spec_file(path, "r.md")
    assert str(excinfo.value) == f"r.md: unreadable ({decode_error.value})"
