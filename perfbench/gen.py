"""Seeded input generators: a rule library, Java sources and a unified diff.

Every function draws only from the ``random.Random`` it is given, so one
seed always yields byte-identical files. The seed changes content (words,
identifiers, severities, which lines a change touches), never shape: rule
count, the combined size of each rule's title and body, file lengths and
hunk counts are fixed by the caller. That keeps chunk counts, prompt sizes
and call counts nearly constant across seeds, so run-to-run spread comes
from the program and not from the inputs.
"""

from __future__ import annotations

import difflib
import random
from pathlib import Path

CATEGORIES = (
    "security",
    "correctness",
    "performance",
    "business_logic",
    "maintainability",
    "style",
)
SEVERITIES = ("critical", "high", "medium", "low")

_NOUNS = (
    "account", "ledger", "invoice", "payment", "session", "token", "query",
    "cursor", "buffer", "stream", "record", "batch", "cache", "lock", "thread",
    "request", "response", "header", "payload", "customer", "order", "refund",
    "balance", "currency", "audit", "event", "schedule", "report", "policy",
    "password", "secret", "credential", "connection", "pool", "handler",
    "validator", "parser", "entity", "repository", "service", "counter",
)
_VERBS = (
    "validate", "escape", "close", "release", "log", "retry", "round",
    "compare", "serialize", "cache", "lock", "encode", "normalize", "check",
    "bound", "audit", "reject", "sanitize", "flush", "reuse", "copy",
)
_ADJECTIVES = (
    "external", "mutable", "shared", "nullable", "unbounded", "plain",
    "monetary", "concurrent", "stale", "partial", "untrusted", "cached",
    "transient", "global", "legacy", "implicit", "raw", "signed",
)
_TYPES = ("String", "int", "long", "BigDecimal", "List<String>", "Map<String, Long>")


def _sentence(rng: random.Random) -> str:
    return (
        f"Always {rng.choice(_VERBS)} the {rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}"
        f" before the {rng.choice(_NOUNS)} {rng.choice(_NOUNS)} is"
        f" {rng.choice(_VERBS)}ed by a {rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}."
    )


def _rule_body(rng: random.Random, length: int) -> str:
    """Prose of exactly ``length`` characters, ending in a full stop."""
    text = ""
    while len(text) < length:
        text += ("\n" if rng.random() < 0.2 else " ") + _sentence(rng)
    return text.strip()[: length - 1].rstrip().ljust(length - 1, "x") + "."


def write_library(dest: Path, rng: random.Random, count: int, rule_chars: int) -> list[str]:
    """Write ``count`` rule files under ``dest``; return their ids.

    Title plus body is exactly ``rule_chars`` characters per rule, so the
    library's token estimate and chunk layout do not depend on the seed.
    Categories cycle so every category, ``business_logic`` included, is
    present in any library of six or more rules.
    """
    ids = []
    for number in range(count):
        category = CATEGORIES[number % len(CATEGORIES)]
        rule_id = f"{category}.r{number:04d}"
        title = (
            f"{rng.choice(_VERBS).capitalize()} {rng.choice(_ADJECTIVES)}"
            f" {rng.choice(_NOUNS)} values"
        )
        body = _rule_body(rng, rule_chars - len(title))
        folder = dest / category
        folder.mkdir(parents=True, exist_ok=True)
        (folder / f"r{number:04d}.md").write_text(
            "---\n"
            f"id: {rule_id}\n"
            f"title: {title}\n"
            f"category: {category}\n"
            f"severity: {rng.choice(SEVERITIES)}\n"
            "language: java\n"
            "---\n"
            f"{body}\n",
            encoding="utf-8",
        )
        ids.append(rule_id)
    return ids


def _statement(rng: random.Random) -> str:
    noun, other = rng.choice(_NOUNS), rng.choice(_NOUNS)
    shapes = (
        f"{rng.choice(_TYPES)} {noun}{rng.randrange(100)} = {other}Service.{rng.choice(_VERBS)}({noun});",
        f"String sql = \"SELECT * FROM {noun} WHERE id = '\" + {other}Id + \"'\";",
        f"LOG.info(\"{rng.choice(_VERBS)} {noun} \" + {other});",
        f"{noun}Total = {noun}Total + {other}.amount() * {rng.randrange(2, 99)};",
        f"if ({noun} == null) {{ return {rng.choice(('null', '0', 'false'))}; }}",
        f"{noun}Cache.put({other}.getId(), {noun});",
        f"out += {noun}.toString() + \",\";",
        f"{rng.choice(_VERBS)}{noun.capitalize()}({other}, {rng.randrange(1000)});",
    )
    return rng.choice(shapes)


def java_source(rng: random.Random, class_name: str, lines: int) -> list[str]:
    """A syntactically plausible Java class of exactly ``lines`` lines."""
    body = [
        "package bench;",
        "",
        "import java.math.BigDecimal;",
        "import java.util.List;",
        "import java.util.Map;",
        "",
        f"public class {class_name} {{",
    ]
    while len(body) < lines - 1:
        noun = rng.choice(_NOUNS)
        method = [
            "",
            f"    public {rng.choice(_TYPES)} {rng.choice(_VERBS)}{noun.capitalize()}"
            f"({rng.choice(_TYPES)} {noun}, String {rng.choice(_NOUNS)}Id) {{",
        ]
        method += [f"        {_statement(rng)}" for _ in range(rng.randint(4, 12))]
        method += [f"        return {noun};", "    }"]
        body += method
    body = body[: lines - 1]
    body.append("}")
    return body


def write_java_files(dest: Path, rng: random.Random, count: int, lines: int) -> list[str]:
    """Write ``count`` Java files under ``dest``; return their relative paths."""
    paths = []
    for number in range(count):
        relative = f"src/main/java/bench/Service{number}.java"
        target = dest / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        source = java_source(rng, f"Service{number}", lines)
        target.write_text("\n".join(source) + "\n", encoding="utf-8")
        paths.append(relative)
    return paths


def write_diff(dest: Path, rng: random.Random, count: int, lines: int, hunks: int) -> str:
    """Write post-image Java files under ``dest``; return a unified diff.

    Each file gets ``hunks`` change sites, one per equal slice of the file,
    far enough apart that no two hunks merge at three lines of context.
    Every site replaces two lines with three.
    """
    parts = []
    for number in range(count):
        relative = f"src/main/java/bench/Change{number}.java"
        old = java_source(rng, f"Change{number}", lines)
        new = list(old)
        slice_len = lines // hunks
        # Apply bottom-up so earlier sites keep their line numbers.
        for site in reversed(range(hunks)):
            low = site * slice_len + 8
            start = low + rng.randrange(max(1, slice_len - 16))
            new[start : start + 2] = [f"        {_statement(rng)}" for _ in range(3)]
        target = dest / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(new) + "\n", encoding="utf-8")
        parts.extend(
            difflib.unified_diff(old, new, f"a/{relative}", f"b/{relative}", n=3, lineterm="")
        )
    return "\n".join(parts) + "\n"
