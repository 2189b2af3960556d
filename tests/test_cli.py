"""End-to-end command-line behavior: exit codes, stdout purity, flag layering."""

from __future__ import annotations

import argparse
import base64
import io
import json
import math
import random
import struct
import sys
import threading

import pytest

import sgcr.cli
import sgcr.pipeline
from conftest import (
    REPO_ROOT,
    CallLog,
    JitteredBackend,
    open_connection_doubles,
    record_generate,
    write_spec_file,
)
from sgcr.backends import BaseBackend, MockBackend
from sgcr.cli import build_parser, main
from sgcr.config import CHOICES, DEFAULTS


@pytest.fixture()
def rules_dir(tmp_path):
    rules = tmp_path / "rules"
    write_spec_file(
        rules,
        "sec.input",
        category="security",
        severity="high",
        body="Validate every request parameter before use.",
    )
    write_spec_file(
        rules,
        "style.naming",
        body="Method names use lowerCamelCase verbs.",
    )
    return rules


@pytest.fixture()
def java_file(tmp_path):
    path = tmp_path / "Service.java"
    path.write_text(
        "\n".join(
            [
                "public class Service {",
                "    private String name;",
                "    public String fetch(String id) {",
                "        return lookup(id + name);",
                "    }",
                "}",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return path


def _review_argv(java_file, rules_dir, *extra):
    return ["review", str(java_file), "--specs-dir", str(rules_dir), *extra]


def test_review_writes_only_the_report_to_stdout(capsys, java_file, rules_dir):
    assert main(_review_argv(java_file, rules_dir)) == 0
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert set(payload) == {"schema_version", "summary", "stats", "clusters"}


def test_review_verbose_logs_do_not_pollute_stdout(capsys, java_file, rules_dir):
    assert main(["--verbose", *_review_argv(java_file, rules_dir)]) == 0
    out, _ = capsys.readouterr()
    json.loads(out)  # stdout must still be exactly one JSON document


def test_review_is_deterministic_across_invocations(capsys, java_file, rules_dir):
    main(_review_argv(java_file, rules_dir, "--seed", "3"))
    first, _ = capsys.readouterr()
    main(_review_argv(java_file, rules_dir, "--seed", "3"))
    second, _ = capsys.readouterr()
    assert first == second


def test_review_zero_findings_still_exits_zero(capsys, java_file, rules_dir):
    code = main(
        _review_argv(
            java_file,
            rules_dir,
            "--mode",
            "implicit_only",
            "--threshold",
            "0.99",
        )
    )
    assert code == 0
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert payload["clusters"] == []


def test_review_threshold_flag_and_alias_set_the_same_knob(capsys, java_file, rules_dir):
    for spelling in ("--threshold", "--score-threshold"):
        assert main(_review_argv(java_file, rules_dir, spelling, "0.99")) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["stats"]["config"]["score_threshold"] == 0.99


def test_review_flags_beat_config_file_values(capsys, java_file, rules_dir, tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps({"seed": 5, "top_k": 3, "mode": "explicit_only"}), encoding="utf-8"
    )
    argv = _review_argv(
        java_file, rules_dir, "--config", str(config_path), "--seed", "7"
    )
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    config_echo = json.loads(out)["stats"]["config"]
    assert config_echo["seed"] == 7  # flag wins
    assert config_echo["top_k"] == 3  # file value survives
    assert config_echo["mode"] == "explicit_only"
    assert "api_key" not in config_echo and "base_url" not in config_echo


def test_review_markdown_format(capsys, java_file, rules_dir):
    assert main(_review_argv(java_file, rules_dir, "--format", "markdown")) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("# Review report\n")


def test_review_output_flag_redirects_the_report(capsys, java_file, rules_dir, tmp_path):
    target = tmp_path / "report.json"
    assert main(_review_argv(java_file, rules_dir, "--output", str(target))) == 0
    out, _ = capsys.readouterr()
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["schema_version"] == "1"


def test_review_reads_a_diff_from_stdin(capsys, monkeypatch, rules_dir, tmp_path):
    (tmp_path / "app.py").write_text("first\nsecond\nthird\n", encoding="utf-8")
    diff = "--- a/app.py\n+++ b/app.py\n@@ -2,1 +2,1 @@\n-old second\n+second\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(diff.encode("utf-8"))))
    code = main(
        [
            "review",
            "--diff",
            "-",
            "--specs-dir",
            str(rules_dir),
            "--repo-root",
            str(tmp_path),
        ]
    )
    assert code == 0
    out, _ = capsys.readouterr()
    assert json.loads(out)["stats"]["counts"]["total"] >= 0


def test_review_of_a_diff_whose_paths_git_quotes(capsys, rules_dir, tmp_path):
    """git C-quotes a path holding non-ASCII bytes, a quote or a backslash. The
    mock aims every finding at the first unit's path, which holds a space."""
    names = {'naïve file.py': r"na\303\257ve file.py", 'q"uote\\.py': r"q\"uote\\.py"}
    diff = ""
    for name, quoted in names.items():
        (tmp_path / name).write_text("first\nsecond\n", encoding="utf-8")
        diff += f'--- "a/{quoted}"\t\n+++ "b/{quoted}"\t\n@@ -1,1 +1,2 @@\n first\n+second\n'
    diff_path = tmp_path / "change.diff"
    diff_path.write_text(diff, encoding="utf-8")
    argv = ["review", "--diff", str(diff_path), "--specs-dir", str(rules_dir)]
    assert main(argv + ["--repo-root", str(tmp_path)]) == 0
    out, _ = capsys.readouterr()
    reviewed = {cluster["finding"]["file"] for cluster in json.loads(out)["clusters"]}
    assert reviewed == {"naïve file.py"}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda argv, ctx: argv[:1] + argv[2:],  # no inputs and no --diff
        lambda argv, ctx: argv + ["--diff", str(ctx / "x.diff")],  # both inputs and diff
        lambda argv, ctx: argv[:3] + [str(ctx / "missing-rules")],  # absent rules dir
        lambda argv, ctx: argv + ["--backend", "replay", "--fixtures", str(ctx / "no-fx")],
        lambda argv, ctx: argv + ["--index", str(ctx / "no-index.json")],
        lambda argv, ctx: argv + ["--quorum", "9"],
        lambda argv, ctx: [argv[0], str(ctx / "ghost.java"), *argv[2:]],  # missing input
        lambda argv, ctx: argv + ["--top-k", "0"],
        lambda argv, ctx: argv + ["--top-k", "-3"],
    ],
)
def test_review_configuration_problems_exit_2(capsys, java_file, rules_dir, tmp_path, mutate):
    argv = mutate(_review_argv(java_file, rules_dir), tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sgcr: ")


def _write_bytes(path, data):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize(
    ("config_path", "fragment"),
    [
        (lambda ctx: ctx, "cannot read config file"),  # a directory
        (lambda ctx: _write_bytes(ctx / "latin.json", b'{"model": "caf\xe9"}'), "not UTF-8"),
        (
            lambda ctx: _write_bytes(
                ctx / "big.json", b'{"temperature": ' + b"9" * 400 + b"}"
            ),
            "'temperature' is too large",
        ),
    ],
    ids=["directory", "not-utf8", "400-digit-temperature"],
)
def test_review_unreadable_config_files_exit_2(
    capsys, java_file, rules_dir, tmp_path, config_path, fragment
):
    argv = _review_argv(java_file, rules_dir, "--config", str(config_path(tmp_path)))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sgcr: ") and fragment in err


def _wrong_values(key):
    """JSON values of another type than key's default ("null" only if it is set)."""
    default = DEFAULTS[key]
    kind = str if default is None else type(default)
    wrong = {bool: ["1", '"true"'], int: ["true", "1.5", '"1"'], float: ["true", '"0.5"']}
    return wrong.get(kind, ["7", "false", '["x"]']) + ([] if default is None else ["null"])


@pytest.mark.parametrize(
    ("key", "raw"),
    [(key, raw) for key in sorted(DEFAULTS) for raw in _wrong_values(key)],
)
def test_review_config_file_values_of_the_wrong_type_exit_2(
    capsys, java_file, rules_dir, tmp_path, key, raw
):
    path = _write_bytes(tmp_path / "run.json", f'{{"{key}": {raw}}}'.encode())
    assert main(_review_argv(java_file, rules_dir, "--config", str(path))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"sgcr: config key {key!r} must be ")


def _subparser(parser, *names):
    for name in names:
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = commands.choices[name]
    return parser


def _dests(parser):
    return {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def test_every_setting_has_one_review_flag_and_every_flag_is_a_setting():
    parser = build_parser()
    review = _dests(_subparser(parser, "review"))
    assert review - {"inputs", "diff", "config"} == set(DEFAULTS) - {"api_key"}
    for command in ("validate", "index"):
        assert _dests(_subparser(parser, "specs", command)) <= set(DEFAULTS)


MODES = ("full", "explicit_only", "implicit_only", "baseline")
BACKENDS = ("mock", "replay", "record", "http")
EMBEDDINGS = ("mock", "http")
# Every option of each subcommand, in order, as
# (option strings, dest, action, type, choices, required).
FLAG_SURFACE = {
    ("review",): [
        ((), "inputs", "store", None, None, True),
        (("--diff",), "diff", "store", None, None, False),
        (("--config",), "config", "store", None, None, False),
        (("--mode",), "mode", "store", None, MODES, False),
        (("--backend",), "backend", "store", None, BACKENDS, False),
        (("--specs-dir",), "specs_dir", "store", None, None, False),
        (("--language",), "language", "store", None, None, False),
        (("--chunk-budget",), "chunk_budget", "store", int, None, False),
        (("--ensemble-size",), "ensemble_size", "store", int, None, False),
        (("--quorum",), "quorum", "store", int, None, False),
        (("--temperature",), "temperature", "store", float, None, False),
        (("--seed",), "seed", "store", int, None, False),
        (("--top-k",), "top_k", "store", int, None, False),
        (("--threshold", "--score-threshold"), "score_threshold", "store", float, None, False),
        (("--context-lines",), "context_lines", "store", int, None, False),
        (("--aggregation",), "aggregation", "store", None, ("deterministic", "model"), False),
        (("--format",), "format", "store", None, ("json", "markdown"), False),
        (("--max-proposals",), "max_proposals", "store", int, None, False),
        (("--no-implicit-soft-fail",), "implicit_soft_fail", "store_false", None, None, False),
        (("--allow-ungrounded",), "allow_ungrounded", "store_true", None, None, False),
        (("--patches",), "patches", "store_true", None, None, False),
        (("--model-summary",), "model_summary", "store_true", None, None, False),
        (("--fixtures",), "fixtures_dir", "store", None, None, False),
        (("--index",), "index_path", "store", None, None, False),
        (("--embedding",), "embedding", "store", None, EMBEDDINGS, False),
        (("--embedding-dimension",), "embedding_dimension", "store", int, None, False),
        (("--base-url",), "base_url", "store", None, None, False),
        (("--model",), "model", "store", None, None, False),
        (("--repo-root",), "repo_root", "store", None, None, False),
        (("--output",), "output", "store", None, None, False),
    ],
    ("specs", "validate"): [
        (("--specs-dir",), "specs_dir", "store", None, None, True),
        (("--language",), "language", "store", None, None, False),
    ],
    ("specs", "index"): [
        (("--specs-dir",), "specs_dir", "store", None, None, True),
        (("--output",), "output", "store", None, None, True),
        (("--language",), "language", "store", None, None, False),
        (("--embedding",), "embedding", "store", None, EMBEDDINGS, False),
        (("--embedding-dimension",), "embedding_dimension", "store", int, None, False),
        (("--base-url",), "base_url", "store", None, None, False),
        (("--model",), "model", "store", None, None, False),
    ],
}
ACTIONS = {
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "store_true",
    argparse._StoreFalseAction: "store_false",
}


@pytest.mark.parametrize("command", list(FLAG_SURFACE), ids=" ".join)
def test_the_flag_surface_of_each_subcommand_is_pinned(command):
    """No option is renamed, retyped, reordered, added or dropped, and an
    unset flag parses to None, so it never masks a config-file value."""
    actions = [
        action
        for action in _subparser(build_parser(), *command)._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    surface = [
        (
            tuple(action.option_strings),
            action.dest,
            ACTIONS[type(action)],
            action.type,
            None if action.choices is None else tuple(action.choices),
            action.required,
        )
        for action in actions
    ]
    assert surface == FLAG_SURFACE[command]
    assert all(action.default is None for action in actions)


def _other_value(key):
    """A value of key's type that is not its default."""
    default = DEFAULTS[key]
    if key in CHOICES:
        return CHOICES[key][-1] if CHOICES[key][-1] != default else CHOICES[key][0]
    return {bool: not default, int: 7, float: 0.25}.get(type(default), "elsewhere")


@pytest.mark.parametrize("key", [key for key in DEFAULTS if key != "api_key"])
def test_a_flag_and_a_config_file_give_a_setting_the_same_typed_value(
    monkeypatch, tmp_path, key
):
    """Only how the setting is read differs: the value and its type agree."""
    for variable in ("SGCR_BASE_URL", "SGCR_API_KEY"):
        monkeypatch.delenv(variable, raising=False)
    # Values only: whether the run could start is not the question here.
    monkeypatch.setattr(sgcr.cli, "validate_config", lambda config: None)
    monkeypatch.setattr(sgcr.cli, "_check_paths", lambda config: None)
    value = _other_value(key)
    (action,) = [
        action
        for action in _subparser(build_parser(), "review")._actions
        if action.dest == key
    ]
    flag = action.option_strings[0]
    argv = ["review", flag] if type(value) is bool else ["review", flag, str(value)]
    from_flag = sgcr.cli._resolve_config(build_parser().parse_args(argv))
    path = _write_bytes(tmp_path / "run.json", json.dumps({key: value}).encode())
    from_file = sgcr.cli._resolve_config(
        build_parser().parse_args(["review", "--config", str(path)])
    )
    assert getattr(from_flag, key) == getattr(from_file, key) == value
    assert type(getattr(from_flag, key)) is type(getattr(from_file, key)) is type(value)
    assert from_flag == from_file


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_review_non_finite_temperature_exits_2(capsys, java_file, rules_dir, value):
    assert main(_review_argv(java_file, rules_dir, f"--temperature={value}")) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sgcr: temperature must be a finite number")


NOT_UTF8 = b"public class Broken {\n    // caf\xe9\n}\n"


@pytest.mark.parametrize("source", ["file", "diff", "stdin", "post-image"])
def test_review_undecodable_input_exits_2_naming_its_source(
    capsys, monkeypatch, rules_dir, tmp_path, source
):
    broken = tmp_path / "Broken.java"
    broken.write_bytes(NOT_UTF8)
    diff = b"--- a/Broken.java\n+++ b/Broken.java\n@@ -2,1 +2,1 @@\n-old\n+new\n"
    if source == "file":
        argv, named = [str(broken)], f"{broken} is not UTF-8 text: "
    elif source == "diff":
        diff_path = tmp_path / "change.diff"
        diff_path.write_bytes(diff + NOT_UTF8)
        argv, named = ["--diff", str(diff_path)], f"{diff_path} is not UTF-8 text: "
    elif source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(diff + NOT_UTF8)))
        argv, named = ["--diff", "-"], "standard input is not UTF-8 text: "
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(diff)))
        argv, named = ["--diff", "-", "--repo-root", str(tmp_path)], f"{broken} is not UTF-8 text: "
    assert main(["review", *argv, "--specs-dir", str(rules_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"sgcr: {named}")
    assert err.count("\n") == 1


def test_review_into_a_missing_directory_exits_2_before_any_model_call(
    capsys, monkeypatch, java_file, rules_dir, tmp_path
):
    sent = record_generate(monkeypatch)
    target = tmp_path / "missing" / "r.json"
    assert main(_review_argv(java_file, rules_dir, "--output", str(target))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"sgcr: output directory not found: {target.parent}\n"
    assert sent == []


def test_review_of_a_missing_diff_file_exits_2_before_any_model_call(
    capsys, monkeypatch, rules_dir, tmp_path
):
    sent = record_generate(monkeypatch)
    missing = tmp_path / "missing.diff"
    argv = ["review", "--diff", str(missing), "--specs-dir", str(rules_dir), "--backend", "mock"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"sgcr: diff file not found: {missing}\n"
    assert sent == []


def _escape_relative(repo):
    return "../outside.txt"


def _escape_absolute(repo):
    return str(repo.parent / "outside.txt")


def _escape_by_symlink(repo):
    (repo / "link.txt").symlink_to(repo.parent / "outside.txt")
    return "link.txt"


@pytest.mark.parametrize("escape", [_escape_relative, _escape_absolute, _escape_by_symlink])
def test_review_of_a_diff_path_outside_the_repo_root_exits_2_before_any_model_call(
    capsys, monkeypatch, rules_dir, tmp_path, escape
):
    sent = record_generate(monkeypatch)
    repo = tmp_path / "repo"
    repo.mkdir()
    (tmp_path / "outside.txt").write_text("secret\n", encoding="utf-8")
    name = escape(repo)
    prefix = "" if name.startswith("/") else "b/"
    diff_path = tmp_path / "change.diff"
    diff_path.write_text(
        f"--- {prefix}{name}\n+++ {prefix}{name}\n@@ -1,1 +1,1 @@\n-public\n+secret\n",
        encoding="utf-8",
    )
    argv = ["review", "--diff", str(diff_path), "--specs-dir", str(rules_dir)]
    assert main(argv + ["--repo-root", str(repo)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"sgcr: diff path {name} is outside the repo root {repo}\n"
    assert sent == []


def test_review_into_a_directory_exits_2_before_any_model_call(
    capsys, monkeypatch, java_file, rules_dir, tmp_path
):
    sent = record_generate(monkeypatch)
    assert main(_review_argv(java_file, rules_dir, "--output", str(tmp_path))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"sgcr: output is a directory: {tmp_path}\n"
    assert sent == []


def test_review_whose_report_cannot_be_written_exits_3(capsys, java_file, rules_dir):
    # /dev/full passes every up-front check, and each write to it fails (ENOSPC).
    assert main(_review_argv(java_file, rules_dir, "--output", "/dev/full")) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sgcr: cannot write the report to /dev/full: ")
    assert err.count("\n") == 1


def test_review_malformed_diff_exits_2(capsys, rules_dir, tmp_path):
    bad = tmp_path / "bad.diff"
    bad.write_text("--- a/f\n+++ b/f\n@@ broken @@\n x\n", encoding="utf-8")
    code = main(
        ["review", "--diff", str(bad), "--specs-dir", str(rules_dir), "--repo-root", str(tmp_path)]
    )
    assert code == 2
    _, err = capsys.readouterr()
    assert "malformed hunk header" in err


def test_review_pipeline_failures_exit_3(capsys, java_file, rules_dir, tmp_path):
    empty_fixtures = tmp_path / "fixtures"
    empty_fixtures.mkdir()
    code = main(
        _review_argv(
            java_file,
            rules_dir,
            "--backend",
            "replay",
            "--fixtures",
            str(empty_fixtures),
        )
    )
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "ensemble" in err


def test_review_duplicate_rule_ids_exit_3(capsys, java_file, tmp_path):
    rules = tmp_path / "dup-rules"
    write_spec_file(rules, "sec.same", filename="one.md")
    write_spec_file(rules, "sec.same", filename="two.md")
    assert main(_review_argv(java_file, rules)) == 3
    _, err = capsys.readouterr()
    assert "one.md" in err and "two.md" in err


def test_specs_validate_lists_rules_and_counts(capsys, rules_dir):
    assert main(["specs", "validate", "--specs-dir", str(rules_dir)]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "sec.input\thigh\tsecurity\tRule sec.input"
    assert lines[1] == "style.naming\tlow\tstyle\tRule style.naming"
    assert lines[2] == "2 specifications OK"


def test_specs_validate_rejects_broken_directories(capsys, tmp_path):
    assert main(["specs", "validate", "--specs-dir", str(tmp_path / "nope")]) == 2
    capsys.readouterr()

    rules = tmp_path / "rules"
    write_spec_file(rules, "sec.same", filename="one.md")
    write_spec_file(rules, "sec.same", filename="two.md")
    assert main(["specs", "validate", "--specs-dir", str(rules)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "sec.same" in err


def test_specs_validate_language_filter(capsys, tmp_path):
    rules = tmp_path / "rules"
    write_spec_file(rules, "java.rule", language="java")
    write_spec_file(rules, "go.rule", language="go")
    assert main(["specs", "validate", "--specs-dir", str(rules), "--language", "go"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[-1] == "1 specifications OK"
    assert "go.rule" in out and "java.rule" not in out


def test_specs_index_then_review_with_the_index(capsys, java_file, rules_dir, tmp_path):
    index_path = tmp_path / "rules.index.json"
    code = main(
        [
            "specs",
            "index",
            "--specs-dir",
            str(rules_dir),
            "--output",
            str(index_path),
            "--embedding-dimension",
            "16",
        ]
    )
    assert code == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert "indexed 2 rule(s) at dimension 16" in err
    payload = json.loads(index_path.read_text(encoding="utf-8"))
    assert payload["dimension"] == 16

    code = main(
        _review_argv(
            java_file, rules_dir, "--index", str(index_path), "--embedding-dimension", "16"
        )
    )
    assert code == 0
    report_out, _ = capsys.readouterr()
    assert json.loads(report_out)["schema_version"] == "1"


def test_specs_index_error_paths(capsys, monkeypatch, rules_dir, tmp_path):
    assert main(
        ["specs", "index", "--specs-dir", str(tmp_path / "nope"), "--output", str(tmp_path / "i.json")]
    ) == 2
    capsys.readouterr()

    assert main(
        ["specs", "index", "--specs-dir", str(rules_dir), "--output", str(tmp_path / "nope"), "--embedding", "http"]
    ) == 2
    _, err = capsys.readouterr()
    assert "http embedding requires" in err

    argv = ["specs", "index", "--specs-dir", str(rules_dir), "--output", str(tmp_path / "i.json")]
    assert main(argv + ["--embedding-dimension", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "sgcr: embedding_dimension must be at least 1\n"
    assert not (tmp_path / "i.json").exists()

    # A missing output directory, or an output that is a directory, is
    # refused before any rule is embedded.
    embedded = []
    for output, message in [
        (tmp_path / "no-such-dir" / "i.json", f"output directory not found: {tmp_path / 'no-such-dir'}"),
        (tmp_path, f"output is a directory: {tmp_path}"),
    ]:
        with monkeypatch.context() as patched:
            patched.setattr(sgcr.cli, "build_index", lambda *args: embedded.append(args))
            code = main(["specs", "index", "--specs-dir", str(rules_dir), "--output", str(output)])
        assert code == 2
        _, err = capsys.readouterr()
        assert err == f"sgcr: {message}\n"
    assert embedded == []

    # A write that fails still ends in one line and exit 3 (/dev/full: ENOSPC).
    assert main(["specs", "index", "--specs-dir", str(rules_dir), "--output", "/dev/full"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sgcr: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["review", "specs index"])
def test_an_oversized_mock_dimension_exits_2_before_any_provider_or_call(
    capsys, monkeypatch, java_file, rules_dir, tmp_path, command
):
    sent = record_generate(monkeypatch)
    built = []
    monkeypatch.setattr(sgcr.pipeline, "MockEmbeddingProvider", lambda **kw: built.append(kw))
    if command == "review":
        argv = _review_argv(java_file, rules_dir)
    else:
        argv = ["specs", "index", "--specs-dir", str(rules_dir), "--output", str(tmp_path / "i.json")]
    assert main([*argv, "--embedding-dimension", "100000000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "sgcr: embedding_dimension must be at most 4096 for mock embeddings; got 100000000\n"
    )
    assert sent == [] and built == []
    assert not (tmp_path / "i.json").exists()


def test_specs_index_closes_its_embedding_client(capsys, monkeypatch, rules_dir, tmp_path):
    opened = open_connection_doubles(monkeypatch)
    monkeypatch.setenv("SGCR_API_KEY", "test-key")
    argv = ["specs", "index", "--specs-dir", str(rules_dir), "--output", str(tmp_path / "i.json")]
    assert main(argv + ["--embedding", "http", "--base-url", "http://127.0.0.1:9"]) == 0
    capsys.readouterr()
    assert opened
    assert all(connection.closed for connection in opened)



def test_a_base_url_with_no_host_exits_2_before_any_connection(
    capsys, java_file, monkeypatch, rules_dir, tmp_path
):
    opened = open_connection_doubles(monkeypatch)
    monkeypatch.setenv("SGCR_API_KEY", "test-key")
    index = ["specs", "index", "--specs-dir", str(rules_dir), "--output", str(tmp_path / "i.json")]
    for argv in [
        _review_argv(java_file, rules_dir, "--backend", "http", "--base-url", "localhost:8000"),
        index + ["--embedding", "http", "--base-url", "localhost:8000"],
    ]:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("base URL with a host; got 'localhost:8000'\n")
    assert opened == []

def test_review_with_a_mismatched_or_missing_index_fails_loudly(
    capsys, java_file, rules_dir, tmp_path
):
    """A bad --index is a configuration error, never a degraded discovery pathway."""
    index_path = tmp_path / "rules.index.json"
    assert main(["specs", "index", "--specs-dir", str(rules_dir), "--output", str(index_path)]) == 0
    capsys.readouterr()
    write_spec_file(rules_dir, "style.added", body="Added after the index was built.")

    # implicit_soft_fail is on by default; the mismatch must still fail the run.
    code = main(_review_argv(java_file, rules_dir, "--mode", "full", "--index", str(index_path)))
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "does not match library" in err and "style.added" in err
    assert "degraded" not in err

    code = main(
        _review_argv(java_file, rules_dir, "--mode", "full", "--index", str(tmp_path / "gone.json"))
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "index file not found" in err


def test_review_with_an_index_of_edited_rules_fails_loudly(capsys, java_file, rules_dir, tmp_path):
    index_path = tmp_path / "rules.index.json"
    assert main(["specs", "index", "--specs-dir", str(rules_dir), "--output", str(index_path)]) == 0
    capsys.readouterr()
    write_spec_file(rules_dir, "style.naming", body="Method names use snake_case verbs.")

    code = main(_review_argv(java_file, rules_dir, "--mode", "full", "--index", str(index_path)))
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "style.naming" in err and "sec.input" not in err
    assert "sgcr specs index" in err


def test_review_with_an_index_of_other_embedding_settings_fails_loudly(
    capsys, java_file, rules_dir, tmp_path
):
    index_path = tmp_path / "rules.index.json"
    argv = ["specs", "index", "--specs-dir", str(rules_dir), "--output", str(index_path)]
    assert main([*argv, "--embedding-dimension", "16"]) == 0
    capsys.readouterr()

    # The default mock dimension is 64, not 16.
    code = main(
        _review_argv(java_file, rules_dir, "--mode", "implicit_only", "--index", str(index_path))
    )
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "dimension 16" in err and "sgcr specs index" in err

    payload = json.loads(index_path.read_text(encoding="utf-8"))
    payload["provider_id"] = "http"
    index_path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(
        _review_argv(
            java_file, rules_dir, "--index", str(index_path), "--embedding-dimension", "16"
        )
    )
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "'http'" in err and "'mock'" in err


def test_review_with_a_decimal_or_truncated_index_fails_loudly(
    capsys, java_file, rules_dir, tmp_path
):
    index_path = tmp_path / "rules.index.json"
    assert main(["specs", "index", "--specs-dir", str(rules_dir), "--output", str(index_path)]) == 0
    capsys.readouterr()
    packed = json.loads(index_path.read_text(encoding="utf-8"))
    dimension = packed["dimension"]

    # The format written before vectors were packed: one decimal per value.
    decimal = json.loads(json.dumps(packed))
    for entry in decimal["entries"]:
        raw = base64.b64decode(entry.pop("vector"))
        entry["values"] = list(struct.unpack(f"<{dimension}d", raw))
    truncated = json.loads(json.dumps(packed))
    truncated["entries"][0]["vector"] = base64.b64encode(
        base64.b64decode(truncated["entries"][0]["vector"])[:-8]
    ).decode()

    # A NaN would score 1.0 against every query, an infinity NaN or 1.0.
    non_finite = []
    for value in (math.nan, math.inf):
        broken = json.loads(json.dumps(packed))
        broken["entries"][-1]["vector"] = base64.b64encode(
            struct.pack(f"<{dimension}d", *[value] * dimension)
        ).decode()
        spec_id = broken["entries"][-1]["spec_id"]
        non_finite.append((broken, f"non-finite vector for rule {spec_id!r}"))

    cases = [(decimal, "decimal"), (truncated, f"not {8 * dimension}"), *non_finite]
    for payload, complaint in cases:
        index_path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(_review_argv(java_file, rules_dir, "--index", str(index_path)))
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert complaint in err and "sgcr specs index" in err


# -- garbled model replies, end to end ---------------------------------------


def _positions(node) -> list:
    """Every (container, key) in a decoded JSON document, depth first."""
    found = []
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        found.append((node, key))
        if isinstance(value, (dict, list)):
            found.extend(_positions(value))
    return found


_VALUES = (None, True, 7, -1, 1e308, "text", [], {}, [1, "x"], {"k": 2})


def _swap_a_type(rng: random.Random, text: str) -> str:
    document = json.loads(text)
    positions = _positions(document)
    if not positions:
        return "[]"
    node, key = rng.choice(positions)
    node[key] = rng.choice([v for v in _VALUES if type(v) is not type(node[key])])
    return json.dumps(document)


def _add_a_lone_surrogate(rng: random.Random, text: str) -> str:
    document = json.loads(text)
    strings = [(node, key) for node, key in _positions(document) if isinstance(node[key], str)]
    if not strings:
        return text[:-1] + ', "note": "\\udc00"}'
    node, key = rng.choice(strings)
    node[key] += rng.choice(("\ud800", "\udfff", " \udbff tail"))
    return json.dumps(document)  # escapes the surrogate as \\udXXX


def _nest_deeply(rng: random.Random, text: str) -> str:
    depth = rng.choice((2_000, 100_000))
    return text[:-1] + ', "deep": ' + "[" * depth + "]" * depth + "}"


def _truncate(rng: random.Random, text: str) -> str:
    return text[: rng.randrange(len(text))]


_GARBLERS = (_truncate, _swap_a_type, _nest_deeply, _add_a_lone_surrogate)


class GarblingBackend(CallLog, BaseBackend):
    """MockBackend replies, a seeded share of them corrupted.

    Whether and how a reply is garbled depends only on the seed, the
    request's fingerprint and how many times that request was sent before,
    never on the thread schedule, so a retried slot may get a good reply.
    """

    def __init__(self, seed: int, share: float) -> None:
        super().__init__()
        self.seed = seed
        self.share = share
        self._mock = MockBackend()
        self._sent: dict[str, int] = {}
        self._sent_lock = threading.Lock()

    def _complete(self, request):
        text = self._mock._complete(request)
        # A retry reads the slot's fingerprint again.
        fingerprint = request.fingerprint
        with self._sent_lock:
            attempt = self._sent.get(fingerprint, 0)
            self._sent[fingerprint] = attempt + 1
        rng = random.Random(f"{self.seed}:{fingerprint}:{attempt}")
        if rng.random() >= self.share:
            return text
        return rng.choice(_GARBLERS)(rng, text)


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_garbled_replies_end_a_review_only_with_a_typed_error(capsys, monkeypatch, fmt):
    argv = [
        "review",
        "tests/data/golden/input/Example.java",
        "--specs-dir",
        "sample_specs",
        "--mode",
        "full",
        "--chunk-budget",
        "150",
        "--patches",
        "--format",
        fmt,
    ]
    monkeypatch.chdir(REPO_ROOT)
    backends = []

    def build_garbling_backend(config):
        backends.append(GarblingBackend(seed, 0.75))
        return JitteredBackend(backends[-1], 3, jitter_seed)

    monkeypatch.setattr(sgcr.pipeline, "build_backend", build_garbling_backend)
    codes = set()
    for seed in range(8):
        outcomes = []
        for jitter_seed in (1, 2):
            code = main(argv)
            out, err = capsys.readouterr()
            if code == 3:
                assert out == ""
                assert err.rstrip("\n").rsplit("\n", 1)[-1].startswith("sgcr: ")
            else:
                assert code == 0, (seed, err[-2000:])
                out.encode("utf-8")
                if fmt == "json":
                    json.loads(out)
            outcomes.append((code, out))
        assert outcomes[0] == outcomes[1], f"garbling seed {seed} depends on the schedule"
        codes.add(outcomes[0][0])
    # Garbled replies were sent, and retried.
    assert all(len(backend._sent) < len(backend.call_log) for backend in backends)
    assert codes == {0, 3}
