"""End-to-end command-line behavior: exit codes, stdout purity, flag layering."""

from __future__ import annotations

import base64
import io
import json
import struct
import sys

import pytest

from conftest import write_spec_file
from sgcr.cli import main


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
    monkeypatch.setattr(sys, "stdin", io.StringIO(diff))
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_review_non_finite_temperature_exits_2(capsys, java_file, rules_dir, value):
    assert main(_review_argv(java_file, rules_dir, f"--temperature={value}")) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sgcr: temperature must be a finite number")

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


def test_specs_index_error_paths(capsys, rules_dir, tmp_path):
    assert main(
        ["specs", "index", "--specs-dir", str(tmp_path / "nope"), "--output", str(tmp_path / "i.json")]
    ) == 2
    capsys.readouterr()

    assert main(
        ["specs", "index", "--specs-dir", str(rules_dir), "--output", str(tmp_path / "nope"), "--embedding", "http"]
    ) == 2
    _, err = capsys.readouterr()
    assert "http embedding requires" in err

    code = main(
        [
            "specs",
            "index",
            "--specs-dir",
            str(rules_dir),
            "--output",
            str(tmp_path / "no-such-dir" / "i.json"),
        ]
    )
    assert code == 3
    capsys.readouterr()


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

    for payload, complaint in ((decimal, "decimal"), (truncated, f"not {8 * dimension}")):
        index_path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(_review_argv(java_file, rules_dir, "--index", str(index_path)))
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert complaint in err and "sgcr specs index" in err
