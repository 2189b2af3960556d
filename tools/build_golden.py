"""Regenerate the golden replay fixtures and expected report.

Runs the full pipeline once against a scripted backend wrapped in the
recording backend, so every request the pipeline makes gets a fixture.
Then replays the fixtures through the command-line entrypoint and freezes
the rendered report. Run from the repository root:

    python3 tools/build_golden.py

The scripted responses are keyed on prompt content and instance index,
not on call order, so they are stable against chunk layout changes.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

from sgcr.backends import BaseBackend, RecordingBackend
from sgcr.cli import main as cli_main
from sgcr.config import RunConfig
from sgcr.gateway import ModelRequest
from sgcr.implicit import ground_issue
from sgcr.ingestion import build_review_request
from sgcr.pipeline import run_review
from sgcr.report import render_json
from sgcr.retrieval import MockEmbeddingProvider, build_index
from sgcr.specs import load_library
from sgcr.types import HypotheticalIssue

GOLDEN_DIR = Path("tests/data/golden")
INPUT_FILE = GOLDEN_DIR / "input" / "Example.java"
FIXTURES_DIR = GOLDEN_DIR / "fixtures"
EXPECTED_REPORT = GOLDEN_DIR / "expected_report.json"

JAVA_FILE = INPUT_FILE.as_posix()

SQL_FINDING = {
    "file": JAVA_FILE,
    "start_line": 12,
    "end_line": 13,
    "severity": "critical",
    "description": "SQL statement concatenates user input accountId into the query string",
    "rationale": "user-controlled accountId reaches executeQuery unparameterized",
    "spec_ids": ["sec.sql-injection"],
}
PERF_FINDING = {
    "file": JAVA_FILE,
    "start_line": 22,
    "end_line": 25,
    "severity": "medium",
    "description": "string concatenation accumulates rows inside the export loop",
    "rationale": "each iteration copies the accumulated string",
    "spec_ids": ["perf.string-concat-loop"],
}
STYLE_FINDING = {
    "file": JAVA_FILE,
    "start_line": 18,
    "end_line": 18,
    "severity": "low",
    "description": "statement body could use braces",
    "rationale": "single member emits this; quorum should drop it",
    "spec_ids": ["style.braces"],
}

ISSUES = [
    {
        "file": JAVA_FILE,
        "start_line": 12,
        "end_line": 13,
        "description": "SQL query concatenates user input into statement",
    },
    {
        "file": JAVA_FILE,
        "start_line": 17,
        "end_line": 17,
        "description": "login logs the raw password value",
    },
    {
        "file": JAVA_FILE,
        "start_line": 7,
        "end_line": 7,
        "description": "class name too generic for account logic",
    },
]

VALID_PATCH = f"""--- a/{JAVA_FILE}
+++ b/{JAVA_FILE}
@@ -10,4 +10,4 @@
     public ResultSet findAccount(Connection conn, String accountId) throws Exception {{
-        Statement st = conn.createStatement();
-        String query = "SELECT * FROM accounts WHERE id = '" + accountId + "'";
-        return st.executeQuery(query);
+        PreparedStatement st = conn.prepareStatement("SELECT * FROM accounts WHERE id = ?");
+        st.setString(1, accountId);
+        return st.executeQuery();
"""

# Parses, but the removed line does not exist at line 17: must be discarded.
NON_APPLYING_PATCH = f"""--- a/{JAVA_FILE}
+++ b/{JAVA_FILE}
@@ -17,1 +17,1 @@
-        LOG.info("login attempt");
+        LOG.info("login attempt user={{}}", user);
"""

# Declares three old lines but provides one: must fail hunk arithmetic.
MALFORMED_PATCH = f"""--- a/{JAVA_FILE}
+++ b/{JAVA_FILE}
@@ -22,3 +22,2 @@
-        String out = "";
"""


class ScriptedBackend(BaseBackend):
    """Hand-written responses for the golden scenario."""

    def _complete(self, request: ModelRequest) -> str:
        role = str(request.role)
        prompt = request.prompt
        index = request.instance_index
        if role == "explicit_reviewer":
            findings = []
            if "RULE sec.sql-injection" in prompt and index in (0, 1):
                findings.append(SQL_FINDING)
            if "RULE perf.string-concat-loop" in prompt:
                findings.append(PERF_FINDING)
            if "RULE style.braces" in prompt and index == 0:
                findings.append(STYLE_FINDING)
            return json.dumps({"findings": findings})
        if role == "proposer":
            return json.dumps({"issues": ISSUES})
        if role == "verifier":
            if "concatenates user input into statement" in prompt:
                return json.dumps(
                    {
                        "verdict": "valid",
                        "justification": "query string is built from accountId directly",
                        "cited_spec_ids": ["sec.sql-injection"],
                        "severity": "critical",
                    }
                )
            if "logs the raw password" in prompt:
                if index in (0, 1):
                    return json.dumps(
                        {
                            "verdict": "valid",
                            "justification": "password is printed in clear text",
                            "cited_spec_ids": ["sec.secrets-logging"],
                            "severity": "high",
                        }
                    )
                return json.dumps({"verdict": "invalid", "justification": "disagree"})
            verdicts = [
                {"verdict": "valid", "justification": "name is vague", "severity": "low"},
                {"verdict": "invalid", "justification": "name is conventional"},
                {"verdict": "uncertain", "justification": "cannot tell from this file"},
            ]
            return json.dumps(verdicts[index])
        if role == "patch_generator":
            if "concatenates user input into statement" in prompt:
                diff, why = VALID_PATCH, "bind accountId through a prepared statement"
            elif "logs the raw password" in prompt:
                diff, why = NON_APPLYING_PATCH, "drop the password from the log line"
            else:
                diff, why = MALFORMED_PATCH, "use a StringBuilder"
            return json.dumps({"patch_unified_diff": diff, "explanation": why})
        raise AssertionError(f"scripted backend got unexpected role {role!r}")


def golden_config() -> RunConfig:
    # Must mirror the command the acceptance test runs, token for token.
    return RunConfig(
        mode="full",
        backend="replay",
        specs_dir="sample_specs",
        chunk_budget=300,
        patches=True,
        fixtures_dir=FIXTURES_DIR.as_posix(),
    )


def golden_argv() -> list[str]:
    return [
        "review",
        JAVA_FILE,
        "--specs-dir",
        "sample_specs",
        "--mode",
        "full",
        "--backend",
        "replay",
        "--fixtures",
        FIXTURES_DIR.as_posix(),
        "--chunk-budget",
        "300",
        "--patches",
    ]


def check_retrieval() -> None:
    """The scripted citations must be inside what the implicit pathway's
    grounding (implicit.ground_issue) retrieves for each scripted issue."""
    config = golden_config()
    library = load_library(Path("sample_specs"))
    provider = MockEmbeddingProvider(dimension=config.embedding_dimension)
    index = build_index(library, provider)
    expectations = {
        ISSUES[0]["description"]: "sec.sql-injection",
        ISSUES[1]["description"]: "sec.secrets-logging",
    }
    for fields in ISSUES:
        issue = HypotheticalIssue(**fields)
        got = ground_issue(issue, provider, index, config.top_k, config.score_threshold)
        assert got.scored, f"issue retrieved nothing: {issue.description}"
        wanted = expectations.get(issue.description)
        if wanted is not None:
            assert wanted in got.spec_ids(), (
                f"{wanted} not retrieved for {issue.description!r}: {got.spec_ids()}"
            )


def main() -> int:
    if not Path("sample_specs").is_dir() or not INPUT_FILE.is_file():
        print("run from the repository root", file=sys.stderr)
        return 1
    check_retrieval()

    if FIXTURES_DIR.exists():
        shutil.rmtree(FIXTURES_DIR)
    FIXTURES_DIR.mkdir(parents=True)

    config = golden_config()
    request = build_review_request(paths=[INPUT_FILE])
    recording = RecordingBackend(ScriptedBackend(), FIXTURES_DIR)
    recorded_report = render_json(run_review(config, request, backend=recording))

    fixture_count = len(list(FIXTURES_DIR.glob("*.json")))

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(golden_argv())
    assert code == 0, f"replay run exited {code}"
    replayed_report = buffer.getvalue()
    assert replayed_report == recorded_report, "replay output differs from recorded run"

    EXPECTED_REPORT.write_text(replayed_report, encoding="utf-8")
    payload = json.loads(replayed_report)
    patched = [
        entry["finding"]["finding_id"]
        for entry in payload["clusters"]
        if entry["patch"] is not None
    ]
    print(f"fixtures: {fixture_count}")
    print(f"findings: {payload['stats']['counts']}")
    print(f"summary:  {payload['summary']}")
    print(f"patched:  {patched}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
