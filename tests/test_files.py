"""Whole-file writes: the report, the index and fixtures are whole or as they were."""

from __future__ import annotations

import os
import resource
import signal
import stat
import subprocess
import sys
import threading

import pytest

from conftest import REPO_ROOT
from sgcr.cli import main
from sgcr.files import write_text_atomic
from sgcr.retrieval import load_index
from sgcr.specs import load_library

SPECS = REPO_ROOT / "sample_specs"
EXAMPLE = REPO_ROOT / "tests" / "data" / "golden" / "input" / "Example.java"


def test_a_write_replaces_the_file_whole_and_follows_a_symlink(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("earlier\n", encoding="utf-8")
    link = tmp_path / "latest.json"
    link.symlink_to(target)
    write_text_atomic(link, "later ✓\n")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "later ✓\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["latest.json", "report.json"]


def test_a_write_that_fails_leaves_the_earlier_file_and_no_temporary_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("earlier\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(target, "x" * 100_000 + "\ud800")
    assert target.read_bytes() == b"earlier\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


def test_a_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text(encoding="utf-8")))
    reader.start()
    write_text_atomic(pipe, "through the pipe\n")
    reader.join(timeout=10)
    assert received == ["through the pipe\n"]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert [path.name for path in tmp_path.iterdir()] == ["pipe"]


def _limited_to(size):
    """A preexec_fn: the child may write files of at most size bytes, and a
    write past that fails (EFBIG) instead of killing it."""

    def limit():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (size, size))

    return limit


def _sgcr_limited_to(size, *argv):
    """Run the command line in a child whose file writes stop at size bytes."""
    return subprocess.run(
        [sys.executable, "-m", "sgcr.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=_limited_to(size),
        timeout=120,
    )


def test_a_report_write_that_fails_midway_leaves_the_earlier_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    argv = ["review", str(EXAMPLE), "--specs-dir", str(SPECS), "--output", str(report)]
    assert main(argv) == 0
    earlier = report.read_bytes()
    assert len(earlier) > 2048

    done = _sgcr_limited_to(len(earlier) // 2, *argv)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith(f"sgcr: cannot write the report to {report}: ")
    assert report.read_bytes() == earlier
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


def test_a_failed_specs_index_over_a_good_index_leaves_it_loadable(capsys, tmp_path):
    index = tmp_path / "rules.index.json"
    argv = ["specs", "index", "--specs-dir", str(SPECS), "--output", str(index)]
    assert main(argv) == 0
    earlier = index.read_bytes()

    done = _sgcr_limited_to(len(earlier) // 2, *argv)
    assert done.returncode == 3, done.stderr
    assert index.read_bytes() == earlier
    assert [path.name for path in tmp_path.iterdir()] == ["rules.index.json"]
    assert load_index(index, load_library(SPECS)).entries
