"""The benchmark's own smoke check, so a refactor cannot break its hooks.

perfbench subclasses MockBackend, swaps the pooled modules' executor and
wraps functions by name; a change that breaks any of that fails here.
"""

from __future__ import annotations

import subprocess
import sys

from conftest import REPO_ROOT


def test_perfbench_smoke_check_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
