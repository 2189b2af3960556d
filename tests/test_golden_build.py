"""The committed golden fixtures are exactly what tools/build_golden.py makes.

The tool is run in a scratch copy of its inputs, so the committed files are
never touched. Byte-identical fixture names and contents show that neither
the request fingerprints nor the recorded responses moved; a byte-identical
expected report shows that the replayed run did not either.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from conftest import GOLDEN_DIR, REPO_ROOT


def test_regenerating_the_golden_files_reproduces_them_byte_for_byte(tmp_path):
    shutil.copytree(REPO_ROOT / "sample_specs", tmp_path / "sample_specs")
    shutil.copytree(GOLDEN_DIR / "input", tmp_path / "tests" / "data" / "golden" / "input")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "build_golden.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]

    rebuilt = tmp_path / "tests" / "data" / "golden"
    committed_fixtures = sorted(path.name for path in (GOLDEN_DIR / "fixtures").iterdir())
    rebuilt_fixtures = sorted(path.name for path in (rebuilt / "fixtures").iterdir())
    assert rebuilt_fixtures == committed_fixtures
    for name in committed_fixtures:
        assert (rebuilt / "fixtures" / name).read_bytes() == (
            GOLDEN_DIR / "fixtures" / name
        ).read_bytes(), f"fixture {name} changed"
    assert (rebuilt / "expected_report.json").read_bytes() == (
        GOLDEN_DIR / "expected_report.json"
    ).read_bytes()
