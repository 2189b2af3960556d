"""Workload definitions and input preparation.

A workload fixes the shape of the inputs and the run settings; the seed
fills in their content. ``prepare`` writes the generated files under a
work directory and records in ``inputs.json`` what a review needs, so the
set-up probe in a fresh process reviews exactly what the main process
does. This module does not import ``sgcr``.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import gen

WORK_ROOT = Path(".perfbench_work")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rules: int
    rule_chars: int
    files: int
    lines: int
    hunks: int  # 0 reviews whole files; otherwise a diff with this many hunks per file
    latency_s: float
    chunk_budget: int = 4000
    patches: bool = False
    # With findings_per_call 0 the stock mock answers every role; otherwise
    # backend.AgreeingReviewer scripts reviewers and verifiers.
    findings_per_call: int = 0
    findings_pool: int = 0
    prebuilt_index: bool = False


# A rule is estimated at a quarter of its characters in tokens. pr-diff's
# 400-character rules fill a 2000-token chunk with 20, so 96 rules make 5
# chunks, more than the 4 chunk workers; its short rules keep index build
# small beside the waiting. The 400-rule workloads use 800-character rules
# and the default budget of 4000, so 20 chunks.
WORKLOADS = {
    "pr-diff": Workload(
        name="pr-diff",
        why="waiting on the model is most of a pr-diff review",
        rules=96,
        rule_chars=400,
        chunk_budget=2000,
        files=4,
        lines=160,
        hunks=3,
        latency_s=0.1,
        patches=True,
        findings_per_call=2,
        findings_pool=2,
    ),
    "library-build": Workload(
        name="library-build",
        why="build_index is the largest span on library-build",
        rules=400,
        rule_chars=800,
        files=1,
        lines=600,
        hunks=0,
        latency_s=0.0,
    ),
    "findings-dense": Workload(
        name="findings-dense",
        why="matching plus explicit aggregation is the largest program share on findings-dense",
        rules=400,
        rule_chars=800,
        files=1,
        lines=600,
        hunks=0,
        latency_s=0.0,
        findings_per_call=36,
        findings_pool=320,
        prebuilt_index=True,
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that reviews in a few milliseconds."""
    return Workload(
        **dict(
            asdict(workload),
            rules=12,
            lines=min(workload.lines, 60),
            latency_s=min(workload.latency_s, 0.002),
        )
    )


@dataclass(frozen=True)
class Inputs:
    """Everything one review of a prepared workload needs, as plain data."""

    workload: Workload
    config: dict
    paths: tuple[str, ...]
    diff_path: str | None
    repo_root: str
    rule_ids: tuple[str, ...]

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Inputs":
        raw = json.loads(path.read_text(encoding="utf-8"))
        return cls(
            workload=Workload(**raw["workload"]),
            config=raw["config"],
            paths=tuple(raw["paths"]),
            diff_path=raw["diff_path"],
            repo_root=raw["repo_root"],
            rule_ids=tuple(raw["rule_ids"]),
        )


def work_dir(workload: Workload, seed: int) -> Path:
    return WORK_ROOT / f"{workload.name}-s{seed}"


def prepare(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's files from the seed and describe the review.

    Paths are relative to the checkout root, so reports do not depend on
    where the checkout lives.
    """
    work = work_dir(workload, seed)
    if work.exists():
        shutil.rmtree(work)
    repo = work / "repo"
    # The rule library is seeded apart from the code, so the two 400-rule
    # workloads review the same library and file for a given seed.
    rule_ids = gen.write_library(
        work / "rules", random.Random(f"rules:{workload.rules}:{seed}"),
        workload.rules, workload.rule_chars,
    )
    code_rng = random.Random(f"code:{workload.hunks}:{seed}")
    diff_path = None
    paths: tuple[str, ...] = ()
    if workload.hunks:
        diff_text = gen.write_diff(repo, code_rng, workload.files, workload.lines, workload.hunks)
        hunk_count = sum(1 for line in diff_text.splitlines() if line.startswith("@@"))
        if hunk_count != workload.files * workload.hunks:
            raise RuntimeError(f"generated diff has {hunk_count} hunks")
        diff_path = (work / "change.diff").as_posix()
        Path(diff_path).write_text(diff_text, encoding="utf-8")
    else:
        relative = gen.write_java_files(repo, code_rng, workload.files, workload.lines)
        paths = tuple((repo / path).as_posix() for path in relative)
    config = {
        "mode": "full",
        "specs_dir": (work / "rules").as_posix(),
        "chunk_budget": workload.chunk_budget,
        "ensemble_size": 3,
        "quorum": 2,
        "patches": workload.patches,
    }
    if workload.prebuilt_index:
        config["index_path"] = (work / "index.json").as_posix()
    inputs = Inputs(
        workload=workload,
        config=config,
        paths=paths,
        diff_path=diff_path,
        repo_root=repo.as_posix(),
        rule_ids=tuple(rule_ids),
    )
    inputs.save(work / "inputs.json")
    return inputs
