"""Wire a validated configuration into a full review run.

This is the layer the command line (and tests that want end-to-end runs
without a subprocess) calls: build the backend and embedding provider,
load rules and index, run the requested pathway combination, consolidate,
and optionally attach patches. A run makes all its model calls on one
bounded call pool (gateway.call_pool); in full mode the two pathways run
side by side. Rules load, and fail, before any model call. The proposer
goes on the pool first, then the explicit pathway's first window of
reviewer calls, and only then is a fresh index built, while those calls
are in flight. The build holds the interpreter lock, so run earlier it
would only hold up those reviewer calls, and with them the verifiers
that queue behind them for a pool worker.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import closing
from pathlib import Path
from typing import Optional

from . import report as report_mod
from .backends import BaseBackend, HttpBackend, Jitter, MockBackend, RecordingBackend, ReplayBackend
from .config import RunConfig
from .errors import ConfigError, IndexLibraryMismatch, SgcrError
from .explicit import run_explicit
from .gateway import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    CountedBackend,
    EnsembleConfig,
    ModelRequest,
    call_pool,
    submit_ensemble,
)
from .implicit import run_implicit
from .ingestion import ReviewRequest, prompt_block
from .matching import TokenTable
from .parsing import parse_findings_response
from .prompts import Role, render_prompt
from .report import FinalReport, attach_patches, compute_run_id, consolidate
from .retrieval import (
    REBUILD_HINT,
    EmbeddingProvider,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    VectorIndex,
    build_index,
    load_index,
)
from .specs import SpecLibrary, load_library
from .types import Pathway, PathwayReport, freeze_stats

logger = logging.getLogger(__name__)

ENV_TEST_JITTER = "SGCR_TEST_JITTER"


def _jitter_from_env() -> Optional[Jitter]:
    """Optional scheduling noise, set as 'max_ms:seed' (testing aid)."""
    raw = os.environ.get(ENV_TEST_JITTER, "")
    if not raw:
        return None
    try:
        max_ms_text, seed_text = raw.split(":", 1)
        return Jitter(max_ms=float(max_ms_text), seed=int(seed_text))
    except ValueError:
        logger.warning("ignoring malformed %s=%r", ENV_TEST_JITTER, raw)
        return None


def build_backend(config: RunConfig) -> BaseBackend:
    jitter = _jitter_from_env()
    if config.backend == "mock":
        return MockBackend(jitter=jitter)
    if config.backend == "replay":
        return ReplayBackend(Path(config.fixtures_dir or ""), jitter=jitter)
    if config.backend not in ("http", "record"):
        raise ConfigError(f"unknown backend {config.backend!r}")
    # The recorder calls the live backend's _complete, so jitter applies once.
    live = HttpBackend(
        base_url=config.base_url or "", model=config.model, api_key=config.api_key, jitter=jitter
    )
    if config.backend == "record":
        return RecordingBackend(live, Path(config.fixtures_dir or ""), jitter=jitter)
    return live


def build_provider(config: RunConfig) -> EmbeddingProvider:
    if config.embedding == "mock":
        return MockEmbeddingProvider(dimension=config.embedding_dimension)
    return HttpEmbeddingProvider(
        base_url=config.base_url or "",
        model=config.model,
        api_key=config.api_key,
    )


def _load_prebuilt_index(config: RunConfig, library: SpecLibrary) -> VectorIndex:
    """Load config.index_path, rejecting an index of other embedding settings.

    Queries are embedded by the configured provider, so vectors from another
    provider, or a mock index of another dimension, would score nonsense.
    """
    path = Path(config.index_path or "")
    index = load_index(path, library)
    if index.provider_id != config.embedding:
        raise IndexLibraryMismatch(
            f"index at {path} was built with embedding {index.provider_id!r},"
            f" but this run embeds with {config.embedding!r}; {REBUILD_HINT}"
        )
    if config.embedding == "mock" and index.dimension != config.embedding_dimension:
        raise IndexLibraryMismatch(
            f"index at {path} has dimension {index.dimension},"
            f" but this run embeds at dimension {config.embedding_dimension}; {REBUILD_HINT}"
        )
    return index


def load_rules(config: RunConfig) -> SpecLibrary:
    if not config.specs_dir:
        raise ConfigError("a rules directory is required for this mode")
    return load_library(Path(config.specs_dir), language_filter=config.language)


def _run_baseline(
    request: ReviewRequest,
    backend: BaseBackend,
    config: RunConfig,
    run_id: str,
    pool: Executor,
) -> PathwayReport:
    """Single ungrounded review call: the comparison floor.

    Reuses the reviewer prompt with an empty rules block and no quorum
    machinery, so the only difference from the explicit pathway is the
    grounding. Its model_calls stat is its CountedBackend's count.
    """
    prompt = render_prompt(
        Role.EXPLICIT_REVIEWER, {"code": prompt_block(request), "specs": ""}
    )
    base = ModelRequest(
        role=Role.EXPLICIT_REVIEWER.value,
        prompt=prompt,
        temperature=0.0,
        max_output_tokens=DEFAULT_MAX_OUTPUT_TOKENS,
    )
    single = EnsembleConfig(n=1, quorum=1, temperature=0.0, base_seed=config.seed)
    counted = CountedBackend(backend)
    (parsed,) = submit_ensemble(
        pool, counted, base, single, lambda text: parse_findings_response(text, Pathway.EXPLICIT)
    ).collect()
    findings = parsed or []
    return PathwayReport(
        pathway=Pathway.EXPLICIT,
        findings=tuple(findings),
        summary=f"{len(findings)} finding(s) from a single ungrounded pass",
        stats=freeze_stats(
            {
                "pathway": Pathway.EXPLICIT.value,
                "baseline": True,
                "model_calls": counted.calls,
                "run_id": run_id,
            }
        ),
    )


def run_review(
    config: RunConfig,
    request: ReviewRequest,
    backend: Optional[BaseBackend] = None,
) -> FinalReport:
    """Execute the configured pathway combination over the request.

    Every model call of the run goes through one bounded call pool. In
    full mode the implicit pathway (proposer, index build, verifiers) runs
    beside the explicit pathway, on the one worker thread of an executor
    of its own, whose exit joins that thread on every path; reports stay in
    the order [explicit, implicit], so the report does not depend on which
    finishes first. A fresh index is built once the explicit pathway has
    put its first window of reviewer calls on the pool (an Event set by
    run_explicit's on_first_window), so those calls start before the
    build takes the interpreter lock; the lock serialises the build and
    the submission anyway, so the build ends no later. A prebuilt index,
    or implicit_only mode, never waits. If the explicit pathway raises,
    calls not yet started are cancelled, the Event is set so a build
    still waiting stops waiting, and the implicit thread is joined before
    the error propagates. That build is not made: the thread raises
    instead of embedding every rule for a run that has already failed.

    The run makes one TokenTable and passes it to the explicit pathway's
    clustering and to consolidation, so each distinct finding description
    is tokenized once per run. Nothing outlives the run: a second run
    starts with an empty table.

    backend overrides the configured one (fixture recording, tests) and
    is left open; everything else, run identity included, still follows
    the config. The backend and the embedding provider a run builds itself
    are closed when it ends, however it ends.
    """
    if backend is not None:
        return _review(config, request, backend)
    with closing(build_backend(config)) as built:
        return _review(config, request, built)


def _review(config: RunConfig, request: ReviewRequest, backend: BaseBackend) -> FinalReport:
    """run_review with its backend in hand."""
    ensemble = EnsembleConfig(
        n=config.ensemble_size,
        quorum=config.quorum,
        temperature=config.temperature,
        base_seed=config.seed,
    )
    run_id = compute_run_id(request, config.echo())
    tokens = TokenTable()

    if config.mode == "baseline":
        with call_pool() as pool:
            reports = [_run_baseline(request, backend, config, run_id, pool)]
        return consolidate(reports, run_id, config.mode, config.echo(), tokens=tokens)

    library = load_rules(config)
    # A prebuilt index is quick to read, and a bad one then fails the run
    # before any model call; a fresh one is built while the first calls run.
    prebuilt = (
        _load_prebuilt_index(config, library)
        if config.index_path and config.mode != "explicit_only"
        else None
    )
    # Set once the explicit pathway's first window is on the pool; only
    # full mode has one to wait for. run_failed is set, before first_window,
    # when the explicit pathway raises: a build still waiting then never
    # starts.
    first_window = threading.Event()
    run_failed = threading.Event()
    if config.mode != "full":
        first_window.set()
    with call_pool() as pool:

        def implicit() -> PathwayReport:
            with closing(build_provider(config)) as provider:
                def get_index() -> VectorIndex:
                    if prebuilt is not None:
                        return prebuilt
                    first_window.wait()
                    if run_failed.is_set():
                        raise SgcrError("the run failed before its index was built")
                    return build_index(library, provider)

                return run_implicit(
                    request,
                    library,
                    backend,
                    provider,
                    get_index,
                    ensemble,
                    k=config.top_k,
                    threshold=config.score_threshold,
                    max_proposals=config.max_proposals,
                    allow_ungrounded=config.allow_ungrounded,
                    soft_fail=config.implicit_soft_fail,
                    run_id=run_id,
                    pool=pool,
                )

        def explicit() -> PathwayReport:
            return run_explicit(
                request,
                library,
                backend,
                ensemble,
                chunk_budget=config.chunk_budget,
                aggregation_mode=config.aggregation,
                model_summary=config.model_summary,
                run_id=run_id,
                pool=pool,
                tokens=tokens,
                on_first_window=first_window.set,
            )

        if config.mode == "implicit_only":
            reports = [implicit()]
        elif config.mode == "explicit_only":
            reports = [explicit()]
        else:
            with ThreadPoolExecutor(max_workers=1, thread_name_prefix="sgcr-implicit") as beside:
                implicit_report = beside.submit(implicit)
                try:
                    reports = [explicit()]
                except BaseException:
                    pool.shutdown(wait=False, cancel_futures=True)
                    run_failed.set()
                    first_window.set()
                    raise
                reports.append(implicit_report.result())

        final = consolidate(reports, run_id, config.mode, config.echo(), tokens=tokens)
        if config.patches:
            final = attach_patches(final, request, library, backend, seed=config.seed, pool=pool)
            stats = dict(final.patch_stats)
            logger.info(
                "patches: %d attached of %d attempted (%d uncited skipped)",
                stats.get("attached", 0),
                stats.get("attempted", 0),
                stats.get("skipped_uncited", 0),
            )
    return final


def render_report(final: FinalReport, fmt: str) -> str:
    return report_mod.render(final, fmt)
