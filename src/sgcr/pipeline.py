"""Wire a validated configuration into a full review run.

This is the layer the command line (and tests that want end-to-end runs
without a subprocess) calls: build the backend and embedding provider,
load rules and index, run the requested pathway combination, consolidate,
and optionally attach patches. A run's calls, waits and threads live in
one run scope (gateway.call_pool). The run's accounting is done here
alone: each pathway sends its calls through the one CountedBackend it is
handed, and _accounted adds the pathway's name, that count (model_calls)
and the run id to its stats once it returns. Rules load, and fail, before
any model call. _review then starts, from one thread and in this order, the
proposer call, the explicit pathway's first window of reviewer calls, and
the implicit pathway on the scope's side thread, which first builds a
fresh index under its soft fail. Started earlier, a build with mock
embeddings, which holds the interpreter lock, would hold up those calls.
"""

from __future__ import annotations

import logging
from contextlib import closing, nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from . import report as report_mod
from .backends import BaseBackend, MockBackend, RecordingBackend, ReplayBackend
from .config import RunConfig, validate_values
from .errors import ConfigError, IndexLibraryMismatch
from .explicit import review_chunks, run_explicit
from .gateway import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    CountedBackend,
    EnsembleConfig,
    ModelBackend,
    ModelRequest,
    RunScope,
    call_model,
    call_pool,
)
from .implicit import propose, run_implicit
from .ingestion import ReviewRequest, prompt_block
from .matching import TokenTable
from .parsing import parse_findings_response
from .prompts import Role, render_prompt
from .report import FinalReport, attach_patches, compute_run_id, consolidate
from .retrieval import (
    REBUILD_HINT,
    EmbeddingProvider,
    MockEmbeddingProvider,
    VectorIndex,
    build_index,
    load_index,
)
from .specs import SpecLibrary, load_library
from .types import Pathway, PathwayReport, freeze_stats

logger = logging.getLogger(__name__)

def build_backend(config: RunConfig) -> BaseBackend:
    if config.backend == "mock":
        return MockBackend()
    if config.backend == "replay":
        return ReplayBackend(Path(config.fixtures_dir or ""))
    if config.backend not in ("http", "record"):
        raise ConfigError(f"unknown backend {config.backend!r}")
    from .wire import HttpBackend  # only a run that makes HTTP calls loads wire

    live = HttpBackend(base_url=config.base_url or "", model=config.model, api_key=config.api_key)
    if config.backend == "record":
        return RecordingBackend(live, Path(config.fixtures_dir or ""))
    return live


def build_provider(config: RunConfig) -> EmbeddingProvider:
    if config.embedding == "mock":
        return MockEmbeddingProvider(dimension=config.embedding_dimension)
    if config.embedding != "http":
        raise ConfigError(f"unknown embedding {config.embedding!r}")
    from .wire import HttpEmbeddingProvider

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
    request: ReviewRequest, backend: ModelBackend, config: RunConfig, pool: RunScope
) -> PathwayReport:
    """Single ungrounded review call through backend: the comparison floor.

    Reuses the reviewer prompt with an empty rules block and no quorum
    machinery, so the only difference from the explicit pathway is the
    grounding. The call is made on the pool, so it counts against its cap,
    and parses inside its retries (gateway.call_model).
    """
    prompt = render_prompt(
        Role.EXPLICIT_REVIEWER, {"code": prompt_block(request), "specs": ""}
    )
    single = ModelRequest(
        role=Role.EXPLICIT_REVIEWER.value,
        prompt=prompt,
        temperature=0.0,
        seed=config.seed,
        max_output_tokens=DEFAULT_MAX_OUTPUT_TOKENS,
    )
    findings = pool.call(
        call_model,
        backend,
        single,
        lambda text: parse_findings_response(text, Pathway.EXPLICIT),
    )
    return PathwayReport(
        pathway=Pathway.EXPLICIT,
        findings=tuple(findings),
        summary=f"{len(findings)} finding(s) from a single ungrounded pass",
        stats=freeze_stats({"baseline": True}),
    )


def _accounted(
    calls: CountedBackend, run_id: str, pathway: Callable[[], PathwayReport]
) -> PathwayReport:
    """pathway's report, its stats joined by the pathway's name, the calls it
    sent through calls (model_calls: retries, absent slots and verifier
    ensembles that gave up included) and the run id. A degraded implicit
    pathway accounts for its calls too."""
    report = pathway()
    stats = {
        **report.stats_dict(),
        "pathway": report.pathway.value,
        "model_calls": calls.calls,
        "run_id": run_id,
    }
    return replace(report, stats=freeze_stats(stats))


def run_review(
    config: RunConfig,
    request: ReviewRequest,
    backend: Optional[BaseBackend] = None,
) -> FinalReport:
    """Execute the configured pathway combination over the request.

    Every model call of the run goes through one run scope. In full mode
    the implicit pathway runs on the scope's side thread, started after the
    explicit pathway's first window (see the module doc) with no signal
    between threads; reports stay in the order [explicit, implicit]. A
    prebuilt index, read before any call, is never built; a fresh build
    that fails degrades the implicit pathway alone. If a pathway
    raises, leaving the scope cancels the calls not yet started and joins
    the side thread before the error propagates; a run whose explicit
    pathway raises before its first window builds no index.

    The run makes one TokenTable and passes it to the explicit pathway's
    clustering and to consolidation, so each distinct finding description
    is tokenized once per run. Nothing outlives the run: a second run
    starts with an empty table.

    backend overrides the configured one (fixture recording, tests) and
    is left open; everything else, run identity included, still follows
    the config. The backend and the embedding provider a run builds itself
    are closed when it ends, however it ends.

    The config's values are checked first (config.validate_values), so a
    value the CLI refuses fails here before any model or embedding call;
    credentials and paths are the caller's to set up.
    """
    validate_values(config)
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
    explicit = config.mode in ("full", "explicit_only")
    implicit = config.mode in ("full", "implicit_only")
    library = load_rules(config) if explicit or implicit else None
    # A prebuilt index is quick to read, and a bad one then fails the run
    # before any model call; a fresh one is built while the first calls run.
    prebuilt = (
        _load_prebuilt_index(config, library) if implicit and config.index_path else None
    )
    opened = closing(build_provider(config)) if implicit else nullcontext()
    with opened as provider, call_pool() as scope:
        # Each pathway sends every call through its own CountedBackend.
        pathways = []
        if config.mode == "baseline":
            calls = CountedBackend(backend)
            baseline = partial(_run_baseline, request, calls, config, scope)
            pathways.append(partial(_accounted, calls, run_id, baseline))
        # Started in order: the proposer, the first window of reviewer calls,
        # then the implicit pathway, which builds a fresh index first.
        if implicit:
            implicit_calls = CountedBackend(backend)
            proposal = propose(
                request, implicit_calls, ensemble, config.max_proposals, pool=scope
            )
        if explicit:
            explicit_calls = CountedBackend(backend)
            reviews = review_chunks(
                request, library, explicit_calls, ensemble, config.chunk_budget, pool=scope
            )
            explicit_pathway = partial(
                run_explicit,
                reviews,
                library,
                explicit_calls,
                ensemble,
                config.aggregation,
                config.model_summary,
                pool=scope,
                tokens=tokens,
            )
            pathways.append(partial(_accounted, explicit_calls, run_id, explicit_pathway))
        if implicit:
            # The pathway builds a fresh index itself, inside its soft fail.
            get_index = (
                partial(build_index, library, provider) if prebuilt is None else lambda: prebuilt
            )
            implicit_pathway = partial(
                run_implicit,
                request,
                library,
                implicit_calls,
                proposal,
                provider,
                get_index,
                ensemble,
                k=config.top_k,
                threshold=config.score_threshold,
                allow_ungrounded=config.allow_ungrounded,
                soft_fail=config.implicit_soft_fail,
                pool=scope,
            )
            pathways.append(partial(_accounted, implicit_calls, run_id, implicit_pathway))
        # The first pathway runs on this thread, the other beside it.
        first, *rest = pathways
        beside = [scope.beside(pathway) for pathway in rest]
        reports = [first()] + [scope.wait(future) for future in beside]

        final = consolidate(reports, run_id, config.mode, config.echo(), tokens=tokens)
        # A baseline run has no rules for a patch to follow.
        if config.patches and library is not None:
            final = attach_patches(final, request, library, backend, seed=config.seed, pool=scope)
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
