"""Spec-grounded code review with dual pathways and verified discovery.

The library reviews code against a directory of rule files two ways at
once: an ensemble pass grounded in every rule chunk, and a free-form
discovery pass whose proposals must survive retrieval grounding and a
verifier quorum. Both pathways emit the same Finding type, so their
outputs de-duplicate into a single prioritized report.

Everything runs offline by default: the mock backend synthesizes
deterministic responses and the replay backend serves recorded fixtures.

The names below are the ones README's "Library use" section documents;
everything else is imported from its own module (sgcr.retrieval, ...).
"""

from .config import RunConfig
from .ingestion import build_review_request
from .pipeline import run_review
from .report import render

__version__ = "0.1.0"

__all__ = ["RunConfig", "build_review_request", "render", "run_review"]
