"""Exception types raised across the review pipeline."""

from __future__ import annotations


class SgcrError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(SgcrError):
    """Invalid or incomplete run configuration."""


# -- specification library ---------------------------------------------------


class DuplicateSpecId(SgcrError):
    """Two specification files declare the same id."""


class MalformedSpecFile(SgcrError):
    """A specification file violates the front-matter format."""


class EmptyLibrary(SgcrError):
    """No specifications remain after loading and filtering."""


# -- model gateway ------------------------------------------------------------


class WireError(SgcrError):
    """One HTTP attempt failed in transport, or with a 5xx, 408 or 429.

    gateway.attempt_call retries it, up to 1 + SLOT_RETRIES attempts.
    """


class RequestRejected(WireError):
    """The endpoint refused the request itself (a 4xx other than 408 or 429).

    A 3xx is one too: redirects are not followed. Sending the same request
    again would be refused again, so it is never retried. The record backend
    raises it for a request whose fixture would not replay.
    """


class BackendTimeout(WireError):
    """The model endpoint did not answer within the timeout."""


class MalformedWireResponse(SgcrError):
    """The HTTP response body does not match the wire protocol."""


class FixtureMiss(SgcrError):
    """Replay backend has no fixture for the request fingerprint."""

    def __init__(self, fingerprint: str) -> None:
        super().__init__(f"no replay fixture for request fingerprint {fingerprint}")
        self.fingerprint = fingerprint


class UnparsableResponse(SgcrError):
    """No schema-conformant JSON document could be read from a model response."""


class EnsembleError(SgcrError):
    """More ensemble slots failed than the quorum budget allows."""


class NoCandidates(SgcrError):
    """Aggregation was invoked with no usable candidate reviews."""


class NoPartials(SgcrError):
    """Synthesis was invoked with no partial reports."""


# -- retrieval ----------------------------------------------------------------


class EmptyText(SgcrError):
    """Embedding was requested for empty text."""


class DimensionMismatch(SgcrError):
    """Two vectors of different dimensions were combined."""


class QueryDimensionMismatch(DimensionMismatch):
    """Query vector dimension differs from the index dimension."""


class IndexLibraryMismatch(SgcrError):
    """A persisted index does not match the current rules or embedding settings."""


# -- ingestion ---------------------------------------------------------------


class DiffSyntaxError(SgcrError):
    """Unified diff text violates the diff grammar."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class HunkCountMismatch(DiffSyntaxError):
    """Hunk body line counts disagree with the @@ header."""


class InvalidReviewRequest(SgcrError):
    """The review request contains no reviewable content."""


# -- report -------------------------------------------------------------------


class PatchDoesNotApply(SgcrError):
    """A suggested patch does not apply cleanly to the reviewed content."""
