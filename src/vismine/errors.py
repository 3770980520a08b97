"""Exception types shared across the toolkit."""


class VismineError(Exception):
    """Base class for all toolkit errors."""


class InputError(VismineError):
    """Input cannot be read as data: a line that is not JSON or holds an
    unpaired surrogate escape, a text file that is not UTF-8, a value of
    the wrong JSON type, or a missing or malformed command-line flag."""


class CorpusError(InputError):
    """Malformed metadata records, bad label assignments, or invalid filters."""


class RetrievalError(VismineError):
    """Index misuse: duplicate or unknown document ids, invalid k."""


class DocumentError(VismineError):
    """Problems parsing converted paper text or locating figures."""


class GatewayError(VismineError):
    """LLM gateway failures not covered by a more specific subclass."""


class TransientBackendError(GatewayError):
    """Retryable backend failure (timeout, rate limit, 5xx)."""


class AuthenticationError(GatewayError):
    """Credential problem; never retried."""


class BackendUnavailable(GatewayError):
    """All retry attempts exhausted for one request."""

    def __init__(self, message: str, request_id: str = ""):
        super().__init__(message)
        self.request_id = request_id


class VocabularyError(VismineError):
    """Invalid controlled-vocabulary data (bad alias target, unknown field)."""


class StageError(VismineError):
    """Stage precondition violation (pool too small, mixed figure ids, ...)."""


class EvaluationError(VismineError):
    """Bad evaluation inputs (values outside vocabulary, empty pools)."""


class AnalysisError(VismineError):
    """Bad analytics inputs (empty label field, year after reference year)."""


class ConfigError(VismineError):
    """Configuration file failed validation."""


class PipelineError(VismineError):
    """Missing upstream outputs or broken stage ordering."""
