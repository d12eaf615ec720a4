"""Exception hierarchy shared across the package.

Each class names the ``kind`` its error is reported as and the CLI's
``exit_code`` for it; an error carries nothing but its message.
"""


class ChunkcheckError(Exception):
    """Base class for all package errors."""

    kind = "internal"
    exit_code = 3


class ValidationError(ChunkcheckError):
    """Bad input: malformed data, violated invariant, out-of-range value."""

    kind = "validation"
    exit_code = 1


class CorpusError(ValidationError):
    """Malformed corpus file; the message starts with the path and the 1-based
    line number when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")


class PremiseTooLargeError(ValidationError):
    """Premise exceeds the run's premise cap; truncation is never silent."""


class BackendError(ChunkcheckError):
    """Scorer backend failed to produce a usable result."""

    kind = "backend"
    exit_code = 2


class ScoringError(ChunkcheckError):
    """A sentence, or a claim's retrieval, could not be fully scored."""

    kind = "scoring"
    exit_code = 2
