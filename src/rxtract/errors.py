"""Exception types shared across the toolkit."""


class RxtractError(Exception):
    """Base class for all toolkit errors."""


class StandoffParseError(RxtractError):
    """A standoff annotation line does not match the grammar."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class SpanRangeError(RxtractError):
    """An offset, span, or position falls outside its valid range."""


class IntegrityError(RxtractError):
    """A quoted surface string disagrees with the document text slice."""


class SchemaError(RxtractError):
    """An annotation violates the label schema (bad value, bad target, missing event)."""


class ConflictError(RxtractError):
    """Overlapping mention spans that the BIO scheme cannot represent."""


class MissingPairError(RxtractError):
    """A corpus directory lacks the .txt or .ann half of a document pair."""


class DuplicateDocIdError(RxtractError):
    """The same document id appears more than once across corpus splits, or
    among the documents one prediction call keys by id."""


class CapacityError(RxtractError):
    """A vocabulary target size too small to hold the required pieces."""


class ConfigError(RxtractError):
    """An invalid model or training configuration."""


class SequenceLengthError(RxtractError):
    """An input sequence exceeds the model's maximum length."""


class NumericError(RxtractError):
    """A non-finite value surfaced during training; carries and names the example origin."""

    def __init__(self, message: str, origin=None):
        if origin is not None:
            doc_id, span = origin
            where = "" if span is None else f", sentence at {span.start}-{span.end}"
            message = f"{message} on an example from document {doc_id!r}{where}"
        super().__init__(message)
        self.origin = origin


class DataError(RxtractError):
    """Input data that cannot be used (not UTF-8, empty split, no examples)."""


class CorruptionError(RxtractError):
    """A model artifact failed its checksum or structural validation."""


class CompatibilityError(RxtractError):
    """A model artifact was written by an incompatible format version."""


class SizeError(RxtractError):
    """An instance too large for exhaustive oracle computation."""
