"""Exception types shared across the package."""


def clip(text: str, show=str) -> str:
    """``show(text)``, or for text over 40 characters, ``show`` of its
    first 40 characters followed by its length."""
    if len(text) > 40:
        return f"{show(text[:40])}... {len(text)} characters"
    return show(text)


class SqtileError(Exception):
    """Base class for all errors raised by this package."""


class AmbiguousComparison(SqtileError):
    """Two symbolically distinct expressions whose enclosure intervals overlap.

    The comparison is neither provably Less nor provably Greater with the
    declared generator enclosures; declare tighter lo/hi brackets and retry.
    """


class TableMismatch(SqtileError):
    """Expressions over different generator tables were combined."""


class NotInSpan(SqtileError):
    """A length is not a rational combination of the basis elements."""


class InvalidTiling(SqtileError):
    """A precondition required a valid tiling; carries the failure report."""

    def __init__(self, report):
        super().__init__(f"tiling is not valid: {report}")
        self.report = report


class DocumentError(SqtileError):
    """Malformed input document or expression.

    ``line``/``column`` locate the problem when known; ``token`` is the
    offending piece of text, shown through :func:`clip`.
    """

    def __init__(self, message, *, line=None, column=None, token=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        elif column is not None:
            loc = f" at column {column}"
        tok = f" (near {clip(token, repr)})" if token else ""
        super().__init__(message + loc + tok)
        self.line = line
        self.column = column
        self.token = token
