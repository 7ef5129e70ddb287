"""Exception types shared across the package."""


class SqtileError(Exception):
    """Base class for all errors raised by this package."""


class AmbiguousComparison(SqtileError):
    """Two symbolically distinct expressions whose enclosure intervals overlap.

    The comparison is neither provably Less nor provably Greater with the
    declared generator enclosures; declare tighter lo/hi brackets and retry.
    """

    @classmethod
    def overlap(cls, a, b) -> "AmbiguousComparison":
        """The error for ordering ``a`` against ``b`` when the enclosure of
        ``a - b`` contains zero."""
        return cls(
            f"cannot order {a} against {b}: enclosures overlap; "
            "declare tighter generator enclosures"
        )


class TableMismatch(SqtileError):
    """Expressions over different generator tables were combined."""


class CommensurableSides(SqtileError):
    """The second length is a rational multiple of the first.

    Carries the ratio so callers can branch to the constructive path.
    """

    def __init__(self, ratio):
        from .exactnum import rational_text  # exactnum imports this module

        super().__init__(f"sides are commensurable with ratio {rational_text(ratio)}")
        self.ratio = ratio


class NotInSpan(SqtileError):
    """A length is not a rational combination of the basis elements."""


class GridInconsistent(SqtileError):
    """The refined grid is not an exactly-once cover by tile blocks."""


class InvalidTiling(SqtileError):
    """A precondition required a valid tiling; carries the failure report."""

    def __init__(self, report):
        super().__init__(f"tiling is not valid: {report}")
        self.report = report


class DocumentError(SqtileError):
    """Malformed input document or expression.

    ``line``/``column`` locate the problem when known; ``token`` is the
    offending piece of text.
    """

    def __init__(self, message, *, line=None, column=None, token=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        elif column is not None:
            loc = f" at column {column}"
        tok = f" (near {token!r})" if token else ""
        super().__init__(message + loc + tok)
        self.line = line
        self.column = column
        self.token = token
