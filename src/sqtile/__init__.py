"""Exact-arithmetic square-tiling toolkit.

Decides whether a rectangle can be tiled by squares, produces
impossibility certificates, validates user-supplied tilings, and
constructs square tilings for rational side ratios.
"""

from .errors import (
    AmbiguousComparison,
    CommensurableSides,
    DocumentError,
    InvalidTiling,
    NotInSpan,
    SqtileError,
    TableMismatch,
)
from .exactnum import (
    EQUAL,
    GREATER,
    LESS,
    SQRT2,
    Generator,
    GeneratorTable,
    Interval,
    LinExpr,
    Sqrt2Num,
    format_expr,
    parse_expr,
    parse_rational,
    sqrt2_expr_to_num,
)
from .basis import Basis, commensurability_ratio, extract_basis
from .tiling import (
    Failure,
    Placement,
    Tiling,
    ValidationReport,
    is_square,
    validate,
)
from .hamel import (
    Contradiction,
    GoodSquareAnalysis,
    QuadPoly,
    additivity_check,
    analyze_good_squares,
    x_area,
    x_area_nonneg_for_all_x,
    x_area_poly,
    y_area,
)
from .dehn import (
    Certificate,
    Refutation,
    RefutationKind,
    Verdict,
    decide,
    refute_square_tiling,
    verify_certificate,
)
from .construct import ContinuedFraction, continued_fraction, euclid_tiling
# The CLI names load on first use (PEP 562), so importing the library
# does not import argparse and json, and ``python -m sqtile.cli`` runs
# cli.py only once.
_CLI_NAMES = frozenset({
    "DEFAULT_ENCLOSURES",
    "TilingDocument",
    "build_tiling",
    "document_from_tiling",
    "parse_document",
    "render_svg",
    "run_command",
    "serialize_document",
})


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
