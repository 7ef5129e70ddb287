"""Exact-arithmetic square-tiling toolkit.

Decides whether a rectangle can be tiled by squares, produces
impossibility certificates, validates user-supplied tilings, and
constructs square tilings for rational side ratios.  The command line
and the .tiling document format live in ``sqtile.cli``, which
``import sqtile`` does not load.
"""

from .errors import (
    AmbiguousComparison,
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
    Generator,
    GeneratorTable,
    LinExpr,
    format_expr,
    parse_expr,
    parse_rational,
)
from .basis import Basis, extract_basis
from .tiling import (
    Failure,
    Placement,
    Tiling,
    ValidationReport,
    validate,
)
from .hamel import (
    GoodSquareAnalysis,
    additivity_check,
    analyze_good_squares,
    x_area,
    x_area_nonneg_for_all_x,
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
from .construct import continued_fraction, euclid_tiling

__version__ = "0.1.0"
