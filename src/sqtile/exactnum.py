"""Exact scalar arithmetic: big rationals, symbolic rational-linear
expressions over declared generators (Q(sqrt2) is those over the unit
and ``sqrt2``), and certified comparison: by enclosures, and past them,
for the unit and ``sqrtN`` roots alone, by one exact sign.

Rationals at the API are stdlib ``fractions.Fraction`` (arbitrary
precision, always canonical).  Everything is exact; floating point never
enters any decision.

Inside the module the arithmetic is on integers.  A ``LinExpr`` holds one
positive denominator and a dense tuple of one integer numerator per table
generator, zeros included, reduced so that their gcd with the
denominator is 1; that form is canonical, so equality, hashing and the
equality test of ``cmp`` compare ints.  A sum over one denominator costs
one elementwise addition and one gcd of the denominator and the
numerators.  A value costs one int per generator, used or not, so a
table holds at most ``MAX_GENERATORS``.  ``LinExpr.__add__`` and
``index_sums`` share one routine that adds two stored forms;
``index_sums`` keys values and the sums of pairs by that form, so a sum
equal to a given value is never built as an expression.  Each generator
bracket is held as ``(lo_num, lo_den, hi_num, hi_den)`` and each
expression caches its two bounds in that form, summed on integers and
never reduced, so ``LinExpr.cmp`` orders disjoint pairs by
cross-multiplication, and ``certified_order`` orders a list of values by
one integer sort of their lower bounds with each neighbouring pair
confirmed (a ``cmp`` sort only after a tie or an unsettled pair).  Every
value the module returns is a ``Fraction``, the one termwise ``Fraction``
arithmetic gives.

``parse_expr`` reads the whole grammar with one term regex and one match
per term, puts every term over one common denominator and reduces once.
A faulty term goes to one error routine, which reports what a
tokenize-then-parse reading would: a character that starts no token, an
empty text, or the term's first fault, with its column and token.
"""

from __future__ import annotations

import functools
import operator
import re
from decimal import Decimal
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm
from types import MappingProxyType

from .errors import AmbiguousComparison, DocumentError, TableMismatch, clip

LESS, EQUAL, GREATER = -1, 0, 1

# Every value stores one numerator per generator of its table, used or
# not, so the table size bounds the cost of each value.
MAX_GENERATORS = 32

RATIONAL_PATTERN = r"-?[0-9]+(?:/[0-9]+)?"  # not \d, which matches every script's digits
IDENT_PATTERN = r"[A-Za-z_][A-Za-z_0-9]*"
_RATIONAL_RE = re.compile(RATIONAL_PATTERN)
_IDENT_RE = re.compile(IDENT_PATTERN)  # in a text, each match is one whole identifier token
_ROOT_RE = re.compile(r"sqrt0*([1-9][0-9]*)\Z")


def parse_rational(text: str) -> Fraction:
    """Parse ``['-'] digits ('/' digits)?`` into a canonical Fraction.

    Stricter than ``Fraction(str)``: decimals, exponents and embedded
    whitespace are rejected, as is a zero denominator.
    """
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise DocumentError("malformed rational", token=text)
    num, _, den = s.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # past sys.get_int_max_str_digits() digits
        raise DocumentError("rational has too many digits", token=text) from None
    if den == 0:
        raise DocumentError("rational with zero denominator", token=text)
    return Fraction(num, den)


def rational_text(value) -> str:
    """Exact text of a rational, the same bytes as ``str(Fraction)``, at
    any number of digits."""
    q = _as_fraction(value)
    # str(int) refuses numbers past sys.get_int_max_str_digits() digits;
    # Decimal(int) converts exactly and has no such limit.
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{str(Decimal(q.denominator))}"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {type(value).__name__}")


class Value:
    """Base of the immutable values: their ``__slots__``, in order, are
    their fields, filled once by the constructor.  Equality (same type),
    hashing and ``repr`` go by field.  Copy and pickle rebuild through the
    constructor, as the default slot restore writes through __setattr__.
    ``Placement`` (one per tile) and ``LinExpr._trusted`` use slot setters."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


UNIT_SYMBOL = "1"


class Generator(Value):
    """A declared real generator with a certified enclosure lo <= value <= hi.

    Enclosures straddling zero are rejected: sign reasoning would be
    unsound.  A ``sqrtN`` enclosure must contain the root: lo|lo| <= N <=
    hi|hi|, as t|t| increases.  Built without one, a ``sqrtN`` gets
    [r, r + 1] / 2**64, r = isqrt(N << 128).  Such a bracket only speeds
    comparisons up: what the enclosures cannot settle about roots, the
    exact sign does.  Q-linear independence of the generators (and the
    unit) is a trusted assumption, never verified, except for the
    ``sqrtN`` symbols that ``GeneratorTable`` checks.
    """

    __slots__ = ("symbol", "lo", "hi")

    def __init__(self, symbol: str, lo: Fraction | None = None, hi: Fraction | None = None):
        root = _ROOT_RE.match(symbol)
        n = root and int(Decimal(root[1]))  # Decimal reads N at any length; int(str) stops at 4,300 digits
        if lo is None and hi is None:
            if not root:
                raise DocumentError(f"generator {clip(symbol, repr)} has no enclosure and no default is known")
            r = _root_floor(n)
            lo, hi = Fraction(r, 2**64), Fraction(r + 1, 2**64)
        if not symbol or not _IDENT_RE.fullmatch(symbol):
            raise DocumentError("generator symbol must be an identifier", token=symbol)
        if symbol == UNIT_SYMBOL:
            raise DocumentError("the unit symbol '1' is implicit and cannot be declared")
        if not lo < hi:
            raise DocumentError(f"generator {clip(symbol)}: enclosure needs lo < hi, got [{lo}, {hi}]")
        if lo < 0 < hi:
            raise DocumentError(f"generator {clip(symbol)}: enclosure [{lo}, {hi}] contains zero")
        if root and not lo * abs(lo) <= n <= hi * abs(hi):
            raise DocumentError(
                f"generator {clip(symbol)}: enclosure [{rational_text(lo)}, "
                f"{rational_text(hi)}] does not contain the square root of {clip(root[1])}"
            )
        super().__init__(symbol, lo, hi)


class GeneratorTable(Value):
    """Ordered generator list with the implicit unit generator first.

    Index 0 is always the unit (symbol "1", enclosure [1, 1]); user
    generators follow in declaration order, at most ``MAX_GENERATORS`` of
    them.  The first ``sqrtN`` that is rational (N = m^2) or a rational
    multiple of an earlier ``sqrtM`` (N*M = r^2, so sqrtN = r/M*sqrtM) is
    an input error.  The roots that pass are Q-independent with the unit
    (Besicovitch, 1940), which the exact sign needs to end.  Each index
    keeps a radicand: 1 for the unit, N for ``sqrtN``, 0 for any other
    generator.  Equality, hashing, ``repr``, copy and pickle go by the
    generators alone; the symbol index is a read-only view.
    """

    __slots__ = ("_generators", "_index", "_brackets", "_radicands")

    def __init__(self, generators=()):
        gens = tuple(generators)
        if len(gens) > MAX_GENERATORS:
            raise DocumentError(
                f"a generator table holds at most {MAX_GENERATORS} generators, got {len(gens)}"
            )
        seen = {UNIT_SYMBOL}
        for g in gens:
            if g.symbol in seen:
                raise DocumentError(f"duplicate generator symbol {clip(g.symbol, repr)}")
            seen.add(g.symbol)
        roots = [(None, 1)]  # (symbol, N) of the unit and each earlier sqrtN
        radicands = [1]
        for g in gens:
            if not (root := _ROOT_RE.match(g.symbol)):
                radicands.append(0)
                continue
            n, s = int(Decimal(root[1])), clip(g.symbol)
            for sym, k in roots:
                r = isqrt(n * k)
                if r * r == n * k:
                    q = clip(rational_text(Fraction(r, k)))
                    if sym is None:
                        raise DocumentError(f"generator {s} is rational: {s} = {q}")
                    m = clip(sym)
                    raise DocumentError(f"generator {s} is a rational multiple of {m}: {s} = {q}*{m}")
            roots.append((g.symbol, n))
            radicands.append(n)
        index = {g.symbol: i + 1 for i, g in enumerate(gens)}
        index[UNIT_SYMBOL] = 0
        brackets = ((1, 1, 1, 1),) + tuple(
            (g.lo.numerator, g.lo.denominator, g.hi.numerator, g.hi.denominator) for g in gens
        )
        super().__init__(gens, MappingProxyType(index), brackets, tuple(radicands))

    def __reduce__(self):
        return GeneratorTable, (self._generators,)

    @property
    def generators(self) -> tuple:
        return self._generators

    @property
    def symbols(self) -> tuple:
        return (UNIT_SYMBOL,) + tuple(g.symbol for g in self._generators)

    def __len__(self):
        return len(self._generators) + 1

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise DocumentError(f"undeclared symbol {clip(symbol, repr)}", token=symbol) from None

    def __eq__(self, other):
        if not isinstance(other, GeneratorTable):
            return NotImplemented
        return self._generators == other._generators

    def __hash__(self):
        return hash(self._generators)

    def __repr__(self):
        return f"GeneratorTable({list(self._generators)!r})"


class LinExpr(Value):
    """An exact Q-linear combination of table generators plus the unit.

    Stored as one positive denominator ``_den`` and a tuple ``_nums`` of
    one integer numerator per table generator, in table order, zeros
    included, reduced so that ``gcd(_den, *_nums) == 1``; zero is
    ``(1, (0, ..., 0))``.  That form is canonical: equality (with the
    table) and hashing compare ints.  Arithmetic is exact, with
    the expression as left operand (``e * 2``, ``e - 1``), and only mixes
    expressions over the same table.  The hash and the enclosure are
    computed on first use and kept in write-once slots; the value itself
    never changes.
    """

    __slots__ = ("table", "_den", "_nums", "_hash", "_enclosure")

    def __init__(self, table: GeneratorTable, coeffs=None):
        n = len(table)
        fracs = [Fraction(0)] * n
        for idx in sorted(coeffs or ()):
            c = _as_fraction(coeffs[idx])
            if not 0 <= idx < n:
                raise ValueError(f"generator index {idx} out of range")
            fracs[idx] = c
        # each Fraction is reduced, so over the lcm of their denominators
        # the numerators share no factor with it
        den = lcm(*(c.denominator for c in fracs))
        nums = tuple(c.numerator * (den // c.denominator) for c in fracs)
        super().__init__(table, den, nums, None, None)

    def __reduce__(self):
        # the copy recomputes its hash and enclosure on use
        return LinExpr, (self.table, self.coeffs)

    @classmethod
    def _trusted(cls, table: GeneratorTable, den: int, nums: tuple) -> "LinExpr":
        """An expression from ``den`` and ``nums`` that are already in the
        stored, reduced form over ``table``, unchecked."""
        self = object.__new__(cls)
        _set_table(self, table)
        _set_den(self, den)
        _set_nums(self, nums)
        _set_hash(self, None)
        _set_enclosure(self, None)
        return self

    @classmethod
    def constant(cls, table: GeneratorTable, value) -> "LinExpr":
        q = _as_fraction(value)
        return cls._trusted(table, q.denominator, (q.numerator,) + (0,) * (len(table._brackets) - 1))

    @classmethod
    def zero(cls, table: GeneratorTable) -> "LinExpr":
        return cls._trusted(table, 1, (0,) * len(table._brackets))

    @property
    def coeffs(self) -> dict:
        d = self._den
        return {i: Fraction(v, d) for i, v in enumerate(self._nums) if v}

    @property
    def is_zero(self) -> bool:
        return not any(self._nums)

    def constant_value(self) -> Fraction:
        if any(self._nums[1:]):
            raise ValueError(f"{self} is not a constant expression")
        return Fraction(self._nums[0], self._den)

    def _check_table(self, other: "LinExpr"):
        if self.table != other.table:
            raise TableMismatch("expressions belong to different generator tables")

    def __add__(self, other):
        if type(other) is not LinExpr:
            if isinstance(other, (int, Fraction)):
                other = LinExpr.constant(self.table, other)
            elif not isinstance(other, LinExpr):
                return NotImplemented
        if self.table is not other.table:
            self._check_table(other)
        return LinExpr._trusted(self.table, *_sum(self._den, self._nums, other._den, other._nums))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LinExpr.constant(self.table, other)
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LinExpr._trusted(self.table, self._den, tuple([-v for v in self._nums]))

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p, den = scalar.numerator, self._den * scalar.denominator
        return LinExpr._trusted(self.table, *_reduced(den, tuple([v * p for v in self._nums]), den))

    def __eq__(self, other):
        if not isinstance(other, LinExpr):
            return NotImplemented
        return (
            self._den == other._den
            and self._nums == other._nums
            and (self.table is other.table or self.table == other.table)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self._den, self._nums))
            _set_hash(self, h)
        return h

    def _bounds(self) -> tuple:
        """The cached enclosure as integers ``(lo_num, lo_den, hi_num,
        hi_den)``, denominators positive, filled on first use.

        Both bounds are summed over the nonzero numerators in one pass (a
        negative numerator swaps the bracket ends) and divided by the
        denominator.  They are not reduced: every reader cross-multiplies
        or reads a sign, and ``eval_interval``'s Fractions reduce.
        """
        b = self._enclosure
        if b is None:
            lo_n, lo_d, hi_n, hi_d = 0, 1, 0, 1
            nums = self._nums
            for p, (ln, ld, hn, hd) in compress(zip(nums, self.table._brackets), nums):
                if p < 0:
                    ln, ld, hn, hd = hn, hd, ln, ld
                lo_n, lo_d = lo_n * ld + p * ln * lo_d, lo_d * ld
                hi_n, hi_d = hi_n * hd + p * hn * hi_d, hi_d * hd
            b = (lo_n, lo_d * self._den, hi_n, hi_d * self._den)
            _set_enclosure(self, b)
        return b

    def eval_interval(self) -> tuple:
        """Certified enclosure ``(lo, hi)``, two Fractions, exact for constants."""
        lo_n, lo_d, hi_n, hi_d = self._bounds()
        return Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)

    def cmp(self, other: "LinExpr") -> int:
        """Exact three-way comparison: LESS, EQUAL or GREATER.

        Equal iff the stored forms coincide; otherwise the sign of the
        difference's enclosure decides, or where that contains zero, the
        exact ``_root_sign`` of a difference over the unit and roots.
        Raises AmbiguousComparison only for a difference on another
        generator.

        Disjoint enclosures of the two sides already settle the sign: the
        difference's enclosure lies inside their interval difference.
        Only overlapping pairs build the difference.
        """
        if self.table is not other.table:
            self._check_table(other)
        if self._nums == other._nums and self._den == other._den:
            return EQUAL
        a_ln, a_ld, a_hn, a_hd = self._bounds()
        b_ln, b_ld, b_hn, b_hd = other._bounds()
        # denominators are positive, so cross-multiplying keeps the order
        if a_ln * b_hd > b_hn * a_ld:
            return GREATER
        if a_hn * b_ld < b_ln * a_hd:
            return LESS
        # the numerators carry the signs of the difference's bounds
        d = self - other
        lo, _, hi, _ = d._bounds()
        if lo > 0:
            return GREATER
        if hi < 0:
            return LESS
        radicands = self.table._radicands
        if 0 not in compress(radicands, d._nums):
            return _root_sign(d._nums, radicands)
        raise AmbiguousComparison(
            f"cannot order {self} against {other}: enclosures overlap; "
            "declare tighter generator enclosures"
        )

    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return f"LinExpr({format_expr(self)!r})"


# The slots' own setters: they write past Value's guard, at C speed.
_set_table, _set_den, _set_nums, _set_hash, _set_enclosure = (
    LinExpr.__dict__[name].__set__ for name in LinExpr.__slots__
)


def _root_floor(n: int, k: int = 64) -> int:
    """The r with r <= 2**k * sqrt(n) < r + 1, the bracket [r, r + 1] / 2**k of sqrt(n)."""
    return isqrt(n << 2 * k)


def _root_sign(nums: tuple, radicands: tuple) -> int:
    """The sign of sum(p * sqrt(n)) over the nonzero numerators ``p`` and
    their positive radicands ``n``, exactly: LESS or GREATER.

    Each root is bracketed at 2**-k by ``_root_floor`` (a negative
    numerator swaps the ends), and k doubles from 64 until the bracket
    of the sum excludes 0.  The sum is not 0, as the roots of a table
    are Q-independent with the unit, so this ends.
    """
    k = 64
    while True:
        lo = hi = 0
        for p, n in compress(zip(nums, radicands), nums):
            r = _root_floor(n, k)
            lo, hi = (lo + p * r, hi + p * (r + 1)) if p > 0 else (lo + p * (r + 1), hi + p * r)
        if lo > 0:
            return GREATER
        if hi < 0:
            return LESS
        k *= 2


def _named_roots(texts) -> list:
    """The ``sqrtN`` whole identifiers in ``texts``, once each, by increasing N, ties as first seen."""
    digits = {m[0]: m[1] for text in texts for m in map(_ROOT_RE.match, _IDENT_RE.findall(text)) if m}
    return sorted(digits, key=lambda s: (len(digits[s]), digits[s]))  # N has no leading zeros


def _reduced(den: int, nums: tuple, bound: int) -> tuple:
    """The stored form ``(den, nums)`` of ``nums / den``, from a positive
    ``den`` and a dense numerator tuple.  ``bound`` is a multiple of every
    common factor of ``den`` and the numerators; it is ``den`` whenever
    the numerators may all be 0, so that zero reduces to ``(1, nums)``."""
    if bound != 1:
        g = gcd(bound, *nums)
        if g != 1:
            return den // g, tuple([v // g for v in nums])
    return den, nums


def _sum(den: int, nums: tuple, other_den: int, other_nums: tuple) -> tuple:
    """The stored form ``(den, nums)`` of the sum of two stored forms."""
    if den == other_den:
        return _reduced(den, tuple(map(operator.add, nums, other_nums)), den)
    # over the lcm, a common factor of the sum and the denominator divides
    # g, as for two Fractions; the sum is not 0, as the forms of x and -x
    # share their denominator
    g = gcd(den, other_den)
    s, t = other_den // g, den // g
    return _reduced(den * s, tuple([a * s + b * t for a, b in zip(nums, other_nums)]), g)


def index_sums(values, pairs) -> tuple:
    """Index ``values``, then each pair's ``a`` and ``a + b``, by value.

    ``values`` is a nonempty sequence and ``pairs`` an iterable of
    ``(a, b)``, all over one table.  Returns ``(distinct, starts, ends)``:
    the distinct values in first-seen order, and per pair the index in
    ``distinct`` of ``a`` and of ``a + b``.  Values are keyed by their
    stored form and each sum is computed as one, so a sum becomes an
    expression only when it equals no given value; every other entry of
    ``distinct`` is one of the given objects.
    """
    first = values[0]
    table = first.table
    index, distinct, starts, ends = {}, [], [], []  # index: stored form -> position
    for v in values:
        if v.table is not table:
            first._check_table(v)
        key = v._den, v._nums
        if key not in index:
            index[key] = len(distinct)
            distinct.append(v)
    for a, b in pairs:
        if a.table is not table or b.table is not table:
            first._check_table(a)
            first._check_table(b)
        key = a._den, a._nums
        i = index.get(key)
        if i is None:
            i = index[key] = len(distinct)
            distinct.append(a)
        elif distinct[i] is None:  # a sum seen before, now given
            distinct[i] = a
        key = _sum(a._den, a._nums, b._den, b._nums)
        j = index.get(key)
        if j is None:
            j = index[key] = len(distinct)
            distinct.append(None)
        starts.append(i)
        ends.append(j)
    distinct = [LinExpr._trusted(table, *key) if v is None else v for key, v in zip(index, distinct)]
    return distinct, starts, ends


def certified_order(values) -> list:
    """The indices of the distinct ``values`` in increasing order.

    The indices are sorted by an integer key, the cached lower bound
    scaled by 2**64 and floored, and each neighbouring pair is confirmed
    LESS: by disjoint enclosures, compared by cross-multiplication, or
    else by ``LinExpr.cmp``.  That order is the ``cmp`` order: an a > b
    that the difference's enclosure certifies holds on the whole box of
    generator brackets, where an enclosure is the exact range of a linear
    form, so lo(a) > lo(b).  An a > b that only the exact sign of roots
    settles may come out of the key order.  A pair ``cmp`` answers
    GREATER (a tie in the key, or such a pair) or cannot order sends the
    values, in their given order, to a ``cmp`` sort instead, which raises
    AmbiguousComparison on the first pair it cannot order.
    """
    bounds = [v._bounds() for v in values]
    keys = [(lo_n << 64) // lo_d for lo_n, lo_d, _, _ in bounds]
    order = sorted(range(len(values)), key=keys.__getitem__)
    try:
        for a, b in zip(order, order[1:]):
            _, _, hi_n, hi_d = bounds[a]
            lo_n, lo_d, _, _ = bounds[b]
            if hi_n * lo_d >= lo_n * hi_d and values[a].cmp(values[b]) != LESS:
                break
        else:
            return order
    except AmbiguousComparison:
        pass
    key = functools.cmp_to_key(LinExpr.cmp)
    return sorted(range(len(values)), key=lambda i: key(values[i]))


# --- expression grammar -----------------------------------------------------
#
#   expr     := term (('+' | '-') term)*
#   term     := rational ('*' symbol)? | symbol
#   rational := ['-'] digits ('/' digits)?
#   symbol   := declared identifier ("1" is never written)
#
# Any whitespace may stand between tokens.  A '-' right before digits is
# the rational's own, so a later term may read "-1", "- -1" or "+ -1".
# Example: "2 + 1*sqrt2 - 1*sqrt3".

# One term, every part optional so that it always matches: a '+' or a
# '-' that is not a rational's, then rational ('*' symbol?)? or symbol.
# parse_expr checks what the grammar requires of the parts.  An optional
# part is written (?:...|), not (?:...)?: the same match, but the engine
# runs a branch, which is faster than a repeat.
_TERM_RE = re.compile(
    rf"\s*(?:(?P<op>\+|-(?![0-9]))\s*|)"
    rf"(?:(?P<num>-?[0-9]+)(?:/(?P<den>[0-9]+)|)(?:\s*(?P<star>\*)\s*(?:(?P<sym>{IDENT_PATTERN})|)|)"
    rf"|(?P<bare>{IDENT_PATTERN})|)\s*"
)
# The longest run of whole tokens: the character after it starts none.
_SCAN_RE = re.compile(rf"(?:\s+|{RATIONAL_PATTERN}|{IDENT_PATTERN}|[+\-*])*")


def parse_expr(text: str, table: GeneratorTable) -> LinExpr:
    """Parse an expression over ``table`` into a LinExpr.

    Each term costs one match.  At the end every term goes, on integers,
    onto the lcm of their denominators, into one numerator per table
    generator, and the sum is reduced once.  Errors carry the
    1-based column and the offending token.
    """
    index = table._index
    terms = []  # (index, num, den) of each term
    common = 1  # the lcm of the terms' denominators
    pos, end = 0, len(text)
    while True:
        m = _TERM_RE.match(text, pos)
        op, num, den, star, sym, bare = m.groups()
        # a first term has no sign before it; a later one has a '+' or
        # '-', or its rational's own '-'
        if op is not None if pos == 0 else op is None and (num is None or num[0] != "-"):
            _raise_parse_error(text, table, pos)
        if num is None:
            if bare is None:
                _raise_parse_error(text, table, pos)
            sym, p, q = bare, -1 if op == "-" else 1, 1
        else:
            try:
                p, q = int(num), int(den) if den else 1
            except ValueError:  # past sys.get_int_max_str_digits() digits
                q = 0
            if q == 0 or star and sym is None:
                _raise_parse_error(text, table, pos)
            if op == "-":
                p = -p
        idx = 0 if sym is None else index.get(sym)
        if idx is None:
            _raise_parse_error(text, table, pos)
        if common % q:
            common *= q // gcd(common, q)
        terms.append((idx, p, q))
        pos = m.end()
        if pos == end:
            nums = [0] * len(table._brackets)  # one numerator per generator
            for idx, p, q in terms:
                nums[idx] += p * (common // q)
            return LinExpr._trusted(table, *_reduced(common, tuple(nums), common))


def _raise_parse_error(text: str, table: GeneratorTable, pos: int):
    """Raise the error of the term at ``pos``, the first faulty one.

    First comes a character that can start no token, anywhere from
    ``pos`` on, then an empty text, then the term's first fault: its
    signs, its rational's value, the symbol after '*', the symbol lookup.
    """
    bad = _SCAN_RE.match(text, pos).end()
    if bad < len(text):
        raise DocumentError("unexpected character in expression", column=bad + 1, token=text[bad])
    if not text.strip():
        raise DocumentError("empty expression", token=text)
    m = _TERM_RE.match(text, pos)
    op, sym = m["op"], m["sym"] or m["bare"]
    rat = m["num"] and _RATIONAL_RE.match(text, m.start("num"))[0]
    after = m.end()  # where the next token starts, or len(text)
    if op is not None and pos == 0:
        raise DocumentError("expected a rational or symbol", column=m.start("op") + 1, token=op)
    if op is None and pos and not (rat and rat[0] == "-"):
        raise DocumentError("expected '+' or '-'", column=pos + 1, token=rat or sym or text[pos])
    if rat is None and sym is None:
        if after == len(text):
            raise DocumentError("dangling operator", column=m.start("op") + 1, token=op)
        raise DocumentError("expected a rational or symbol", column=after + 1, token=text[after])
    if rat is not None:
        # raises on a bad value; in "2 -1" the '-' is the term's sign
        parse_rational(rat[1:] if op is None and pos else rat)
        if m["star"] and sym is None:
            tail = _RATIONAL_RE.match(text, after)
            token = "end of input" if after == len(text) else tail[0] if tail else text[after]
            raise DocumentError("expected a symbol after '*'", column=after + 1, token=token)
    if sym is not None:
        table.index(sym)


def format_expr(e: LinExpr) -> str:
    """Canonical text form; ``parse_expr`` inverts it exactly.

    Unit terms print as plain rationals, generator terms always with an
    explicit coefficient ("1*sqrt2"), in table order.
    """
    if e.is_zero:
        return "0"
    parts = []
    for idx, c in e.coeffs.items():
        body = rational_text(abs(c))
        if idx != 0:
            body = f"{body}*{e.table.symbols[idx]}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)
