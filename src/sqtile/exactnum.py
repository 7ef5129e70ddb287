"""Exact scalar arithmetic: big rationals, the field Q(sqrt2), symbolic
rational-linear expressions over declared generators, and certified
interval comparison.

Rationals are stdlib ``fractions.Fraction`` (arbitrary precision, always
canonical).  Everything built on top of them is exact; floating point
never enters any decision.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import AmbiguousComparison, DocumentError, TableMismatch

LESS, EQUAL, GREATER = -1, 0, 1

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def parse_rational(text: str) -> Fraction:
    """Parse ``['-'] digits ('/' digits)?`` into a canonical Fraction.

    Stricter than ``Fraction(str)``: decimals, exponents and embedded
    whitespace are rejected, as is a zero denominator.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
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


class Sqrt2Num:
    """An element a + b*sqrt(2) of Q(sqrt2), exact in both components.

    The representation is unique (sqrt2 is irrational), so equality and
    hashing are componentwise.  Ordering is the real-embedding order,
    decided exactly without any enclosures.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Sqrt2Num is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the
        # default slot restore would write through __setattr__
        return Sqrt2Num, (self.a, self.b)

    def conj(self) -> "Sqrt2Num":
        """The conjugate a - b*sqrt(2)."""
        return Sqrt2Num(self.a, -self.b)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _coerce(self, other):
        if isinstance(other, Sqrt2Num):
            return other
        if isinstance(other, (int, Fraction)):
            return Sqrt2Num(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2Num(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2Num(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a+b*r)(c+d*r) = (ac+2bd) + (ad+bc)*r  with r*r = 2
        return Sqrt2Num(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - 2 * o.b * o.b
        if norm == 0:
            # a^2 = 2 b^2 over Q forces a = b = 0
            raise ZeroDivisionError("division by zero element of Q(sqrt2)")
        inv = Sqrt2Num(o.a / norm, -o.b / norm)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Sqrt2Num(-self.a, -self.b)

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(2): -1, 0 or 1.

        Mixed-sign components reduce to comparing a^2 against 2 b^2,
        which is pure rational arithmetic.
        """
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # a^2 = 2 b^2 is impossible for nonzero rationals
        if a > 0:  # b < 0: positive iff a > -b*sqrt2 iff a^2 > 2 b^2
            return 1 if a * a > 2 * b * b else -1
        # a < 0, b > 0: positive iff b*sqrt2 > -a iff 2 b^2 > a^2
        return 1 if 2 * b * b > a * a else -1

    def ratio_to(self, other: "Sqrt2Num") -> Fraction | None:
        """The rational k with self = k*other, or None if no such k exists."""
        o = self._coerce(other)
        if o is None or (o.a == 0 and o.b == 0):
            raise ZeroDivisionError("ratio to zero element")
        q = self / o
        return q.a if q.is_rational else None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __repr__(self):
        return f"Sqrt2Num({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return rational_text(self.a)
        if self.a == 0:
            return f"{rational_text(self.b)}*sqrt2"
        op = "-" if self.b < 0 else "+"
        return f"{rational_text(self.a)} {op} {rational_text(abs(self.b))}*sqrt2"


SQRT2 = Sqrt2Num(0, 1)


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value) -> "Interval":
        v = _as_fraction(value)
        return cls(v, v)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def scale(self, c) -> "Interval":
        c = _as_fraction(c)
        if c >= 0:
            return Interval(c * self.lo, c * self.hi)
        return Interval(c * self.hi, c * self.lo)

    def sign(self) -> int:
        """-1 or 1 when the interval is separated from 0, else 0."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0


UNIT_SYMBOL = "1"


@dataclass(frozen=True, slots=True)
class Generator:
    """A declared real generator with a certified enclosure lo <= value <= hi.

    Enclosures straddling zero are rejected: sign reasoning would be
    unsound.  Q-linear independence of the declared generators (and the
    unit) is a trusted assumption, never verified.
    """

    symbol: str
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.symbol or not _IDENT_RE.match(self.symbol):
            raise DocumentError("generator symbol must be an identifier", token=self.symbol)
        if self.symbol == UNIT_SYMBOL:
            raise DocumentError("the unit symbol '1' is implicit and cannot be declared")
        if not self.lo < self.hi:
            raise DocumentError(
                f"generator {self.symbol}: enclosure needs lo < hi, got [{self.lo}, {self.hi}]"
            )
        if self.lo < 0 < self.hi:
            raise DocumentError(
                f"generator {self.symbol}: enclosure [{self.lo}, {self.hi}] contains zero"
            )

    @property
    def enclosure(self) -> Interval:
        return Interval(self.lo, self.hi)


class GeneratorTable:
    """Ordered generator list with the implicit unit generator first.

    Index 0 is always the unit (symbol "1", enclosure [1, 1]); user
    generators follow in declaration order.
    """

    __slots__ = ("_generators", "_index")

    def __init__(self, generators=()):
        gens = tuple(generators)
        seen = {UNIT_SYMBOL}
        for g in gens:
            if g.symbol in seen:
                raise DocumentError(f"duplicate generator symbol {g.symbol!r}")
            seen.add(g.symbol)
        self._generators = gens
        self._index = {g.symbol: i + 1 for i, g in enumerate(gens)}
        self._index[UNIT_SYMBOL] = 0

    @property
    def generators(self) -> tuple:
        return self._generators

    @property
    def symbols(self) -> tuple:
        return (UNIT_SYMBOL,) + tuple(g.symbol for g in self._generators)

    def __len__(self):
        return len(self._generators) + 1

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise DocumentError(f"undeclared symbol {symbol!r}", token=symbol) from None

    def symbol(self, index: int) -> str:
        return self.symbols[index]

    def enclosure(self, index: int) -> Interval:
        if index == 0:
            return Interval.point(1)
        return self._generators[index - 1].enclosure

    def __eq__(self, other):
        if not isinstance(other, GeneratorTable):
            return NotImplemented
        return self._generators == other._generators

    def __hash__(self):
        return hash(self._generators)

    def __repr__(self):
        return f"GeneratorTable({list(self._generators)!r})"


class LinExpr:
    """An exact Q-linear combination of table generators plus the unit.

    Stored sparsely as (generator index, nonzero coefficient) pairs;
    equality and hashing are coefficient-map (plus table) equality.
    Arithmetic is exact and only mixes expressions over the same table.
    The hash and the enclosure are computed on first use and kept in
    write-once slots; the value itself never changes.
    """

    __slots__ = ("table", "_items", "_hash", "_enclosure")

    def __init__(self, table: GeneratorTable, coeffs=None):
        items = []
        if coeffs:
            n = len(table)
            for idx in sorted(coeffs):
                c = _as_fraction(coeffs[idx])
                if not 0 <= idx < n:
                    raise ValueError(f"generator index {idx} out of range")
                if c != 0:
                    items.append((idx, c))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_items", tuple(items))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_enclosure", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinExpr is immutable")

    def __reduce__(self):
        # as for Sqrt2Num; the copy recomputes its hash and enclosure on use
        return LinExpr, (self.table, self.coeffs)

    @classmethod
    def constant(cls, table: GeneratorTable, value) -> "LinExpr":
        return cls(table, {0: _as_fraction(value)})

    @classmethod
    def of_symbol(cls, table: GeneratorTable, symbol: str, coeff=1) -> "LinExpr":
        return cls(table, {table.index(symbol): _as_fraction(coeff)})

    @classmethod
    def zero(cls, table: GeneratorTable) -> "LinExpr":
        return cls(table)

    @property
    def coeffs(self) -> dict:
        return dict(self._items)

    def coeff(self, index: int) -> Fraction:
        for i, c in self._items:
            if i == index:
                return c
        return Fraction(0)

    def coeff_vector(self) -> list:
        """Dense coefficient list aligned with the table."""
        vec = [Fraction(0)] * len(self.table)
        for i, c in self._items:
            vec[i] = c
        return vec

    @property
    def is_zero(self) -> bool:
        return not self._items

    @property
    def is_constant(self) -> bool:
        return all(i == 0 for i, _ in self._items)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant expression")
        return self.coeff(0)

    def _check_table(self, other: "LinExpr"):
        if self.table is not other.table and self.table != other.table:
            raise TableMismatch("expressions belong to different generator tables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LinExpr.constant(self.table, other)
        if not isinstance(other, LinExpr):
            return NotImplemented
        self._check_table(other)
        out = dict(self._items)
        for i, c in other._items:
            out[i] = out.get(i, Fraction(0)) + c
        return LinExpr(self.table, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LinExpr.constant(self.table, other)
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LinExpr(self.table, {i: -c for i, c in self._items})

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return LinExpr(self.table, {i: c * scalar for i, c in self._items})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / _as_fraction(scalar))

    def __eq__(self, other):
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.table == other.table and self._items == other._items

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._items)
            object.__setattr__(self, "_hash", h)
        return h

    def eval_interval(self) -> Interval:
        """Certified enclosure of the real value, exact for constants."""
        out = self._enclosure
        if out is None:
            out = Interval.point(0)
            for i, c in self._items:
                out = out + self.table.enclosure(i).scale(c)
            object.__setattr__(self, "_enclosure", out)
        return out

    def midpoint(self) -> Fraction:
        """Rational midpoint of the enclosure (exact for constants)."""
        return self.eval_interval().midpoint

    def cmp(self, other: "LinExpr") -> int:
        """Exact three-way comparison: LESS, EQUAL or GREATER.

        Equal iff the coefficient maps coincide; otherwise the sign of
        the difference's enclosure decides.  Raises AmbiguousComparison
        when the enclosure of the difference still contains zero.

        Disjoint enclosures of the two sides already settle the sign: the
        difference's enclosure lies inside their interval difference.
        Only overlapping pairs build the difference.
        """
        if isinstance(other, (int, Fraction)):
            other = LinExpr.constant(self.table, other)
        self._check_table(other)
        if self._items == other._items:
            return EQUAL
        a, b = self._enclosure, other._enclosure
        if a is None:
            a = self.eval_interval()
        if b is None:
            b = other.eval_interval()
        if a.lo > b.hi:
            return GREATER
        if a.hi < b.lo:
            return LESS
        sign = (self - other).eval_interval().sign()
        if sign == 0:
            raise AmbiguousComparison.overlap(self, other)
        return sign

    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return f"LinExpr({format_expr(self)!r})"


def sqrt2_expr_to_num(e: LinExpr) -> Sqrt2Num:
    """Convert an expression supported on {1, sqrt2} into a Sqrt2Num."""
    idx = e.table.index("sqrt2") if "sqrt2" in e.table else None
    a = Fraction(0)
    b = Fraction(0)
    for i, c in e._items:
        if i == 0:
            a = c
        elif i == idx:
            b = c
        else:
            raise ValueError(f"{e} involves generators outside {{1, sqrt2}}")
    return Sqrt2Num(a, b)


# --- expression grammar -----------------------------------------------------
#
#   expr     := term (('+' | '-') term)*
#   term     := rational ('*' symbol)? | symbol
#   rational := ['-'] digits ('/' digits)?
#   symbol   := declared identifier ("1" is never written)
#
# Whitespace is insignificant.  Example: "2 + 1*sqrt2 - 1*sqrt3".

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<rational>-?\d+(?:/\d+)?)|(?P<symbol>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[+\-*])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DocumentError("unexpected character in expression", column=pos + 1, token=text[pos])
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return tokens


def parse_expr(text: str, table: GeneratorTable) -> LinExpr:
    """Parse an expression over ``table`` into a LinExpr.

    Errors carry the 1-based column and the offending token.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise DocumentError("empty expression", token=text)
    coeffs: dict[int, Fraction] = {}

    def add(idx, c):
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + c

    i = 0
    first = True
    while i < len(tokens):
        sign = Fraction(1)
        kind, value, col = tokens[i]
        if not first:
            if kind == "rational" and value.startswith("-"):
                # "2 -1*sqrt2": the '-' was swallowed by the rational token
                sign = Fraction(-1)
                value = value[1:]
            elif kind == "op" and value in "+-":
                if value == "-":
                    sign = Fraction(-1)
                i += 1
                if i >= len(tokens):
                    raise DocumentError("dangling operator", column=col, token=value)
                kind, value, col = tokens[i]
            else:
                raise DocumentError("expected '+' or '-'", column=col, token=value)
        first = False

        if kind == "rational":
            coeff = sign * parse_rational(value)
            i += 1
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "symbol":
                    bad = tokens[i] if i < len(tokens) else (None, "end of input", col)
                    raise DocumentError("expected a symbol after '*'", column=bad[2], token=bad[1])
                add(table.index(tokens[i][1]), coeff)
                i += 1
            else:
                add(0, coeff)
        elif kind == "symbol":
            add(table.index(value), sign)
            i += 1
        else:
            raise DocumentError("expected a rational or symbol", column=col, token=value)
    return LinExpr(table, coeffs)


def format_expr(e: LinExpr) -> str:
    """Canonical text form; ``parse_expr`` inverts it exactly.

    Unit terms print as plain rationals, generator terms always with an
    explicit coefficient ("1*sqrt2"), in table order.
    """
    if e.is_zero:
        return "0"
    parts = []
    for idx, c in e._items:
        body = rational_text(abs(c))
        if idx != 0:
            body = f"{body}*{e.table.symbol(idx)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)
