"""Exact scalars, weights and diagonal bilinear forms.

Every quantity lives in the degree <= 1 space Q + Q*a, where a is the
deformation parameter of the exceptional family.  There is no silent
promotion to a larger ring: a product that would reach degree 2 raises
DegreeOverflow.  Weights are coordinate vectors over these scalars,
stored as integers over one common denominator; all root coordinates in
practice are integers, the a-part exists so that user-supplied weights
can carry the parameter.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "DegreeOverflow",
    "RankMismatch",
    "SingularBasis",
    "Scalar",
    "scalar",
    "render_scalar",
    "parse_scalar",
    "Weight",
    "weight",
    "zero_weight",
    "render_weight",
    "parse_weight",
    "BilinearForm",
]


class DegreeOverflow(ArithmeticError):
    """A product of two a-carrying scalars would have degree 2."""


class RankMismatch(ValueError):
    """Vector lengths disagree with each other or with the form."""


class SingularBasis(ValueError):
    """The proposed basis is linearly dependent."""


class _DataclassFields:
    """The ``__dataclass_fields__`` of a record that is not a dataclass.

    bench/selftest.py plants wrong answers in four records through
    dataclasses.replace.  replace, fields and is_dataclass read only this
    class attribute, and replace then calls the record's constructor with
    its fields (the class's ``_fields``) as keywords.  The first read imports
    dataclasses, builds the table and caches it on the class, so only a
    caller of those functions pays for the import.  pprint reads
    ``__dataclass_params__`` of whatever is_dataclass accepts, so that is
    cached beside it.
    """

    def __get__(self, obj, cls):
        from dataclasses import make_dataclass

        made = make_dataclass(cls.__name__, cls._fields, frozen=True)
        cls.__dataclass_params__ = made.__dataclass_params__
        cls.__dataclass_fields__ = made.__dataclass_fields__
        return cls.__dataclass_fields__


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Scalar(namedtuple("_ScalarFields", "r s")):
    """An element r + s*a with r, s rational, kept in lowest terms.

    An immutable tuple (r, s), as Weight is; its + and * are the ring's,
    not the tuple's."""

    __slots__ = ()

    def __new__(cls, r, s):
        return tuple.__new__(cls, (_rat(r), _rat(s)))

    def is_zero(self, alpha: Fraction | None = None) -> bool:
        """Zero test, under the optional specialization a = alpha."""
        if alpha is None:
            return self.r == 0 and self.s == 0
        return self.r + self.s * alpha == 0

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.r, self.s)

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.r + other.r, self.s + other.s)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.r - other.r, self.s - other.s)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.r, -self.s)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(_rat(other), Fraction(0))
        if self.s != 0 and other.s != 0:
            raise DegreeOverflow(
                f"({render_scalar(self)})*({render_scalar(other)}) leaves the degree-1 space"
            )
        return Scalar(
            self.r * other.r,
            self.r * other.s + self.s * other.r,
        )

    __rmul__ = __mul__

    def __repr__(self):
        return f"Scalar({render_scalar(self)})"


def scalar(r=0, s=0) -> Scalar:
    return Scalar(_rat(r), _rat(s))


def _ratio(p: int, q: int) -> str:
    """p/q (q > 0) in lowest terms, written as str(Fraction(p, q))."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _render_coord(x: int, y: int, den: int) -> str:
    """The scalar (x + y*a)/den, for den > 0."""
    if y == 0:
        return _ratio(x, den)
    if x == 0:
        return _ratio(y, den) + "a"
    sign = "+" if y > 0 else "-"
    return f"{_ratio(x, den)}{sign}{_ratio(abs(y), den)}a"


def render_scalar(x: Scalar) -> str:
    den = lcm(x.r.denominator, x.s.denominator)
    return _render_coord(x.r.numerator * (den // x.r.denominator),
                         x.s.numerator * (den // x.s.denominator), den)


_ALPHA_RE = re.compile(
    r"^([+-]?\d+(?:/\d+)?)?\s*([+-])?\s*(\d+(?:/\d+)?)?\s*a$"
)


def parse_scalar(text: str) -> Scalar:
    """Parse 'p/q', 'p/q+r/s a', 'r/s a', 'a', '-a'."""
    t = text.strip()
    if "a" not in t:
        try:
            return scalar(Fraction(t))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse scalar {text!r}") from None
    m = _ALPHA_RE.match(t)
    if not m:
        raise ValueError(f"cannot parse scalar {text!r}")
    lead, sign, coeff = m.groups()
    if sign is None and coeff is None:
        # everything before 'a' is the a-coefficient, as in '1/2a' or '-a'
        s = Fraction(lead) if lead else Fraction(1)
        return Scalar(Fraction(0), s)
    r = Fraction(lead) if lead else Fraction(0)
    s = Fraction(coeff) if coeff else Fraction(1)
    if sign == "-":
        s = -s
    return Scalar(r, s)


def _coerce_coord(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return scalar(_rat(x))


class Weight(namedtuple("_WeightFields", "r s den")):
    """A coordinate vector in the fixed orthogonal-ish basis of h*.

    Coordinate i is (r[i] + s[i]*a) / den, with den > 0 and
    gcd(den, *r, *s) = 1, so equal weights have equal fields.
    Weight(coords) takes Scalars, ints or Fractions, Weight.of the
    integers; Scalar coordinates are built only on demand.

    A Weight is the immutable tuple (r, s, den): its field reads,
    construction, hash and == run in C, and it equals the plain tuple of
    its fields.  It has no order (<, <=, > and >= raise TypeError), and
    w * c raises TypeError where a tuple would repeat: use scaled(c).
    """

    __slots__ = ()

    def __new__(cls, coords):
        coords = tuple(map(_coerce_coord, coords))
        # the least common denominator leaves the fields in lowest terms
        den = lcm(*(c.r.denominator for c in coords), *(c.s.denominator for c in coords))
        return tuple.__new__(cls, (
            tuple(c.r.numerator * (den // c.r.denominator) for c in coords),
            tuple(c.s.numerator * (den // c.s.denominator) for c in coords), den))

    @classmethod
    def of(cls, r, s=None, den: int = 1) -> "Weight":
        """The weight with coordinates (r[i] + s[i]*a) / den, for integers
        r, s (zero when omitted) and den > 0, in lowest terms."""
        r = tuple(r)
        s = (0,) * len(r) if s is None else tuple(s)
        if len(s) != len(r) or den <= 0:
            raise ValueError(f"not a weight: {len(r)} r, {len(s)} s, den {den}")
        g = 1 if den == 1 else gcd(den, *r, *s)
        if g != 1:
            r, s, den = tuple(x // g for x in r), tuple(x // g for x in s), den // g
        return tuple.__new__(cls, (r, s, den))

    def __reduce__(self):
        # the inherited __getnewargs__ would call __new__ with the fields
        return (Weight.of, tuple(self))

    def _no_order(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _no_order

    def __mul__(self, other):
        # raised, not NotImplemented, which would fall back to tuple repetition
        raise TypeError("a Weight is multiplied through scaled(c)")

    __rmul__ = __mul__

    @property
    def coords(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(Fraction(x, self.den), Fraction(y, self.den))
                     for x, y in zip(self.r, self.s))

    @property
    def rank(self) -> int:
        return len(self.r)

    def is_zero(self, alpha: Fraction | None = None) -> bool:
        if alpha is None:
            return not any(self.r + self.s)
        return not any(x * alpha.denominator + y * alpha.numerator
                       for x, y in zip(self.r, self.s))

    def is_rational(self) -> bool:
        return not any(self.s)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def _combine(self, other: "Weight", sign: int) -> "Weight":
        """self + sign * other."""
        if len(self.r) != len(other.r):
            raise RankMismatch(f"rank {len(self.r)} vs {len(other.r)}")
        den = lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return Weight.of(tuple(p * x + q * y for x, y in zip(self.r, other.r)),
                         tuple(p * x + q * y for x, y in zip(self.s, other.s)), den)

    def __add__(self, other: "Weight") -> "Weight":
        return self._combine(other, 1)

    def __sub__(self, other: "Weight") -> "Weight":
        return self._combine(other, -1)

    def __neg__(self) -> "Weight":
        return Weight.of(tuple(-x for x in self.r), tuple(-x for x in self.s), self.den)

    def scaled(self, c) -> "Weight":
        c = _coerce_coord(c)
        return Weight(tuple(a * c for a in self.coords))

    def __repr__(self):
        return f"Weight({render_weight(self)})"


def weight(*coords) -> Weight:
    return Weight(tuple(coords))


def zero_weight(rank: int) -> Weight:
    return Weight.of((0,) * rank)


def render_weight(w: Weight) -> str:
    return ",".join(_render_coord(x, y, w.den) for x, y in zip(w.r, w.s))


def parse_weight(text: str, rank: int | None = None) -> Weight:
    parts = text.split(",")
    w = Weight(tuple(parse_scalar(p) for p in parts))
    if rank is not None and w.rank != rank:
        raise RankMismatch(f"expected {rank} coordinates, got {w.rank}")
    return w


class BilinearForm(namedtuple("_BilinearFormFields", "diagonal")):
    """Diagonal symmetric form; entry i is the value on the i-th basis vector."""

    __slots__ = ()

    def __new__(cls, diagonal):
        return tuple.__new__(cls, (tuple(map(_coerce_coord, diagonal)),))

    @property
    def rank(self) -> int:
        return len(self.diagonal)
