"""Exact scalars and weights.

Every quantity lives in the degree <= 1 space Q + Q*a, where a is the
deformation parameter of the exceptional family.  Weights are coordinate
vectors over these scalars, stored as integers over one common
denominator; all root coordinates in practice are integers, the a-part
exists so that user-supplied weights can carry the parameter.  A root
system's diagonal bilinear form is a Weight too: entry i is the form's
value on the i-th basis vector.  A Scalar is the parsed form of one
coordinate, read and written at the I/O boundary; it has no arithmetic.
The pairing kernel in rootsys raises DegreeOverflow where a pairing
would leave the degree-1 space.
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
    "parse_rational",
    "parse_scalar",
    "Weight",
    "zero_weight",
    "render_weight",
    "parse_weight",
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
    """An element r + s*a with r, s rational: the immutable tuple (r, s)
    that parse_scalar reads and Weight.coords gives."""

    __slots__ = ()

    def __new__(cls, r, s):
        return tuple.__new__(cls, (_rat(r), _rat(s)))


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


_RATIONAL = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(rf"[+-]?{_RATIONAL}")
_ALPHA_RE = re.compile(rf"([+-]?{_RATIONAL})?\s*([+-])?\s*({_RATIONAL})?\s*a")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' in ASCII digits, with an optional sign and
    surrounding spaces.  Anything else, a zero denominator included,
    raises ValueError."""
    if not _RATIONAL_RE.fullmatch(text.strip()):
        raise ValueError(f"cannot parse rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse rational {text!r}") from None


def parse_scalar(text: str) -> Scalar:
    """Parse 'p/q', 'p/q+r/s a', 'r/s a', 'a', '-a', with ASCII digits.  A
    rational part and an a-coefficient need a sign between them; anything
    else, a zero denominator included, raises ValueError."""
    t = text.strip()
    try:
        if "a" not in t:
            return scalar(parse_rational(t))
        m = _ALPHA_RE.fullmatch(t)
        if m:
            lead, sign, coeff = m.groups()
            if sign is None and coeff is None:
                # everything before 'a' is the a-coefficient, as in '1/2a' or '-a'
                return Scalar(0, parse_rational(lead) if lead else 1)
            if sign is not None:
                r = parse_rational(lead) if lead else 0
                s = parse_rational(coeff) if coeff else 1
                return Scalar(r, -s if sign == "-" else s)
    except ValueError:
        pass
    raise ValueError(f"cannot parse scalar {text!r}")


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
    w * c raises TypeError where a tuple would repeat: a multiple of a
    weight is built from its Scalar coords.
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
        raise TypeError("a Weight has no product; scale its Scalar coords")

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

