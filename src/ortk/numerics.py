"""Exact scalars, weights and diagonal bilinear forms.

Every quantity lives in the degree <= 1 space Q + Q*a, where a is the
deformation parameter of the exceptional family.  There is no silent
promotion to a larger ring: a product that would reach degree 2 raises
DegreeOverflow.  Weights are coordinate vectors over these scalars; all
root coordinates in practice are plain rationals, the a-part exists so
that user-supplied weights can carry the parameter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "DegreeOverflow",
    "RankMismatch",
    "SingularBasis",
    "NotInSpan",
    "Scalar",
    "SCALAR_ZERO",
    "SCALAR_ONE",
    "scalar",
    "render_scalar",
    "parse_scalar",
    "Weight",
    "weight",
    "zero_weight",
    "render_weight",
    "parse_weight",
    "BilinearForm",
    "inner_product",
    "expand_in_basis",
]


class DegreeOverflow(ArithmeticError):
    """A product of two a-carrying scalars would have degree 2."""


class RankMismatch(ValueError):
    """Vector lengths disagree with each other or with the form."""


class SingularBasis(ValueError):
    """The proposed basis is linearly dependent."""


class NotInSpan(ValueError):
    """The vector is not a combination of the given basis."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Scalar:
    """An element r + s*a with r, s rational, kept in lowest terms."""

    r: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", _rat(self.r))
        object.__setattr__(self, "s", _rat(self.s))

    def __hash__(self):
        # cached on first use: Fraction hashing is slow, and many scalars
        # are built but never hashed
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.r, self.s))
            object.__setattr__(self, "_hash", h)
        return h

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


SCALAR_ZERO = scalar(0)
SCALAR_ONE = scalar(1)


def render_scalar(x: Scalar) -> str:
    if x.s == 0:
        return str(x.r)
    a_part = f"{x.s}a"
    if x.r == 0:
        return a_part
    sign = "+" if x.s > 0 else "-"
    return f"{x.r}{sign}{abs(x.s)}a"


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


@dataclass(frozen=True)
class Weight:
    """A coordinate vector in the fixed orthogonal-ish basis of h*."""

    coords: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_coerce_coord(c) for c in self.coords))

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.coords)
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self, alpha: Fraction | None = None) -> bool:
        return all(c.is_zero(alpha) for c in self.coords)

    def is_rational(self) -> bool:
        return all(c.s == 0 for c in self.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def _check(self, other: "Weight"):
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scaled(self, c) -> "Weight":
        c = _coerce_coord(c)
        return Weight(tuple(a * c for a in self.coords))

    def __repr__(self):
        return f"Weight({render_weight(self)})"


def weight(*coords) -> Weight:
    return Weight(tuple(coords))


def zero_weight(rank: int) -> Weight:
    return Weight((SCALAR_ZERO,) * rank)


def render_weight(w: Weight) -> str:
    return ",".join(render_scalar(c) for c in w.coords)


def parse_weight(text: str, rank: int | None = None) -> Weight:
    parts = text.split(",")
    w = Weight(tuple(parse_scalar(p) for p in parts))
    if rank is not None and w.rank != rank:
        raise RankMismatch(f"expected {rank} coordinates, got {w.rank}")
    return w


@dataclass(frozen=True)
class BilinearForm:
    """Diagonal symmetric form; entry i is the value on the i-th basis vector."""

    diagonal: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "diagonal", tuple(_coerce_coord(c) for c in self.diagonal)
        )

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def inner_product(v: Weight, w: Weight, form: BilinearForm) -> Scalar:
    if v.rank != w.rank or v.rank != form.rank:
        raise RankMismatch(
            f"ranks {v.rank}, {w.rank} against form of rank {form.rank}"
        )
    total = SCALAR_ZERO
    for a, b, d in zip(v.coords, w.coords, form.diagonal):
        total = total + a * b * d
    return total


def expand_in_basis(v: Weight, basis: list[Weight]) -> list[Scalar]:
    """Coefficients of v in the given basis, solved exactly over Q.

    The basis vectors must have rational coordinates; v may carry an
    a-part, which is solved for separately (the system is Q-linear).
    Raises SingularBasis if the basis is dependent, NotInSpan if v has
    no solution.
    """
    rank = v.rank
    for b in basis:
        if b.rank != rank:
            raise RankMismatch(f"basis vector rank {b.rank}, expected {rank}")
        if not b.is_rational():
            raise DegreeOverflow("basis vectors must have rational coordinates")
    ncols = len(basis)
    # augmented columns: rational part of v, then a-part of v
    rows = [
        [basis[j].coords[i].r for j in range(ncols)]
        + [v.coords[i].r, v.coords[i].s]
        for i in range(rank)
    ]
    pivot_of_col: list[int | None] = [None] * ncols
    prow = 0
    for col in range(ncols):
        pivot = next((i for i in range(prow, rank) if rows[i][col] != 0), None)
        if pivot is None:
            raise SingularBasis(f"basis vector {col} is dependent on earlier ones")
        rows[prow], rows[pivot] = rows[pivot], rows[prow]
        inv = 1 / rows[prow][col]
        rows[prow] = [x * inv for x in rows[prow]]
        for i in range(rank):
            if i != prow and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[prow])]
        pivot_of_col[col] = prow
        prow += 1
    for i in range(prow, rank):
        if rows[i][ncols] != 0 or rows[i][ncols + 1] != 0:
            raise NotInSpan(f"{render_weight(v)} is outside the span")
    return [
        Scalar(rows[pivot_of_col[j]][ncols], rows[pivot_of_col[j]][ncols + 1])
        for j in range(ncols)
    ]
