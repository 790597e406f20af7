"""Exact formal characters over the fixed even denominator.

A character is stored as its numerator: a finite integer combination of
exponentials e^w, understood over the common denominator
prod_{gamma in Delta_0^+} (1 - e^{-gamma}).  All identities the package
checks are then finite polynomial identities between numerators.

Weight multiplicities are computed independently through Kostant
partition counts: the odd-subset sums of each free set are kept grouped
by lattice class, so a multiplicity reads only the class of its head,
the one class whose sums can land on the even-root lattice.  Each class
runs by descending coordinate sum, so the scan stops at the first sum
too low to leave a nonnegative even-simple vector, and skips the others
with a negative coordinate.

The kernels run on integer vectors: numerators as offsets from their
leading weight, Kostant searches in the coordinates of the RootSystem
integer layer.  Each numerator is also kept as integer columns, one per
coordinate, for every (odd set, den) a weight has asked for, so a Verma
character's terms are built by C-level map and zip with no Python loop
per term.  Weights are built only for the caller.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import lcm
from operator import add, mul

from .numerics import Weight, render_weight
from .rootsys import Borel, RootSystem

__all__ = [
    "NumeratorCharacter",
    "MultiplicityQuery",
    "verma_character",
    "kostant_partitions",
    "weight_multiplicity",
    "character_weight_multiplicity",
    "kac_flag_constituents",
    "total_dimension",
    "character_to_json",
]


class NumeratorCharacter:
    """Numerator of a character over the fixed even denominator.

    terms is kept as given, without a copy, unless it holds a zero
    coefficient; then it is rebuilt without the zeros.  verma_character,
    whose terms hold no zero, builds its characters without that scan.
    Characters with equal terms are equal; a character is mutable, so it
    has no hash."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        if 0 in terms.values():
            terms = {w: c for w, c in terms.items() if c != 0}
        self.terms = terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms


def _times_factors(terms: dict, factors) -> dict:
    """terms * prod_{beta in factors} (1 + e^beta), over integer vectors.

    The one kernel behind numerators, brick sums and merged PBW subset
    sums: equal exponents merge as they appear."""
    out = dict(terms)
    for beta in factors:
        for w, c in list(out.items()):
            u = tuple(a + b for a, b in zip(w, beta))
            out[u] = out.get(u, 0) + c
    return out


def _numerator(rs: RootSystem, delta_a) -> dict:
    """Numerator of ch M^a(0) as {integer offset: coefficient}; built once
    per odd set and kept in rs._numerators, so callers only read it: the
    brick checks compare it, and _numerator_columns reads it once."""
    delta_a = frozenset(delta_a)
    terms = rs._numerators.get(delta_a)
    if terms is None:
        stray = delta_a - set(rs.delta1)
        if stray:
            raise ValueError(
                f"delta_a contains non odd roots: {[rs.root_name(r) for r in stray]}")
        factors = [r.vector.r for r in rs.delta1 if r not in delta_a]
        terms = _times_factors({(0,) * rs.rank: 1}, factors)
        rs._numerators[delta_a] = terms
    return terms


def _numerator_columns(rs: RootSystem, delta_a, den: int) -> tuple:
    """The numerator of delta_a as (columns, coefficients): columns[i] is
    coordinate i of every offset times den, coefficients the matching
    coefficients, in the order of _numerator's dict.  Built once per
    (odd set, den) and kept in rs._columns; den 1 is the dict's offsets
    as they are, every other den scales them."""
    delta_a = frozenset(delta_a)
    entry = rs._columns.get((delta_a, den))
    if entry is None:
        if den == 1:
            terms = _numerator(rs, delta_a)
            entry = (tuple(zip(*terms)), tuple(terms.values()))
        else:
            unit, coeffs = _numerator_columns(rs, delta_a, 1)
            entry = (tuple(tuple(map(den.__mul__, col)) for col in unit), coeffs)
        rs._columns[delta_a, den] = entry
    return entry


def _as_weights(rs: RootSystem, delta_a, lam: Weight) -> dict:
    """{lam + offset: coefficient} over the numerator of delta_a.

    Each term has the fields (lam.r + lam.den * offset, lam.s, lam.den),
    built column by column in C: coordinate i of every term is
    lam.r[i] + column i.  Adding multiples of den to r leaves
    gcd(den, *r, *s) as it is, 1, so the terms are in lowest terms
    without a reduction."""
    r, s, den = lam
    cols, coeffs = _numerator_columns(rs, delta_a, den)
    rows = zip(*[map(add, repeat(x), col) for x, col in zip(r, cols)])
    return dict(zip(map(tuple.__new__, repeat(Weight), zip(rows, repeat(s), repeat(den))),
                    coeffs))


def verma_character(rs: RootSystem, delta_a, lam: Weight) -> NumeratorCharacter:
    """Numerator of ch M^a(lam): e^lam prod_{odd beta not in delta_a}(1+e^beta).

    delta_a = the odd part of the adjusted Borel; the ordinary Verma for
    a Borel b uses delta_a = its positive odd roots, induction from the
    even subalgebra uses delta_a = empty set.

    Each coefficient counts the subsets of the factors that sum to its
    offset, so none is 0, and the constructor's scan for zeros is
    skipped.
    """
    c = object.__new__(NumeratorCharacter)
    c.terms = _as_weights(rs, delta_a, lam)
    return c


def _kostant_count(rs: RootSystem, key: tuple[int, ...]) -> int:
    """Partitions of the nonnegative even-simple coordinate vector key."""
    roots = rs._even_root_coords
    memo = rs._kostant_counts

    def count(rem, i):
        if not any(rem):
            return 1
        if i == len(roots):
            return 0
        state = (rem, i)
        hit = memo.get(state)
        if hit is not None:
            return hit
        total = count(rem, i + 1)
        cur = rem
        root = roots[i]
        while True:
            cur = tuple(a - b for a, b in zip(cur, root))
            if any(a < 0 for a in cur):
                break
            total += count(cur, i + 1)
        memo[state] = total
        return total

    return count(key, 0)


def _kostant_scaled(rs: RootSystem, x) -> int:
    """Kostant count of the vector whose RootSystem.lattice_coords are x."""
    n, den = len(rs.even_simple), rs.coord_denominator
    if any(x[n:]) or any(c < 0 or c % den for c in x[:n]):
        return 0
    return _kostant_count(rs, tuple(c // den for c in x[:n]))


def kostant_partitions(rs: RootSystem, v: Weight) -> int:
    """Number of ways to write v as a nonnegative integer combination of
    the even positive roots."""
    x = rs.lattice_coords(v)
    return 0 if x is None else _kostant_scaled(rs, x)


class MultiplicityQuery(namedtuple("_MultiplicityQueryFields", "free_odd base target")):
    """Weight multiplicity query for a PBW-style character.

    free_odd: the signed odd roots whose root vectors may appear at most
    once; base: the leading exponent; target: the queried weight.
    """

    __slots__ = ()

    def __new__(cls, free_odd, base: Weight, target: Weight):
        return tuple.__new__(cls, (frozenset(free_odd), base, target))


def weight_multiplicity(rs: RootSystem, q: MultiplicityQuery) -> int:
    """Sum over the subsets S of free_odd of the Kostant count of
    base - target + sum(S), counted once per distinct sum.

    Only the sums in the lattice class of -head, head = base - target,
    make head + sum(S) an integer vector of the even-simple cone's span,
    and of those only the ones with no negative coordinate count."""
    classes = _subset_sums(rs, q.free_odd)
    head = rs.lattice_coords(q.base - q.target)
    # root sums have integer scaled coordinates, so a fractional head
    # coordinate (head None) rules out every subset
    if head is None:
        return 0
    n, den = len(rs.even_simple), rs.coord_denominator
    lead = head[:n]
    sums = classes.get((tuple(-c for c in head[n:]), tuple(-c % den for c in lead)))
    if sums is None:
        return 0
    # in this class (lead + x) / den = ceil(lead / den) + x // den
    up = tuple(-(-c // den) for c in lead)
    # a nonnegative up + x has sum(up) + sum(x) >= 0, and the class runs
    # by descending sum(x), so no later sum can count
    floor = -sum(up)
    total = 0
    for x, subsets in sums:
        if sum(x) < floor:
            break
        key = tuple(map(add, up, x))
        if min(key, default=0) >= 0:
            total += subsets * _kostant_count(rs, key)
    return total


def _subset_sums(rs: RootSystem, free_odd: frozenset) -> dict:
    """The sums sum(S) over the subsets S of free_odd, in height_coords,
    grouped by lattice class: {(x[n:], x[:n] mod den): ((x[:n] // den,
    number of subsets S with sum x), ...)}, n even simple roots and den
    the coord_denominator, each class sorted by descending coordinate
    sum of x[:n] // den.  Built once per free set and kept in
    rs._subset_sums; a head reads only its own class."""
    classes = rs._subset_sums.get(free_odd)
    if classes is None:
        if not free_odd <= set(rs.delta1):
            raise ValueError("free_odd must consist of odd roots")
        sums = _times_factors({(0,) * rs.rank: 1},
                              [rs.height_coords(r.vector.r) for r in free_odd])
        n, den = len(rs.even_simple), rs.coord_denominator
        grouped = {}
        for x, subsets in sums.items():
            lead = x[:n]
            key = (x[n:], tuple(c % den for c in lead))
            grouped.setdefault(key, []).append((tuple(c // den for c in lead), subsets))
        classes = {key: tuple(sorted(pairs, key=lambda p: sum(p[0]), reverse=True))
                   for key, pairs in grouped.items()}
        rs._subset_sums[free_odd] = classes
    return classes


def character_weight_multiplicity(rs: RootSystem, c: NumeratorCharacter,
                                  mu: Weight) -> int:
    """Coefficient of e^mu in the expanded character numerator/denominator."""
    return sum(coeff * kostant_partitions(rs, w - mu)
               for w, coeff in c.terms.items())


def kac_flag_constituents(rs: RootSystem, b: Borel, lam: Weight):
    """Highest weights of the Verma flag of Ind M_0(lam), with
    multiplicity, ordered by height then coordinates."""
    # lam plus every subset sum of the odd positive roots, one per subset:
    # the numerator whose odd set is their negatives
    terms = _as_weights(rs, map(rs.negate, b.odd_positive), lam)
    return _height_sorted(rs, [w for w, c in terms.items() for _ in range(c)])


def total_dimension(c: NumeratorCharacter, rs: RootSystem):
    """Sum of coefficients when the even denominator is trivial; None
    marks an infinite-dimensional character."""
    if rs.even_positive:
        return None
    return sum(c.terms.values())


def _height_sorted(rs: RootSystem, weights) -> list:
    """weights sorted by even-simple height (extended by zero on a fixed
    complement basis), then coordinate by coordinate as (rational part,
    a-part), compared as integers over their common denominator."""
    den = lcm(*(w.den for w in weights))
    height_row = rs._inverse_height[2]

    def key(w):
        k = den // w.den
        return (sum(map(mul, height_row, w.r)) * k,
                [x * k for pair in zip(w.r, w.s) for x in pair])

    return sorted(weights, key=key)


def character_to_json(rs: RootSystem, c: NumeratorCharacter):
    return [{"weight": render_weight(w), "coeff": c.terms[w]}
            for w in _height_sorted(rs, c.terms)]
