"""Exact formal characters over the fixed even denominator.

A character is stored as its numerator: a finite integer combination of
exponentials e^w, understood over the common denominator
prod_{gamma in Delta_0^+} (1 - e^{-gamma}).  All identities the package
checks are then finite polynomial identities between numerators.

Weight multiplicities are computed independently through Kostant
partition counts: the odd-subset sums of each free set are kept grouped
by lattice class, so a multiplicity reads only the class of its head,
the one class whose sums can land on the even-root lattice, and skips
the sums with a negative even-simple coordinate.

The kernels run on integer vectors: numerators as offsets from their
leading weight, Kostant searches in the coordinates of the RootSystem
integer layer.  Weights are built only for the caller.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import add, mul

from .numerics import Weight, render_weight
from .rootsys import Borel, RootSystem

__all__ = [
    "NumeratorCharacter",
    "MultiplicityQuery",
    "verma_character",
    "characters_equal",
    "char_add",
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
    coefficient; then it is rebuilt without the zeros.  Characters with
    equal terms are equal; a character is mutable, so it has no hash."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        if 0 in terms.values():
            terms = {w: c for w, c in terms.items() if c != 0}
        self.terms = terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def coefficient(self, w: Weight) -> int:
        return self.terms.get(w, 0)


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
    per odd set and kept in rs._kostant_memo, so callers only read it."""
    delta_a = frozenset(delta_a)
    # the tag keeps the key apart from _subset_sums' bare free-set keys
    key = ("numerator", delta_a)
    terms = rs._kostant_memo.get(key)
    if terms is None:
        stray = delta_a - set(rs.delta1)
        if stray:
            raise ValueError(
                f"delta_a contains non odd roots: {[rs.root_name(r) for r in stray]}")
        factors = [r.vector.r for r in rs.delta1 if r not in delta_a]
        terms = _times_factors({(0,) * rs.rank: 1}, factors)
        rs._kostant_memo[key] = terms
    return terms


def _as_weights(lam: Weight, offsets: dict) -> dict:
    """{lam + offset: coefficient} for integer offsets.

    Each term has the fields (lam.r + lam.den * offset, lam.s, lam.den).
    Adding multiples of den to r leaves gcd(den, *r, *s) as it is, 1, so
    the terms are in lowest terms without a reduction."""
    r, s, den = lam
    new = tuple.__new__
    if den == 1:
        return {new(Weight, (tuple(map(add, r, off)), s, 1)): c
                for off, c in offsets.items()}
    scale = den.__mul__
    return {new(Weight, (tuple(map(add, r, map(scale, off))), s, den)): c
            for off, c in offsets.items()}


def verma_character(rs: RootSystem, delta_a, lam: Weight) -> NumeratorCharacter:
    """Numerator of ch M^a(lam): e^lam prod_{odd beta not in delta_a}(1+e^beta).

    delta_a = the odd part of the adjusted Borel; the ordinary Verma for
    a Borel b uses delta_a = its positive odd roots, induction from the
    even subalgebra uses delta_a = empty set.
    """
    return NumeratorCharacter(_as_weights(lam, _numerator(rs, delta_a)))


def characters_equal(c1: NumeratorCharacter, c2: NumeratorCharacter) -> bool:
    return c1.terms == c2.terms


def char_add(c1: NumeratorCharacter, c2: NumeratorCharacter) -> NumeratorCharacter:
    terms = dict(c1.terms)
    for w, c in c2.terms.items():
        terms[w] = terms.get(w, 0) + c
    return NumeratorCharacter(terms)


def _even_root_table(rs: RootSystem):
    """Even positive roots in even-simple coordinates, cached per system."""
    table = rs._kostant_memo.get("roots")
    if table is None:
        table = []
        n, den = len(rs.even_simple), rs.coord_denominator
        for gamma in rs.even_positive:
            coords = rs.height_coords(gamma.vector.r)
            assert not any(coords[n:])
            assert all(c % den == 0 for c in coords[:n])
            ints = tuple(c // den for c in coords[:n])
            assert all(i >= 0 for i in ints) and sum(ints) >= 1
            table.append(ints)
        table.sort(reverse=True)
        rs._kostant_memo["roots"] = table
    return table


def _kostant_count(rs: RootSystem, key: tuple[int, ...]) -> int:
    """Partitions of the nonnegative even-simple coordinate vector key."""
    roots = _even_root_table(rs)
    memo = rs._kostant_memo

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
    total = 0
    for x, subsets in sums.items():
        key = tuple(map(add, up, x))
        if min(key, default=0) >= 0:
            total += subsets * _kostant_count(rs, key)
    return total


def _subset_sums(rs: RootSystem, free_odd: frozenset) -> dict:
    """The sums sum(S) over the subsets S of free_odd, in height_coords,
    grouped by lattice class: {(x[n:], x[:n] mod den): {x[:n] // den:
    number of subsets S with sum x}}, n even simple roots and den the
    coord_denominator.  Built once per free set and kept in
    rs._kostant_memo; a head reads only its own class."""
    classes = rs._kostant_memo.get(free_odd)
    if classes is None:
        if not free_odd <= set(rs.delta1):
            raise ValueError("free_odd must consist of odd roots")
        sums = _times_factors({(0,) * rs.rank: 1},
                              [rs.height_coords(r.vector.r) for r in free_odd])
        n, den = len(rs.even_simple), rs.coord_denominator
        classes = {}
        for x, subsets in sums.items():
            lead = x[:n]
            key = (x[n:], tuple(c % den for c in lead))
            classes.setdefault(key, {})[tuple(c // den for c in lead)] = subsets
        rs._kostant_memo[free_odd] = classes
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
    sums = _numerator(rs, map(rs.negate, b.odd_positive))
    return _height_sorted(rs, [w for w, c in _as_weights(lam, sums).items() for _ in range(c)])


def total_dimension(c: NumeratorCharacter, rs: RootSystem):
    """Sum of coefficients when the even denominator is trivial; None
    marks an infinite-dimensional character."""
    if rs.even_positive:
        return None
    return sum(c.terms.values())


def _height_sorted(rs: RootSystem, weights) -> list:
    """weights in (rs.sort_height, sort_key) order, compared as integers
    over their common denominator."""
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
