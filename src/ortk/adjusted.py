"""Adjusted Borel subalgebras, hypercubic collections, brick windows.

An adjusted subalgebra is described by its odd root set delta_a, which
together with the positive even roots must be closed under root sums;
opposite odd pairs force an orthogonality condition on the weight.
Hypercubic collections are the orthogonal families of isotropic simple
roots along which a Borel can be reflected in one step.
"""

from __future__ import annotations

import itertools

from collections import namedtuple
from enum import Enum

from .characters import _numerator, _times_factors, character_weight_multiplicity
from .numerics import Weight, zero_weight
from .rootsys import (
    Borel,
    NotIsotropicSimple,
    PreconditionViolated,
    RootSystem,
    odd_reflect,
)

__all__ = [
    "AdjustedBorel",
    "HypercubicCollection",
    "SplitVerdict",
    "is_lambda_adjusted",
    "hypercubic_collections",
    "reflect_along",
    "borel_meet_join",
    "brick_decomposition_check",
    "split_criterion",
    "semibrick_character_check",
]


class AdjustedBorel(namedtuple("_AdjustedBorelFields", "delta_a base_borel")):
    """Odd part of an adjusted subalgebra, kept with its base Borel."""

    __slots__ = ()

    def __new__(cls, delta_a, base_borel: Borel):
        return tuple.__new__(cls, (frozenset(delta_a), base_borel))


class HypercubicCollection(namedtuple("_HypercubicCollectionFields", "j sigma roots lam")):
    """Orthogonal family of isotropic simple roots, orthogonal to lam."""

    __slots__ = ()

    def __new__(cls, j, sigma: Weight, roots, lam: Weight):
        return tuple.__new__(cls, (frozenset(j), sigma, tuple(roots), lam))


class SplitVerdict(Enum):
    INDECOMPOSABLE = "indecomposable"
    DECOMPOSABLE = "decomposable"


def is_lambda_adjusted(rs: RootSystem, delta_a, lam: Weight) -> bool:
    """Closure of Delta_0^+ with delta_a under root sums, plus (lam, beta) = 0
    whenever both signs of beta sit in delta_a."""
    delta_a = set(delta_a)
    stray = delta_a - set(rs.delta1)
    if stray:
        raise ValueError(
            f"delta_a contains non odd roots: {[rs.root_name(r) for r in stray]}")
    pool = [r.vector.r for r in rs.even_positive] + [r.vector.r for r in delta_a]
    allowed = set(pool)
    for u, v in itertools.combinations_with_replacement(pool, 2):
        s = tuple(a + b for a, b in zip(u, v))
        if rs.root_from_ivec(s) is not None and s not in allowed:
            return False
    paired = [r for r in delta_a if rs.negate(r) in delta_a]
    return rs.orthogonal_roots(lam, paired) == set(paired)


def hypercubic_collections(rs: RootSystem, b: Borel, lam: Weight):
    """All subsets of isotropic simple indices that are pairwise orthogonal
    and orthogonal to lam, the empty set included."""
    indices = b.isotropic_simple_indices()
    orthogonal = rs.orthogonal_roots(lam, (b.simple[i - 1] for i in indices))
    candidates = [i for i in indices if b.simple[i - 1] in orthogonal]
    out = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if not all(rs.roots_orthogonal(b.simple[i - 1], b.simple[j - 1])
                       for i, j in itertools.combinations(combo, 2)):
                continue
            sigma = zero_weight(len(rs.basis_names))
            for i in combo:
                sigma = sigma + b.simple[i - 1].vector
            out.append(HypercubicCollection(
                j=frozenset(combo),
                sigma=sigma,
                roots=tuple(b.simple[i - 1] for i in combo),
                lam=lam))
    out.sort(key=lambda c: (len(c.j), tuple(sorted(c.j))))
    return out


def reflect_along(rs: RootSystem, b: Borel, coll: HypercubicCollection) -> Borel:
    """r_J b: reflect at each collection root in turn.  Orthogonality keeps
    every remaining root simple along the way; a root that is not simple
    in the Borel reached raises PreconditionViolated."""
    cur = b
    for r in coll.roots:
        idx = None
        for k, s in enumerate(cur.simple, start=1):
            if s.vector == r.vector:
                idx = k
                break
        if idx is None:
            raise PreconditionViolated(
                f"collection root {rs.root_name(r)} is not simple in the Borel reached")
        cur = odd_reflect(rs, cur, idx)
    return cur


def borel_meet_join(rs: RootSystem, b: Borel, coll: HypercubicCollection):
    """Odd parts of b intersect r_J b and b + r_J b.

    Raises PreconditionViolated unless every collection root is simple
    in b.  For a collection of hypercubic_collections(rs, b, lam) both
    parts are lam-adjusted; the tests check that on the pinned grid."""
    stray = set(coll.roots) - set(b.simple)
    if stray:
        raise PreconditionViolated(
            f"collection roots {sorted(map(rs.root_name, stray))} are not simple in b")
    pos = set(b.odd_positive)
    meet = frozenset(pos - set(coll.roots))
    join = frozenset(pos | {rs.negate(r) for r in coll.roots})
    return AdjustedBorel(meet, b), AdjustedBorel(join, b)


def brick_decomposition_check(rs: RootSystem, b: Borel, lam: Weight,
                              coll: HypercubicCollection) -> bool:
    """ch M^{b cap r_J b}(lam) against the 4^|J| brick characters
    M^{b + r_J b}(lam - sigma_{J_1} + sigma_{J_2})."""
    meet_a, join_a = borel_meet_join(rs, b, coll)
    # both sides as offsets from lam, neither depending on lam
    return _numerator(rs, meet_a.delta_a) == _brick_sum(rs, join_a.delta_a)


def _brick_sum(rs: RootSystem, join: frozenset) -> dict:
    """The 4^|J| brick numerators summed, as offsets from lam; built once
    per join odd set and kept in rs._kostant_memo.

    The brick shifts -sigma_{J_1} + sigma_{J_2} are the exponents of
    prod_{beta in J} (1 + e^-beta)(1 + e^beta).  The join roots whose
    negatives are in the join too are the roots of J and their negatives,
    and the product is symmetric under beta <-> -beta, so it depends only
    on the join odd set: b and r_J b share one entry."""
    key = ("brick", join)
    total = rs._kostant_memo.get(key)
    if total is None:
        shifts = [beta.vector.r for beta in join if rs.negate(beta) in join]
        total = _times_factors(_numerator(rs, join), shifts)
        rs._kostant_memo[key] = total
    return total


def split_criterion(rs: RootSystem, b: Borel, lam: Weight, i: int) -> SplitVerdict:
    """Decomposability of M^{b cap r_alpha b}(lam) for a single isotropic
    simple root alpha: indecomposable exactly when (lam, alpha) = 0.

    The verdict rests on the two exact sequences whose character
    identities tests/test_adjusted.py checks: M^{b cap r b}(lam) against
    M^{rb}(lam - alpha) + M^{rb}(lam) and against M^b(lam + alpha) + M^b(lam).
    """
    if not (1 <= i <= len(b.simple)):
        raise NotIsotropicSimple(f"no simple root at index {i}")
    alpha = b.simple[i - 1]
    if not alpha.isotropic:
        raise NotIsotropicSimple(
            f"simple root {rs.root_name(alpha)} is not isotropic")
    if alpha in rs.orthogonal_roots(lam, (alpha,)):
        return SplitVerdict.INDECOMPOSABLE
    return SplitVerdict.DECOMPOSABLE


def semibrick_character_check(rs: RootSystem, bricks) -> bool:
    """No brick has weight-space overlap at another brick's highest weight."""
    for lam, c in bricks:
        if character_weight_multiplicity(rs, c, lam) != 1:
            raise ValueError("brick character must have multiplicity 1 "
                             "at its own highest weight")
    for (la, ca), (lb, cb) in itertools.permutations(bricks, 2):
        if character_weight_multiplicity(rs, ca, lb) != 0:
            return False
    return True
