"""Adjusted Borel subalgebras, hypercubic collections, brick checks.

An adjusted subalgebra is described by its odd root set delta_a, which
together with the positive even roots must be closed under root sums;
opposite odd pairs force an orthogonality condition on the weight.
Hypercubic collections are the orthogonal families of isotropic simple
roots along which a Borel can be reflected in one step: r_J b is
reached by the odd reflection at each root of J in turn, a walk along
the edges of enumerate_borels.  borel_meet_join gives the odd
sets of b cap r_J b and b + r_J b as plain frozensets, which the brick
check and verma_character take as they are.

Only the orthogonality to lambda depends on the weight.  A collection's
indices J, roots and sigma, and its brick verdict, are fixed by the
Borel: b keeps every pairwise orthogonal J as a finished collection,
and each verdict from its first check.  hypercubic_collections pairs
lambda with the isotropic simple roots once and keeps the collections
inside the orthogonal ones; brick_decomposition_check reads the kept
verdict.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import combinations, compress

from .characters import _numerator, _times_factors
from .numerics import Weight
from .rootsys import (
    Borel,
    NotIsotropicSimple,
    PreconditionViolated,
    RootSystem,
)

__all__ = [
    "HypercubicCollection",
    "SplitVerdict",
    "hypercubic_collections",
    "borel_meet_join",
    "brick_decomposition_check",
    "split_criterion",
]


class HypercubicCollection(namedtuple("_HypercubicCollectionFields", "j sigma roots")):
    """Orthogonal family of isotropic simple roots: their indices j in the
    Borel's simple system, the roots, and their sum sigma."""

    __slots__ = ()

    def __new__(cls, j, sigma: Weight, roots):
        return tuple.__new__(cls, (frozenset(j), sigma, tuple(roots)))


class SplitVerdict(Enum):
    INDECOMPOSABLE = "indecomposable"
    DECOMPOSABLE = "decomposable"


def hypercubic_collections(rs: RootSystem, b: Borel, lam: Weight):
    """All subsets of isotropic simple indices that are pairwise orthogonal
    and orthogonal to lam, the empty set included, by size and then by
    sorted indices: a new list of b's collections whose roots lam pairs
    to zero with."""
    indices, roots = b._isotropic_simple()
    candidates = frozenset(compress(indices, rs._pairs_to_zero(lam, [r.support for r in roots])))
    return [c for c in _collections(rs, b) if c.j <= candidates]


def _collections(rs: RootSystem, b: Borel) -> tuple[HypercubicCollection, ...]:
    """Every hypercubic collection of b, lam aside: the pairwise orthogonal
    subsets J of its isotropic simple indices, by size and then by sorted
    J, with their roots and sigma.  Built on the first call and kept on b."""
    try:
        return b._collections
    except AttributeError:
        indices, roots = b._isotropic_simple()
        root_of = dict(zip(indices, roots))
        zero = (0,) * rs.rank
        out = []
        # combinations of the ascending indices come in sorted order
        for size in range(len(indices) + 1):
            for combo in combinations(indices, size):
                if all(rs.roots_orthogonal(root_of[i], root_of[j])
                       for i, j in combinations(combo, 2)):
                    vectors = [root_of[i].vector.r for i in combo]
                    out.append(HypercubicCollection(
                        combo, Weight.of(map(sum, zip(zero, *vectors))),
                        [root_of[i] for i in combo]))
        return b._keep("_collections", tuple(out))


def borel_meet_join(rs: RootSystem, b: Borel, coll: HypercubicCollection):
    """Odd parts of b intersect r_J b and b + r_J b, as two frozensets.

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
    return meet, join


def brick_decomposition_check(rs: RootSystem, b: Borel, lam: Weight,
                              coll: HypercubicCollection) -> bool:
    """ch M^{b cap r_J b}(lam) against the 4^|J| brick characters
    M^{b + r_J b}(lam - sigma_{J_1} + sigma_{J_2}).

    Both sides are offsets from lam, so the verdict does not depend on
    lam.  b keeps it by the collection's root set, from the first check
    of that set, which passed borel_meet_join's precondition: a set
    that fails it is never kept, and raises on every call."""
    try:
        verdicts = b._brick_verdicts
    except AttributeError:
        verdicts = b._keep("_brick_verdicts", {})
    key = frozenset(coll.roots)
    verdict = verdicts.get(key)
    if verdict is None:
        meet, join = borel_meet_join(rs, b, coll)
        verdict = verdicts[key] = _numerator(rs, meet) == _brick_sum(rs, join)
    return verdict


def _brick_sum(rs: RootSystem, join: frozenset) -> dict:
    """The 4^|J| brick numerators summed, as offsets from lam; built once
    per join odd set and kept in rs._bricks.

    The brick shifts -sigma_{J_1} + sigma_{J_2} are the exponents of
    prod_{beta in J} (1 + e^-beta)(1 + e^beta).  The join roots whose
    negatives are in the join too are the roots of J and their negatives,
    and the product is symmetric under beta <-> -beta, so it depends only
    on the join odd set: b and r_J b share one entry."""
    total = rs._bricks.get(join)
    if total is None:
        shifts = [beta.vector.r for beta in join if rs.negate(beta) in join]
        total = _times_factors(_numerator(rs, join), shifts)
        rs._bricks[join] = total
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

