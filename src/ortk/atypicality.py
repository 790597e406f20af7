"""Typicality tests and the S1 singleton classifier.

The classifier reports three certified sets over the isotropic roots:
members forced in by the simple-root and non-pure criteria, members
forced out by the positivity bound, and the undecided remainder, which
holds every pure root.  Emptiness of S1 is settled exactly for type I
families and for D(2,1;alpha).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .numerics import Weight, _DataclassFields
from .rootsys import Borel, RootSystem, enumerate_borels, pure_positive_roots, weyl_vector

__all__ = [
    "Emptiness",
    "S1Classification",
    "is_typical",
    "s1_classify",
]


class Emptiness(Enum):
    EMPTY = "empty"
    NONEMPTY = "nonempty"
    UNDETERMINED = "undetermined"


class S1Classification(namedtuple("_S1ClassificationFields",
                                   "certified_in certified_out unknown emptiness_verdict")):
    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()


def is_typical(rs: RootSystem, b: Borel, lam: Weight) -> bool:
    """No isotropic root pairs to zero with lam + rho^b."""
    return not rs.orthogonal_roots(lam + weyl_vector(rs, b), rs.delta_iso)


def s1_classify(rs: RootSystem, b: Borel, lam: Weight,
                gamma_bound: int | None = None) -> S1Classification:
    """Certified bounds for S1 of the module with highest weight lam.

    A positive isotropic root is in when it is simple and orthogonal to
    lam, or not pure and orthogonal to lam + rho; it is out when it is
    negative, or simple and not orthogonal to lam.  A pure isotropic root
    beta always stays unknown.  The even-root route would certify it by a
    Borel bbar and a gamma in the even cone with a one-dimensional weight
    space beta + gamma below the top of M^bbar.  On the Borels that
    enumerate_borels gives, that space has dimension at least 2:

    * Never simple.  beta is not in bbar.simple: enumerate_borels
      reflects at every isotropic simple root, which would give an
      enumerated Borel where -beta is positive.
    * Two monomials at gamma = 0.  bbar.simple holds the positive roots
      that are no sum of two (a test oracle checks this), so beta = a + c
      over the positive roots of bbar, with a != c, because every odd
      root vector has a +-1 coordinate.  f_-beta and f_-a f_-c are two
      PBW monomials at top - beta.
    * Monotone in gamma.  Appending a fixed even-simple decomposition of
      gamma maps the partitions of beta injectively into those of
      beta + gamma.

    gamma_bound is unused; it bounded the search this proof replaces.
    """
    rho = weyl_vector(rs, b)
    shifted = lam + rho
    pos = {r for r in b.odd_positive if r.isotropic}
    borels, _ = enumerate_borels(rs)
    _, pure_iso = pure_positive_roots(rs, borels)
    simples = {b.simple[i - 1] for i in b.isotropic_simple_indices()}
    orthogonal = rs.orthogonal_roots(shifted, pos)
    # on simples (lam, alpha) = (lam + rho, alpha)
    simple_orthogonal = rs.orthogonal_roots(lam, simples)
    cin, cout = set(), set()
    for r in rs.delta_iso:
        if r not in pos:
            cout.add(r)
        elif r in simples:
            if r in simple_orthogonal:
                cin.add(r)
            else:
                cout.add(r)
        elif r in orthogonal and r not in pure_iso:
            cin.add(r)
    unknown = set(rs.delta_iso) - cin - cout
    if cin:
        verdict = Emptiness.NONEMPTY
    elif rs.type_one or rs.family == "d21alpha":
        verdict = (Emptiness.EMPTY if is_typical(rs, b, lam)
                   else Emptiness.NONEMPTY)
    else:
        verdict = Emptiness.UNDETERMINED
    return S1Classification(frozenset(cin), frozenset(cout),
                            frozenset(unknown), verdict)
