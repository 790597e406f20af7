"""Typicality tests and the S1 singleton classifier.

The classifier reports three certified sets over the isotropic roots:
members forced in by the simple-root and non-pure criteria (plus the
even-root witness route for pure roots), members forced out by the
positivity bound, and the undecided remainder.  Emptiness of S1 is
settled exactly for type I families and for D(2,1;alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb

from .characters import _shifted_kostant_sum, _subset_sums, cone_membership
from .manifest import GAMMA_BOUND, GAMMA_GRID_MAX
from .numerics import Weight
from .rootsys import (
    Borel,
    PreconditionViolated,
    Root,
    RootSystem,
    enumerate_borels,
    pure_positive_roots,
    weyl_vector,
)

__all__ = [
    "Emptiness",
    "S1Classification",
    "is_typical",
    "s1_classify",
    "simple_even_witness",
]


class Emptiness(Enum):
    EMPTY = "empty"
    NONEMPTY = "nonempty"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class S1Classification:
    certified_in: frozenset
    certified_out: frozenset
    unknown: frozenset
    emptiness_verdict: Emptiness


def is_typical(rs: RootSystem, b: Borel, lam: Weight) -> bool:
    """No isotropic root pairs to zero with lam + rho^b."""
    return not rs.orthogonal_roots(lam + weyl_vector(rs, b), rs.delta_iso)


def _check_gamma_bound(rs: RootSystem, bound: int):
    """Reject a negative bound, and a bound whose grid would have more than
    GAMMA_GRID_MAX points, before any grid is built."""
    if bound < 0:
        raise ValueError(f"gamma bound must be >= 0, got {bound}")
    # one point per composition of a height up to bound into k parts
    points = comb(bound + len(rs.even_simple), len(rs.even_simple))
    if points > GAMMA_GRID_MAX:
        raise ValueError(
            f"gamma bound {bound} gives {points} grid points, "
            f"over the cap of {GAMMA_GRID_MAX}")


def _gamma_grid(rs: RootSystem, bound: int):
    """Nonnegative integer combinations of the even simple roots with
    coefficient sum (height) up to bound, in (height, coordinates) order."""
    layer = {(0,) * rs.rank}
    grid = sorted(layer)
    for _ in range(bound):
        layer = {tuple(a + b for a, b in zip(v, r.vector.r))
                 for v in layer for r in rs.even_simple}
        grid += sorted(layer)
    return [Weight.of(v) for v in grid]


def simple_even_witness(rs: RootSystem, beta: Root, lam: Weight,
                        gamma_bound: int = GAMMA_BOUND):
    """Search for (bbar, gamma) certifying the pure root beta.

    lam is the shift-free weight: the module in question is
    M^bbar(lam - rho^bbar).  Returns the first pair, in Borel
    enumeration order then gamma order, with
      gamma - beta outside the positive cone of bbar,
      (beta, rho^bbar + gamma) = 0,
      weight multiplicity one at lam - rho^bbar - beta - gamma;
    or None when the bounded search is exhausted.  A gamma_bound below 0,
    or one whose grid would pass GAMMA_GRID_MAX points, raises ValueError.
    That weight lies beta + gamma below the top, so lam enters only
    through the precondition (beta, lam) = 0.
    """
    _check_gamma_bound(rs, gamma_bound)
    borels, _ = enumerate_borels(rs)
    _, pure_iso = pure_positive_roots(rs, borels)
    if beta not in pure_iso:
        raise PreconditionViolated(
            f"{rs.root_name(beta)} is not a pure positive isotropic root")
    if beta not in rs.orthogonal_roots(lam, (beta,)):
        raise PreconditionViolated(
            f"lambda is not orthogonal to {rs.root_name(beta)}")
    grid = _gamma_grid(rs, gamma_bound)
    for bbar in borels:
        rho = weyl_vector(rs, bbar)
        sums = _subset_sums(rs, (0,) * rs.rank, [rs.negate(r) for r in bbar.odd_positive])
        for gamma in grid:
            if not rs.orthogonal_roots(rho + gamma, (beta,)):
                continue
            if cone_membership(rs, gamma - beta.vector, bbar.simple):
                continue
            if _shifted_kostant_sum(rs, rs.lattice_coords(beta.vector + gamma), sums) == 1:
                return bbar, gamma
    return None


def s1_classify(rs: RootSystem, b: Borel, lam: Weight,
                gamma_bound: int = GAMMA_BOUND) -> S1Classification:
    """Certified bounds for S1 of the module with highest weight lam.
    A gamma_bound below 0, or one whose grid would pass GAMMA_GRID_MAX
    points, raises ValueError."""
    _check_gamma_bound(rs, gamma_bound)
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
        elif r in pure_iso:
            if r in orthogonal and simple_even_witness(
                    rs, r, shifted, gamma_bound) is not None:
                cin.add(r)
        elif r in orthogonal:
            cin.add(r)
    unknown = set(rs.delta_iso) - cin - cout
    assert not (cin & cout)
    if cin:
        verdict = Emptiness.NONEMPTY
    elif rs.type_one or rs.family == "d21alpha":
        verdict = (Emptiness.EMPTY if is_typical(rs, b, lam)
                   else Emptiness.NONEMPTY)
    else:
        verdict = Emptiness.UNDETERMINED
    return S1Classification(frozenset(cin), frozenset(cout),
                            frozenset(unknown), verdict)
