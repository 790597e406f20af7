"""Pinned verification suite: families, weight grids, and search bounds.

Every sweep in the package reads its inputs from here, so repeated runs
cover the same ground in the same order.  Weights are written as
coordinate strings in each family's basis order; d21alpha entries carry
no sizes and run with the generic symbolic parameter.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "GridEntry",
    "IsoCheck",
    "LAMBDA_GRID",
    "ISO_SUITE",
    "GAMMA_BOUND",
    "PHI_DEPTH",
    "QUIVER_MAX_LEN",
    "WALK_SEED",
    "WALKS_PER_PAIR",
    "grid_families",
    "grid_size",
]


GridEntry = namedtuple("GridEntry", "family m n weights")
IsoCheck = namedtuple("IsoCheck", "family m n reference vertices")


LAMBDA_GRID = (
    GridEntry("gl", 1, 1, ("0,0", "1,0", "1,-1", "1,1", "2,-1")),
    GridEntry("gl", 2, 1, ("0,0,0", "1,0,0", "2,1,0", "1,1,-1", "0,0,1")),
    GridEntry("gl", 2, 2, ("0,0,0,0", "1,0,0,0", "1,0,0,-1", "3,1,0,0", "1,1,-1,-1")),
    GridEntry("gl", 3, 2, ("0,0,0,0,0", "1,0,0,0,0", "2,1,0,0,-1", "1,1,1,0,0")),
    GridEntry("gl11n", None, 1, ("0,0", "1,0")),
    GridEntry("gl11n", None, 2, ("0,0,0,0", "1,0,0,0", "1,1,0,-1", "2,0,1,0")),
    GridEntry("gl11n", None, 3, ("0,0,0,0,0,0", "1,0,0,0,0,0", "1,1,1,0,0,-1", "0,1,0,1,0,1")),
    GridEntry("ospB", 1, 1, ("0,0", "1,0", "0,1", "2,1")),
    GridEntry("ospB", 2, 1, ("0,0,0", "1,0,0", "1,1,0", "2,1,1")),
    GridEntry("ospB", 2, 2, ("0,0,0,0", "1,0,0,0", "2,1,1,0")),
    GridEntry("ospD", 1, 2, ("0,0,0", "1,0,0", "1,1,1")),
    GridEntry("ospD", 2, 2, ("0,0,0,0", "1,0,0,0", "2,1,1,0")),
    GridEntry("d21alpha", None, None, ("0,0,0", "1,1,1", "1,1,-1", "2,1,1")),
)

ISO_SUITE = (
    IsoCheck("gl", 1, 1, "young", 2),
    IsoCheck("gl", 2, 1, "young", 3),
    IsoCheck("gl", 2, 2, "young", 6),
    IsoCheck("gl", 3, 2, "young", 10),
    IsoCheck("gl", 3, 3, "young", 20),
    IsoCheck("gl11n", None, 1, "hypercube", 2),
    IsoCheck("gl11n", None, 2, "hypercube", 4),
    IsoCheck("gl11n", None, 3, "hypercube", 8),
    IsoCheck("gl11n", None, 4, "hypercube", 16),
    IsoCheck("gl11n", None, 5, "hypercube", 32),
    IsoCheck("ospB", 1, 1, "young", 2),
    IsoCheck("ospB", 1, 2, "young", 3),
    IsoCheck("ospB", 2, 1, "young", 3),
    IsoCheck("ospB", 2, 2, "young", 6),
)

# bounded the even-root witness search that s1_classify's proof replaced;
# the tests' brute-force witness oracle and the benchmark still read it
GAMMA_BOUND = 4

# truncation depth for the brute-force character expansion oracle
PHI_DEPTH = 4

# path length bound for the quiver presets (stabilization is checked one past it)
QUIVER_MAX_LEN = 3

WALK_SEED = 20250816
WALKS_PER_PAIR = 25


def grid_families() -> tuple:
    """The distinct (family, m, n) triples of the weight grid, grid order."""
    seen = []
    for entry in LAMBDA_GRID:
        key = (entry.family, entry.m, entry.n)
        if key not in seen:
            seen.append(key)
    return tuple(seen)


def grid_size() -> int:
    return sum(len(entry.weights) for entry in LAMBDA_GRID)
