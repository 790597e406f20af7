"""Odd reflection graphs OR(g) and their atypicality quotients OR(g, lambda).

Vertices are Borel subalgebras, edges are odd reflections at isotropic
simple roots, and the edge color is the reflected root oriented into the
positive system of the reference (standard) Borel.  Pure roots never
color an edge.  build_or_graph reads all of this from the Borel
enumeration's odd masks and root indices (rootsys): the pure roots, the
colors, each edge's color and the gl and gl(1|1)^n vertex labels are
bit operations, with one root name per color.

D_lambda, the colors whose roots pair nonzero with lambda, is a plain
frozenset of color names (atypical_colors); contracting it gives
OR(g, lambda).  The images of two reflections at isotropic simple roots
of b, with lambda orthogonal to both, meet trivially unless the roots
are orthogonal (rs.roots_orthogonal), and then in the image of the
double reflection, two edges of OR(g).

The walk path reads two tables that an ORGraph builds on first use: the
colors' root supports, |colors| entries, over which atypical_colors
pairs lambda with the sparse kernel of rootsys; and, per start vertex,
the colors' roots oriented into that Borel's positives, at most
|V| * |colors| entries, from which walk_hom_oracle reads its monomial.

Weight convention: every lambda-indexed operation takes the unshifted
weight; the walk machinery composes maps between the modules
M^b(lambda - rho^b).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from operator import not_

from .ecgraph import (
    ColoredGraph,
    Quotient,
    Walk,
    _contract,
    make_walk,
    partition_label,
    quotient_by_colors,
)
from .numerics import Weight
from .rootsys import (
    Borel,
    Root,
    RootSystem,
    _partition_of_mask,
    _young_box,
    enumerate_borels,
)

__all__ = [
    "ORGraph",
    "WalkHomVerdict",
    "build_or_graph",
    "atypical_colors",
    "build_or_lambda",
    "rbtriv_check",
    "walk_hom_oracle",
    "semibrick_index_sets",
]


class ORGraph:
    """OR(g) with the dictionary linking color names back to roots.

    Vertex k of graph is Borel k of enumerate_borels(rs), so a Borel's
    rank is its vertex's position in graph.vertices (graph._vindex), and
    edge (u, i, v) of the enumeration is the graph edge between vertices
    u and v.  Compares and hashes by identity.

    Two tables serve the walk path; each is built on first use, never by
    build_or_graph, and neither hashes a Root when read:
    - _color_table, built by the first atypical_colors call: the color
      names and their roots' supports, two tuples in color order, so
      |colors| entries;
    - _oriented, one row per start vertex that walk_hom_oracle was asked
      about: vertex index -> {color: its root oriented into that Borel's
      positives}, so at most |V| * |colors| entries.
    """

    __slots__ = ("graph", "root_of_color", "_color_table", "_oriented")

    def __init__(self, graph: ColoredGraph, root_of_color: dict):
        self.graph = graph
        self.root_of_color = root_of_color
        self._color_table: tuple | None = None
        self._oriented: dict[int, dict] = {}


def _vertex_labels(rs: RootSystem, masks: tuple[int, ...]) -> list[str]:
    """The label of each Borel, read from its odd mask: its Young diagram
    for gl, for gl11n the bit string whose i-th bit is 0 when the Borel
    holds e_i - d_{n+1-i}, else #rank."""
    if rs.family == "gl":
        box = _young_box(rs)
        return [partition_label(_partition_of_mask(box, mask)) for mask in masks]
    if rs.family == "gl11n":
        # e_i - d_{n+1-i} are the standard odd positives; canonical order,
        # which is index order, lists them from i = n down to i = 1
        bits = [k for k in range(len(rs.delta1)) if rs._standard_mask >> k & 1][::-1]
        return ["".join("0" if mask >> k & 1 else "1" for k in bits) for mask in masks]
    return [f"#{k}" for k in range(len(masks))]


def build_or_graph(rs: RootSystem) -> ORGraph:
    """Construct OR(g) from the Borel enumeration.

    Vertex IDs: partition labels for gl, bit strings for gl11n, #rank
    otherwise.  Colors: names of the non-pure isotropic roots positive
    for the reference Borel, in canonical order.

    Everything is read from the enumeration's odd masks (rs._borel_masks)
    and root indices: the pure odd roots are the AND of the masks, the
    colors the isotropic non-pure bits of the reference mask, and an
    edge's color the reference-positive one of the two bits that its
    reflection flips, a and N-1-a with N = len(delta1).
    """
    _, edges = enumerate_borels(rs)
    masks, ix, pure = rs._borel_masks, rs._root_index, rs._pure_mask
    ref = masks[0]
    color_bits = [k for k in sorted(ix.iso) if ref >> k & 1 and not pure >> k & 1]
    name_of = {k: rs.root_name(ix.roots[k]) for k in color_bits}
    root_of_color = {name_of[k]: ix.roots[k] for k in color_bits}

    labels = _vertex_labels(rs, masks)
    last = len(rs.delta1) - 1
    graph_edges = []
    for u, _, v in edges:
        flipped = masks[u] ^ masks[v]
        a = (flipped & -flipped).bit_length() - 1
        # the color is the representative of {alpha, -alpha} positive
        # for the reference Borel
        c = a if ref >> a & 1 else last - a
        if not ref >> c & 1:
            raise AssertionError("reflection root missing a reference sign")
        graph_edges.append((labels[u], labels[v], name_of[c]))
    return ORGraph(ColoredGraph(tuple(labels), tuple(name_of.values()), tuple(graph_edges)),
                   root_of_color)


def atypical_colors(rs: RootSystem, og: ORGraph, lam: Weight) -> frozenset:
    """D_lambda: the colors whose roots do not pair to zero with lambda."""
    if og._color_table is None:
        og._color_table = (tuple(og.root_of_color),
                           tuple(root.support for root in og.root_of_color.values()))
    colors, supports = og._color_table
    return frozenset(compress(colors, map(not_, rs._pairs_to_zero(lam, supports))))


def build_or_lambda(rs: RootSystem, og: ORGraph, lam: Weight) -> Quotient:
    """OR(g, lambda) = OR(g) / D_lambda, with the class map."""
    return quotient_by_colors(og.graph, atypical_colors(rs, og, lam))


def rbtriv_check(rs: RootSystem, og: ORGraph, lam: Weight) -> bool:
    """Does OR(g, lambda) consist of a single point?"""
    return len(build_or_lambda(rs, og, lam).graph.vertices) == 1


class WalkHomVerdict(namedtuple("_WalkHomVerdictFields", "nonzero monomial")):
    """Outcome for a composition of Verma homomorphisms along a walk.

    nonzero=True carries the PBW monomial: the distinct roots of the
    non-contracted steps, oriented into the start Borel's positives.
    """

    __slots__ = ()

    @staticmethod
    def zero() -> "WalkHomVerdict":
        return WalkHomVerdict(False, ())


def walk_hom_oracle(rs: RootSystem, og: ORGraph, lam: Weight,
                    w: Walk) -> WalkHomVerdict:
    """Is the composition of Verma maps along w nonzero, and if so what
    PBW monomial represents it?

    The walk lives in OR(g); its projection to OR(g, lambda) decides the
    verdict (nonzero iff the projection is rainbow).  A step survives the
    projection exactly when its color is not in D_lambda, unless a kept
    edge collapses to a loop of the quotient; none occur on OR graphs,
    and we refuse to guess.
    """
    w = make_walk(og.graph, w.walk_vertices, w.walk_colors)
    contracted = atypical_colors(rs, og, lam)
    if _contract(og.graph, contracted).loops:
        raise AssertionError("a non-contracted edge collapsed to a loop of OR(g, lambda)")
    colors = [c for c in w.walk_colors if c not in contracted]
    if len(set(colors)) != len(colors):
        return WalkHomVerdict.zero()
    row = _oriented_row(rs, og, og.graph._vindex[w.walk_vertices[0]])
    return WalkHomVerdict(True, tuple(sorted(map(row.__getitem__, colors), key=Root.sort_key)))


def _oriented_row(rs: RootSystem, og: ORGraph, k: int) -> dict:
    """The row of og._oriented for start vertex k, built on first use:
    color -> its root oriented into the positives of Borel k.  Distinct
    colors have distinct roots there, so a walk's distinct kept colors
    give a monomial of distinct roots."""
    row = og._oriented.get(k)
    if row is None:
        start_pos = enumerate_borels(rs)[0][k].odd_set()
        row = {}
        for c, root in og.root_of_color.items():
            if root not in start_pos:
                root = rs.negate(root)
            assert root in start_pos
            row[c] = root
        assert len(set(row.values())) == len(row)
        og._oriented[k] = row
    return row


def semibrick_index_sets(rs: RootSystem, og: ORGraph, lam: Weight,
                         bbar: Borel) -> dict:
    """I_b per Borel: isotropic simple indices i of b such that a rainbow
    path in OR(g, lambda) runs from the class of r_i b to the class of
    bbar, passing through the class of b.

    By the exchange property the rainbow walks are the geodesics, so such
    a path exists exactly when r_i b and b share a class, or a geodesic
    from the class of r_i b to that of bbar routes through the class of
    b: its distance to bbar is one more than that of b.  The reflections
    are the enumeration's edges: (u, i, v) is r_i u = v and r_i v = u,
    and every isotropic simple index of every Borel lies in one edge.

    bbar must be one of the Borels of enumerate_borels(rs)[0], and the
    result is keyed by those Borels: a Borel compares by identity.
    """
    borels, edges = enumerate_borels(rs)
    quotient = build_or_lambda(rs, og, lam)
    g = quotient.graph
    # the quotient vertex of each Borel rank, and the distances to bbar's
    cls = [g._vindex[quotient.vertex_map[vid]] for vid in og.graph.vertices]
    dist = g._walk_index.dist[cls[borels.index(bbar)]]
    hit = [set() for _ in borels]
    for u, i, v in edges:
        cu, cv = cls[u], cls[v]
        if cu == cv or dist[cv] == 1 + dist[cu]:
            hit[u].add(i)
        if cu == cv or dist[cu] == 1 + dist[cv]:
            hit[v].add(i)
    return {b: frozenset(h) for b, h in zip(borels, hit)}
