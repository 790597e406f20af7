"""Odd reflection graphs OR(g) and their atypicality quotients OR(g, lambda).

Vertices are Borel subalgebras, edges are odd reflections at isotropic
simple roots, and the edge color is the reflected root oriented into the
positive system of the reference (standard) Borel.  Pure roots never
color an edge.

Weight convention: every lambda-indexed operation takes the unshifted
weight; the walk machinery composes maps between the modules
M^b(lambda - rho^b).
"""

from __future__ import annotations

from collections import namedtuple

from .ecgraph import (
    ColoredGraph,
    Quotient,
    Walk,
    bfs_distances,
    make_walk,
    quotient_by_colors,
)
from .numerics import Weight
from .rootsys import (
    Borel,
    PreconditionViolated,
    Root,
    RootSystem,
    enumerate_borels,
    odd_reflect,
    partition_of_borel,
    pure_positive_roots,
)

__all__ = [
    "ORGraph",
    "AtypicalColorSet",
    "WalkHomVerdict",
    "TrivialIntersection",
    "HypercubicImage",
    "build_or_graph",
    "atypical_colors",
    "build_or_lambda",
    "rbtriv_check",
    "walk_hom_oracle",
    "image_intersection_kind",
    "semibrick_index_sets",
]


class ORGraph:
    """OR(g) with the dictionaries linking graph IDs back to root data.

    Compares and hashes by identity."""

    __slots__ = ("rs", "graph", "borel_of_vertex", "root_of_color")

    def __init__(self, rs: RootSystem, graph: ColoredGraph, borel_of_vertex: dict,
                 root_of_color: dict):
        self.rs = rs
        self.graph = graph
        self.borel_of_vertex = borel_of_vertex
        self.root_of_color = root_of_color

    def vertex_of_borel(self, b: Borel):
        for vid, bb in self.borel_of_vertex.items():
            if bb == b:
                return vid
        raise KeyError(f"Borel not in the enumeration: {b}")


def _vertex_label(rs: RootSystem, b: Borel, rank: int) -> str:
    if rs.family == "gl":
        parts = partition_of_borel(rs, b)
        return "".join(str(p) for p in parts) if parts else "∅"
    if rs.family == "gl11n":
        n = rs.params[0]
        bits = []
        pos = {r.vector for r in b.odd_positive}
        for i in range(1, n + 1):
            vec = rs.root_by_name(f"e{i}-d{n + 1 - i}").vector
            bits.append("0" if vec in pos else "1")
        return "".join(bits)
    return f"#{rank}"


def build_or_graph(rs: RootSystem) -> ORGraph:
    """Construct OR(g) from the Borel enumeration.

    Vertex IDs: partition labels for gl, bit strings for gl11n, #rank
    otherwise.  Colors: names of the non-pure isotropic roots positive
    for the reference Borel.
    """
    borels, edges = enumerate_borels(rs)
    ref = borels[0]
    pure, _ = pure_positive_roots(rs, borels)
    color_roots = [r for r in ref.odd_positive
                   if r.isotropic and r not in pure]
    color_roots.sort(key=lambda r: r.sort_key())
    colors = tuple(rs.root_name(r) for r in color_roots)
    root_of_color = {rs.root_name(r): r for r in color_roots}

    labels = [_vertex_label(rs, b, k) for k, b in enumerate(borels)]
    vertex_of = {k: labels[k] for k in range(len(borels))}
    graph_edges = []
    for u, i, v in edges:
        alpha = borels[u].simple[i - 1]
        # the color is the representative of {alpha, -alpha} positive
        # for the reference Borel
        if alpha in ref.odd_set():
            rep = alpha
        else:
            rep = rs.negate(alpha)
        assert rep in ref.odd_set(), "reflection root missing a reference sign"
        graph_edges.append((vertex_of[u], vertex_of[v], rs.root_name(rep)))
    graph = ColoredGraph(tuple(labels), colors, tuple(graph_edges))
    borel_of_vertex = {labels[k]: b for k, b in enumerate(borels)}
    return ORGraph(rs, graph, borel_of_vertex, root_of_color)


class AtypicalColorSet(namedtuple("_AtypicalColorSetFields", "lam colors")):
    __slots__ = ()

    def __contains__(self, c) -> bool:
        return c in self.colors


def atypical_colors(rs: RootSystem, og: ORGraph, lam: Weight) -> AtypicalColorSet:
    """D_lambda: the colors whose roots do not pair to zero with lambda."""
    orthogonal = rs.orthogonal_roots(lam, og.root_of_color.values())
    return AtypicalColorSet(lam, frozenset(
        c for c, root in og.root_of_color.items() if root not in orthogonal))


def build_or_lambda(rs: RootSystem, og: ORGraph, lam: Weight) -> Quotient:
    """OR(g, lambda) = OR(g) / D_lambda, with the class map."""
    d = atypical_colors(rs, og, lam)
    return quotient_by_colors(og.graph, d.colors)


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


def _project_walk(og: ORGraph, quotient: Quotient, w: Walk):
    """Image of a walk in the quotient: contracted steps dropped.

    Returns (class vertices, surviving colors).  A surviving step whose
    endpoints fall into one class would be a quotient loop; none occur
    on OR graphs and we refuse to guess.
    """
    vmap = quotient.vertex_map
    contracted = _d_colors(og, quotient)
    verts = [vmap[w.walk_vertices[0]]]
    colors = []
    for a, b, c in zip(w.walk_vertices, w.walk_vertices[1:], w.walk_colors):
        ca, cb = vmap[a], vmap[b]
        if ca == cb:
            if c not in contracted:
                raise AssertionError(
                    f"non-contracted step {a}-{b} collapsed to a loop")
            continue
        verts.append(cb)
        colors.append(c)
    return verts, colors


def _d_colors(og: ORGraph, quotient: Quotient) -> frozenset:
    return frozenset(og.graph.colors) - frozenset(quotient.graph.colors)


def walk_hom_oracle(rs: RootSystem, og: ORGraph, lam: Weight,
                    w: Walk) -> WalkHomVerdict:
    """Is the composition of Verma maps along w nonzero, and if so what
    PBW monomial represents it?

    The walk lives in OR(g); its projection to OR(g, lambda) decides the
    verdict (nonzero iff the projection is rainbow).
    """
    w = make_walk(og.graph, w.walk_vertices, w.walk_colors)
    quotient = build_or_lambda(rs, og, lam)
    _, colors = _project_walk(og, quotient, w)
    if len(set(colors)) != len(colors):
        return WalkHomVerdict.zero()
    start = og.borel_of_vertex[w.walk_vertices[0]]
    start_pos = start.odd_set()
    monomial = []
    for c in colors:
        root = og.root_of_color[c]
        if root not in start_pos:
            root = rs.negate(root)
        assert root in start_pos
        monomial.append(root)
    monomial.sort(key=lambda r: r.sort_key())
    assert len(set(monomial)) == len(monomial)
    return WalkHomVerdict(True, tuple(monomial))


class TrivialIntersection:
    """The two images meet only in zero; all instances are equal."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is TrivialIntersection or NotImplemented

    def __hash__(self):
        return hash(())


class HypercubicImage(namedtuple("_HypercubicImageFields", "borel")):
    __slots__ = ()


def image_intersection_kind(rs: RootSystem, b: Borel, lam: Weight,
                            i: int, j: int):
    """Intersection of the images of the two reflections r_i, r_j at b.

    For lambda orthogonal to both isotropic simple roots: the images
    inside M^b(lambda - rho^b) intersect trivially when the roots pair
    nonzero, and in the image of the double reflection when they are
    orthogonal.
    """
    if i == j:
        raise PreconditionViolated("need two distinct simple indices")
    n = len(b.simple)
    for k in (i, j):
        if not (1 <= k <= n):
            raise PreconditionViolated(f"simple index {k} out of range")
        root = b.simple[k - 1]
        if root.parity != "odd" or not root.isotropic:
            raise PreconditionViolated(
                f"simple root {rs.root_name(root)} is not odd isotropic")
    ai = b.simple[i - 1]
    aj = b.simple[j - 1]
    orthogonal = rs.orthogonal_roots(lam, (ai, aj))
    for root in (ai, aj):
        if root not in orthogonal:
            raise PreconditionViolated(
                f"lambda pairs nonzero with {rs.root_name(root)}")
    if rs.roots_orthogonal(ai, aj):
        return HypercubicImage(odd_reflect(rs, odd_reflect(rs, b, j), i))
    return TrivialIntersection()


def semibrick_index_sets(rs: RootSystem, og: ORGraph, lam: Weight,
                         bbar: Borel) -> dict:
    """I_b per Borel: isotropic simple indices i of b such that a rainbow
    path in OR(g, lambda) runs from the class of r_i b to the class of
    bbar, passing through the class of b.

    By the exchange property the rainbow walks are the geodesics, so such
    a path exists exactly when r_i b and b share a class, or a geodesic
    from the class of r_i b to that of bbar routes through the class of
    b: its distance to bbar is one more than that of b.
    """
    quotient = build_or_lambda(rs, og, lam)
    vmap = quotient.vertex_map
    dist_to_t = bfs_distances(quotient.graph, vmap[og.vertex_of_borel(bbar)])
    out = {}
    for vid, b in og.borel_of_vertex.items():
        v = vmap[vid]
        hit = set()
        for i in b.isotropic_simple_indices():
            u = vmap[og.vertex_of_borel(odd_reflect(rs, b, i))]
            if u == v or dist_to_t[u] == 1 + dist_to_t[v]:
                hit.add(i)
        out[b] = frozenset(hit)
    return out
