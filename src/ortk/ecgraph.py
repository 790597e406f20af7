"""Finite edge-colored graphs.

Walks, the walk index (BFS distances, BFS trees and rainbow walks),
color-set quotients, edge-colored isomorphism, the exchange and
rainbow-extension verifiers, and the two reference families (Young
lattices in a box, hypercubes).

Vertices and colors are opaque hashable IDs.  Edges are unordered pairs
with a color; loops are forbidden, parallel edges of distinct colors are
allowed.
"""

import itertools

from array import array
from collections import namedtuple
from functools import cached_property, partial

from .numerics import _DataclassFields


class InvalidWalk(ValueError):
    pass


class DisconnectedEndpoints(ValueError):
    pass


class ColoredGraph:
    """Immutable edge-colored graph.

    edges holds normalized triples (u, v, c) with u before v in vertex
    order; construction rejects loops, unknown endpoints or colors, and
    duplicate triples.  A graph compares and hashes by identity; two
    graphs have the same structure when their (vertices, colors, edges)
    are equal.

    _vindex maps each vertex to its position in vertices.  Tables that
    depend only on the graph are built on first use and kept for its
    lifetime: _walk_index (integer adjacency, the BFS rows of every
    source, the rainbow-walk states and the extension frontiers, the one
    place distances are computed: read by the exchange and extension
    checks, the semibrick index sets and the walks suite), _color_degrees
    and _match_order (read by the isomorphism search) and _quotients.
    The checks' reports are never kept.
    """

    # no __slots__: the cached properties live in __dict__

    def __init__(self, vertices: tuple, colors: tuple, edges: tuple):
        vs = tuple(vertices)
        cs = tuple(colors)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex IDs")
        if len(set(cs)) != len(cs):
            raise ValueError("duplicate color IDs")
        vindex = {v: k for k, v in enumerate(vs)}
        cindex = {c: k for k, c in enumerate(cs)}
        normalized = []
        for u, v, c in edges:
            if u not in vindex or v not in vindex:
                raise ValueError(f"edge endpoint not a vertex: {(u, v, c)}")
            if u == v:
                raise ValueError(f"loop edge not allowed: {(u, v, c)}")
            if c not in cindex:
                raise ValueError(f"edge color not declared: {(u, v, c)}")
            if vindex[u] > vindex[v]:
                u, v = v, u
            normalized.append((u, v, c))
        normalized.sort(key=lambda e: (vindex[e[0]], vindex[e[1]], cindex[e[2]]))
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate edge triple")
        adj = {v: [] for v in vs}
        for u, v, c in normalized:
            adj[u].append((v, c))
            adj[v].append((u, c))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "colors", cs)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_adj", {v: tuple(ns) for v, ns in adj.items()})
        object.__setattr__(self, "_vindex", vindex)

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign or delete {name!r} of an immutable ColoredGraph")

    __setattr__ = __delattr__ = _frozen

    @cached_property
    def _walk_index(self) -> "_WalkIndex":
        # built on first use, not at construction: most graphs never count
        # walks.  A quotient graph is kept in _quotients, so the checks run
        # on it share one index per contracted color set
        return _build_walk_index(self)

    @cached_property
    def _quotients(self) -> dict:
        # contracted color set -> Quotient, filled by _contract; at most one
        # entry per subset of colors, so 2**len(colors) in all
        return {}

    @cached_property
    def _color_degrees(self) -> dict:
        # vertex -> {color: number of edges of that color at the vertex}
        table = {}
        for v, nbrs in self._adj.items():
            d = table[v] = {}
            for _, c in nbrs:
                d[c] = d.get(c, 0) + 1
        return table

    @cached_property
    def _match_order(self) -> tuple:
        """The isomorphism search's vertex order: BFS from a max-degree
        vertex, new components appended as encountered."""
        remaining = set(self.vertices)
        order = []
        while remaining:
            # max keeps the first of equal degrees: the earliest in vertex order
            start = max((v for v in self.vertices if v in remaining), key=self.degree)
            queue = [start]
            remaining.discard(start)
            for x in queue:
                for y, _ in self._adj[x]:
                    if y in remaining:
                        remaining.discard(y)
                        queue.append(y)
            order += queue
        return tuple(order)

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v, c) -> bool:
        return (v, c) in self._adj[u]

    def edge_colors(self, u, v) -> tuple:
        return tuple(c for w, c in self._adj[u] if w == v)

    def degree(self, v) -> int:
        return len(self._adj[v])

    def used_colors(self) -> tuple:
        seen = {c for _, _, c in self.edges}
        return tuple(c for c in self.colors if c in seen)


class Walk(namedtuple("_WalkFields", "graph walk_vertices walk_colors")):
    """Alternating vertex/color sequence inside a fixed graph.

    len(colors) = len(vertices) - 1; consecutive vertices are joined by
    an edge of the stated color.
    """

    __slots__ = ()


def make_walk(g: ColoredGraph, vertices, colors=None) -> Walk:
    """Build a validated walk; colors are inferred when unambiguous."""
    vertices = tuple(vertices)
    if not vertices:
        raise InvalidWalk("a walk needs at least one vertex")
    for v in vertices:
        if v not in g._adj:
            raise InvalidWalk(f"unknown vertex {v!r}")
    if colors is None:
        inferred = []
        for a, b in zip(vertices, vertices[1:]):
            cs = g.edge_colors(a, b)
            if not cs:
                raise InvalidWalk(f"no edge between {a!r} and {b!r}")
            if len(cs) > 1:
                raise InvalidWalk(
                    f"ambiguous edge {a!r}-{b!r}: colors {cs}; pass colors")
            inferred.append(cs[0])
        colors = tuple(inferred)
    else:
        colors = tuple(colors)
        if len(colors) != len(vertices) - 1:
            raise InvalidWalk("color count must be vertex count minus one")
        for a, b, c in zip(vertices, vertices[1:], colors):
            if not g.has_edge(a, b, c):
                raise InvalidWalk(f"no {c!r}-colored edge between {a!r} and {b!r}")
    return Walk(g, vertices, colors)


class Quotient(namedtuple("_QuotientFields", "graph vertex_map loops")):
    """Result of contracting a color set.

    loops lists (class representative, color) pairs produced by the
    contraction.  The vertex_map dict leaves a quotient unhashable.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()


def quotient_by_colors(g: ColoredGraph, d) -> Quotient:
    """Contract all d-colored edges; keep the remaining colored edges.

    The contraction is kept on g per color set; each call returns a
    fresh vertex_map, while the quotient graph and loops are shared."""
    q = _contract(g, d)
    return Quotient(q.graph, dict(q.vertex_map), q.loops)


def _contract(g: ColoredGraph, d) -> Quotient:
    """The quotient of g by d as kept in g._quotients; callers only read
    its vertex_map."""
    d = frozenset(d)
    q = g._quotients.get(d)
    if q is not None:
        return q
    unknown = d - set(g.colors)
    if unknown:
        raise ValueError(f"colors not in graph: {sorted(map(str, unknown))}")
    vindex = g._vindex
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        # keep the representative with the smaller original index
        if vindex[ra] > vindex[rb]:
            ra, rb = rb, ra
        parent[rb] = ra

    for u, v, c in g.edges:
        if c in d:
            union(u, v)
    vertex_map = {v: find(v) for v in g.vertices}
    reps = sorted({vertex_map[v] for v in g.vertices}, key=lambda r: vindex[r])
    kept_colors = tuple(c for c in g.colors if c not in d)
    new_edges = set()
    loops = set()
    for u, v, c in g.edges:
        if c in d:
            continue
        ru, rv = vertex_map[u], vertex_map[v]
        if ru == rv:
            loops.add((ru, c))
        else:
            if vindex[ru] > vindex[rv]:
                ru, rv = rv, ru
            new_edges.add((ru, rv, c))
    graph = ColoredGraph(tuple(reps), kept_colors, tuple(sorted(
        new_edges, key=lambda e: (vindex[e[0]], vindex[e[1]], kept_colors.index(e[2])))))
    q = g._quotients[d] = Quotient(graph, vertex_map, tuple(sorted(
        loops, key=lambda lc: (vindex[lc[0]], str(lc[1])))))
    return q


class IsoWitness(namedtuple("_IsoWitnessFields", "vertex_bijection color_bijection")):
    __slots__ = ()

    def __new__(cls, vertex_bijection, color_bijection):
        return tuple.__new__(cls, (dict(vertex_bijection), dict(color_bijection)))


def _color_signature(g: ColoredGraph, c) -> tuple:
    # edge count and degree sequence of the color-c subgraph, zero-degree
    # vertices dropped; each edge adds 2 to the degree sum
    degs = sorted(cd[c] for cd in g._color_degrees.values() if c in cd)
    return (sum(degs) // 2, tuple(degs))


def _vertex_signature(g: ColoredGraph, v) -> tuple:
    return (g.degree(v), tuple(sorted(g._color_degrees[v].values())))


def colored_isomorphic(g1: ColoredGraph, g2: ColoredGraph):
    """Search for a joint vertex/color bijection; None when there is none.

    Exhaustive backtracking: color bijections are enumerated within
    signature classes, then vertices are matched along a BFS order with
    per-color degree pruning.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    used1, used2 = g1.used_colors(), g2.used_colors()
    if len(used1) != len(used2):
        return None
    sig1 = {c: _color_signature(g1, c) for c in used1}
    sig2 = {c: _color_signature(g2, c) for c in used2}
    groups1 = {}
    groups2 = {}
    for c in used1:
        groups1.setdefault(sig1[c], []).append(c)
    for c in used2:
        groups2.setdefault(sig2[c], []).append(c)
    if set(groups1) != set(groups2):
        return None
    if any(len(groups1[s]) != len(groups2[s]) for s in groups1):
        return None
    if sorted(_vertex_signature(g1, v) for v in g1.vertices) != \
            sorted(_vertex_signature(g2, v) for v in g2.vertices):
        return None

    order = g1._match_order
    sigs = sorted(groups1)
    for images in itertools.product(
            *(itertools.permutations(groups2[s]) for s in sigs)):
        psi = {}
        for s, perm in zip(sigs, images):
            for c, d in zip(groups1[s], perm):
                psi[c] = d
        phi = _match_vertices(g1, g2, psi, order)
        if phi is not None:
            return IsoWitness(phi, psi)
    return None


def _match_vertices(g1, g2, psi, order):
    n = len(order)
    phi = {}
    used = set()

    cds1, cds2 = g1._color_degrees, g2._color_degrees

    def candidates(v):
        mapped_nbrs = [(w, c) for w, c in g1.neighbors(v) if w in phi]
        if mapped_nbrs:
            w0, c0 = mapped_nbrs[0]
            pool = [x for x, cc in g2.neighbors(phi[w0]) if cc == psi[c0]]
        else:
            pool = list(g2.vertices)
        degree = g1.degree(v)
        cd1 = cds1[v]
        out = []
        for x in pool:
            if x in used:
                continue
            if g2.degree(x) != degree:
                continue
            cd2 = cds2[x]
            if any(cd2.get(psi[c], 0) != k for c, k in cd1.items()):
                continue
            if any(not g2.has_edge(x, phi[w], psi[c]) for w, c in mapped_nbrs):
                continue
            out.append(x)
        return out

    def extend(k):
        if k == n:
            return True
        v = order[k]
        for x in candidates(v):
            phi[v] = x
            used.add(x)
            if extend(k + 1):
                return True
            del phi[v]
            used.discard(x)
        return False

    return dict(phi) if extend(0) else None


class _WalkIndex(namedtuple("_WalkIndexFields",
                             "low adj color_of dist parent geodesics rainbow frontier")):
    """Integer form of a graph, shared by the walk counters, and the one
    place where the package computes graph distances.

    Vertex k is g.vertices[k].  Color k is the bit 1 << (shift + k) with
    shift = len(vertices).bit_length(), so a walk state (end vertex x,
    color set) packs into the int x | colorbits, x = state & low, and
    (state ^ x).bit_count() is the walk's length when it is rainbow.
    adj[x] lists (y, bit) in the order of g.neighbors; dist[u][x] is the
    BFS distance, -1 when x is not reachable from u.  parent[u][x] is the
    vertex from which the BFS from u first reached x, -1 for u and for
    the unreachable; the step's color is the first entry of adj[parent]
    that ends at x.  geodesics[u][x] is the number of shortest walks
    u -> x.  rainbow[u] maps each state of the rainbow walks of length
    >= 1 from u to the number of such walks.  frontier[u] maps the bit b
    of each color at u to (count, keys) over the steps x -b-> y that
    extend a state (x, used) of rainbow[u] with b not in used: keys holds
    used | y for each step, and count the number of walks they extend.
    keys is an array('q'), a tuple when the keys need more than 63 bits,
    and the empty tuple when there is no such step.
    """

    __slots__ = ()


def _build_walk_index(g: ColoredGraph) -> _WalkIndex:
    vid = g._vindex
    shift = len(g.vertices).bit_length()
    low = (1 << shift) - 1
    bit = {c: 1 << (shift + k) for k, c in enumerate(g.colors)}
    adj = tuple(tuple((vid[w], bit[c]) for w, c in g.neighbors(v))
                for v in g.vertices)
    n = len(adj)
    dist, parents, geodesics = [], [], []
    for u in range(n):
        du = [-1] * n
        du[u] = 0
        up = [-1] * n
        geo = [0] * n
        geo[u] = 1
        queue = [u]
        for x in queue:  # BFS order: geo[x] is complete when x is reached
            d, gx = du[x] + 1, geo[x]
            for y, _ in adj[x]:
                if du[y] < 0:
                    du[y] = d
                    up[y] = x
                    geo[y] = gx
                    queue.append(y)
                elif du[y] == d:
                    geo[y] += gx
        dist.append(tuple(du))
        parents.append(tuple(up))
        geodesics.append(tuple(geo))
    # a key is below 1 << (shift + len(colors)), so 'q' holds it up to 63 bits
    pack = partial(array, "q") if shift + len(g.colors) <= 63 else tuple
    rainbow, frontier = [], []
    for u in range(n):
        states, front = _rainbow_states(low, adj, u)
        for b, (count, *keys) in front.items():
            front[b] = (count, pack(keys) if keys else ())
        rainbow.append(states)
        frontier.append(front)
    return _WalkIndex(low, adj, {b: c for c, b in bit.items()}, tuple(dist),
                      tuple(parents), tuple(geodesics), tuple(rainbow), tuple(frontier))


def _rainbow_states(low: int, adj: tuple, u: int) -> tuple:
    """Rainbow walks of length >= 1 from u, counted per state by color
    coding one length at a time, and u's extension frontier.

    A state reached at length k has k color bits, so all lengths share one
    dict without collisions.  Returns (states, front).  front maps the bit
    b of each color at u to the list [count, key, ...]: a key used | y for
    every step x -b-> y that the pass takes from a stored state (x, used),
    and count the walk counts of those steps summed.  Only the colors at
    u are recorded: the extension check pairs a step with an edge at u of
    the step's color."""
    front, at_u, layer = {}, 0, {}
    for y, b in adj[u]:
        front[b] = [0]
        at_u |= b
        layer[b | y] = 1
    states = {}
    while layer:
        states.update(layer)
        nxt = {}
        for state, count in layer.items():
            x = state & low
            used = state ^ x
            for y, b in adj[x]:
                if not used & b:
                    f = used | y
                    nxt[f | b] = nxt.get(f | b, 0) + count
                    if b & at_u:
                        steps = front[b]
                        steps[0] += count
                        steps.append(f)
        layer = nxt
    return states, front


def _as_walk(g: ColoredGraph, ix: _WalkIndex, path: list, bits: list) -> Walk:
    return Walk(g, tuple(g.vertices[x] for x in path),
                tuple(ix.color_of[b] for b in bits))


def _rainbow_dfs(ix: _WalkIndex, u: int):
    """Every rainbow walk from u in depth-first preorder, as (path, bits);
    both lists are reused, so copy what you keep."""
    path, bits = [u], []

    def grow(x, used):
        yield path, bits
        for y, b in ix.adj[x]:
            if not used & b:
                path.append(y)
                bits.append(b)
                yield from grow(y, used | b)
                path.pop()
                bits.pop()

    return grow(u, 0)


def _geodesic_dfs(ix: _WalkIndex, u: int, v: int):
    """Every shortest walk u -> v in depth-first order, as (path, bits)."""
    du, dv = ix.dist[u], ix.dist[v]
    total = du[v]
    path, bits = [u], []

    def grow(x):
        if x == v:
            yield path, bits
            return
        for y, b in ix.adj[x]:
            if du[y] == du[x] + 1 and dv[y] == total - du[x] - 1:
                path.append(y)
                bits.append(b)
                yield from grow(y)
                path.pop()
                bits.pop()

    return grow(u)


class ExchangeReport(namedtuple("_ExchangeReportFields",
                                 "shortest_not_rainbow rainbow_not_shortest "
                                 "n_shortest_walks n_rainbow_walks")):
    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    @property
    def passed(self) -> bool:
        return not self.shortest_not_rainbow and not self.rainbow_not_shortest


def verify_exchange(g: ColoredGraph) -> ExchangeReport:
    """Exhaustively test: shortest <=> rainbow, over all walks of g.

    Walks are counted per (vertex, color set) state, from the rainbow
    states kept in the graph's walk index.  A walk from u to v of length
    dist(u, v) is a geodesic, so u -> v has a geodesic that is not
    rainbow exactly when it has more geodesics than rainbow walks of that
    length; a rainbow walk is not shortest when its length, the size of
    its color set, exceeds the distance to its end.  Only when the counts
    show a failure are the offending walks listed, in the depth-first
    order of the walk-by-walk search.  The report is built anew on every
    call.
    """
    ix = g._walk_index
    if ix.dist and -1 in ix.dist[0]:
        raise DisconnectedEndpoints("graph is not connected")
    low = ix.low
    n_shortest = n_rainbow = 0
    bad_pairs, bad_sources = [], []
    for u, (du, geo, states) in enumerate(zip(ix.dist, ix.geodesics, ix.rainbow)):
        rainbow_geo = [0] * len(du)
        all_shortest = True
        for state, count in states.items():
            x = state & low
            n_rainbow += count
            if du[x] == (state ^ x).bit_count():
                rainbow_geo[x] += count
            else:
                all_shortest = False
        if not all_shortest:
            bad_sources.append(u)
        for v in range(u + 1, len(du)):
            n_shortest += geo[v]
            if geo[v] != rainbow_geo[v]:
                bad_pairs.append((u, v))

    bad_shortest = []
    for u, v in bad_pairs:
        for path, bits in _geodesic_dfs(ix, u, v):
            if len(set(bits)) != len(bits):
                bad_shortest.append(_as_walk(g, ix, path, bits))
    bad_rainbow = [_as_walk(g, ix, path, bits)
                   for u in bad_sources
                   for path, bits in _rainbow_dfs(ix, u)
                   if ix.dist[u][path[-1]] != len(bits)]
    return ExchangeReport(tuple(bad_shortest), tuple(bad_rainbow),
                          n_shortest, n_rainbow)


class ExtensionReport(namedtuple("_ExtensionReportFields", "violations n_configurations")):
    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_rainbow_extension(g: ColoredGraph) -> ExtensionReport:
    """Test the rainbow-extension property.

    For each rainbow walk v_0 c_0 v_1 ... c_k v_{k+1} with k > 0 and each
    edge v_{k+1} -- v_{k+2} of the starting color c_0, a rainbow walk
    from v_{k+2} back to v_0 using exactly {c_1, ..., c_k} must exist.

    The steps v_{k+1} -- v_{k+2} of color c_0 after a rainbow walk from
    v_1 are the c_0 frontier of v_1 in the graph's walk index, built by
    the pass that counts its rainbow states, which the exchange check
    shares.  So each edge v_1 -- v_0 adds its frontier's walk count to
    the configurations and is one containment test of the frontier's
    keys (v_{k+2}, color set) in the rainbow states from v_0.  Violations
    are listed, in the depth-first order of the walk-by-walk search, only
    from the v_0 these tests show failing.  The report is built anew on
    every call.
    """
    ix = g._walk_index
    adj, reached = ix.adj, ix.rainbow
    n_conf = 0
    failing = set()
    for nbrs, front in zip(adj, ix.frontier):
        for v0, b0 in nbrs:
            count, keys = front[b0]
            n_conf += count
            if v0 not in failing and not all(map(reached[v0].__contains__, keys)):
                failing.add(v0)

    violations = []
    for v0 in sorted(failing):
        back = reached[v0]
        for path, bits in _rainbow_dfs(ix, v0):
            if len(bits) < 2:
                continue
            inner = sum(bits[1:])  # distinct bits: the sum is the union
            for y, b in adj[path[-1]]:
                if b == bits[0] and inner | y not in back:
                    violations.append((_as_walk(g, ix, path, bits), g.vertices[y]))
    return ExtensionReport(tuple(violations), n_conf)


def _partitions_in_box(m: int, n: int):
    """Weakly decreasing tuples with at most m parts, each at most n."""
    out = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for p in frontier:
            row = len(p) + 1
            if row > m:
                continue
            cap = p[-1] if p else n
            for part in range(1, cap + 1):
                q = p + (part,)
                nxt.append(q)
        out.extend(nxt)
        frontier = nxt
    return sorted(set(out), key=lambda p: (sum(p), p))


def partition_label(p) -> str:
    return "".join(str(x) for x in p) if p else "∅"


def build_reference_graph(kind: str, m: int | None = None,
                          n: int | None = None) -> ColoredGraph:
    """Reference families: young(m, n) and hypercube(n).

    young(m, n): Young diagrams in an m x n box; an edge joins diagrams
    differing by one box, colored by that box's (column, row) pair.
    hypercube(n): bit strings of length n; an edge flips one coordinate,
    colored by the 1-based coordinate index.
    """
    if kind == "young":
        if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
            raise ValueError("young needs integers m >= 1 and n >= 1")
        if n > 9 or m > 9:
            raise ValueError("box sides above 9 not supported by the labels")
        parts = _partitions_in_box(m, n)
        labels = {p: partition_label(p) for p in parts}
        colors = [(c, r) for r in range(1, m + 1) for c in range(1, n + 1)]
        edges = []
        for p in parts:
            for row in range(1, m + 1):
                cur = p[row - 1] if row <= len(p) else 0
                if row == 1:
                    above = n
                else:
                    above = p[row - 2] if row - 1 <= len(p) else 0
                if cur + 1 > above:
                    continue
                q = list(p) + [0] * (row - len(p))
                q[row - 1] = cur + 1
                q = tuple(x for x in q if x)
                edges.append((labels[p], labels[q], (cur + 1, row)))
        return ColoredGraph(tuple(labels[p] for p in parts), tuple(colors),
                            tuple(edges))
    if kind == "hypercube":
        if not (isinstance(n, int) and n >= 1):
            raise ValueError("hypercube needs an integer n >= 1")
        verts = ["".join(bits) for bits in itertools.product("01", repeat=n)]
        edges = []
        for v in verts:
            for i in range(n):
                if v[i] == "0":
                    w = v[:i] + "1" + v[i + 1:]
                    edges.append((v, w, i + 1))
        return ColoredGraph(tuple(verts), tuple(range(1, n + 1)), tuple(edges))
    raise ValueError(f"unknown reference kind {kind!r}")


_DOT_PALETTE = (
    "#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#117a65",
    "#884ea0", "#2e86c1", "#a04000", "#239b56", "#6c3483", "#b7950b",
)


def _encode_color(c):
    if isinstance(c, tuple):
        return list(c)
    return c


def _decode_color(c):
    if isinstance(c, list):
        return tuple(c)
    return c


def graph_to_json(g: ColoredGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "colors": [_encode_color(c) for c in g.colors],
        "edges": [{"u": u, "v": v, "c": _encode_color(c)}
                  for u, v, c in g.edges],
    }


def graph_from_json(data: dict) -> ColoredGraph:
    return ColoredGraph(
        tuple(data["vertices"]),
        tuple(_decode_color(c) for c in data["colors"]),
        tuple((e["u"], e["v"], _decode_color(e["c"])) for e in data["edges"]),
    )


def graph_to_dot(g: ColoredGraph, name: str = "G") -> str:
    cindex = {c: k for k, c in enumerate(g.colors)}
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v, c in g.edges:
        hexcolor = _DOT_PALETTE[cindex[c] % len(_DOT_PALETTE)]
        label = ",".join(str(x) for x in c) if isinstance(c, tuple) else str(c)
        lines.append(f'  "{u}" -- "{v}" [label="{label}", color="{hexcolor}"];')
    lines.append("}")
    return "\n".join(lines)
