"""Finite edge-colored graphs.

Walks, rainbow and shortest tests, color-set quotients, edge-colored
isomorphism, the exchange and rainbow-extension verifiers, and the two
reference families (Young lattices in a box, hypercubes).

Vertices and colors are opaque hashable IDs.  Edges are unordered pairs
with a color; loops are forbidden, parallel edges of distinct colors are
allowed.
"""

import itertools

from collections import deque, namedtuple
from functools import cached_property

from .numerics import _DataclassFields


class InvalidWalk(ValueError):
    pass


class DisconnectedEndpoints(ValueError):
    pass


class ColoredGraph:
    """Immutable edge-colored graph.

    edges holds normalized triples (u, v, c) with u before v in vertex
    order; construction rejects loops, unknown endpoints or colors, and
    duplicate triples.  Graphs with equal vertices, colors and edges are
    equal and hash equal.
    """

    # no __slots__: the cached_property _walk_index lives in __dict__

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

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign or delete {name!r} of an immutable ColoredGraph")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.colors, self.edges) == (other.vertices, other.colors, other.edges)

    def __hash__(self):
        return hash((self.vertices, self.colors, self.edges))

    @cached_property
    def _walk_index(self) -> "_WalkIndex":
        # built on first use, not at construction: build_or_lambda and the
        # walk oracle make many graphs that never count walks
        return _build_walk_index(self)

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v, c) -> bool:
        return any(w == v and cc == c for w, cc in self._adj[u])

    def edge_colors(self, u, v) -> tuple:
        return tuple(c for w, c in self._adj[u] if w == v)

    def degree(self, v) -> int:
        return len(self._adj[v])

    def color_degree(self, v) -> dict:
        d = {}
        for _, c in self._adj[v]:
            d[c] = d.get(c, 0) + 1
        return d

    def used_colors(self) -> tuple:
        seen = {c for _, _, c in self.edges}
        return tuple(c for c in self.colors if c in seen)


class Walk(namedtuple("_WalkFields", "graph walk_vertices walk_colors")):
    """Alternating vertex/color sequence inside a fixed graph.

    len(colors) = len(vertices) - 1; consecutive vertices are joined by
    an edge of the stated color.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.walk_colors)

    @property
    def start(self):
        return self.walk_vertices[0]

    @property
    def end(self):
        return self.walk_vertices[-1]


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


def is_rainbow(w: Walk) -> bool:
    return len(set(w.walk_colors)) == len(w.walk_colors)


def bfs_distances(g: ColoredGraph, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y, _ in g.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def is_shortest(g: ColoredGraph, w: Walk) -> bool:
    if w.graph is not g and w.graph != g:
        raise InvalidWalk("walk belongs to a different graph")
    dist = bfs_distances(g, w.start)
    if w.end not in dist:
        raise DisconnectedEndpoints(f"{w.start!r} and {w.end!r} are disconnected")
    return w.length == dist[w.end]


class Quotient(namedtuple("_QuotientFields", "graph vertex_map loops")):
    """Result of contracting a color set.

    loops lists (class representative, color) pairs produced by the
    contraction.  The vertex_map dict leaves a quotient unhashable.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()


def quotient_by_colors(g: ColoredGraph, d) -> Quotient:
    """Contract all d-colored edges; keep the remaining colored edges."""
    d = frozenset(d)
    unknown = d - set(g.colors)
    if unknown:
        raise ValueError(f"colors not in graph: {sorted(map(str, unknown))}")
    vindex = {v: k for k, v in enumerate(g.vertices)}
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
    return Quotient(graph, vertex_map, tuple(sorted(
        loops, key=lambda lc: (vindex[lc[0]], str(lc[1])))))


class IsoWitness(namedtuple("_IsoWitnessFields", "vertex_bijection color_bijection")):
    __slots__ = ()

    def __new__(cls, vertex_bijection, color_bijection):
        return tuple.__new__(cls, (dict(vertex_bijection), dict(color_bijection)))

    def inverse(self) -> "IsoWitness":
        return IsoWitness(
            {v: u for u, v in self.vertex_bijection.items()},
            {d: c for c, d in self.color_bijection.items()})


def is_color_isomorphism(g1: ColoredGraph, g2: ColoredGraph,
                         vertex_map: dict, color_map: dict) -> bool:
    """Check that the two maps give an edge-colored isomorphism.

    color_map must cover every color used by g1 edges and hit distinct
    colors of g2; unused colors are not constrained.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    if set(vertex_map.keys()) != set(g1.vertices):
        return False
    if set(vertex_map.values()) != set(g2.vertices):
        return False
    used1 = set(g1.used_colors())
    if not used1 <= set(color_map.keys()):
        return False
    images = [color_map[c] for c in used1]
    if len(set(images)) != len(images) or not set(images) <= set(g2.colors):
        return False
    for u, v, c in g1.edges:
        if not g2.has_edge(vertex_map[u], vertex_map[v], color_map[c]):
            return False
    return True


def _color_signature(g: ColoredGraph, c) -> tuple:
    # degree sequence of the color-c subgraph, zero-degree vertices dropped
    degs = []
    for v in g.vertices:
        k = g.color_degree(v).get(c, 0)
        if k:
            degs.append(k)
    n_edges = sum(1 for e in g.edges if e[2] == c)
    return (n_edges, tuple(sorted(degs)))


def _vertex_signature(g: ColoredGraph, v) -> tuple:
    return (g.degree(v), tuple(sorted(g.color_degree(v).values())))


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

    order = _match_order(g1)
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


def _match_order(g: ColoredGraph):
    """BFS vertex order starting from a max-degree vertex, new components
    appended as encountered."""
    remaining = set(g.vertices)
    order = []
    while remaining:
        start = max(remaining, key=lambda v: (g.degree(v), -g.vertices.index(v)))
        queue = deque([start])
        remaining.discard(start)
        while queue:
            x = queue.popleft()
            order.append(x)
            for y, _ in g.neighbors(x):
                if y in remaining:
                    remaining.discard(y)
                    queue.append(y)
    return order


def _match_vertices(g1, g2, psi, order):
    n = len(order)
    phi = {}
    used = set()

    def candidates(v):
        mapped_nbrs = [(w, c) for w, c in g1.neighbors(v) if w in phi]
        if mapped_nbrs:
            w0, c0 = mapped_nbrs[0]
            pool = [x for x, cc in g2.neighbors(phi[w0]) if cc == psi[c0]]
        else:
            pool = list(g2.vertices)
        out = []
        for x in pool:
            if x in used:
                continue
            if g2.degree(x) != g1.degree(v):
                continue
            cd1 = g1.color_degree(v)
            cd2 = g2.color_degree(x)
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


class _WalkIndex(namedtuple("_WalkIndexFields", "low adj color_of dist geodesics")):
    """Integer form of a graph, shared by the walk counters.

    Vertex k is g.vertices[k].  Color k is the bit 1 << (shift + k) with
    shift = len(vertices).bit_length(), so a walk state (end vertex x,
    color set) packs into the int x | colorbits, and x = state & low.
    adj[x] lists (y, bit) in the order of g.neighbors; dist[u][x] is the
    BFS distance, -1 when x is not reachable from u, and geodesics[u][x]
    the number of shortest walks u -> x.
    """

    __slots__ = ()


def _build_walk_index(g: ColoredGraph) -> _WalkIndex:
    vid = {v: k for k, v in enumerate(g.vertices)}
    shift = len(g.vertices).bit_length()
    bit = {c: 1 << (shift + k) for k, c in enumerate(g.colors)}
    adj = tuple(tuple((vid[w], bit[c]) for w, c in g.neighbors(v))
                for v in g.vertices)
    dist, geodesics = [], []
    for u in range(len(adj)):
        du = [-1] * len(adj)
        du[u] = 0
        geo = [0] * len(adj)
        geo[u] = 1
        queue = [u]
        for x in queue:  # BFS order: geo[x] is complete when x is reached
            for y, _ in adj[x]:
                if du[y] < 0:
                    du[y] = du[x] + 1
                    queue.append(y)
                if du[y] == du[x] + 1:
                    geo[y] += geo[x]
        dist.append(tuple(du))
        geodesics.append(tuple(geo))
    return _WalkIndex((1 << shift) - 1, adj, {b: c for c, b in bit.items()},
                      tuple(dist), tuple(geodesics))


def _rainbow_layers(ix: _WalkIndex, u: int) -> list:
    """Rainbow walks from u, counted per state: layers[k][x | colors] is
    the number of rainbow walks of length k from u that end at x and use
    exactly those colors."""
    low, adj = ix.low, ix.adj
    layers = [{u: 1}]
    while True:
        nxt = {}
        for state, count in layers[-1].items():
            x = state & low
            used = state ^ x
            for y, b in adj[x]:
                if not used & b:
                    key = used | b | y
                    nxt[key] = nxt.get(key, 0) + count
        if not nxt:
            return layers
        layers.append(nxt)


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

    Walks are counted per (vertex, color set) state.  A walk from u to
    v of length dist(u, v) is a geodesic, so u -> v has a geodesic that
    is not rainbow exactly when it has more geodesics than rainbow walks
    of that length; a rainbow walk is not shortest when its length, the
    size of its color set, exceeds the distance to its end.  Only when
    the counts show a failure are the offending walks listed, in the
    depth-first order of the walk-by-walk search.
    """
    ix = g._walk_index
    if ix.dist and -1 in ix.dist[0]:
        raise DisconnectedEndpoints("graph is not connected")
    low = ix.low
    n_shortest = n_rainbow = 0
    bad_pairs, bad_sources = [], []
    for u, (du, geo) in enumerate(zip(ix.dist, ix.geodesics)):
        rainbow_geo = [0] * len(du)
        all_shortest = True
        for k, layer in enumerate(_rainbow_layers(ix, u)[1:], 1):
            for state, count in layer.items():
                x = state & low
                n_rainbow += count
                if du[x] == k:
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

    The walks v_1 ... v_{k+1} are counted per (end vertex, color set)
    state of the rainbow walks from v_1.  The reach test is a lookup in
    the states of the rainbow walks from v_0, keyed on (v_{k+2}, color
    set).  Violations are listed, in the depth-first order of the
    walk-by-walk search, only from the v_0 the counts show failing.
    """
    ix = g._walk_index
    low, adj = ix.low, ix.adj
    reached = []
    for u in range(len(adj)):
        states = {}
        for layer in _rainbow_layers(ix, u)[1:]:
            states.update(layer)
        reached.append(states)
    by_color = []
    for nbrs in adj:
        ends = {}
        for y, b in nbrs:
            ends.setdefault(b, []).append(y)
        by_color.append(ends)

    n_conf = 0
    failing = set()
    for v1, states in enumerate(reached):
        for state, count in states.items():
            x = state & low
            inner = state ^ x
            ends = by_color[x]
            for v0, b0 in adj[v1]:
                ys = ends.get(b0)
                if ys and not inner & b0:
                    n_conf += count * len(ys)
                    back = reached[v0]
                    for y in ys:
                        if inner | y not in back:
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
