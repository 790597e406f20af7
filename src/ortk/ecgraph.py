"""Finite edge-colored graphs.

Walks, rainbow and shortest tests, color-set quotients, edge-colored
isomorphism, the exchange and rainbow-extension verifiers, and the two
reference families (Young lattices in a box, hypercubes).

Vertices and colors are opaque hashable IDs.  Edges are unordered pairs
with a color; loops are forbidden, parallel edges of distinct colors are
allowed.
"""

import itertools

from collections import deque
from dataclasses import dataclass, field


class InvalidWalk(ValueError):
    pass


class DisconnectedEndpoints(ValueError):
    pass


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable edge-colored graph.

    edges holds normalized triples (u, v, c) with u before v in vertex
    order; construction rejects loops, unknown endpoints or colors, and
    duplicate triples.
    """

    vertices: tuple
    colors: tuple
    edges: tuple
    _adj: dict = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        vs = tuple(self.vertices)
        cs = tuple(self.colors)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex IDs")
        if len(set(cs)) != len(cs):
            raise ValueError("duplicate color IDs")
        vindex = {v: k for k, v in enumerate(vs)}
        cindex = {c: k for k, c in enumerate(cs)}
        normalized = []
        for u, v, c in self.edges:
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


@dataclass(frozen=True)
class Walk:
    """Alternating vertex/color sequence inside a fixed graph.

    len(colors) = len(vertices) - 1; consecutive vertices are joined by
    an edge of the stated color.
    """

    graph: ColoredGraph
    walk_vertices: tuple
    walk_colors: tuple

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


@dataclass(frozen=True)
class Quotient:
    """Result of contracting a color set.

    Unpacks as (graph, vertex_map) so callers that only need the pair can
    destructure directly; loops lists (class representative, color) pairs
    produced by the contraction.
    """

    graph: ColoredGraph
    vertex_map: dict
    loops: tuple

    def __iter__(self):
        return iter((self.graph, self.vertex_map))


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


@dataclass(frozen=True)
class IsoWitness:
    vertex_bijection: dict
    color_bijection: dict

    def __post_init__(self):
        object.__setattr__(self, "vertex_bijection", dict(self.vertex_bijection))
        object.__setattr__(self, "color_bijection", dict(self.color_bijection))

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
            witness = IsoWitness(phi, psi)
            assert is_color_isomorphism(g1, g2, witness.vertex_bijection,
                                        witness.color_bijection)
            return witness
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


@dataclass(frozen=True)
class ExchangeReport:
    shortest_not_rainbow: tuple
    rainbow_not_shortest: tuple
    n_shortest_walks: int
    n_rainbow_walks: int

    @property
    def passed(self) -> bool:
        return not self.shortest_not_rainbow and not self.rainbow_not_shortest


def _all_geodesics(g: ColoredGraph, dist_from: dict, u, v):
    """All shortest walks u -> v, via the two BFS layerings."""
    du, dv = dist_from[u], dist_from[v]
    total = du[v]
    walks = []

    def grow(path_v, path_c, x):
        if x == v:
            walks.append((tuple(path_v), tuple(path_c)))
            return
        for y, c in g.neighbors(x):
            if du.get(y) == du[x] + 1 and dv.get(y) == total - du[x] - 1:
                path_v.append(y)
                path_c.append(c)
                grow(path_v, path_c, y)
                path_v.pop()
                path_c.pop()

    grow([u], [], u)
    return walks


def verify_exchange(g: ColoredGraph) -> ExchangeReport:
    """Exhaustively test: shortest <=> rainbow, over all walks of g."""
    dist_from = {v: bfs_distances(g, v) for v in g.vertices}
    for v in g.vertices:
        if len(dist_from[v]) != len(g.vertices):
            raise DisconnectedEndpoints("graph is not connected")

    bad_shortest = []
    n_shortest = 0
    vs = list(g.vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            for path_v, path_c in _all_geodesics(g, dist_from, u, v):
                n_shortest += 1
                if len(set(path_c)) != len(path_c):
                    bad_shortest.append(Walk(g, path_v, path_c))

    bad_rainbow = []
    n_rainbow = 0

    def grow(path_v, path_c, colors_left, x, source):
        nonlocal n_rainbow
        for y, c in g.neighbors(x):
            if c not in colors_left:
                continue
            path_v.append(y)
            path_c.append(c)
            n_rainbow += 1
            if dist_from[source][y] != len(path_c):
                bad_rainbow.append(Walk(g, tuple(path_v), tuple(path_c)))
            colors_left.discard(c)
            grow(path_v, path_c, colors_left, y, source)
            colors_left.add(c)
            path_v.pop()
            path_c.pop()

    all_colors = set(g.colors)
    for u in vs:
        grow([u], [], set(all_colors), u, u)

    return ExchangeReport(tuple(bad_shortest), tuple(bad_rainbow),
                          n_shortest, n_rainbow)


@dataclass(frozen=True)
class ExtensionReport:
    violations: tuple
    n_configurations: int

    @property
    def passed(self) -> bool:
        return not self.violations


def _rainbow_reach(g: ColoredGraph, start, target, colorset, memo) -> bool:
    """Is there a walk start -> target using each color of colorset once?"""
    key = (start, colorset)
    if key in memo:
        return memo[key]
    if not colorset:
        memo[key] = start == target
        return memo[key]
    ok = False
    for y, c in g.neighbors(start):
        if c in colorset and _rainbow_reach(g, y, target,
                                            colorset - {c}, memo):
            ok = True
            break
    memo[key] = ok
    return ok


def verify_rainbow_extension(g: ColoredGraph) -> ExtensionReport:
    """Test the rainbow-extension property.

    For each rainbow walk v_0 c_0 v_1 ... c_k v_{k+1} with k > 0 and each
    edge v_{k+1} -- v_{k+2} of the starting color c_0, a rainbow walk
    from v_{k+2} back to v_0 using exactly {c_1, ..., c_k} must exist.
    """
    violations = []
    n_conf = 0
    memo = {}

    def grow(path_v, path_c, colors_used, x):
        nonlocal n_conf
        if len(path_c) >= 2:
            c0 = path_c[0]
            for y, c in g.neighbors(x):
                if c != c0:
                    continue
                n_conf += 1
                inner = frozenset(path_c[1:])
                if not _rainbow_reach(g, y, path_v[0], inner, memo):
                    violations.append(
                        (Walk(g, tuple(path_v), tuple(path_c)), y))
        for y, c in g.neighbors(x):
            if c in colors_used:
                continue
            path_v.append(y)
            path_c.append(c)
            colors_used.add(c)
            grow(path_v, path_c, colors_used, y)
            colors_used.discard(c)
            path_v.pop()
            path_c.pop()

    for u in g.vertices:
        grow([u], [], set(), u)
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
