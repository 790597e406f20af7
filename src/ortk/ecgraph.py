"""Finite edge-colored graphs.

Walks, the walk index (BFS distances and BFS trees), the rainbow index
(rainbow walks, counted by color coding), color-set quotients,
edge-colored isomorphism, the exchange and rainbow-extension verifiers,
and the two reference families (Young lattices in a box, hypercubes).

Vertices and colors are opaque hashable IDs.  Edges are unordered pairs
with a color; loops are forbidden, parallel edges of distinct colors are
allowed.
"""

import itertools

from collections import namedtuple
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
    duplicate triples.  A graph compares and hashes by identity; two
    graphs have the same structure when their (vertices, colors, edges)
    are equal.

    _vindex maps each vertex to its position in vertices.  Tables that
    depend only on the graph are built on first use and kept for its
    lifetime: _walk_index (integer adjacency and the BFS rows of every
    source, the one place distances are computed: read by every walk
    check, the semibrick index sets and the walks suite), _rainbow_index
    (the color-coding pass over _walk_index: the rainbow-walk states and
    the exchange and extension verdicts, read only by the exchange and
    extension checks), _iso_table and _iso_order (read only by the
    isomorphism search, the second only of its first graph) and
    _quotients.  The checks' reports are never kept.
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
    def _rainbow_index(self) -> "_RainbowIndex":
        # the color-coding pass, apart from the BFS rows: readers of
        # distances alone never run it
        return _build_rainbow_index(self)

    @cached_property
    def _quotients(self) -> dict:
        # contracted color set -> Quotient, filled by _contract; at most one
        # entry per subset of colors, so 2**len(colors) in all
        return {}

    @cached_property
    def _iso_table(self) -> "_IsoTable":
        return _build_iso_table(self)

    @cached_property
    def _iso_order(self) -> "_IsoOrder":
        # read only where the graph is the first argument of the search
        return _build_iso_order(self._iso_table)

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v, c) -> bool:
        return (v, c) in self._adj[u]

    def edge_colors(self, u, v) -> tuple:
        return tuple(c for w, c in self._adj[u] if w == v)

    def degree(self, v) -> int:
        return len(self._adj[v])


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


class _IsoTable(namedtuple("_IsoTableFields",
                           "census pairs color_degrees vsig csig by_sig")):
    """The signature rows of a graph that the isomorphism search reads, by
    vertex and color index (vertex k is g.vertices[k], color k is
    g.colors[k]).

    pairs[v] maps each neighbour w of v to the colors of the edges v -- w,
    in the order of g.neighbors; color_degrees[v] maps each color at v to
    its number of edges there.  vsig[v] is (degree, sorted color degrees)
    and csig[c] is (edge count, sorted degree sequence of the c-colored
    subgraph, zero degrees dropped); by_sig maps each vertex signature to
    its vertices.  census is (vertex count, edge count, sorted vertex
    signatures, sorted signatures of the used colors): two graphs whose
    censuses differ are not isomorphic.
    """

    __slots__ = ()


class _IsoOrder(namedtuple("_IsoOrderFields", "order back")):
    """The match-order rows of the search's first graph.  order is the
    search's vertex order: BFS from a max-degree vertex, the earliest in
    vertex order, and new components appended as encountered.  back[k]
    lists (w, colors) for each neighbour w of order[k] that comes earlier
    in the order, as in _IsoTable.pairs."""

    __slots__ = ()


def _build_iso_table(g: ColoredGraph) -> _IsoTable:
    vid = g._vindex
    cid = {c: k for k, c in enumerate(g.colors)}
    n = len(g.vertices)
    pairs = [{} for _ in range(n)]
    color_degrees = [{} for _ in range(n)]
    for v, x in enumerate(g.vertices):
        at, cd = pairs[v], color_degrees[v]
        for y, c in g.neighbors(x):
            k = cid[c]
            at.setdefault(vid[y], []).append(k)
            cd[k] = cd.get(k, 0) + 1
    pairs = tuple({w: tuple(cs) for w, cs in at.items()} for at in pairs)
    vsig = tuple((sum(cd.values()), tuple(sorted(cd.values()))) for cd in color_degrees)
    degs = [[] for _ in g.colors]
    for cd in color_degrees:
        for k, m in cd.items():
            degs[k].append(m)
    # each edge adds 2 to its color's degree sum
    csig = tuple((sum(ds) // 2, tuple(sorted(ds))) for ds in degs)
    by_sig = {}
    for v, sig in enumerate(vsig):
        by_sig.setdefault(sig, []).append(v)
    census = (n, len(g.edges), tuple(sorted(vsig)),
              tuple(sorted(csig[k] for k, ds in enumerate(degs) if ds)))
    return _IsoTable(census, pairs, tuple(color_degrees), vsig, csig,
                     {sig: tuple(vs) for sig, vs in by_sig.items()})


def _build_iso_order(t: _IsoTable) -> _IsoOrder:
    pairs, vsig = t.pairs, t.vsig
    n = len(pairs)
    placed = [False] * n
    order = []
    for start in sorted(range(n), key=lambda v: -vsig[v][0]):  # stable: earliest first
        if placed[start]:
            continue
        placed[start] = True
        queue = [start]
        for x in queue:
            for y in pairs[x]:
                if not placed[y]:
                    placed[y] = True
                    queue.append(y)
        order += queue
    position = {v: k for k, v in enumerate(order)}
    back = tuple(tuple((w, cs) for w, cs in pairs[v].items() if position[w] < k)
                 for k, v in enumerate(order))
    return _IsoOrder(tuple(order), back)


def colored_isomorphic(g1: ColoredGraph, g2: ColoredGraph):
    """Search for a joint vertex/color bijection; None when there is none.

    The color bijection covers the used colors.  Exhaustive backtracking
    over both graphs' _iso_table, built once per graph: the vertices of
    g1 are matched along its BFS order, each one to an unmatched vertex
    of the same signature adjacent to the image of its first earlier
    neighbour.  A color's image is bound the first time an edge of that
    color is matched, only to an unbound color of the same signature,
    and unbound on backtrack; where the edges between one pair have
    several unbound colors, the search branches over their bijections.
    A candidate must carry every edge to the earlier vertices and, for
    the bound colors, the same color degrees.  The match runs on an
    explicit stack, one candidate generator per matched vertex, so the
    depth of the search is not bounded by Python's recursion limit.
    g2's _iso_order is never built.
    """
    t1, t2 = g1._iso_table, g2._iso_table
    if t1.census != t2.census:
        return None
    (order, back), cdeg1, vsig1, csig1 = g1._iso_order, t1.color_degrees, t1.vsig, t1.csig
    pairs2, cdeg2, vsig2, csig2, by_sig2 = (t2.pairs, t2.color_degrees, t2.vsig,
                                            t2.csig, t2.by_sig)
    n = len(order)
    phi, taken = [-1] * n, [False] * n
    psi, psi_inv = [-1] * len(g1.colors), [-1] * len(g2.colors)

    def bind(edges, x):
        """Yield once per binding of unbound colors under which the edges
        (w, colors) from a vertex to earlier ones map onto edges at x;
        the bindings are undone when the generator finishes."""
        at_x = pairs2[x]
        fresh = []
        for i, (w, cs) in enumerate(edges):
            ds = at_x.get(phi[w])
            if ds is None or len(ds) != len(cs):
                break
            if len(cs) == 1:
                c, d = cs[0], ds[0]
                if psi[c] == d:
                    continue
                if psi[c] >= 0 or psi_inv[d] >= 0 or csig1[c] != csig2[d]:
                    break
                psi[c], psi_inv[d] = d, c
                fresh.append(c)
                continue
            open1 = [c for c in cs if psi[c] < 0]
            open2 = [d for d in ds if psi_inv[d] < 0]
            if len(open1) != len(open2) or any(psi[c] not in ds for c in cs if psi[c] >= 0):
                break
            if open1:
                for images in itertools.permutations(open2):
                    if all(csig1[c] == csig2[d] for c, d in zip(open1, images)):
                        for c, d in zip(open1, images):
                            psi[c], psi_inv[d] = d, c
                        yield from bind(edges[i + 1:], x)
                        for c, d in zip(open1, images):
                            psi[c] = psi_inv[d] = -1
                break
        else:
            yield
        for c in fresh:
            psi_inv[psi[c]] = psi[c] = -1

    def candidates(k):
        """Yield each image of order[k], with phi, taken and psi set for
        it; each is undone on the next resumption."""
        v = order[k]
        sig, edges, cd1 = vsig1[v], back[k], cdeg1[v].items()
        pool = pairs2[phi[edges[0][0]]] if edges else by_sig2.get(sig, ())
        for x in pool:
            if taken[x] or vsig2[x] != sig:
                continue
            cd2 = cdeg2[x]
            for _ in bind(edges, x):
                for c, m in cd1:
                    if psi[c] >= 0 and cd2.get(psi[c]) != m:
                        break
                else:
                    phi[v], taken[x] = x, True
                    yield x
                    phi[v], taken[x] = -1, False

    # stack[k] yields the images of order[k]: the search backtracks where
    # one runs out, and stops when all n vertices have an image
    stack = [candidates(0)] if n else []
    while stack:
        if next(stack[-1], None) is None:
            stack.pop()
        elif len(stack) == n:
            break
        else:
            stack.append(candidates(len(stack)))
    if n and not stack:
        return None
    vs1, vs2, cs1, cs2 = g1.vertices, g2.vertices, g1.colors, g2.colors
    return IsoWitness({vs1[v]: vs2[phi[v]] for v in order},
                      {cs1[c]: cs2[d] for c, d in enumerate(psi) if d >= 0})


class _WalkIndex(namedtuple("_WalkIndexFields", "low adj color_of dist parent geodesics")):
    """Integer form of a graph and its BFS rows, shared by the walk
    checks, and the one place where the package computes graph distances.

    Vertex k is g.vertices[k].  Color k is the bit 1 << (shift + k) with
    shift = len(vertices).bit_length(), so a walk state (end vertex x,
    color set) packs into the int x | colorbits, x = state & low, and
    (state ^ x).bit_count() is the walk's length when it is rainbow.
    adj[x] lists (y, bit) in the order of g.neighbors; dist[u][x] is the
    BFS distance, -1 when x is not reachable from u.  parent[u][x] is the
    vertex from which the BFS from u first reached x, -1 for u and for
    the unreachable; the step's color is the first entry of adj[parent]
    that ends at x.  geodesics[u][x] is the number of shortest walks
    u -> x.
    """

    __slots__ = ()


class _RainbowIndex(namedtuple("_RainbowIndexFields",
                               "rainbow n_shortest n_rainbow bad_pairs bad_sources "
                               "n_configurations bad_starts")):
    """The color-coding pass over a graph's _WalkIndex, with the exchange
    and extension verdicts that the pass records.

    rainbow[u] maps each state of the rainbow walks of length >= 1 from u
    to the number of such walks.  n_shortest counts the shortest walks
    u -> v over the pairs u < v, n_rainbow the rainbow walks of length
    >= 1.  bad_pairs lists the pairs (u, v), u < v, with more shortest
    walks than rainbow walks of length dist(u, v); a shortest walk of a
    pair is rainbow when the pair is not listed.  bad_sources lists the u
    from which some rainbow walk is longer than the distance to its end.
    n_configurations counts the rainbow-extension configurations, and
    bad_starts lists the v_0 of those whose reach test fails.  All three
    lists are in increasing order.
    """

    __slots__ = ()


def _build_walk_index(g: ColoredGraph) -> _WalkIndex:
    vid = g._vindex
    shift = len(g.vertices).bit_length()
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
    return _WalkIndex((1 << shift) - 1, adj, {b: c for c, b in bit.items()},
                      tuple(dist), tuple(parents), tuple(geodesics))


def _build_rainbow_index(g: ColoredGraph) -> _RainbowIndex:
    ix = g._walk_index
    low, adj = ix.low, ix.adj
    rainbow, fronts = [], []
    n_shortest = n_rainbow = 0
    bad_pairs, bad_sources = [], []
    for u, (du, geo) in enumerate(zip(ix.dist, ix.geodesics)):
        states, front, all_shortest, rainbow_geo = _rainbow_states(low, adj, du, u)
        rainbow.append(states)
        fronts.append(front)
        n_rainbow += sum(states.values())
        if not all_shortest:
            bad_sources.append(u)
        n_shortest += sum(geo[u + 1:])
        if rainbow_geo != geo:
            bad_pairs += [(u, v) for v in range(u + 1, len(geo)) if geo[v] != rainbow_geo[v]]
    # the reach tests look up states from any v0, so they wait for every
    # source's pass: each edge v1 -- v0 of color b0 tests the steps of
    # color b0 after the rainbow walks from v1
    n_conf = 0
    bad_starts = set()
    for nbrs, front in zip(adj, fronts):
        for v0, b0 in nbrs:
            count, *keys = front[b0]
            n_conf += count
            if v0 not in bad_starts and not all(map(rainbow[v0].__contains__, keys)):
                bad_starts.add(v0)
    return _RainbowIndex(tuple(rainbow), n_shortest, n_rainbow, tuple(bad_pairs),
                         tuple(bad_sources), n_conf, tuple(sorted(bad_starts)))


def _rainbow_states(low: int, adj: tuple, du: tuple, u: int) -> tuple:
    """Rainbow walks of length >= 1 from u, counted per state by color
    coding one length at a time, u's extension frontier, and the
    exchange verdict's counts from u; du is the BFS distance row of u.

    A state reached at length k has k color bits, so all lengths share one
    dict without collisions.  Returns (states, front, all_shortest,
    rainbow_geo).  front maps the bit b of each color at u to the list
    [count, key, ...]: a key used | y for every step x -b-> y that the
    pass takes from a stored state (x, used), and count the walk counts
    of those steps summed.  Only the colors at u are recorded: a reach
    test pairs a step with an edge at u of the step's color.
    all_shortest tells whether every state of length k ends at distance
    k, and the tuple rainbow_geo holds at x the number of rainbow walks
    u -> x of length dist(u, x), the empty walk at u included, so that it
    equals the BFS row of geodesic counts when no pair from u fails."""
    front, at_u, layer = {}, 0, {}
    for y, b in adj[u]:
        front[b] = [0]
        at_u |= b
        layer[b | y] = 1
    states = {}
    all_shortest, rainbow_geo = True, [0] * len(adj)
    rainbow_geo[u] = 1
    k = 0
    while layer:
        k += 1
        states.update(layer)
        nxt = {}
        for state, count in layer.items():
            x = state & low
            # a walk of length k reaches x only if dist(u, x) <= k
            if du[x] == k:
                rainbow_geo[x] += count
            else:
                all_shortest = False
            used = state ^ x
            for y, b in adj[x]:
                if not used & b:
                    f = used | y
                    key = f | b
                    nxt[key] = nxt.get(key, 0) + count
                    if b & at_u:
                        steps = front[b]
                        steps[0] += count
                        steps.append(f)
        layer = nxt
    return states, front, all_shortest, tuple(rainbow_geo)


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

    The verdict and the counts are read from the graph's rainbow index,
    which the color-coding pass fills once per graph.  A walk from u to v
    of length dist(u, v) is a geodesic, so u -> v has a geodesic that is
    not rainbow exactly when it has more geodesics than rainbow walks of
    that length; a rainbow walk is not shortest when its length, the size
    of its color set, exceeds the distance to its end.  Only when the
    counts show a failure are the offending walks listed, in the
    depth-first order of the walk-by-walk search.  The report is built
    anew on every call.
    """
    ix = g._walk_index
    if ix.dist and -1 in ix.dist[0]:
        raise DisconnectedEndpoints("graph is not connected")
    rx = g._rainbow_index
    bad_shortest = [_as_walk(g, ix, path, bits)
                    for u, v in rx.bad_pairs
                    for path, bits in _geodesic_dfs(ix, u, v)
                    if len(set(bits)) != len(bits)]
    bad_rainbow = [_as_walk(g, ix, path, bits)
                   for u in rx.bad_sources
                   for path, bits in _rainbow_dfs(ix, u)
                   if ix.dist[u][path[-1]] != len(bits)]
    return ExchangeReport(tuple(bad_shortest), tuple(bad_rainbow),
                          rx.n_shortest, rx.n_rainbow)


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

    The configurations are counted and tested by the color-coding pass
    that builds the graph's rainbow index, once per graph: the steps
    v_{k+1} -- v_{k+2} of color c_0 after the rainbow walks from v_1 that
    avoid c_0 are keyed (v_{k+2}, color set), and each edge v_1 -- v_0 of
    color c_0 adds their walk count to the configurations and is one
    containment test of their keys in the rainbow states from v_0.  A
    call reads the count and the failing v_0; violations are listed, in
    the depth-first order of the walk-by-walk search, only from those
    v_0.  The report is built anew on every call.
    """
    ix, rx = g._walk_index, g._rainbow_index
    adj, reached = ix.adj, rx.rainbow
    violations = []
    for v0 in rx.bad_starts:
        back = reached[v0]
        for path, bits in _rainbow_dfs(ix, v0):
            if len(bits) < 2:
                continue
            inner = sum(bits[1:])  # distinct bits: the sum is the union
            for y, b in adj[path[-1]]:
                if b == bits[0] and inner | y not in back:
                    violations.append((_as_walk(g, ix, path, bits), g.vertices[y]))
    return ExtensionReport(tuple(violations), rx.n_configurations)


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
