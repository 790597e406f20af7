"""Reference computations that the benchmark checks ortk's outputs against.

Nothing here calls ortk's arithmetic.  Root data come from the textbook
formulas for each family, vectors are plain tuples of Fractions, and
every quantity (Weyl vectors, typicality, truncated character series,
Borel counts, quotient graphs, geodesic counts, quiver dimensions) is
computed from those by its own short code path.  A disagreement with
ortk raises CheckFailed.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import comb


class CheckFailed(AssertionError):
    """An output of ortk disagrees with the reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def neg(u):
    return tuple(-a for a in u)


def vec(weight) -> tuple:
    """An ortk Weight (or Root) as a Fraction tuple; rational weights only."""
    weight = getattr(weight, "vector", weight)
    out = []
    for c in weight.coords:
        require(c.s == 0, f"expected a rational weight, got a-part {c.s}")
        out.append(Fraction(c.r))
    return tuple(out)


def render(v) -> str:
    """Comma-separated coordinates, the ortk --lambda syntax."""
    return ",".join(str(x) for x in v)


class Family:
    """Root data of one family from the standard formulas.

    Basis order: e1..em, d1..dn (d, e1, e2 for D(2,1;a)).  The form is
    stored as (rational part, a-part) per basis vector.  heights are the
    coefficients of a functional that is at least 1 on every even
    positive root, used to bound truncated series.
    """

    def __init__(self, family: str, m: int | None = None, n: int | None = None,
                 alpha: Fraction | None = None):
        self.family, self.m, self.n, self.alpha = family, m, n, alpha
        if family == "d21alpha":
            self.names = ("d", "e1", "e2")
            self.form = ((Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(0)),
                         (Fraction(0), Fraction(1)))
            self.heights = (1, 1, 1)
        else:
            mm = n if family == "gl11n" else m
            self.names = tuple(f"e{i + 1}" for i in range(mm)) + \
                tuple(f"d{j + 1}" for j in range(n))
            self.form = tuple((Fraction(1), Fraction(0)) for _ in range(mm)) + \
                tuple((Fraction(-1), Fraction(0)) for _ in range(n))
            self.heights = tuple(range(mm, 0, -1)) + tuple(range(n, 0, -1))
        self.rank = len(self.names)
        self.even_pos, self.odd, self.std_odd_pos = self._roots()
        self.iso = [b for b in self.odd if self.is_zero(self.inner(b, b))]

    def unit(self, i: int, c: int = 1) -> tuple:
        return tuple(Fraction(c if j == i else 0) for j in range(self.rank))

    def _roots(self):
        f, m, n, u = self.family, self.m, self.n, self.unit
        even, odd, std = [], [], []
        if f == "d21alpha":
            even = [u(0, 2), u(1, 2), u(2, 2)]
            for s in itertools.product((1, -1), repeat=3):
                v = tuple(Fraction(x) for x in s)
                odd.append(v)
                if s[0] == 1:
                    std.append(v)
            return even, odd, std
        if f == "gl11n":
            for i in range(n):
                v = sub(u(i), u(n + n - 1 - i))
                odd += [v, neg(v)]
                std.append(v)
            return even, odd, std
        e = lambda i, c=1: u(i, c)
        d = lambda j, c=1: u(m + j, c)
        if f == "gl":
            even = [sub(e(i), e(j)) for i in range(m) for j in range(i + 1, m)]
            even += [sub(d(i), d(j)) for i in range(n) for j in range(i + 1, n)]
            for i in range(m):
                for j in range(n):
                    v = sub(e(i), d(j))
                    odd += [v, neg(v)]
                    std.append(v)
            return even, odd, std
        # ospB, ospD
        for i in range(m):
            for j in range(i + 1, m):
                even += [add(e(i), e(j)), sub(e(i), e(j))]
        if f == "ospB":
            even += [e(i) for i in range(m)]
        for i in range(n):
            for j in range(i + 1, n):
                even += [add(d(i), d(j)), sub(d(i), d(j))]
        even += [d(i, 2) for i in range(n)]
        for i in range(m):
            for j in range(n):
                for v in (add(e(i), d(j)), sub(e(i), d(j))):
                    odd += [v, neg(v)]
                    std.append(v)
        if f == "ospB":
            for j in range(n):
                odd += [d(j), neg(d(j))]
                std.append(d(j))
        return even, odd, std

    # -- arithmetic -----------------------------------------------------------

    def inner(self, u, v):
        r = s = Fraction(0)
        for a, b, (fr, fs) in zip(u, v, self.form):
            r += a * b * fr
            s += a * b * fs
        return r, s

    def is_zero(self, pair) -> bool:
        r, s = pair
        if self.alpha is None:
            return r == 0 and s == 0
        return r + s * self.alpha == 0

    def orthogonal(self, u, v) -> bool:
        return self.is_zero(self.inner(u, v))

    def height(self, v) -> Fraction:
        return sum((h * x for h, x in zip(self.heights, v)), Fraction(0))

    def rho(self, odd_pos) -> tuple:
        total = tuple(Fraction(0) for _ in range(self.rank))
        for g in self.even_pos:
            total = add(total, g)
        for b in odd_pos:
            total = sub(total, b)
        return tuple(x / 2 for x in total)

    def typical(self, lam, odd_pos) -> bool:
        """No isotropic root pairs to zero with lam + rho."""
        shifted = add(lam, self.rho(odd_pos))
        return all(not self.orthogonal(shifted, b) for b in self.iso)

    def n_borels(self) -> int:
        f, m, n = self.family, self.m, self.n
        if f in ("gl", "ospB"):
            return comb(m + n, m)
        if f == "gl11n":
            return 2 ** n
        if f == "ospD":
            return comb(m + n, n) + comb(m + n - 1, n - 1)
        return 4

    def vector_of_name(self, name: str) -> tuple:
        """Parse an ortk root name such as 'e1-d2', '2d' or 'd+e1+e2'."""
        out = [Fraction(0)] * self.rank
        index = {nm: k for k, nm in enumerate(self.names)}
        text = name if name[0] in "+-" else "+" + name
        for sign, coeff, basis in _name_terms(text):
            out[index[basis]] += (1 if sign == "+" else -1) * Fraction(coeff or 1)
        return tuple(out)


def _name_terms(text):
    k = 0
    while k < len(text):
        sign = text[k]
        k += 1
        j = k
        while text[j].isdigit() or text[j] == "/":
            j += 1
        coeff = text[k:j]
        e = j + 1
        while e < len(text) and text[e].isdigit():
            e += 1
        yield sign, coeff, text[j:e]
        k = e


# -- characters -----------------------------------------------------------------


def numerator(top, factors) -> dict:
    """e^top * prod (1 + e^beta), with equal exponents merged."""
    terms = {top: 1}
    for beta in factors:
        nxt = dict(terms)
        for w, c in terms.items():
            u = add(w, beta)
            nxt[u] = nxt.get(u, 0) + c
        terms = nxt
    return terms


def series_table(fam: Family, depth: int) -> dict:
    """prod over even positive gamma of 1/(1 - e^{-gamma}), truncated at
    height depth, stored by the (positive) exponent it subtracts."""
    zero = tuple(Fraction(0) for _ in range(fam.rank))
    table = {zero: 1}
    for g in fam.even_pos:
        hg = fam.height(g)
        nxt = {}
        for v, c in table.items():
            u, h = v, fam.height(v)
            while h <= depth:
                nxt[u] = nxt.get(u, 0) + c
                u, h = add(u, g), h + hg
        table = nxt
    return table


def depth_needed(fam: Family, free, base, target) -> Fraction:
    """Largest height of w - target over the numerator terms w."""
    top = base
    for b in free:
        if fam.height(b) > 0:
            top = add(top, b)
    return fam.height(sub(top, target))


def series_multiplicity(fam: Family, table: dict, depth: int, free, base, target) -> int:
    """Coefficient of e^target in e^base prod_{free}(1+e^b) / prod(1-e^-g),
    read off the truncated series; target must lie within depth."""
    require(depth_needed(fam, free, base, target) <= depth,
            "multiplicity target outside the truncation depth")
    total = 0
    for w, c in numerator(base, free).items():
        total += c * table.get(sub(w, target), 0)
    return total


# -- graphs ---------------------------------------------------------------------


def young_graph(m: int, n: int):
    """OR(gl(m|n)) from the Young-diagram dictionary: partitions with at
    most n rows of length at most m; adding box (row j, column c) flips
    the root e_{m+1-c} - d_j, which names the edge color."""
    parts = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for p in frontier:
            if len(p) < n:
                cap = p[-1] if p else m
                nxt += [p + (k,) for k in range(1, cap + 1)]
        parts += nxt
        frontier = nxt
    label = lambda p: "".join(map(str, p)) if p else "∅"
    edges = []
    for p in parts:
        for j in range(1, n + 1):
            cur = p[j - 1] if j <= len(p) else 0
            above = m if j == 1 else (p[j - 2] if j - 1 <= len(p) else 0)
            if cur + 1 > above:
                continue
            q = list(p) + [0] * (j - len(p))
            q[j - 1] = cur + 1
            q = tuple(x for x in q if x)
            edges.append((label(p), label(q), f"e{m - cur}-d{j}"))
    return [label(p) for p in parts], edges


def hypercube_graph(n: int):
    """OR(gl(1|1)^n): bit i flips the root e_i - d_{n+1-i}."""
    verts = ["".join(b) for b in itertools.product("01", repeat=n)]
    edges = []
    for v in verts:
        for i in range(n):
            if v[i] == "0":
                edges.append((v, v[:i] + "1" + v[i + 1:], f"e{i + 1}-d{n - i}"))
    return verts, edges


def adjacency(vertices, edges) -> dict:
    adj = {v: [] for v in vertices}
    for u, v, c in edges:
        adj[u].append((v, c))
        adj[v].append((u, c))
    return adj


def bfs(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y, _ in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def contract(vertices, edges, colors) -> dict:
    """Class representative of every vertex after contracting colors."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, c in edges:
        if c in colors:
            parent[find(u)] = find(v)
    return {v: find(v) for v in vertices}


def quotient(vertices, edges, colors):
    """Class map, class vertices and surviving edges of G / colors."""
    cls = contract(vertices, edges, colors)
    kept = {(*sorted((cls[u], cls[v])), c) for u, v, c in edges if c not in colors}
    return cls, sorted(set(cls.values())), sorted(kept)


def walk_nonzero(vertices, edges, colors, walk) -> bool:
    """A walk's composition is nonzero iff its projection to G / colors
    is a shortest walk there."""
    cls, qverts, qedges = quotient(vertices, edges, colors)
    steps = sum(1 for a, b in zip(walk, walk[1:]) if cls[a] != cls[b])
    return steps == bfs(adjacency(qverts, qedges), cls[walk[0]])[cls[walk[-1]]]


def geodesic_count(vertices, edges) -> int:
    """Number of shortest walks over unordered vertex pairs."""
    adj = adjacency(vertices, edges)
    total = 0
    order = {v: k for k, v in enumerate(vertices)}
    for s in vertices:
        dist = {s: 0}
        paths = {s: 1}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y, _ in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    paths[y] = 0
                    queue.append(y)
                if dist[y] == dist[x] + 1:
                    paths[y] += paths[x]
        total += sum(c for v, c in paths.items() if order[v] > order[s])
    return total


def check_isomorphism(edges1, edges2, vmap: dict, cmap: dict) -> None:
    """vmap/cmap carry every edge of the first graph onto the second."""
    require(len(edges1) == len(edges2), "edge counts differ")
    require(len(set(vmap.values())) == len(vmap), "vertex map is not injective")
    require(len(set(cmap.values())) == len(cmap), "color map is not injective")
    target = {(frozenset((u, v)), c) for u, v, c in edges2}
    for u, v, c in edges1:
        require((frozenset((vmap[u], vmap[v])), cmap[c]) in target,
                f"edge {u}-{v} [{c}] has no image")


# -- quiver ---------------------------------------------------------------------


def quiver_dims(preset: str, w: int | None = None):
    """Hom dimensions of the presets: the 2-cycle, chain and square
    algebras are 1 between every pair of vertices; the zigzag algebra
    has 2 on the diagonal, 1 between neighbours and 0 elsewhere."""
    if preset == "preprojective_a2":
        return [[1] * 2 for _ in range(2)]
    if preset == "chain3":
        return [[1] * 3 for _ in range(3)]
    if preset == "square4":
        return [[1] * 4 for _ in range(4)]
    size = 2 * w + 1
    return [[2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(size)]
            for i in range(size)]
