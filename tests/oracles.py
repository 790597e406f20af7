"""Reference implementations that the tests compare the library against.

Each one reaches its verdict along a second code path, apart from the
one in src/: pairings through the Scalar ring below on the form's
diagonal in place of the integer pairing kernel, coordinates by Gaussian
elimination over Q in place of one basis inverse, a Borel's simple
roots by a search over all pairwise sums in place of the simple system
inherited along odd reflections, an odd reflection on root vectors in
place of the enumeration's root-index tables, the trivial quotient by
its direct criterion, the semibrick index sets by an exhaustive
rainbow search in place of BFS distances, a weight multiplicity as one Kostant
lookup per subset sum in place of the sums of the head's lattice class,
a Verma numerator's terms built one Weight at a time in place of its
columns, a color-set quotient by BFS components in place of
union-find, graph distances by a BFS on vertex IDs in place of the
walk index, and a walk verdict's monomial oriented root by root against
the start Borel's odd set in place of the OR graph's orientation table.
The rainbow and shortest walk tests, the check of an isomorphism
witness and its inverse, the closure test of an adjusted odd set, the
sum of two characters, the Scalar ring (sum, difference, negation,
product and zero test of r + s*a; in src/ a Scalar is only the
Fraction view of a coordinate) and the Scalar multiple of a weight live
here too: only the tests use them.  So does the Fraction reading of a
coordinate, parse_scalar, on which ref_parse_weight builds a weight in
place of parse_weight's integer reader.  The package never calls any of
these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add

from ortk.characters import (
    NumeratorCharacter,
    _height_sorted,
    _kostant_scaled,
    _numerator,
    _times_factors,
)
from ortk.ecgraph import (
    ColoredGraph,
    DisconnectedEndpoints,
    InvalidWalk,
    IsoWitness,
)
from ortk.numerics import (
    _ALPHA_RE,
    _RATIONAL_RE,
    DegreeOverflow,
    RankMismatch,
    Scalar,
    SingularBasis,
    Weight,
    render_weight,
)
from ortk.orgraph import WalkHomVerdict, build_or_lambda
from ortk.rootsys import Borel, NotIsotropicSimple, Root, enumerate_borels


class NotInSpan(ValueError):
    """The vector is not a combination of the given basis."""


# -- the Scalar ring: r + s*a with r, s rational, of degree at most 1 ---------


def scalar(r=0, s=0) -> Scalar:
    """r + s*a for ints or Fractions r and s."""
    return Scalar(r, s)


def _as_scalar(x) -> Scalar:
    return x if isinstance(x, Scalar) else scalar(x)


def render_scalar(x: Scalar) -> str:
    """x as parse_scalar reads it: the text of a one-coordinate weight."""
    return render_weight(Weight((x,)))


def scalar_add(x: Scalar, y: Scalar) -> Scalar:
    return Scalar(x.r + y.r, x.s + y.s)


def scalar_sub(x: Scalar, y: Scalar) -> Scalar:
    return Scalar(x.r - y.r, x.s - y.s)


def scalar_neg(x: Scalar) -> Scalar:
    return Scalar(-x.r, -x.s)


def scalar_mul(x, y) -> Scalar:
    """x * y for Scalars, ints or Fractions; raises DegreeOverflow where
    both carry a, as the product would leave the degree-1 space."""
    x, y = _as_scalar(x), _as_scalar(y)
    if x.s != 0 and y.s != 0:
        raise DegreeOverflow(
            f"({render_scalar(x)})*({render_scalar(y)}) leaves the degree-1 space")
    return Scalar(x.r * y.r, x.r * y.s + x.s * y.r)


def scalar_is_zero(x: Scalar, alpha: Fraction | None = None) -> bool:
    """Zero test, under the optional specialization a = alpha."""
    if alpha is None:
        return x.r == 0 and x.s == 0
    return x.r + x.s * alpha == 0


def _fraction(text: str) -> Fraction:
    """'p' or 'p/q' as Fraction's own string parser reads it, once
    _RATIONAL_RE accepts the text; ValueError otherwise."""
    if not _RATIONAL_RE.fullmatch(text.strip()):
        raise ValueError(f"cannot parse rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse rational {text!r}") from None


def parse_scalar(text: str) -> Scalar:
    """One coordinate of the weight grammar ('p/q', 'p/q+r/s a', 'r/s a',
    'a', '-a') as a Scalar of Fractions; ValueError 'cannot parse scalar'
    on anything else, as parse_weight raises it."""
    t = text.strip()
    try:
        if "a" not in t:
            return scalar(_fraction(t))
        m = _ALPHA_RE.fullmatch(t)
        if m:
            lead, sign, coeff = m.groups()
            if sign is None and coeff is None:
                return scalar(0, _fraction(lead) if lead else 1)
            if sign is not None:
                r = _fraction(lead) if lead else 0
                s = _fraction(coeff) if coeff else 1
                return scalar(r, -s if sign == "-" else s)
    except ValueError:
        pass
    raise ValueError(f"cannot parse scalar {text!r}")


def ref_parse_weight(text: str) -> Weight:
    """parse_weight without a rank check, by way of one Scalar per
    coordinate and Weight's Fraction constructor."""
    return Weight(tuple(parse_scalar(p) for p in text.split(",")))


def inner_product(v: Weight, w: Weight, form: Weight) -> Scalar:
    """(v, w) in Scalar arithmetic under the diagonal form whose entries
    are the coordinates of the Weight form, such as rs.form; raises
    DegreeOverflow where a product of two a-carrying scalars leaves the
    degree-1 space."""
    if v.rank != w.rank or v.rank != form.rank:
        raise RankMismatch(
            f"ranks {v.rank}, {w.rank} against form of rank {form.rank}"
        )
    total = scalar(0)
    for a, b, d in zip(v.coords, w.coords, form.coords):
        total = scalar_add(total, scalar_mul(scalar_mul(a, b), d))
    return total


def scaled(v: Weight, c) -> Weight:
    """c * v for an int, Fraction or Scalar c, coordinate by coordinate in
    Scalar arithmetic; raises DegreeOverflow where a product does."""
    return Weight(tuple(scalar_mul(x, c) for x in v.coords))


def ref_orthogonal(rs, v: Weight, root) -> bool:
    """(v, root) = 0 by the Scalar inner product; raises as it does."""
    return scalar_is_zero(inner_product(v, root.vector, rs.form), rs.alpha_value)


def expand_in_basis(v: Weight, basis: list[Weight]) -> list[Scalar]:
    """Coefficients of v in the given basis, solved exactly over Q.

    The basis vectors must have rational coordinates; v may carry an
    a-part, which is solved for separately (the system is Q-linear).
    Raises SingularBasis if the basis is dependent, NotInSpan if v has
    no solution.
    """
    rank = v.rank
    for b in basis:
        if b.rank != rank:
            raise RankMismatch(f"basis vector rank {b.rank}, expected {rank}")
        if any(b.s):
            raise DegreeOverflow("basis vectors must have rational coordinates")
    ncols = len(basis)
    # augmented columns: rational part of v, then a-part of v
    rows = [
        [basis[j].coords[i].r for j in range(ncols)]
        + [v.coords[i].r, v.coords[i].s]
        for i in range(rank)
    ]
    pivot_of_col: list[int | None] = [None] * ncols
    prow = 0
    for col in range(ncols):
        pivot = next((i for i in range(prow, rank) if rows[i][col] != 0), None)
        if pivot is None:
            raise SingularBasis(f"basis vector {col} is dependent on earlier ones")
        rows[prow], rows[pivot] = rows[pivot], rows[prow]
        inv = 1 / rows[prow][col]
        rows[prow] = [x * inv for x in rows[prow]]
        for i in range(rank):
            if i != prow and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[prow])]
        pivot_of_col[col] = prow
        prow += 1
    for i in range(prow, rank):
        if rows[i][ncols] != 0 or rows[i][ncols + 1] != 0:
            raise NotInSpan(f"{render_weight(v)} is outside the span")
    return [
        Scalar(rows[pivot_of_col[j]][ncols], rows[pivot_of_col[j]][ncols + 1])
        for j in range(ncols)
    ]


def _units(rank: int) -> list[Weight]:
    return [Weight.of(tuple(int(j == i) for j in range(rank))) for i in range(rank)]


def greedy_extension(rs) -> list[Weight]:
    """even_simple completed to a basis by unit vectors, each appended
    when elimination finds it outside the span of the vectors so far."""
    ext = [r.vector for r in rs.even_simple]
    for unit in _units(rs.rank):
        try:
            expand_in_basis(unit, ext)
        except NotInSpan:
            ext.append(unit)
    return ext


def ref_sort_height(rs):
    """The function v -> the even-simple height of v's rational part,
    extended by zero on greedy_extension's unit vectors: the height the
    character listings sort by.  The height of each unit vector is
    solved by elimination once; a weight's height is their sum weighted
    by its coordinates."""
    ext, n = greedy_extension(rs), len(rs.even_simple)
    row = [sum((c.r for c in expand_in_basis(unit, ext)[:n]), Fraction(0))
           for unit in _units(rs.rank)]
    return lambda v: sum((h * c.r for h, c in zip(row, v.coords)), Fraction(0))


def ref_atypical_colors(rs, og, lam: Weight) -> frozenset:
    """D_lambda by the Scalar inner product: the colors whose roots pair
    nonzero with lambda."""
    return frozenset(c for c, root in og.root_of_color.items()
                     if not ref_orthogonal(rs, lam, root))


def ref_walk_hom_oracle(rs, og, lam: Weight, w) -> WalkHomVerdict:
    """walk_hom_oracle root by root: D_lambda by the Scalar pairing, and
    each kept color's root negated into the start Borel's odd set.  The
    walk must be one of og's; an OR graph has no quotient loop, so none is
    looked for."""
    contracted = ref_atypical_colors(rs, og, lam)
    colors = [c for c in w.walk_colors if c not in contracted]
    if len(set(colors)) != len(colors):
        return WalkHomVerdict.zero()
    start = enumerate_borels(rs)[0][og.graph.vertices.index(w.walk_vertices[0])]
    start_pos = start.odd_set()
    monomial = []
    for c in colors:
        root = og.root_of_color[c]
        if root not in start_pos:
            root = rs.negate(root)
        assert root in start_pos
        monomial.append(root)
    monomial.sort(key=Root.sort_key)
    assert len(set(monomial)) == len(monomial)
    return WalkHomVerdict(True, tuple(monomial))


def ref_simple_roots(rs, odd_positive) -> set:
    """The simple roots of the Borel with these positive odd roots: the
    positive roots (even and odd) that are not the sum of two positive
    roots, a root added to itself included."""
    positive = list(rs.even_positive) + list(odd_positive)
    sums = {a.vector + b.vector for a in positive for b in positive}
    return {r for r in positive if r.vector not in sums}


def odd_reflect(rs, b, i: int):
    """b reflected at its i-th simple root alpha (1-based), on root vectors
    in place of the enumeration's root-index tables.  The odd positives
    lose alpha and gain -alpha, in canonical order.  The simple system is
    inherited (Cheng-Wang, GSM 144, section 1.4): slot i becomes -alpha,
    and every other beta becomes alpha+beta where that is a root, else
    stays.  Raises NotIsotropicSimple unless slot i holds an odd isotropic
    root."""
    if not 1 <= i <= len(b.simple):
        raise NotIsotropicSimple(f"no simple root at index {i}")
    alpha = b.simple[i - 1]
    if alpha.parity != "odd" or not alpha.isotropic:
        raise NotIsotropicSimple(
            f"simple root {rs.root_name(alpha)} at index {i} is not odd isotropic")
    minus = rs.root_from_ivec(tuple(-x for x in alpha.vector.r))
    odd = sorted([r for r in b.odd_positive if r != alpha] + [minus], key=Root.sort_key)

    def image(beta):
        summed = rs.root_from_ivec(tuple(map(add, alpha.vector.r, beta.vector.r)))
        return beta if summed is None else summed

    simple = tuple(minus if k == i else image(beta) for k, beta in enumerate(b.simple, start=1))
    return Borel(tuple(odd), simple)


def ref_rbtriv(rs, og, lam: Weight) -> bool:
    """OR(g, lambda) is a single point by the direct criterion: lambda
    pairs nonzero with every non-pure isotropic positive root.  Every
    root is paired before the verdict, so this raises DegreeOverflow
    exactly when one of the pairings does."""
    pairings = [inner_product(lam, root.vector, rs.form)
                for root in og.root_of_color.values()]
    return all(not scalar_is_zero(p, rs.alpha_value) for p in pairings)


def ref_semibrick_index_sets(rs, og, lam: Weight, bbar) -> dict:
    """semibrick_index_sets by exhaustive search: i is in I_b when some
    rainbow walk in OR(g, lambda) starts at the class of r_i b, visits the
    class of b, and ends at the class of bbar, one of the enumerated
    Borels."""
    quotient = build_or_lambda(rs, og, lam)
    q = quotient.graph
    vmap = quotient.vertex_map
    # vertex k of OR(g) is Borel k of the enumeration; a reflected copy of
    # a Borel finds its vertex by its odd positive roots
    vertex_of = dict(zip(enumerate_borels(rs)[0], og.graph.vertices))
    vertex_of_odd = {b.odd_positive: vid for b, vid in vertex_of.items()}
    t = vmap[vertex_of[bbar]]

    def rainbow_through(x, via, used) -> bool:
        # a rainbow walk x -> t, avoiding the colors in used, that visits
        # via unless via is None (already visited)
        if via == x:
            via = None
        if x == t and via is None:
            return True
        for y, c in q.neighbors(x):
            if c not in used and rainbow_through(y, via, used | {c}):
                return True
        return False

    out = {}
    for b, vid in vertex_of.items():
        v = vmap[vid]
        out[b] = frozenset(
            i for i in b.isotropic_simple_indices()
            if rainbow_through(vmap[vertex_of_odd[odd_reflect(rs, b, i).odd_positive]], v,
                               frozenset()))
    return out


def ref_weight_multiplicity(rs, q) -> int:
    """weight_multiplicity without the lattice-class index: the Kostant
    count of head + x for every distinct subset sum x of q.free_odd,
    head = base - target, each weighted by its number of subsets."""
    head = rs.lattice_coords(q.base - q.target)
    if head is None:
        return 0
    sums = _times_factors({(0,) * rs.rank: 1},
                          [rs.height_coords(r.vector.r) for r in q.free_odd])
    return sum(subsets * _kostant_scaled(rs, tuple(map(add, head, x)))
               for x, subsets in sums.items())


def ref_as_weights(lam: Weight, offsets: dict) -> dict:
    """{lam + offset: coefficient} for the integer offsets of a numerator
    dict, one term at a time: (lam.r + lam.den * offset, lam.s, lam.den)."""
    r, s, den = lam
    new = tuple.__new__
    return {new(Weight, (tuple(map(add, r, map(den.__mul__, off))), s, den)): c
            for off, c in offsets.items()}


def ref_kac_flag_constituents(rs, b, lam: Weight) -> list:
    """kac_flag_constituents through the numerator dict and ref_as_weights."""
    sums = _numerator(rs, map(rs.negate, b.odd_positive))
    return _height_sorted(rs, [w for w, c in ref_as_weights(lam, sums).items()
                               for _ in range(c)])


def is_lambda_adjusted(rs, delta_a, lam: Weight) -> bool:
    """Closure of Delta_0^+ with delta_a under root sums, plus (lam, beta) = 0
    whenever both signs of beta sit in delta_a."""
    delta_a = set(delta_a)
    stray = delta_a - set(rs.delta1)
    if stray:
        raise ValueError(
            f"delta_a contains non odd roots: {[rs.root_name(r) for r in stray]}")
    pool = [r.vector.r for r in rs.even_positive] + [r.vector.r for r in delta_a]
    allowed = set(pool)
    for u, v in itertools.combinations_with_replacement(pool, 2):
        s = tuple(a + b for a, b in zip(u, v))
        if rs.root_from_ivec(s) is not None and s not in allowed:
            return False
    paired = [r for r in delta_a if rs.negate(r) in delta_a]
    return rs.orthogonal_roots(lam, paired) == set(paired)


def char_add(c1: NumeratorCharacter, c2: NumeratorCharacter) -> NumeratorCharacter:
    """The sum of two characters; cancelled terms drop out."""
    terms = dict(c1.terms)
    for w, c in c2.terms.items():
        terms[w] = terms.get(w, 0) + c
    return NumeratorCharacter(terms)


def structure(x):
    """x with every ColoredGraph in it, at any depth of tuples, replaced by
    its (vertices, colors, edges).  A graph compares by identity, so
    records built on two copies of one graph compare equal only this way."""
    if isinstance(x, ColoredGraph):
        return x.vertices, x.colors, x.edges
    if isinstance(x, tuple):
        return type(x), tuple(map(structure, x))
    return x


def is_rainbow(w) -> bool:
    """No color repeats along the walk."""
    return len(set(w.walk_colors)) == len(w.walk_colors)


def bfs_distances(g, source) -> dict:
    """{vertex: distance from source} over the vertices reachable from
    source, by a BFS on vertex IDs in place of the walk index's integer
    rows."""
    dist = {source: 0}
    queue = [source]
    for x in queue:
        for y, _ in g.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def is_shortest(g, w) -> bool:
    """The walk is as long as the BFS distance between its ends."""
    if structure(w.graph) != structure(g):
        raise InvalidWalk("walk belongs to a different graph")
    start, end = w.walk_vertices[0], w.walk_vertices[-1]
    dist = bfs_distances(g, start)
    if end not in dist:
        raise DisconnectedEndpoints(f"{start!r} and {end!r} are disconnected")
    return len(w.walk_colors) == dist[end]


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


def inverse_witness(w: IsoWitness) -> IsoWitness:
    """The witness of the inverse isomorphism."""
    return IsoWitness({v: u for u, v in w.vertex_bijection.items()},
                      {d: c for c, d in w.color_bijection.items()})


def ref_quotient(g, d) -> tuple:
    """quotient_by_colors by BFS components over the d-colored edges in
    place of union-find: (graph, vertex_map, set of loops).  A class is
    named by its first vertex in graph order."""
    d = frozenset(d)
    cls = {}
    for v in g.vertices:
        if v in cls:
            continue
        cls[v] = v
        queue = [v]
        for x in queue:
            for y, c in g.neighbors(x):
                if c in d and y not in cls:
                    cls[y] = v
                    queue.append(y)
    edges, loops = {}, set()
    for u, v, c in g.edges:
        if c in d:
            continue
        if cls[u] == cls[v]:
            loops.add((cls[u], c))
        else:
            edges[frozenset((cls[u], cls[v])), c] = (cls[u], cls[v], c)
    graph = ColoredGraph(tuple(dict.fromkeys(cls[v] for v in g.vertices)),
                         tuple(c for c in g.colors if c not in d),
                         tuple(edges.values()))
    return graph, cls, loops


def ref_walk_nonzero(g, d, path) -> tuple:
    """(nonzero, surviving steps) for the walk through the vertices path,
    projected to ref_quotient(g, d): the steps that join two classes
    survive, and the composition is nonzero when they form a shortest
    walk of the quotient."""
    graph, cls, _ = ref_quotient(g, d)
    steps = sum(1 for a, b in zip(path, path[1:]) if cls[a] != cls[b])
    return steps == bfs_distances(graph, cls[path[0]])[cls[path[-1]]], steps
