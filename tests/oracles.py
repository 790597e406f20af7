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
walk index, the exchange check by a loop over every rainbow state and
every vertex pair in place of the counts that the color-coding pass
records, the rainbow-extension check by a loop over every rainbow
state and every edge at its walk's start in place of the rainbow
index's recorded extension verdict, an edge-colored isomorphism by a
search over every color bijection within signature classes in place of
binding colors while the vertices are matched, a walk verdict's
monomial oriented root by root against the start Borel's odd set in
place of the OR graph's orientation table,
and the rank of a quiver degree's relation rows by fraction-free
elimination in place of counting classes of words; and set-up on Root
objects in place of root codes and Borel masks: the indecomposable
roots by a tuple subtraction for every pair, the Borel enumeration by
odd_reflect, a gl Borel's Young diagram from its set of odd root
vectors, and the OR graph with its pure roots from the Borels' odd sets
and one root name per edge; and the per-Borel queries (rho_b as a
Weight sum, typicality, the S1 sets, the hypercubic collections and
the brick identity on numerators) recomputed on every call, with
Scalar pairings, in place of the records that a Borel keeps.
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
    ExchangeReport,
    ExtensionReport,
    InvalidWalk,
    IsoWitness,
    _as_walk,
    _geodesic_dfs,
    _rainbow_dfs,
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
from ortk.rootsys import Borel, NotIsotropicSimple, Root, enumerate_borels, pure_positive_roots


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


# -- set-up on Root objects, in place of root codes and Borel masks ------------


def ref_indecomposables(roots) -> tuple:
    """The roots not expressible as a sum of two members (repeats
    allowed), in descending root order, by a tuple subtraction for every
    pair of vectors in place of root codes."""
    vecset = {r.vector.r for r in roots}
    found = [r for r in roots
             if not any(tuple(a - b for a, b in zip(r.vector.r, w)) in vecset for w in vecset)]
    return tuple(sorted(found, key=Root.sort_key, reverse=True))


def ref_enumerate_borels(rs) -> tuple[list, list]:
    """enumerate_borels by a breadth-first search over Borel objects: the
    standard simple system by ref_indecomposables, each reflection by
    odd_reflect on root vectors, each layer sorted by the canonical odd
    positive sets as tuples of root vectors, and each undirected edge
    (u, i, v) listed once, from its lower rank u."""
    odd = tuple(sorted(rs.standard_odd_positive, key=Root.sort_key))
    borels = [Borel(odd, ref_indecomposables(rs.even_positive + odd))]
    rank = {odd: 0}
    edges, layer = [], borels[:]
    while layer:
        found, pending = {}, []
        for b in layer:
            for i, r in enumerate(b.simple, start=1):
                if r.parity == "odd" and r.isotropic:
                    nb = odd_reflect(rs, b, i)
                    known = found.setdefault(nb.odd_positive, nb) if nb.odd_positive not in rank \
                        else borels[rank[nb.odd_positive]]
                    assert known.simple == nb.simple, "simple order depends on the path"
                    pending.append((rank[b.odd_positive], i, nb.odd_positive))
        layer = [found[key] for key in sorted(found, key=lambda key: [r.sort_key() for r in key])]
        for b in layer:
            rank[b.odd_positive] = len(borels)
            borels.append(b)
        edges += [(u, i, rank[key]) for u, i, key in pending if u < rank[key]]
    return borels, edges


def ref_partition_of_borel(rs, b) -> tuple:
    """partition_of_borel on the set of b's odd root vectors, in place of
    its odd mask: box (j, c) is flipped when d_j - e_{m+1-c} is in it."""
    m, n = rs.params
    pos = {r.vector.r for r in b.odd_positive}

    def difference(p, q):
        return tuple(1 if k == p else -1 if k == q else 0 for k in range(rs.rank))

    flipped = {(j, m + 1 - i) for i in range(1, m + 1) for j in range(1, n + 1)
               if difference(m + j - 1, i - 1) in pos}
    rows = []
    for j in range(1, n + 1):
        cols = sorted(c for row, c in flipped if row == j)
        assert cols == list(range(1, len(cols) + 1)), f"row {j} is not left-justified"
        rows.append(len(cols))
    assert all(rows[k] >= rows[k + 1] for k in range(n - 1)), "not a partition"
    while rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)


def ref_or_graph(rs, borels, edges) -> tuple:
    """(vertices, colors, edges, root_of_color) of OR(g) on the Borel
    objects of an enumeration, in place of its masks: each label from the
    Borel's odd set (ref_partition_of_borel for gl), the colors from
    pure_positive_roots, which intersects the Borels' odd sets, and each
    edge colored by the name of its reflected root, negated when the
    reference Borel does not hold it.  The edges are as the graph
    normalizes them, in its order."""
    ref = borels[0].odd_set()
    pure, _ = pure_positive_roots(rs, borels)
    color_roots = sorted((r for r in ref if r.isotropic and r not in pure), key=Root.sort_key)
    root_of_color = {rs.root_name(r): r for r in color_roots}

    def label(k, b):
        if rs.family == "gl":
            return "".join(map(str, ref_partition_of_borel(rs, b))) or "∅"
        if rs.family == "gl11n":
            n = rs.params[0]
            return "".join("0" if rs.root_by_name(f"e{i}-d{n + 1 - i}") in b.odd_set() else "1"
                           for i in range(1, n + 1))
        return f"#{k}"

    labels = [label(k, b) for k, b in enumerate(borels)]
    graph_edges = []
    for u, i, v in edges:
        alpha = borels[u].simple[i - 1]
        rep = alpha if alpha in ref else rs.negate(alpha)
        assert rep in ref
        graph_edges.append((labels[u], labels[v], rs.root_name(rep)))
    graph = ColoredGraph(tuple(labels), tuple(root_of_color), tuple(graph_edges))
    return graph.vertices, graph.colors, graph.edges, root_of_color


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


# -- the per-Borel queries, with nothing kept on the Borel ----------------------


def ref_weyl_vector(rs, b) -> Weight:
    """rho_b as a Weight sum: the even positive roots less the odd positive
    roots of b, halved in Scalar arithmetic."""
    total = Weight.of((0,) * rs.rank)
    for r in rs.even_positive:
        total = total + r.vector
    for r in b.odd_positive:
        total = total - r.vector
    return scaled(total, Fraction(1, 2))


def ref_is_typical(rs, b, lam: Weight) -> bool:
    """No isotropic root is orthogonal to lam + rho_b, by Scalar pairings."""
    shifted = lam + ref_weyl_vector(rs, b)
    return not any(ref_orthogonal(rs, shifted, r) for r in rs.delta_iso)


def ref_s1_classify(rs, b, lam: Weight) -> tuple:
    """s1_classify's sets and verdict value, recomputed from Root sets on
    every call: the pure roots from every enumerated Borel's odd set, each
    criterion by its own Scalar pairing, typicality by ref_is_typical."""
    shifted = lam + ref_weyl_vector(rs, b)
    pos = {r for r in b.odd_positive if r.isotropic}
    _, pure_iso = pure_positive_roots(rs, enumerate_borels(rs)[0])
    simples = {r for r in b.simple if r.parity == "odd" and r.isotropic}
    cin, cout = set(), set()
    for r in rs.delta_iso:
        if r not in pos:
            cout.add(r)
        elif r in simples:
            (cin if ref_orthogonal(rs, lam, r) else cout).add(r)
        elif ref_orthogonal(rs, shifted, r) and r not in pure_iso:
            cin.add(r)
    if cin:
        verdict = "nonempty"
    elif rs.type_one or rs.family == "d21alpha":
        verdict = "empty" if ref_is_typical(rs, b, lam) else "nonempty"
    else:
        verdict = "undetermined"
    return cin, cout, set(rs.delta_iso) - cin - cout, verdict


def ref_hypercubic_collections(rs, b, lam: Weight) -> list:
    """Every subset of b's isotropic simple indices whose roots are pairwise
    orthogonal and orthogonal to lam, by Scalar pairings, as (sorted
    indices, roots, sigma), by size and then by indices; sigma is a Weight
    sum."""
    candidates = [i for i, r in enumerate(b.simple, start=1)
                  if r.parity == "odd" and r.isotropic and ref_orthogonal(rs, lam, r)]
    out = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            roots = [b.simple[i - 1] for i in combo]
            if all(ref_orthogonal(rs, x.vector, y) for x, y in itertools.combinations(roots, 2)):
                sigma = Weight.of((0,) * rs.rank)
                for r in roots:
                    sigma = sigma + r.vector
                out.append((list(combo), roots, sigma))
    return sorted(out, key=lambda c: (len(c[0]), c[0]))


def ref_brick_verdict(rs, b, roots) -> bool:
    """The brick identity for a set of simple roots R of b, compared
    directly on numerators: that of b's odd set less R, against that of
    b's odd set with -R times prod_{beta in R} (1 + e^beta)(1 + e^-beta)."""
    pos = set(b.odd_positive)
    meet = pos - set(roots)
    join = pos | {rs.negate(r) for r in roots}
    shifts = [v for r in roots for v in (r.vector.r, (-r.vector).r)]
    return _numerator(rs, meet) == _times_factors(_numerator(rs, join), shifts)


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


def state_loop_exchange(g: ColoredGraph) -> ExchangeReport:
    """verify_exchange by a loop over the states of the rainbow index's
    table and over every vertex pair, in place of the counts and verdicts
    that the color-coding pass records: a state (x, used) from u is a
    geodesic when dist(u, x) is its color count, and u -> v has a
    geodesic that is not rainbow when it has more geodesics than rainbow
    geodesics.  Its witness walks are listed as verify_exchange lists
    them."""
    ix = g._walk_index
    if ix.dist and -1 in ix.dist[0]:
        raise DisconnectedEndpoints("graph is not connected")
    low = ix.low
    n_shortest = n_rainbow = 0
    bad_pairs, bad_sources = [], []
    for u, (du, geo, states) in enumerate(zip(ix.dist, ix.geodesics,
                                              g._rainbow_index.rainbow)):
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


def state_loop_extension(g: ColoredGraph) -> ExtensionReport:
    """verify_rainbow_extension by a loop over the states of the rainbow
    index's table, in place of its frontiers: for every state
    (x, inner) of the walks from v1, every edge v1 -- v0 of a color b0
    not in inner and every b0-colored edge x -- y, the reach test looks up
    (y, inner) in the states from v0.  Fast enough for the stretch
    graphs, where the walk-by-walk reference is not; its violations are
    listed from the failing v0 as verify_rainbow_extension lists them."""
    ix = g._walk_index
    low, adj, reached = ix.low, ix.adj, g._rainbow_index.rainbow
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
            inner = sum(bits[1:])
            for y, b in adj[path[-1]]:
                if b == bits[0] and inner | y not in back:
                    violations.append((_as_walk(g, ix, path, bits), g.vertices[y]))
    return ExtensionReport(tuple(violations), n_conf)


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
    used1 = {c for _, _, c in g1.edges}
    if not used1 <= set(color_map.keys()):
        return False
    images = [color_map[c] for c in used1]
    if len(set(images)) != len(images) or not set(images) <= set(g2.colors):
        return False
    for u, v, c in g1.edges:
        if not g2.has_edge(vertex_map[u], vertex_map[v], color_map[c]):
            return False
    return True


def bfs_match_order(g) -> list:
    """A vertex order for the isomorphism search: each component starts
    at a vertex of the largest degree, ties broken by a linear index
    lookup per vertex, and is walked breadth first."""
    remaining = set(g.vertices)
    order = []
    while remaining:
        start = max(remaining, key=lambda v: (g.degree(v), -g.vertices.index(v)))
        remaining.discard(start)
        queue = [start]
        for x in queue:
            order.append(x)
            for y, _ in g.neighbors(x):
                if y in remaining:
                    remaining.discard(y)
                    queue.append(y)
    return order


def ref_colored_isomorphic(g1: ColoredGraph, g2: ColoredGraph):
    """colored_isomorphic by enumerating every bijection of the used
    colors within classes of equal color signature and, for each one,
    matching the vertices from scratch with the colors fixed, in place
    of binding colors while the vertices are matched; on vertex IDs and
    per-vertex color-degree dicts in place of the isomorphism table."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None

    def color_degrees(g):
        table = {v: {} for v in g.vertices}
        for u, v, c in g.edges:
            for x in (u, v):
                table[x][c] = table[x].get(c, 0) + 1
        return table

    def signature_classes(g, cds):
        groups = {}
        for c in dict.fromkeys(c for _, _, c in g.edges):
            degs = sorted(cd[c] for cd in cds.values() if c in cd)
            groups.setdefault((sum(degs) // 2, tuple(degs)), []).append(c)
        return groups

    def vertex_signatures(g, cds):
        return sorted((g.degree(v), tuple(sorted(cds[v].values()))) for v in g.vertices)

    cds1, cds2 = color_degrees(g1), color_degrees(g2)
    groups1, groups2 = signature_classes(g1, cds1), signature_classes(g2, cds2)
    if {s: len(cs) for s, cs in groups1.items()} != {s: len(cs) for s, cs in groups2.items()}:
        return None
    if vertex_signatures(g1, cds1) != vertex_signatures(g2, cds2):
        return None

    order = bfs_match_order(g1)

    def match_vertices(psi):
        phi, used = {}, set()

        def candidates(v):
            mapped_nbrs = [(w, c) for w, c in g1.neighbors(v) if w in phi]
            if mapped_nbrs:
                w0, c0 = mapped_nbrs[0]
                pool = [x for x, cc in g2.neighbors(phi[w0]) if cc == psi[c0]]
            else:
                pool = list(g2.vertices)
            return [x for x in pool
                    if x not in used and g2.degree(x) == g1.degree(v)
                    and all(cds2[x].get(psi[c], 0) == k for c, k in cds1[v].items())
                    and all(g2.has_edge(x, phi[w], psi[c]) for w, c in mapped_nbrs)]

        def extend(k):
            if k == len(order):
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

    sigs = sorted(groups1)
    for images in itertools.product(*(itertools.permutations(groups2[s]) for s in sigs)):
        psi = {c: d for s, perm in zip(sigs, images) for c, d in zip(groups1[s], perm)}
        phi = match_vertices(psi)
        if phi is not None:
            return IsoWitness(phi, psi)
    return None


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


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix, given as equal-length rows, by
    fraction-free (Bareiss) elimination.  Every division is exact, so
    rational rows are scaled to integers first."""
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    m, n = len(mat), len(mat[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        for i in range(row + 1, m):
            for j in range(col + 1, n):
                mat[i][j] = (mat[row][col] * mat[i][j] - mat[i][col] * mat[row][j]) // prev
            mat[i][col] = 0
        prev = mat[row][col]
        rank += 1
        row += 1
        if row == m:
            break
    return rank
