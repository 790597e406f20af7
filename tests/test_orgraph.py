"""OR graphs, atypicality quotients, walk homomorphism oracle."""

import random

from fractions import Fraction

import pytest

from ortk import manifest
from ortk.ecgraph import (
    ColoredGraph,
    build_reference_graph,
    colored_isomorphic,
    make_walk,
    quotient_by_colors,
    verify_exchange,
    verify_rainbow_extension,
)
from ortk.numerics import DegreeOverflow, RankMismatch, Scalar, Weight, parse_weight, zero_weight
from ortk.orgraph import (
    ORGraph,
    atypical_colors,
    build_or_graph,
    build_or_lambda,
    rbtriv_check,
    semibrick_index_sets,
    walk_hom_oracle,
)
from ortk.rootsys import (
    build_root_system,
    enumerate_borels,
    standard_borel,
    weyl_vector,
)

from oracles import (
    bfs_distances,
    is_color_isomorphism,
    odd_reflect,
    ref_atypical_colors,
    ref_rbtriv,
    ref_semibrick_index_sets,
    ref_walk_hom_oracle,
    ref_walk_nonzero,
)


def test_or_gl22_matches_young():
    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    assert len(og.graph.vertices) == 6
    assert set(og.graph.vertices) == {"∅", "1", "2", "11", "21", "22"}
    young = build_reference_graph("young", 2, 2)
    assert colored_isomorphic(og.graph, young) is not None


def test_or_gl32_matches_young():
    rs = build_root_system("gl", m=3, n=2)
    og = build_or_graph(rs)
    young = build_reference_graph("young", 3, 2)
    assert colored_isomorphic(og.graph, young) is not None


def test_or_gl11n_matches_hypercube():
    rs = build_root_system("gl11n", n=3)
    og = build_or_graph(rs)
    assert "000" in og.graph.vertices
    cube = build_reference_graph("hypercube", n=3)
    assert colored_isomorphic(og.graph, cube) is not None


@pytest.mark.parametrize("family, m, n, counts", [
    ("gl", 4, 3, (9_943, 19_886, 1_096)),
    ("gl11n", None, 6, (62_592, 125_184, 124_800)),
])
def test_or_walk_counts(family, m, n, counts):
    # geodesics, rainbow walks and extension configurations, as the
    # walk-by-walk enumeration counted them
    g = build_or_graph(build_root_system(family, m, n)).graph
    exchange = verify_exchange(g)
    extension = verify_rainbow_extension(g)
    assert exchange.passed and extension.passed
    assert (exchange.n_shortest_walks, exchange.n_rainbow_walks,
            extension.n_configurations) == counts


@pytest.mark.parametrize("family, m, n, reference", [
    (chk.family, chk.m, chk.n, chk.reference) for chk in manifest.ISO_SUITE] + [
    ("gl", 4, 3, "young"), ("gl11n", None, 6, "hypercube")])
def test_iso_witness_is_a_color_isomorphism(family, m, n, reference):
    g = build_or_graph(build_root_system(family, m, n)).graph
    ref = build_reference_graph(reference, m, n)
    witness = colored_isomorphic(g, ref)
    assert witness is not None
    assert is_color_isomorphism(g, ref, witness.vertex_bijection, witness.color_bijection)


def test_or_ospB_matches_young():
    rs = build_root_system("ospB", m=2, n=2)
    og = build_or_graph(rs)
    young = build_reference_graph("young", 2, 2)
    assert colored_isomorphic(og.graph, young) is not None


def test_or_d21_tree():
    rs = build_root_system("d21alpha")
    og = build_or_graph(rs)
    g = og.graph
    assert len(g.vertices) == 4
    assert len(g.edges) == 3
    degrees = sorted(g.degree(v) for v in g.vertices)
    assert degrees == [1, 1, 1, 3]
    # the center is the Borel one reflection away from the standard one
    center = max(g.vertices, key=g.degree)
    assert center == "#1"


def test_or_colors_are_nonpure_isotropic():
    for family, kw in [("gl", dict(m=2, n=2)), ("ospB", dict(m=1, n=1)),
                       ("d21alpha", dict())]:
        rs = build_root_system(family, **kw)
        og = build_or_graph(rs)
        for c, root in og.root_of_color.items():
            assert root.isotropic
            assert rs.root_name(root) == c
        used = {c for _, _, c in og.graph.edges}
        assert used == set(og.graph.colors)


def test_atypical_colors_gl32():
    rs = build_root_system("gl", m=3, n=2)
    og = build_or_graph(rs)
    lam = parse_weight("1,0,0,-1,0")
    d = atypical_colors(rs, og, lam)
    assert d == {"e3-d1", "e2-d1", "e1-d2"}
    assert "e3-d1" in d


def test_atypical_colors_zero_weight():
    for family, kw in [("gl", dict(m=2, n=2)), ("d21alpha", dict())]:
        rs = build_root_system(family, **kw)
        og = build_or_graph(rs)
        d = atypical_colors(rs, og, zero_weight(len(rs.basis_names)))
        assert d == frozenset()


def test_atypical_colors_gl11():
    rs = build_root_system("gl", m=1, n=1)
    og = build_or_graph(rs)
    d = atypical_colors(rs, og, Weight((1, 0)))
    assert d == {"e1-d1"}


@pytest.mark.parametrize("family, m, n", [("gl", 4, 3), ("gl11n", None, 5),
                                          ("d21alpha", None, None)])
def test_atypical_colors_match_scalar_pairing(family, m, n):
    # seeded rational weights, a-carrying ones on D(2,1;a); a pairing that
    # leaves the degree-1 space raises as the Scalar reference does
    rs = build_root_system(family, m=m, n=n)
    og = build_or_graph(rs)
    rng = random.Random(7)
    a_parts = (0,) * 9 + (1, -2) if family == "d21alpha" else (0,)
    raised = 0
    for _ in range(80):
        den = rng.choice((1, 1, 2, 3))
        # small coordinates, so that some color roots pair to zero
        r = [rng.randint(-1, 1) for _ in range(rs.rank)]
        s = [rng.choice(a_parts) for _ in range(rs.rank)]
        lam = Weight.of(r, s, den)
        try:
            d = ref_atypical_colors(rs, og, lam)
        except DegreeOverflow:
            raised += 1
            with pytest.raises(DegreeOverflow):
                atypical_colors(rs, og, lam)
            continue
        assert atypical_colors(rs, og, lam) == d
    assert (raised > 0) == (family == "d21alpha")
    with pytest.raises(RankMismatch):
        atypical_colors(rs, og, zero_weight(rs.rank + 1))


def test_atypical_colors_refuse_an_a_carrying_d21_weight():
    rs = build_root_system("d21alpha")
    og = build_or_graph(rs)
    lam = Weight.of((0, 0, 0), (1, 0, 0))
    with pytest.raises(DegreeOverflow):
        atypical_colors(rs, og, lam)


def test_build_or_lambda_quotients():
    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    q = build_or_lambda(rs, og, zero_weight(4))
    assert len(q.graph.vertices) == 6
    assert q.loops == ()

    rs11 = build_root_system("gl", m=1, n=1)
    og11 = build_or_graph(rs11)
    q11 = build_or_lambda(rs11, og11, Weight((1, 0)))
    assert len(q11.graph.vertices) == 1


def test_or_lambda_gl32_example():
    # contracting the three atypical colors of lambda = e1-d1 leaves a
    # connected 7-class quotient that still satisfies the exchange property
    rs = build_root_system("gl", m=3, n=2)
    og = build_or_graph(rs)
    lam = parse_weight("1,0,0,-1,0")
    q = build_or_lambda(rs, og, lam)
    merged = {}
    for v, c in q.vertex_map.items():
        merged.setdefault(c, set()).add(v)
    sizes = sorted(len(s) for s in merged.values())
    assert len(q.graph.vertices) == len(merged)
    assert sum(sizes) == 10
    assert q.loops == ()
    assert verify_exchange(q.graph).passed


def test_rbtriv_check():
    rs = build_root_system("gl", m=1, n=1)
    og = build_or_graph(rs)
    assert rbtriv_check(rs, og, Weight((1, 0)))
    assert not rbtriv_check(rs, og, zero_weight(2))

    rsd = build_root_system("d21alpha")
    ogd = build_or_graph(rsd)
    assert not rbtriv_check(rsd, ogd, zero_weight(3))


def grid_weights(family, m, n):
    """The LAMBDA_GRID weights of one family, each as given and shifted
    by the Weyl vector of the standard Borel."""
    rs = build_root_system(family, m, n)
    rho = weyl_vector(rs, standard_borel(rs))
    lams = [parse_weight(text, rs.rank)
            for entry in manifest.LAMBDA_GRID
            if (entry.family, entry.m, entry.n) == (family, m, n)
            for text in entry.weights]
    return rs, lams + [lam + rho for lam in lams]


@pytest.mark.parametrize("family, m, n", [
    key for key in manifest.grid_families()
    if build_root_system(*key).type_one])
def test_rbtriv_check_matches_direct_criterion_on_grid(family, m, n):
    rs, lams = grid_weights(family, m, n)
    og = build_or_graph(rs)
    verdicts = [rbtriv_check(rs, og, lam) for lam in lams]
    assert verdicts == [ref_rbtriv(rs, og, lam) for lam in lams]


def test_walk_hom_oracle_gl22():
    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    lam = zero_weight(4)
    w = make_walk(og.graph, ["∅", "1", "2", "21"])
    verdict = walk_hom_oracle(rs, og, lam, w)
    assert verdict.nonzero
    got = {rs.root_name(r) for r in verdict.monomial}
    assert got == {"e2-d1", "e1-d1", "e2-d2"}

    w2 = make_walk(og.graph, ["∅", "1", "2", "21", "11"])
    verdict2 = walk_hom_oracle(rs, og, lam, w2)
    assert not verdict2.nonzero
    assert verdict2.monomial == ()


def test_walk_hom_oracle_empty_walk():
    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    w = make_walk(og.graph, ["21"])
    verdict = walk_hom_oracle(rs, og, zero_weight(4), w)
    assert verdict.nonzero
    assert verdict.monomial == ()


def test_walk_hom_monomial_in_start_positives():
    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    lam = zero_weight(4)
    w = make_walk(og.graph, ["22", "21", "2", "1", "∅"])
    verdict = walk_hom_oracle(rs, og, lam, w)
    assert verdict.nonzero
    start = enumerate_borels(rs)[0][og.graph._vindex["22"]]
    for r in verdict.monomial:
        assert r in start.odd_set()


def test_walk_hom_atypical_step_erased():
    # for gl(1,1) with lambda = e1 the single edge is contracted, so the
    # back-and-forth walk still composes to a nonzero map
    rs = build_root_system("gl", m=1, n=1)
    og = build_or_graph(rs)
    vs = list(og.graph.vertices)
    w = make_walk(og.graph, [vs[0], vs[1], vs[0]])
    assert walk_hom_oracle(rs, og, Weight((1, 0)), w).nonzero
    assert not walk_hom_oracle(rs, og, zero_weight(2), w).nonzero


def test_walk_hom_oracle_refuses_a_quotient_loop():
    # two parallel edges a-b: D_lambda holds the color of one and not the
    # other, so contracting D_lambda makes the kept edge a loop.  OR graphs
    # have no such pair; the oracle raises rather than drop or keep the step
    rs = build_root_system("gl", m=2, n=2)
    real = build_or_graph(rs)
    lam = parse_weight("1,0,0,-1")
    assert {"e1-d1", "e2-d2"} == atypical_colors(rs, real, lam)
    g = ColoredGraph(("a", "b"), ("e1-d1", "e2-d1"),
                     (("a", "b", "e1-d1"), ("a", "b", "e2-d1")))
    og = ORGraph(g, {c: real.root_of_color[c] for c in g.colors})
    assert quotient_by_colors(g, {"e1-d1"}).loops == (("a", "e2-d1"),)
    for path, colors in ((["a"], ()), (["a", "b"], ("e1-d1",)), (["a", "b"], ("e2-d1",))):
        with pytest.raises(AssertionError, match="loop"):
            walk_hom_oracle(rs, og, lam, make_walk(g, path, colors))
    # the loop is refused before any orientation row is built
    assert og._oriented == {}


def test_walk_hom_oracle_matches_shortest():
    # the composition is nonzero iff the projected walk is shortest
    import itertools

    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    lam = parse_weight("1,0,0,-1")
    quotient = build_or_lambda(rs, og, lam)
    seen = 0
    for a, b_, c in itertools.product(og.graph.vertices, repeat=3):
        try:
            w = make_walk(og.graph, [a, b_, c])
        except Exception:
            continue
        seen += 1
        verdict = walk_hom_oracle(rs, og, lam, w)
        va, vc = quotient.vertex_map[a], quotient.vertex_map[c]
        kept = [col for col in w.walk_colors
                if col in quotient.graph.colors]
        dist = bfs_distances(quotient.graph, va)[vc]
        assert verdict.nonzero == (len(kept) == dist)
    assert seen > 0


def test_walk_hom_concatenation():
    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    lam = zero_weight(4)
    w1 = make_walk(og.graph, ["∅", "1", "2"])
    w2 = make_walk(og.graph, ["2", "21"])
    w = make_walk(og.graph, ["∅", "1", "2", "21"])
    v1 = walk_hom_oracle(rs, og, lam, w1)
    v2 = walk_hom_oracle(rs, og, lam, w2)
    v = walk_hom_oracle(rs, og, lam, w)
    assert v1.nonzero and v2.nonzero and v.nonzero
    combined = sorted(v1.monomial + v2.monomial, key=lambda r: r.sort_key())
    assert tuple(combined) == v.monomial


def test_image_intersection_kind():
    # the images of the reflections at two isotropic simple roots of b, with
    # lambda orthogonal to both, meet in the image of the double reflection
    # when the roots are orthogonal, and only in zero when they pair nonzero
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    b = borels[1]  # partition (1): simples e1-d1, -e2+d1, e2-d2
    lam = zero_weight(4)
    a1, a2, a3 = b.simple
    assert all(a.isotropic for a in b.simple)
    assert rs.orthogonal_roots(lam, b.simple) == set(b.simple)
    assert rs.roots_orthogonal(a1, a3)
    refl = odd_reflect(rs, odd_reflect(rs, b, 3), 1)
    assert refl.odd_positive != b.odd_positive
    assert refl.odd_positive == odd_reflect(rs, odd_reflect(rs, b, 1), 3).odd_positive
    assert not rs.roots_orthogonal(a1, a2)


def test_semibrick_index_sets_gl11():
    rs = build_root_system("gl", m=1, n=1)
    og = build_or_graph(rs)
    borels, _ = enumerate_borels(rs)
    std, other = borels
    sets = semibrick_index_sets(rs, og, zero_weight(2), std)
    assert sets[std] == {1}
    assert sets[other] == frozenset()
    # with bbar at the other end the roles swap
    sets2 = semibrick_index_sets(rs, og, zero_weight(2), other)
    assert sets2[other] == {1}
    assert sets2[std] == frozenset()


def test_semibrick_index_sets_gl22():
    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    borels, _ = enumerate_borels(rs)
    borel_of = dict(zip(og.graph.vertices, borels))
    bbar = borel_of["∅"]
    sets = semibrick_index_sets(rs, og, zero_weight(4), bbar)
    assert sets[borel_of["∅"]] == {2}
    assert sets[borel_of["22"]] == frozenset()
    # Borel (1) sits between ∅ and the two rank-2 vertices; reflecting
    # away from ∅ and coming back is never rainbow, so only the indices
    # whose reflections move away from bbar contribute
    b1 = borel_of["1"]
    got = sets[b1]
    for i in got:
        nb = odd_reflect(rs, b1, i)
        assert nb.odd_positive != bbar.odd_positive


def test_semibrick_index_sets_atypical():
    # gl(1,1) with lambda = e1: the edge is contracted, both Borels map
    # to one class, every isotropic index qualifies
    rs = build_root_system("gl", m=1, n=1)
    og = build_or_graph(rs)
    borels, _ = enumerate_borels(rs)
    sets = semibrick_index_sets(rs, og, Weight((1, 0)), borels[0])
    assert sets[borels[0]] == {1}
    assert sets[borels[1]] == {1}
    # the result is keyed by the enumerated Borels themselves, and bbar must
    # be one of them: a Borel compares by identity, so a reflected copy of
    # borels[0] is not found
    assert all(k is b for k, b in zip(sets, borels)) and len(sets) == len(borels)
    copy_of_std = odd_reflect(rs, borels[1], 1)
    assert copy_of_std.odd_positive == borels[0].odd_positive
    with pytest.raises(ValueError):
        semibrick_index_sets(rs, og, Weight((1, 0)), copy_of_std)


@pytest.mark.parametrize("family, m, n",
                         manifest.grid_families() + (("gl11n", None, 4), ("ospB", 3, 2),
                                                     ("ospD", 3, 2), ("ospB", 2, 3)))
def test_semibrick_index_sets_match_rainbow_search(family, m, n):
    # the distance criterion against an exhaustive rainbow search, at
    # every grid weight and for every bbar; gl(1|1)^4 and the three osp
    # systems, whose vertices are labelled #k, are off the grid and run at
    # lambda = 0, where no edge is contracted
    rs, lams = grid_weights(family, m, n)
    og = build_or_graph(rs)
    for lam in lams or [zero_weight(rs.rank)]:
        for bbar in enumerate_borels(rs)[0]:
            assert (semibrick_index_sets(rs, og, lam, bbar)
                    == ref_semibrick_index_sets(rs, og, lam, bbar))


@pytest.mark.parametrize("family, m, n, seed", [("gl", 4, 3, 41), ("gl11n", None, 5, 42)])
def test_walk_oracle_matches_shortest_walk_reference_on_random_input(family, m, n, seed):
    # random integer weights, zero among them, and random walks; D is
    # decided by the Scalar pairing and the quotient by BFS components,
    # both apart from the oracle
    rs = build_root_system(family, m=m, n=n)
    og = build_or_graph(rs)
    g = og.graph
    rng = random.Random(seed)
    cases = []
    for _ in range(60):
        r = rng.choice((0, 1, 1, 2))
        lam = Weight(rng.randint(-r, r) for _ in range(rs.rank))
        d = ref_atypical_colors(rs, og, lam)
        at = rng.choice(g.vertices)
        path = [at]
        for _ in range(rng.randrange(0, 9)):
            at, _c = rng.choice(sorted(g.neighbors(at), key=str))
            path.append(at)
        cases.append((lam, d, make_walk(g, path), ref_walk_nonzero(g, d, path)))
    g.__dict__.pop("_quotients", None)  # the first pass starts from a cold memo
    for _ in ("cold", "warm"):
        for lam, d, w, (nonzero, steps) in cases:
            verdict = walk_hom_oracle(rs, og, lam, w)
            assert verdict.nonzero == nonzero, (lam, w.walk_vertices)
            assert len(verdict.monomial) == (steps if nonzero else 0)
        assert set(g._quotients) == {d for _, d, _, _ in cases}
    assert len({d for _, d, _, _ in cases}) > 5
    assert {nonzero for _, _, _, (nonzero, _) in cases} == {True, False}


def test_or_graph_tables_are_built_on_first_use():
    rs = build_root_system("gl", m=3, n=2)
    og = build_or_graph(rs)
    g = og.graph
    assert og._color_table is None and og._oriented == {}
    # the color table: names and root supports in color order
    atypical_colors(rs, og, zero_weight(rs.rank))
    assert og._color_table == (g.colors, tuple(og.root_of_color[c].support for c in g.colors))
    assert og._oriented == {}
    # one orientation row per start vertex of a nonzero verdict, and no other
    borels, _ = enumerate_borels(rs)
    rng = random.Random(3)
    starts = set()
    for _ in range(12):
        at = rng.choice(g.vertices)
        path = [at]
        for _ in range(rng.randrange(0, 4)):
            at, _c = rng.choice(sorted(g.neighbors(at), key=str))
            path.append(at)
        if walk_hom_oracle(rs, og, zero_weight(rs.rank), make_walk(g, path)).nonzero:
            starts.add(g._vindex[path[0]])
    assert 1 < len(starts) < len(g.vertices)
    assert set(og._oriented) == starts
    for k, row in og._oriented.items():
        assert tuple(row) == g.colors
        for c, root in row.items():
            assert root in borels[k].odd_positive
            assert root.vector.r in {og.root_of_color[c].vector.r,
                                     tuple(-x for x in og.root_of_color[c].vector.r)}


WALK_SYSTEMS = [("gl", 4, 3, None), ("gl11n", None, 6, None), ("ospB", 3, 2, None),
                ("ospD", 3, 2, None), ("gl", 2, 2, None), ("d21alpha", None, None, None),
                ("d21alpha", None, None, Fraction(2, 3))]


def _nullspace(rows, n):
    """A basis of the rational vectors x with row . x = 0 for every row."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(n):
        p = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if p is None:
            continue
        r = len(pivots)
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][free]
        basis.append(v)
    return basis


def _weight_orthogonal_to(rs, roots, rng, stray_a=False):
    """A random weight whose rational and a-parts pair to zero with every
    root in roots, under the specialization of a if there is one.  With
    stray_a it carries one more a-part on a random coordinate; on D(2,1;a)
    that overflows against every odd root unless it sits on e1."""
    rows = []
    for root in roots:
        r = [d * x for d, x in zip(rs.form.r, root.vector.r)]
        s = [d * x for d, x in zip(rs.form.s, root.vector.r)]
        alpha = rs.alpha_value
        rows += [r, s] if alpha is None else [[x + alpha * y for x, y in zip(r, s)]]
    basis = _nullspace(rows, rs.rank)

    def combination():
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in basis]
        return [sum((c * v[i] for c, v in zip(coeffs, basis)), Fraction(0))
                for i in range(rs.rank)]

    r = combination()
    s = combination() if rng.random() < 0.3 else [0] * rs.rank
    if stray_a:
        s[rng.randrange(rs.rank)] += rng.choice((1, -1, Fraction(1, 2)))
    return Weight(tuple(Scalar(x, y) for x, y in zip(r, s)))


@pytest.mark.parametrize("family, m, n, alpha", WALK_SYSTEMS)
def test_walk_hom_oracle_matches_root_by_root_reference(family, m, n, alpha):
    # random walks of length 0-8 and weights orthogonal to 0-4 chosen
    # colors: the verdict and the exact monomial, or DegreeOverflow, agree
    # with the reference that orients each root against the start Borel's
    # odd set and pairs by the Scalar product
    rs = build_root_system(family, m=m, n=n, alpha=alpha)
    og = build_or_graph(rs)
    g = og.graph
    rng = random.Random(f"{family}{m}{n}{alpha}")
    color_roots = list(og.root_of_color.values())
    verdicts, sizes = [], set()
    for _ in range(120):
        chosen = rng.sample(color_roots, min(rng.randint(0, 4), len(color_roots)))
        stray_a = family == "d21alpha" and rng.random() < 0.4
        lam = _weight_orthogonal_to(rs, chosen, rng, stray_a)
        at = rng.choice(g.vertices)
        path = [at]
        for _ in range(rng.randrange(0, 9)):
            at, _c = rng.choice(sorted(g.neighbors(at), key=str))
            path.append(at)
        w = make_walk(g, path)
        try:
            want = ref_walk_hom_oracle(rs, og, lam, w)
        except DegreeOverflow:
            with pytest.raises(DegreeOverflow):
                walk_hom_oracle(rs, og, lam, w)
            verdicts.append("overflow")
            continue
        assert walk_hom_oracle(rs, og, lam, w) == want, (lam, path)
        if not stray_a:
            assert not ref_atypical_colors(rs, og, lam) & {rs.root_name(r) for r in chosen}
        verdicts.append(want.nonzero)
        sizes.add(len(want.monomial))
    assert {True, False} <= set(verdicts)
    assert len(sizes) > 2
    assert ("overflow" in verdicts) == (family == "d21alpha")
