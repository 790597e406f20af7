"""Root systems, Borel enumeration, odd reflections."""

import hashlib
import itertools
import json
import random

from fractions import Fraction

import pytest

from ortk import manifest
from ortk.ecgraph import graph_to_json
from ortk.numerics import Weight, zero_weight
from ortk.orgraph import build_or_graph
from ortk.rootsys import (
    Borel,
    NotIsotropicSimple,
    RootSystem,
    UnsupportedFamily,
    _ReflectionRow,
    build_root_system,
    enumerate_borels,
    partition_of_borel,
    pure_positive_roots,
    standard_borel,
    weyl_vector,
)

from oracles import (
    odd_reflect,
    ref_enumerate_borels,
    ref_indecomposables,
    ref_or_graph,
    ref_orthogonal,
    ref_partition_of_borel,
    ref_simple_roots,
)


def names(rs, roots):
    return [rs.root_name(r) for r in roots]


def test_root_counts():
    cases = [
        ("gl", dict(m=2, n=2), 4, 8, 8),
        ("gl", dict(m=3, n=2), 8, 12, 12),
        ("gl11n", dict(n=3), 0, 6, 6),
        ("d21alpha", dict(), 6, 8, 8),
        ("ospB", dict(m=1, n=1), 4, 6, 4),
        ("ospB", dict(m=2, n=2), 16, 20, 16),
        ("ospD", dict(m=1, n=1), 2, 4, 4),
        ("ospD", dict(m=2, n=2), 12, 16, 16),
    ]
    for family, kw, n_even, n_odd, n_iso in cases:
        rs = build_root_system(family, **kw)
        assert len(rs.delta0) == n_even, (family, kw)
        assert len(rs.delta1) == n_odd, (family, kw)
        assert len(rs.delta_iso) == n_iso, (family, kw)


def test_root_negation_closure():
    rng = random.Random(3)
    for family, kw in [("gl", dict(m=2, n=3)), ("ospB", dict(m=2, n=1)),
                       ("ospD", dict(m=2, n=2)), ("d21alpha", dict())]:
        rs = build_root_system(family, **kw)
        roots = list(rs.delta0) + list(rs.delta1)
        for r in rng.sample(roots, min(10, len(roots))):
            neg = rs.negate(r)
            assert neg.parity == r.parity
            assert neg.vector == -r.vector
            assert rs.negate(neg) == r
        # negation reverses the sorted delta1, which enumerate_borels'
        # integer sort of each layer relies on
        assert [rs.negate(r) for r in rs.delta1] == list(reversed(rs.delta1))


def test_standard_simples():
    rs = build_root_system("gl", m=2, n=2)
    b = standard_borel(rs)
    assert names(rs, b.simple) == ["e1-e2", "e2-d1", "d1-d2"]

    rs = build_root_system("gl", m=3, n=2)
    b = standard_borel(rs)
    assert names(rs, b.simple) == ["e1-e2", "e2-e3", "e3-d1", "d1-d2"]

    rs = build_root_system("ospB", m=1, n=1)
    b = standard_borel(rs)
    assert names(rs, b.simple) == ["e1-d1", "d1"]

    rs = build_root_system("ospB", m=2, n=2)
    b = standard_borel(rs)
    assert names(rs, b.simple) == ["e1-e2", "e2-d1", "d1-d2", "d2"]

    rs = build_root_system("ospD", m=2, n=1)
    b = standard_borel(rs)
    assert names(rs, b.simple) == ["e1-e2", "e2-d1", "e2+d1", "2d1"] or \
        set(names(rs, b.simple)) >= {"e1-e2", "2d1"}

    rs = build_root_system("d21alpha")
    b = standard_borel(rs)
    assert names(rs, b.simple) == ["d-e1-e2", "2e1", "2e2"]

    rs = build_root_system("gl11n", n=3)
    b = standard_borel(rs)
    assert names(rs, b.simple) == ["e1-d3", "e2-d2", "e3-d1"]


def test_even_simple_ospB():
    rs = build_root_system("ospB", m=2, n=2)
    assert names(rs, rs.even_simple) == ["e1-e2", "e2", "d1-d2", "2d2"]


def test_even_simple_ospD():
    rs = build_root_system("ospD", m=2, n=2)
    got = set(names(rs, rs.even_simple))
    assert got == {"e1-e2", "e1+e2", "d1-d2", "2d2"}


def test_odd_reflect_gl22():
    rs = build_root_system("gl", m=2, n=2)
    b = standard_borel(rs)
    b2 = odd_reflect(rs, b, 2)
    assert names(rs, b2.simple) == ["e1-d1", "-e2+d1", "e2-d2"]
    # reflecting again at the same index restores the original
    back = odd_reflect(rs, b2, 2)
    assert back.odd_positive == b.odd_positive and back.simple == b.simple


def test_odd_reflect_rejects_non_isotropic():
    rs = build_root_system("gl", m=2, n=2)
    b = standard_borel(rs)
    with pytest.raises(NotIsotropicSimple):
        odd_reflect(rs, b, 1)
    with pytest.raises(NotIsotropicSimple):
        odd_reflect(rs, b, 0)
    with pytest.raises(NotIsotropicSimple):
        odd_reflect(rs, b, 4)


def test_odd_reflect_involution_everywhere():
    # a Borel compares by identity, so its roots and simple order are compared
    reflections = 0
    for family, kw in [("gl", dict(m=2, n=2)), ("gl", dict(m=3, n=2)),
                       ("gl11n", dict(n=3)), ("ospB", dict(m=2, n=1)),
                       ("ospB", dict(m=2, n=2)), ("ospB", dict(m=1, n=2)),
                       ("ospD", dict(m=1, n=2)), ("ospD", dict(m=2, n=2)),
                       ("d21alpha", dict()), ("d21alpha", dict(alpha=Fraction(2, 3)))]:
        rs = build_root_system(family, **kw)
        borels, _ = enumerate_borels(rs)
        for b in borels:
            for i in b.isotropic_simple_indices():
                back = odd_reflect(rs, odd_reflect(rs, b, i), i)
                assert back.odd_positive == b.odd_positive
                assert back.simple == b.simple
                reflections += 1
    assert reflections == 120


def test_enumerate_borels_counts():
    cases = [
        ("gl", dict(m=1, n=1), 2, 1),
        ("gl", dict(m=2, n=2), 6, 6),
        ("gl", dict(m=3, n=2), 10, 12),
        ("gl11n", dict(n=2), 4, 4),
        ("gl11n", dict(n=3), 8, 12),
        ("ospB", dict(m=1, n=1), 2, 1),
        ("ospB", dict(m=2, n=2), 6, 6),
        ("ospD", dict(m=1, n=1), 3, 2),
        ("ospD", dict(m=1, n=2), 5, 4),
        ("d21alpha", dict(), 4, 3),
        # the graph-stretch benchmark families
        ("gl", dict(m=4, n=3), 35, 60),
        ("gl11n", dict(n=6), 64, 192),
        ("ospB", dict(m=3, n=2), 10, 12),
        ("ospD", dict(m=3, n=2), 14, 18),
    ]
    for family, kw, n_borels, n_edges in cases:
        rs = build_root_system(family, **kw)
        borels, edges = enumerate_borels(rs)
        assert len(borels) == n_borels, (family, kw)
        assert len(edges) == n_edges, (family, kw)
        std = standard_borel(rs)
        assert borels[0].odd_positive == std.odd_positive and borels[0].simple == std.simple
        # every edge joins distinct enumerated vertices, earlier one first
        for u, i, v in edges:
            assert 0 <= u < v < len(borels)
            assert odd_reflect(rs, borels[u], i).odd_positive == borels[v].odd_positive


def test_a_path_dependent_simple_order_raises(monkeypatch):
    # a wrong entry planted in the reflection table of e2-d1, the first
    # reflection out of the standard Borel of gl(2|2): the Borel reached
    # again along another path then carries another simple order.  The
    # check raises AssertionError itself, so python -O keeps it
    rs = build_root_system("gl", m=2, n=2)
    index = rs._root_index.roots.index
    a = index(rs.root_by_name("e2-d1"))
    b, wrong = index(rs.root_by_name("d1-d2")), index(rs.root_by_name("e1-e2"))
    missing = _ReflectionRow.__missing__

    def planted(row, key):
        if (row.a, key) != (a, b):
            return missing(row, key)
        row[key] = wrong
        return wrong

    monkeypatch.setattr(_ReflectionRow, "__missing__", planted)
    with pytest.raises(AssertionError, match="depends on the path"):
        enumerate_borels(rs)


def test_gl22_borel_partitions():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    parts = [partition_of_borel(rs, b) for b in borels]
    assert parts == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    # diagrams label the Borels of gl(m|n) only
    rs2 = build_root_system("d21alpha")
    with pytest.raises(UnsupportedFamily):
        partition_of_borel(rs2, standard_borel(rs2))


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (3, 2), (4, 3)])
def test_partition_borel_is_the_enumerated_borel(m, n):
    # partition_of_borel is a bijection from the enumerated Borels onto the
    # diagrams in the n x m box, and the OR graph vertex of a diagram's label
    # (the --borel address) is that enumerated Borel itself
    rs = build_root_system("gl", m=m, n=n)
    borels, _ = enumerate_borels(rs)
    og = build_or_graph(rs)
    by_partition = {partition_of_borel(rs, b): b for b in borels}
    # the partitions in the n x m box, row lengths bottom-up
    parts = {tuple(x for x in rows if x)
             for rows in itertools.combinations_with_replacement(range(m, -1, -1), n)}
    assert len(by_partition) == len(borels)
    assert set(by_partition) == parts
    for p, b in by_partition.items():
        # row j, column c holds e_{m+1-c} - d_j, flipped when the box is present
        boxes = {(j, c) for j, row in enumerate(p, start=1) for c in range(1, row + 1)}
        flipped = {(j, m + 1 - i) for i in range(1, m + 1) for j in range(1, n + 1)
                   if rs.root_by_name(f"-e{i}+d{j}") in b.odd_positive}
        assert flipped == boxes, p
        vertex = borels[og.graph._vindex["".join(map(str, p)) or "∅"]]
        assert vertex is b, p


def test_partition_borel_reflects_as_its_vertex():
    # the partition (2, 1) Borel of gl(3|2), which --borel 21 addresses, has
    # simple system e1-d1, -e2+d1, e2-d2, -e3+d2; index 2 reflects at -e2+d1,
    # taking the box in row 1, column 2 out along the edge colored e2-d1
    rs = build_root_system("gl", m=3, n=2)
    og = build_or_graph(rs)
    b = enumerate_borels(rs)[0][og.graph._vindex["21"]]
    assert partition_of_borel(rs, b) == (2, 1)
    assert names(rs, b.simple) == ["e1-d1", "-e2+d1", "e2-d2", "-e3+d2"]
    assert partition_of_borel(rs, odd_reflect(rs, b, 2)) == (1, 1)
    assert ("11", "21", "e2-d1") in og.graph.edges


SIMPLE_ORACLE_FAMILIES = [
    (family, dict(m=m, n=n)) for family, m, n in manifest.grid_families()
] + [("gl", dict(m=4, n=3)), ("gl11n", dict(n=6)), ("ospB", dict(m=3, n=2)),
     ("ospB", dict(m=2, n=3)), ("ospD", dict(m=3, n=2)), ("ospD", dict(m=2, n=3)),
     ("d21alpha", dict(alpha=Fraction(2, 3)))]


SIMPLE_ORACLE_IDS = ["-".join([f] + [f"{k}{v}" for k, v in kw.items() if v])
                     for f, kw in SIMPLE_ORACLE_FAMILIES]


@pytest.mark.parametrize("family, kw", SIMPLE_ORACLE_FAMILIES, ids=SIMPLE_ORACLE_IDS)
def test_inherited_simple_system_matches_brute_force(family, kw):
    rs = build_root_system(family, **kw)
    borels, _ = enumerate_borels(rs)
    for b in borels:
        expected = ref_simple_roots(rs, b.odd_positive)
        assert set(b.simple) == expected, names(rs, b.simple)
        assert len(b.simple) == len(expected)


def enumeration_digest(rs):
    """sha256 of every Borel's odd positive names in rank order, its simple
    names in order, and the edge list."""
    borels, edges = enumerate_borels(rs)
    lines = [" ".join(names(rs, b.odd_positive)) + " | " + " ".join(names(rs, b.simple))
             for b in borels]
    lines += [f"{u} {i} {v}" for u, i, v in edges]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# digests of the enumeration as first pinned; a change to the Borels, their
# order, a simple order or an edge changes one
ENUMERATION_DIGESTS = {
    "gl-m1-n1": "26dde945506f20f9c047978954517b5468e9e72448bd16b373811ce8a5656516",
    "gl-m2-n1": "3d3bb6af4bd71440b46dbac4446fb1630c80a719e2a75751749a115948903551",
    "gl-m2-n2": "23c15b56cfb6daefeff3ad7986613968faeb840ae799204cd712ea0909ecda44",
    "gl-m3-n2": "a38d0b54ed1d4a4ebb94bdf333d8aacfc28e2359d85c0ebed047219028b75476",
    "gl11n-n1": "26dde945506f20f9c047978954517b5468e9e72448bd16b373811ce8a5656516",
    "gl11n-n2": "e03a3c434ae4d2e6b468f3dfe6de17cdc89d3630469222b3fe04a5cd96b37049",
    "gl11n-n3": "bf44e41b35c15598f1f0e288d87f60c46a5639fd6e79ae06e3e3b8c62a7c54a3",
    "ospB-m1-n1": "ce348bd2280ef19f5f99db5e08fe16b838e388297629b83c763460bd43f42b23",
    "ospB-m2-n1": "b3b428bdb5382a35aa5c74848b5884937365867eb1cab9c547f40d274e198e58",
    "ospB-m2-n2": "531b7f3a7e9bf39087f1f216f4e1987c1bec8baf17ff7d895c902aae1094ac7c",
    "ospD-m1-n2": "fca0e78f2e8168799ecec2f9c9f8f3aebf494ce1d7af16452c909b8b77848441",
    "ospD-m2-n2": "66047a14d41312dd83e316d5b8961701dd465682295b532227befb975251daae",
    "d21alpha": "59079613acd9be399062aab16b94234bb664688fe12c7b3bd7ffef49f8ec1c11",
    "gl-m4-n3": "d33095cb6cab9e057f40209a63f07908889323cf98b5c30a7f6e11693cb43c9b",
    "gl11n-n6": "ecfebac493aa6fb67df32c8f1119706282889cfa733f0f2d1332b15dcae8789a",
    "ospB-m3-n2": "6bfac1aa6d0a686855e3b226517a348c04ccc9dd09dd18a1542e3da1bf345268",
    "ospB-m2-n3": "11fe31ec3fed493750dea738b9363c9f3d88f8e85eec668125e3ca5b8e266f1b",
    "ospD-m3-n2": "e0fa270d6a2c0b4e9dd834b88ff6da38f2b58da9ecc75b1dc25fa67a0b07e452",
    "ospD-m2-n3": "261b37d50805e679ecbddd34c55b6692d36dc86fc34c2957825fa9891f81f31b",
    "d21alpha-alpha2/3": "59079613acd9be399062aab16b94234bb664688fe12c7b3bd7ffef49f8ec1c11",
}


FAMILY_OF_ID = dict(zip(SIMPLE_ORACLE_IDS, SIMPLE_ORACLE_FAMILIES))


@pytest.mark.parametrize("family_id", SIMPLE_ORACLE_IDS)
def test_enumeration_is_pinned(family_id):
    family, kw = FAMILY_OF_ID[family_id]
    assert enumeration_digest(build_root_system(family, **kw)) == ENUMERATION_DIGESTS[family_id]


def or_graph_digest(rs):
    """sha256 of the JSON form of OR(g): vertex labels, colors and edges."""
    text = json.dumps(graph_to_json(build_or_graph(rs).graph), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# the OR graphs of the graph-stretch benchmark families, as first pinned
OR_GRAPH_DIGESTS = {
    "gl-m4-n3": "92a420a7b887a6a145607ea72dd5c7864720bb7fe4a4a0e97bf271c10e8779e9",
    "gl11n-n6": "24955ba0437f0a27f53fe42b85983c99ebb1298e759c617b2e15c33262c05e0f",
    "ospB-m3-n2": "83782f9cd017db35e5d5ed7d47eba1b9547ac7217265665851872d56d2e8a539",
    "ospD-m3-n2": "5ea4a180f6c911de697bbd86ec947d7b26daa9865f305a2df1af890255bad373",
}


@pytest.mark.parametrize("family_id", OR_GRAPH_DIGESTS)
def test_stretch_or_graph_is_pinned(family_id):
    family, kw = FAMILY_OF_ID[family_id]
    assert or_graph_digest(build_root_system(family, **kw)) == OR_GRAPH_DIGESTS[family_id]


# the pinned grid, the graph-stretch families and every gl, ospB and ospD
# with m + n <= 6
SET_UP_FAMILIES = list(dict.fromkeys(
    list(manifest.grid_families())
    + [("gl", 4, 3), ("gl11n", None, 6), ("ospB", 3, 2), ("ospD", 3, 2)]
    + [(family, m, n) for family in ("gl", "ospB", "ospD")
       for m in range(1, 6) for n in range(1, 7 - m)]))


@pytest.mark.parametrize("family, m, n", SET_UP_FAMILIES,
                         ids=["-".join(map(str, key)) for key in SET_UP_FAMILIES])
def test_set_up_matches_the_reference_path(family, m, n):
    # root codes and Borel masks against Root objects: the even and the
    # standard simple systems, every Borel and edge of the enumeration,
    # the Young diagrams, OR(g) with its color roots and the pure
    # isotropic roots
    rs = build_root_system(family, m, n)
    assert rs.even_simple == ref_indecomposables(rs.even_positive)
    borels, edges = enumerate_borels(rs)
    ref_borels, ref_edges = ref_enumerate_borels(rs)
    assert standard_borel(rs).simple == ref_borels[0].simple
    assert [(b.odd_positive, b.simple) for b in borels] == \
        [(b.odd_positive, b.simple) for b in ref_borels]
    assert edges == ref_edges
    if family == "gl":
        assert [partition_of_borel(rs, b) for b in borels] == \
            [ref_partition_of_borel(rs, b) for b in borels]
    og = build_or_graph(rs)
    vertices, colors, graph_edges, root_of_color = ref_or_graph(rs, ref_borels, ref_edges)
    assert og.graph.vertices == vertices
    assert og.graph.colors == colors
    assert og.graph.edges == graph_edges
    assert list(og.root_of_color.items()) == list(root_of_color.items())
    # the pure isotropic roots that s1_classify reads, from the AND of the masks
    assert rs._pure_iso == pure_positive_roots(rs, borels)[1]


def test_root_codes_reject_coordinates_past_their_range():
    # a sum of two roots must stay inside |x| < 32, where codes are
    # injective, so a root coordinate of 16 is refused
    with pytest.raises(UnsupportedFamily, match="code range"):
        RootSystem("gl", (1, 1), ("e1", "d1"), Weight.of((1, -1)), [],
                   [(16, -1), (-16, 1)], [(16, -1)], True, None)
    rs = RootSystem("gl", (1, 1), ("e1", "d1"), Weight.of((1, -1)), [],
                    [(15, -1), (-15, 1)], [(15, -1)], True, None)
    assert [r.vector.r for r in rs.delta1] == [(-15, 1), (15, -1)]


def _expected_label(rs, b, k):
    """The OR(g) vertex label of Borel b of rank k, from its odd positive
    roots: the Young diagram for gl, for gl11n bit i set when
    e_i - d_{n+1-i} is flipped, #k otherwise."""
    if rs.family == "gl":
        return "".join(map(str, partition_of_borel(rs, b))) or "∅"
    if rs.family == "gl11n":
        n = rs.params[0]
        return "".join("0" if rs.root_by_name(f"e{i}-d{n + 1 - i}") in b.odd_positive else "1"
                       for i in range(1, n + 1))
    return f"#{k}"


@pytest.mark.parametrize("family_id", SIMPLE_ORACLE_IDS)
def test_one_borel_numbering(family_id):
    # vertex k of OR(g) is Borel k of the enumeration: its label is the
    # label of borels[k].  Each enumeration edge (u, i, v) is a graph edge
    # between vertices u and v whose reflection, by the oracle on root
    # vectors, takes u to v and v to u at the same index i, simple order
    # included.  The graph-stretch families are among SIMPLE_ORACLE_FAMILIES
    family, kw = FAMILY_OF_ID[family_id]
    rs = build_root_system(family, **kw)
    borels, edges = enumerate_borels(rs)
    og = build_or_graph(rs)
    labels = og.graph.vertices
    assert list(labels) == [_expected_label(rs, b, k) for k, b in enumerate(borels)]
    graph_pairs = {(x, y) for x, y, _ in og.graph.edges}
    for u, i, v in edges:
        assert (labels[u], labels[v]) in graph_pairs
        there = odd_reflect(rs, borels[u], i)
        back = odd_reflect(rs, borels[v], i)
        assert there.odd_positive == borels[v].odd_positive and there.simple == borels[v].simple
        assert back.odd_positive == borels[u].odd_positive and back.simple == borels[u].simple


def test_d21_borel_tree():
    rs = build_root_system("d21alpha")
    borels, edges = enumerate_borels(rs)
    assert len(borels) == 4
    assert edges == [(0, 1, 1), (1, 2, 2), (1, 3, 3)]
    assert names(rs, borels[0].simple) == ["d-e1-e2", "2e1", "2e2"]
    assert names(rs, borels[1].simple) == ["-d+e1+e2", "d+e1-e2", "d-e1+e2"]
    assert set(names(rs, borels[1].odd_positive)) == \
        {"-d+e1+e2", "d+e1-e2", "d+e1+e2", "d-e1+e2"}


def test_weyl_vectors():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    assert weyl_vector(rs, b) == Weight((Fraction(-1, 2), Fraction(1, 2)))

    rs = build_root_system("d21alpha")
    borels, _ = enumerate_borels(rs)
    assert weyl_vector(rs, borels[0]) == Weight((-1, 1, 1))
    assert weyl_vector(rs, borels[1]) == zero_weight(3)


def test_weyl_vector_reflection_rule():
    # rho of the reflected Borel is rho + alpha, and (rho, alpha) has to
    # vanish for isotropic alpha since (alpha, alpha) = 0
    for family, kw in [("gl", dict(m=2, n=2)), ("ospB", dict(m=2, n=1)),
                       ("ospD", dict(m=1, n=2)), ("d21alpha", dict()),
                       ("gl11n", dict(n=3))]:
        rs = build_root_system(family, **kw)
        borels, edges = enumerate_borels(rs)
        for u, i, v in edges:
            alpha = borels[u].simple[i - 1]
            rho_u = weyl_vector(rs, borels[u])
            rho_v = weyl_vector(rs, borels[v])
            assert rho_v == rho_u + alpha.vector
            assert ref_orthogonal(rs, rho_u, alpha)


def test_pure_positive_roots():
    rs = build_root_system("d21alpha")
    borels, _ = enumerate_borels(rs)
    pure, pure_iso = pure_positive_roots(rs, borels)
    assert sorted(names(rs, pure)) == ["2d", "2e1", "2e2", "d+e1+e2"]
    assert names(rs, pure_iso) == ["d+e1+e2"]

    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    pure, pure_iso = pure_positive_roots(rs, borels)
    assert pure_iso == frozenset()
    assert len(pure) == len(rs.even_positive)

    rs = build_root_system("ospB", m=1, n=1)
    borels, _ = enumerate_borels(rs)
    pure, pure_iso = pure_positive_roots(rs, borels)
    assert names(rs, pure_iso) == ["e1+d1"]


def test_root_name_round_trip():
    rng = random.Random(5)
    for family, kw in [("gl", dict(m=3, n=2)), ("ospB", dict(m=2, n=2)),
                       ("ospD", dict(m=2, n=1)), ("d21alpha", dict()),
                       ("gl11n", dict(n=2))]:
        rs = build_root_system(family, **kw)
        roots = list(rs.delta0) + list(rs.delta1)
        for r in rng.sample(roots, min(12, len(roots))):
            assert rs.root_by_name(rs.root_name(r)) == r


def test_is_root_and_lookup():
    rs = build_root_system("gl", m=2, n=2)
    assert rs.root_from_ivec((1, -1, 0, 0)).vector == Weight((1, -1, 0, 0))
    assert rs.root_from_ivec((1, 1, 0, 0)) is None
    assert rs.root_from_ivec((0, 0, 0, 0)) is None
    r = rs.root_from_ivec((0, 1, -1, 0))
    assert r.parity == "odd" and r.isotropic


def even_height(rs, v):
    """Sum of the even-simple coordinates of the rational weight v, read
    off the height layer; None outside the even simple span."""
    n = len(rs.even_simple)
    coords = rs.height_coords([c.r for c in v.coords])
    if any(coords[n:]):
        return None
    return Fraction(sum(coords), rs.coord_denominator)


def test_even_height():
    rs = build_root_system("gl", m=2, n=2)
    # even simples are e1-e2 and d1-d2; e1-e2+d1-d2 has height 2
    assert even_height(rs, Weight((1, -1, 0, 0))) == 1
    assert even_height(rs, Weight((1, -1, 1, -1))) == 2
    assert even_height(rs, Weight((-1, 1, 0, 0))) == -1
    assert even_height(rs, zero_weight(4)) == 0
    # e1-d2 leaves the even root lattice span
    assert even_height(rs, Weight((1, 0, 0, -1))) is None
    rs11 = build_root_system("gl11n", n=2)
    # no even roots at all: only the zero vector has a height
    assert even_height(rs11, zero_weight(4)) == 0
    assert even_height(rs11, Weight((1, 0, 0, -1))) is None


def test_family_validation():
    with pytest.raises(UnsupportedFamily):
        build_root_system("sl", m=2, n=1)
    with pytest.raises(UnsupportedFamily):
        build_root_system("gl", m=0, n=1)
    with pytest.raises(UnsupportedFamily):
        build_root_system("gl", m=2)
    with pytest.raises(UnsupportedFamily):
        build_root_system("gl11n", n=0)
    with pytest.raises(UnsupportedFamily):
        build_root_system("d21alpha", alpha=Fraction(0))
    with pytest.raises(UnsupportedFamily):
        build_root_system("d21alpha", alpha=Fraction(-1))


def test_d21_specialized_alpha():
    rs = build_root_system("d21alpha", alpha=Fraction(1))
    # every odd root has norm -(1+a) + 1 + a = 0 regardless of a
    for r in rs.delta1:
        assert ref_orthogonal(rs, r.vector, r)
        assert r.isotropic
    two_d = rs.root_by_name("2d")
    assert not ref_orthogonal(rs, two_d.vector, two_d)
    # specialization matters: (e1-e2, d+e1+e2) = 1 - a vanishes only at a = 1
    v = Weight((0, 1, -1))
    a = rs.root_by_name("d+e1+e2")
    assert ref_orthogonal(rs, v, a)
    generic = build_root_system("d21alpha")
    assert not ref_orthogonal(generic, v, generic.root_by_name("d+e1+e2"))


def test_type_one_flag():
    assert build_root_system("gl", m=2, n=2).type_one
    assert build_root_system("gl11n", n=3).type_one
    assert build_root_system("ospD", m=1, n=2).type_one
    assert not build_root_system("ospD", m=2, n=1).type_one
    assert not build_root_system("ospB", m=1, n=1).type_one
    assert not build_root_system("d21alpha").type_one


def test_borel_odd_positive_is_canonical():
    for family, kw in [("gl", dict(m=2, n=2)), ("d21alpha", dict())]:
        rs = build_root_system(family, **kw)
        borels, _ = enumerate_borels(rs)
        for b in borels:
            assert list(b.odd_positive) == sorted(
                b.odd_positive, key=lambda r: r.sort_key())
            # odd_positive contains one root from each +/- pair
            vecs = {r.vector for r in b.odd_positive}
            for r in rs.delta1:
                assert (r.vector in vecs) != (-r.vector in vecs)
