"""Typicality, S1 classification, even-root witness search."""

import pytest

from ortk import atypicality
from ortk.atypicality import (
    Emptiness,
    is_typical,
    s1_classify,
    simple_even_witness,
)
from ortk.numerics import parse_weight, zero_weight
from ortk.orgraph import build_or_graph, build_or_lambda, rbtriv_check
from ortk.rootsys import (
    PreconditionViolated,
    build_root_system,
    enumerate_borels,
    odd_reflect,
    pure_positive_roots,
    standard_borel,
    weyl_vector,
)

from oracles import ref_orthogonal


def test_is_typical_gl11():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    assert is_typical(rs, b, parse_weight("1,0", 2))
    assert not is_typical(rs, b, zero_weight(2))


def test_is_typical_d21():
    rs = build_root_system("d21alpha")
    borels, _ = enumerate_borels(rs)
    assert not is_typical(rs, borels[1], zero_weight(3))
    assert not is_typical(rs, borels[0], zero_weight(3))
    assert is_typical(rs, borels[0], parse_weight("2,1,1", 3))


def test_s1_gl11():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    cls = s1_classify(rs, b, zero_weight(2))
    assert cls.certified_in == {rs.root_by_name("e1-d1")}
    assert cls.certified_out == {rs.root_by_name("-e1+d1")}
    assert cls.unknown == frozenset()
    assert cls.emptiness_verdict is Emptiness.NONEMPTY

    cls2 = s1_classify(rs, b, parse_weight("1,0", 2))
    assert cls2.certified_in == frozenset()
    assert cls2.certified_out == frozenset(rs.delta_iso)
    assert cls2.emptiness_verdict is Emptiness.EMPTY


def test_s1_d21_at_b3():
    rs = build_root_system("d21alpha")
    borels, _ = enumerate_borels(rs)
    b3 = borels[1]
    cls = s1_classify(rs, b3, zero_weight(3))
    in_names = {rs.root_name(r) for r in cls.certified_in}
    assert in_names == {"-d+e1+e2", "d+e1-e2", "d-e1+e2"}
    # the pure root stays unknown: the bounded witness search fails, the
    # candidate cell (b_3, gamma=0) has weight-space dimension 5
    assert {rs.root_name(r) for r in cls.unknown} == {"d+e1+e2"}
    assert len(cls.certified_out) == 4
    assert cls.emptiness_verdict is Emptiness.NONEMPTY
    union = cls.certified_in | cls.certified_out | cls.unknown
    assert union == frozenset(rs.delta_iso)


def test_s1_ospB_undetermined():
    rs = build_root_system("ospB", m=1, n=1)
    b = standard_borel(rs)
    lam = parse_weight("0,1", 2)
    cls = s1_classify(rs, b, lam)
    assert cls.certified_in == frozenset()
    assert {rs.root_name(r) for r in cls.unknown} == {"e1+d1"}
    assert cls.emptiness_verdict is Emptiness.UNDETERMINED


def test_s1_partition_sweep():
    cases = [
        ("gl", dict(m=2, n=2), "1,0,0,0"),
        ("gl", dict(m=2, n=1), "0,0,0"),
        ("ospB", dict(m=2, n=1), "1,0,0"),
        ("ospD", dict(m=2, n=1), "0,1,0"),
        ("d21alpha", dict(), "1,1,1"),
    ]
    for family, kw, text in cases:
        rs = build_root_system(family, **kw)
        borels, _ = enumerate_borels(rs)
        for b in (borels[0], borels[-1]):
            cls = s1_classify(rs, b, parse_weight(text))
            union = cls.certified_in | cls.certified_out | cls.unknown
            assert union == frozenset(rs.delta_iso)
            assert not cls.certified_in & cls.certified_out
            nonpos = frozenset(rs.delta_iso) - frozenset(
                r for r in b.odd_positive if r.isotropic)
            assert nonpos <= cls.certified_out
            if cls.emptiness_verdict is Emptiness.EMPTY:
                assert cls.certified_in == frozenset()


def test_s1_invariant_under_typical_reflection():
    rs = build_root_system("gl", m=2, n=2)
    b = standard_borel(rs)
    lam = parse_weight("0,1,0,0", 4)
    alpha = b.simple[1]
    assert alpha.isotropic
    assert not ref_orthogonal(rs, lam, alpha)
    rb = odd_reflect(rs, b, 2)
    cls1 = s1_classify(rs, b, lam)
    cls2 = s1_classify(rs, rb, lam - alpha.vector)
    # the module is the same, so the certified members and the verdict
    # agree; certified_out may grow when a root turns simple in rb, so
    # only consistency is required there
    assert cls1.certified_in == cls2.certified_in
    assert cls1.emptiness_verdict is cls2.emptiness_verdict
    assert not cls1.certified_in & cls2.certified_out
    assert not cls2.certified_in & cls1.certified_out


def test_witness_preconditions():
    rs = build_root_system("gl", m=2, n=2)
    with pytest.raises(PreconditionViolated):
        simple_even_witness(rs, rs.root_by_name("e1-d1"), zero_weight(4), 4)

    rsd = build_root_system("d21alpha")
    beta = rsd.root_by_name("d+e1+e2")
    with pytest.raises(PreconditionViolated):
        simple_even_witness(rsd, beta, parse_weight("1,0,0", 3), 4)


def test_negative_gamma_bound_rejected():
    rs = build_root_system("d21alpha")
    b = standard_borel(rs)
    with pytest.raises(ValueError, match="gamma bound"):
        s1_classify(rs, b, zero_weight(3), gamma_bound=-1)
    with pytest.raises(ValueError, match="gamma bound"):
        simple_even_witness(rs, rs.root_by_name("d+e1+e2"), zero_weight(3), -1)
    # 0 is allowed: the grid is gamma = 0 alone
    s1_classify(rs, b, zero_weight(3), gamma_bound=0)


def test_gamma_grid_cap_is_checked_before_the_grid(monkeypatch):
    # ospB(3|2) has 5 even simple roots, so bound b gives C(b + 5, 5) points
    rs = build_root_system("ospB", m=3, n=2)
    atypicality._check_gamma_bound(rs, 13)  # 8 568 points
    with pytest.raises(ValueError, match="11628 grid points, over the cap of 10000"):
        atypicality._check_gamma_bound(rs, 14)

    def no_grid(*args):
        raise AssertionError("the gamma grid was built")

    monkeypatch.setattr(atypicality, "_gamma_grid", no_grid)
    _, pure_iso = pure_positive_roots(rs, enumerate_borels(rs)[0])
    beta = min(pure_iso, key=lambda r: r.sort_key())
    cap_error = "gamma bound 50 gives 3478761 grid points, over the cap of 10000"
    with pytest.raises(ValueError, match=cap_error):
        s1_classify(rs, standard_borel(rs), zero_weight(5), gamma_bound=50)
    with pytest.raises(ValueError, match=cap_error):
        simple_even_witness(rs, beta, zero_weight(5), 50)


def test_witness_d21_exhausted():
    # the candidate cell (b_3, gamma = 0) passes the cone and pairing
    # conditions but its weight space has dimension 5, and every other
    # cell in the bounded grid fails earlier
    rs = build_root_system("d21alpha")
    beta = rs.root_by_name("d+e1+e2")
    assert simple_even_witness(rs, beta, zero_weight(3), 4) is None


def test_witness_ospB11_exhausted():
    rs = build_root_system("ospB", m=1, n=1)
    beta = rs.root_by_name("e1+d1")
    assert simple_even_witness(rs, beta, zero_weight(2), 4) is None


def test_graph_consistency():
    # certified_in meets a non-pure root iff OR(g, lam + rho) keeps an edge
    rs = build_root_system("gl", m=2, n=2)
    og = build_or_graph(rs)
    b = standard_borel(rs)
    rho = weyl_vector(rs, b)
    _, pure_iso = (set(), set())
    for text in ("0,0,0,0", "1,0,0,0", "3,1,0,0", "1,1,-1,-1"):
        mu = parse_weight(text, 4)
        cls = s1_classify(rs, b, mu - rho)
        nonpure_in = cls.certified_in  # gl has no pure isotropic roots
        quotient = build_or_lambda(rs, og, mu)
        assert (len(quotient.graph.vertices) > 1) == bool(nonpure_in)


def test_type_one_chain():
    cases = [
        ("gl", dict(m=1, n=1), ["0,0", "1,0", "1,-1"]),
        ("gl", dict(m=2, n=1), ["0,0,0", "1,0,0", "2,1,0"]),
        ("gl11n", dict(n=2), ["0,0,0,0", "1,0,0,0", "1,1,0,0"]),
    ]
    for family, kw, texts in cases:
        rs = build_root_system(family, **kw)
        assert rs.type_one
        og = build_or_graph(rs)
        b = standard_borel(rs)
        rho = weyl_vector(rs, b)
        for text in texts:
            lam = parse_weight(text)
            cls = s1_classify(rs, b, lam)
            typ = is_typical(rs, b, lam)
            assert (cls.emptiness_verdict is Emptiness.EMPTY) == typ
            assert rbtriv_check(rs, og, lam + rho) == typ


def test_d21_emptiness_matches_typicality():
    rs = build_root_system("d21alpha")
    borels, _ = enumerate_borels(rs)
    for text in ("0,0,0", "1,1,1", "1,1,-1", "2,1,1"):
        lam = parse_weight(text, 3)
        for b in (borels[0], borels[1]):
            cls = s1_classify(rs, b, lam)
            typ = is_typical(rs, b, lam)
            assert (cls.emptiness_verdict is Emptiness.EMPTY) == typ
            if not typ:
                assert cls.emptiness_verdict is Emptiness.NONEMPTY
