"""Adjusted subalgebras, hypercubic collections, bricks, splitting."""

import pytest

from ortk import manifest
from ortk.adjusted import (
    SplitVerdict,
    borel_meet_join,
    brick_decomposition_check,
    hypercubic_collections,
    split_criterion,
)
from ortk.characters import (
    character_weight_multiplicity,
    total_dimension,
    verma_character,
)
from ortk.numerics import parse_weight, zero_weight
from ortk.rootsys import (
    NotIsotropicSimple,
    PreconditionViolated,
    build_root_system,
    enumerate_borels,
    standard_borel,
)

from oracles import char_add, is_lambda_adjusted, odd_reflect, scaled


def test_is_lambda_adjusted_gl11():
    rs = build_root_system("gl", m=1, n=1)
    a = rs.root_by_name("e1-d1")
    na = rs.root_by_name("-e1+d1")
    assert is_lambda_adjusted(rs, {a, na}, zero_weight(2))
    assert not is_lambda_adjusted(rs, {a, na}, parse_weight("1,0", 2))
    assert is_lambda_adjusted(rs, set(), parse_weight("1,0", 2))


def test_is_lambda_adjusted_borel_and_closure():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    lam = parse_weight("1,0,0,0", 4)
    for b in borels:
        assert is_lambda_adjusted(rs, set(b.odd_positive), lam)
    # e1-d1 alone misses (d1-d2) + (e1-d1) = e1-d2
    assert not is_lambda_adjusted(rs, {rs.root_by_name("e1-d1")}, lam)
    # a positive and a negative odd root summing to an even negative root
    bad = {rs.root_by_name("e2-d1"), rs.root_by_name("-e1+d1")}
    assert not is_lambda_adjusted(rs, bad, lam)
    with pytest.raises(ValueError):
        is_lambda_adjusted(rs, {rs.root_by_name("e1-e2")}, lam)


def test_hypercubic_collections_gl11n3():
    rs = build_root_system("gl11n", n=3)
    b = standard_borel(rs)
    colls = hypercubic_collections(rs, b, zero_weight(6))
    assert len(colls) == 8
    assert {frozenset(c.j) for c in colls} == {
        frozenset(s) for s in
        [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]}
    full = [c for c in colls if len(c.j) == 3][0]
    assert full.sigma == sum((r.vector for r in full.roots),
                             zero_weight(6))


def test_hypercubic_collections_gl22():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    b = borels[1]  # partition (1), all three simples isotropic
    colls = hypercubic_collections(rs, b, zero_weight(4))
    assert {tuple(sorted(c.j)) for c in colls} == {
        (), (1,), (2,), (3,), (1, 3)}
    # subsets of every collection are present, and sizes come first
    sizes = [len(c.j) for c in colls]
    assert sizes == sorted(sizes)


def test_hypercubic_nonorthogonal_lambda():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    colls = hypercubic_collections(rs, b, parse_weight("1,0", 2))
    assert len(colls) == 1 and colls[0].j == frozenset()


def test_hypercubic_shift_stability():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    b = borels[1]
    lam = zero_weight(4)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1, 3}][0]
    for r in coll.roots:
        for sign in (1, -1):
            shifted = lam + scaled(r.vector, sign)
            again = hypercubic_collections(rs, b, shifted)
            assert any(c.j == {1, 3} for c in again)


def test_borel_meet_join_gl11():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    lam = zero_weight(2)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1}][0]
    meet, join = borel_meet_join(rs, b, coll)
    assert meet == frozenset()
    assert join == frozenset(
        {rs.root_by_name("e1-d1"), rs.root_by_name("-e1+d1")})
    empty = [c for c in hypercubic_collections(rs, b, lam) if not c.j][0]
    meet0, join0 = borel_meet_join(rs, b, empty)
    assert meet0 == join0 == frozenset(b.odd_positive)


def test_borel_meet_join_gl22():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    b = borels[1]
    lam = zero_weight(4)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1, 3}][0]
    meet, join = borel_meet_join(rs, b, coll)
    assert meet == frozenset(set(b.odd_positive) - {b.simple[0], b.simple[2]})
    assert len(join) == len(b.odd_positive) + 2


def test_meet_and_join_are_lambda_adjusted_on_the_grid():
    # the meet and join of every hypercubic collection of every Borel of
    # the pinned grid, at every grid weight, are lambda-adjusted
    checked = 0
    for entry in manifest.LAMBDA_GRID:
        rs = build_root_system(entry.family, entry.m, entry.n)
        borels, _ = enumerate_borels(rs)
        for text in entry.weights:
            lam = parse_weight(text, rs.rank)
            for b in borels:
                for coll in hypercubic_collections(rs, b, lam):
                    meet, join = borel_meet_join(rs, b, coll)
                    assert is_lambda_adjusted(rs, meet, lam), (entry, b, coll.j)
                    assert is_lambda_adjusted(rs, join, lam), (entry, b, coll.j)
                    checked += 1
    assert checked == 563


def foreign_collection():
    """gl(2|2) Borel 0 with the collection {1, 3} of Borel 1: its roots
    e1-d1 and e2-d2 are positive in Borel 0 but not simple."""
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    coll = [c for c in hypercubic_collections(rs, borels[1], zero_weight(4))
            if c.j == {1, 3}][0]
    assert set(coll.roots) <= set(borels[0].odd_positive)
    return rs, borels[0], coll


def test_borel_meet_join_rejects_roots_not_simple_in_b():
    rs, b, coll = foreign_collection()
    with pytest.raises(PreconditionViolated, match="not simple in b"):
        borel_meet_join(rs, b, coll)
    with pytest.raises(PreconditionViolated):
        brick_decomposition_check(rs, b, zero_weight(4), coll)


def test_brick_check_rejects_roots_not_simple_in_b_after_recording_verdicts():
    # b keeps a verdict only for a root set that passed the precondition,
    # so a foreign collection raises on every call, however many verdicts
    # b holds
    rs, b, coll = foreign_collection()
    lam = zero_weight(4)
    own = hypercubic_collections(rs, b, lam)
    assert all(brick_decomposition_check(rs, b, lam, c) for c in own)
    assert len(b._brick_verdicts) == len(own) > 1
    for _ in range(2):
        with pytest.raises(PreconditionViolated, match="not simple in b"):
            brick_decomposition_check(rs, b, lam, coll)
    assert len(b._brick_verdicts) == len(own)


def reflect_along(rs, b, coll):
    """r_J b: odd_reflect at each root of the collection in turn, each found
    by value in the simple system reached."""
    for r in coll.roots:
        b = odd_reflect(rs, b, b.simple.index(r) + 1)
    return b


def test_reflect_along_matches_pair_reflection():
    # odd reflections at two orthogonal isotropic simple roots commute: each
    # root stays simple at its index after the other's reflection, and
    # either order reaches one Borel, r_J b for J = {i, j}
    pairs = 0
    for family, kw in [("gl", dict(m=2, n=2)), ("gl", dict(m=3, n=2)), ("gl11n", dict(n=3))]:
        rs = build_root_system(family, **kw)
        lam = zero_weight(rs.rank)
        for b in enumerate_borels(rs)[0]:
            for coll in hypercubic_collections(rs, b, lam):
                if not coll.j:
                    assert reflect_along(rs, b, coll).odd_positive == b.odd_positive
                if len(coll.j) != 2:
                    continue
                i, j = sorted(coll.j)
                assert rs.roots_orthogonal(b.simple[i - 1], b.simple[j - 1])
                ij = odd_reflect(rs, odd_reflect(rs, b, i), j)
                ji = odd_reflect(rs, odd_reflect(rs, b, j), i)
                assert (ij.odd_positive == ji.odd_positive
                        == reflect_along(rs, b, coll).odd_positive != b.odd_positive)
                pairs += 1
    assert pairs == 40


def test_sigma_negates_under_reflection():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    b = borels[1]
    lam = zero_weight(4)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1, 3}][0]
    rjb = reflect_along(rs, b, coll)
    negated = {(-r.vector) for r in coll.roots}
    mirror = [c for c in hypercubic_collections(rs, rjb, lam)
              if {r.vector for r in c.roots} == negated]
    assert len(mirror) == 1
    assert mirror[0].sigma == -coll.sigma


def test_character_shift_along_hypercubic():
    cases = []
    rs22 = build_root_system("gl", m=2, n=2)
    b22 = enumerate_borels(rs22)[0][1]
    cases.append((rs22, b22, zero_weight(4), {1, 3}))
    cases.append((rs22, b22, parse_weight("1,1,-1,-1", 4), {1, 3}))
    rsp = build_root_system("gl11n", n=3)
    cases.append((rsp, standard_borel(rsp), zero_weight(6), {1, 2, 3}))
    for rs, b, lam, jset in cases:
        coll = [c for c in hypercubic_collections(rs, b, lam)
                if c.j == jset][0]
        rjb = reflect_along(rs, b, coll)
        c1 = verma_character(rs, set(b.odd_positive), lam)
        c2 = verma_character(rs, set(rjb.odd_positive), lam - coll.sigma)
        assert c1 == c2


def test_brick_decomposition():
    rsp = build_root_system("gl11n", n=2)
    bp = standard_borel(rsp)
    lam = zero_weight(4)
    full = [c for c in hypercubic_collections(rsp, bp, lam)
            if c.j == {1, 2}][0]
    assert brick_decomposition_check(rsp, bp, lam, full)
    meet, _ = borel_meet_join(rsp, bp, full)
    assert total_dimension(verma_character(rsp, meet, lam), rsp) == 16

    empty = [c for c in hypercubic_collections(rsp, bp, lam) if not c.j][0]
    assert brick_decomposition_check(rsp, bp, lam, empty)

    rs22 = build_root_system("gl", m=2, n=2)
    b22 = enumerate_borels(rs22)[0][1]
    lam22 = zero_weight(4)
    coll = [c for c in hypercubic_collections(rs22, b22, lam22)
            if c.j == {1, 3}][0]
    assert brick_decomposition_check(rs22, b22, lam22, coll)


def test_split_criterion_gl11():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    assert split_criterion(rs, b, zero_weight(2), 1) is SplitVerdict.INDECOMPOSABLE
    assert split_criterion(
        rs, b, parse_weight("1,0", 2), 1) is SplitVerdict.DECOMPOSABLE


def test_split_criterion_gl22():
    rs = build_root_system("gl", m=2, n=2)
    b = enumerate_borels(rs)[0][1]
    assert split_criterion(rs, b, zero_weight(4), 1) is SplitVerdict.INDECOMPOSABLE
    std = standard_borel(rs)
    with pytest.raises(NotIsotropicSimple):
        split_criterion(rs, std, zero_weight(4), 1)
    with pytest.raises(NotIsotropicSimple):
        split_criterion(rs, b, zero_weight(4), 7)


def test_split_exact_sequence_identities():
    # the two character identities behind split_criterion, for every
    # isotropic simple alpha of every Borel b of the type-one grid:
    #   M^{b cap r b}(lam) = M^{rb}(lam - alpha) + M^{rb}(lam)
    #                      = M^b(lam + alpha) + M^b(lam)
    checked = 0
    for entry in manifest.LAMBDA_GRID:
        rs = build_root_system(entry.family, entry.m, entry.n)
        if not rs.type_one:
            continue
        borels, _ = enumerate_borels(rs)
        for text in entry.weights:
            lam = parse_weight(text, rs.rank)
            for b in borels:
                for i in b.isotropic_simple_indices():
                    alpha = b.simple[i - 1]
                    rb = odd_reflect(rs, b, i)
                    meet = verma_character(rs, set(b.odd_positive) - {alpha}, lam)
                    down = char_add(verma_character(rs, rb.odd_positive, lam - alpha.vector),
                                    verma_character(rs, rb.odd_positive, lam))
                    up = char_add(verma_character(rs, b.odd_positive, lam + alpha.vector),
                                  verma_character(rs, b.odd_positive, lam))
                    assert meet == down, (entry.family, b, i)
                    assert meet == up, (entry.family, b, i)
                    checked += 1
    assert checked == 342


def brick_multiplicities(rs, bricks) -> list:
    """Row k: the multiplicity of brick k's character at each brick's
    highest weight."""
    return [[character_weight_multiplicity(rs, c, top) for top, _ in bricks]
            for _, c in bricks]


def identity(size) -> list:
    return [[int(k == l) for l in range(size)] for k in range(size)]


def test_semibrick_window_gl11():
    # the bricks M^{b + r_J b}(n alpha), n = -2..2, form a semibrick window:
    # each has multiplicity one at its own highest weight and zero at the
    # others'; a repeated brick sees the other copy's highest weight
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    lam = zero_weight(2)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1}][0]
    _, join = borel_meet_join(rs, b, coll)
    alpha = rs.root_by_name("e1-d1").vector
    bricks = [(w, verma_character(rs, join, w))
              for w in (scaled(alpha, n) for n in range(-2, 3))]
    assert brick_multiplicities(rs, bricks) == identity(5)
    assert brick_multiplicities(rs, [bricks[0], bricks[0]]) == [[1, 1], [1, 1]]


def test_semibrick_window_gl22():
    # the 3 x 3 window lam + m1 alpha_1 + m3 alpha_3 of J = {1, 3}
    rs = build_root_system("gl", m=2, n=2)
    b = enumerate_borels(rs)[0][1]
    lam = zero_weight(4)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1, 3}][0]
    _, join = borel_meet_join(rs, b, coll)
    a1, a3 = (r.vector for r in coll.roots)
    bricks = [(w, verma_character(rs, join, w))
              for w in (lam + scaled(a1, m1) + scaled(a3, m3)
                        for m1 in (-1, 0, 1) for m3 in (-1, 0, 1))]
    assert len(bricks) == 9
    assert brick_multiplicities(rs, bricks) == identity(9)
