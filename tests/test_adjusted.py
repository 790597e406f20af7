"""Adjusted subalgebras, hypercubic collections, bricks, splitting."""

import pytest

from ortk import manifest
from ortk.adjusted import (
    SplitVerdict,
    borel_meet_join,
    brick_decomposition_check,
    hypercubic_collections,
    is_lambda_adjusted,
    reflect_along,
    semibrick_character_check,
    split_criterion,
)
from ortk.characters import char_add, total_dimension, verma_character
from ortk.numerics import parse_weight, zero_weight
from ortk.orgraph import image_intersection_kind
from ortk.rootsys import (
    NotIsotropicSimple,
    PreconditionViolated,
    build_root_system,
    enumerate_borels,
    odd_reflect,
    standard_borel,
)


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
            shifted = lam + r.vector.scaled(sign)
            again = hypercubic_collections(rs, b, shifted)
            assert any(c.j == {1, 3} for c in again)


def test_borel_meet_join_gl11():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    lam = zero_weight(2)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1}][0]
    meet, join = borel_meet_join(rs, b, coll)
    assert meet.delta_a == frozenset()
    assert join.delta_a == frozenset(
        {rs.root_by_name("e1-d1"), rs.root_by_name("-e1+d1")})
    empty = [c for c in hypercubic_collections(rs, b, lam) if not c.j][0]
    meet0, join0 = borel_meet_join(rs, b, empty)
    assert meet0.delta_a == join0.delta_a == frozenset(b.odd_positive)


def test_borel_meet_join_gl22():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    b = borels[1]
    lam = zero_weight(4)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1, 3}][0]
    meet, join = borel_meet_join(rs, b, coll)
    assert meet.delta_a == frozenset(
        set(b.odd_positive) - {b.simple[0], b.simple[2]})
    assert len(join.delta_a) == len(b.odd_positive) + 2


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
                    assert is_lambda_adjusted(rs, meet.delta_a, lam), (entry, b, coll.j)
                    assert is_lambda_adjusted(rs, join.delta_a, lam), (entry, b, coll.j)
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
        brick_decomposition_check(rs, b, coll.lam, coll)


def test_reflect_along_rejects_roots_not_simple():
    rs, b, coll = foreign_collection()
    with pytest.raises(PreconditionViolated, match="e1-d1 is not simple"):
        reflect_along(rs, b, coll)


def test_reflect_along_matches_pair_reflection():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    b = borels[1]
    lam = zero_weight(4)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1, 3}][0]
    rjb = reflect_along(rs, b, coll)
    kind = image_intersection_kind(rs, b, lam, 1, 3)
    assert rjb == kind.borel
    empty = [c for c in hypercubic_collections(rs, b, lam) if not c.j][0]
    assert reflect_along(rs, b, empty) == b


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
    assert total_dimension(verma_character(rsp, meet.delta_a, lam), rsp) == 16

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


def test_semibrick_window_gl11():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    lam = zero_weight(2)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1}][0]
    _, join = borel_meet_join(rs, b, coll)
    alpha = rs.root_by_name("e1-d1").vector
    bricks = []
    for n in range(-2, 3):
        w = alpha.scaled(n)
        bricks.append((w, verma_character(rs, join.delta_a, w)))
    assert semibrick_character_check(rs, bricks)
    dup = [bricks[0], bricks[0]]
    assert not semibrick_character_check(rs, dup)


def test_semibrick_window_gl22():
    rs = build_root_system("gl", m=2, n=2)
    b = enumerate_borels(rs)[0][1]
    lam = zero_weight(4)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1, 3}][0]
    _, join = borel_meet_join(rs, b, coll)
    a1, a3 = (r.vector for r in coll.roots)
    bricks = []
    for m1 in (-1, 0, 1):
        for m3 in (-1, 0, 1):
            w = lam + a1.scaled(m1) + a3.scaled(m3)
            bricks.append((w, verma_character(rs, join.delta_a, w)))
    assert len(bricks) == 9
    assert semibrick_character_check(rs, bricks)


def test_semibrick_precondition():
    rs = build_root_system("gl", m=1, n=1)
    c = verma_character(rs, set(), zero_weight(2))
    doubled = char_add(c, c)
    with pytest.raises(ValueError):
        semibrick_character_check(rs, [(zero_weight(2), doubled)])
