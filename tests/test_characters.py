"""Character numerators, Kostant partitions, multiplicities, cones."""

import random

from fractions import Fraction

import pytest

from ortk import adjusted, characters
from ortk.adjusted import brick_decomposition_check, hypercubic_collections
from ortk.characters import (
    MultiplicityQuery,
    NumeratorCharacter,
    character_to_json,
    character_weight_multiplicity,
    kac_flag_constituents,
    kostant_partitions,
    total_dimension,
    verma_character,
    weight_multiplicity,
)
from ortk.numerics import Weight, parse_weight, render_weight, zero_weight
from ortk.rootsys import (
    build_root_system,
    enumerate_borels,
    standard_borel,
    weyl_vector,
)

from oracles import char_add, odd_reflect, ref_sort_height


def rank_zero(rs):
    return zero_weight(len(rs.basis_names))


def test_verma_character_gl11():
    rs = build_root_system("gl", m=1, n=1)
    lam = rank_zero(rs)
    alpha = rs.root_by_name("e1-d1")
    c = verma_character(rs, {alpha}, lam)
    assert c.terms == {lam: 1, parse_weight("-1,1", 2): 1}
    assert total_dimension(c, rs) == 2
    c1 = verma_character(rs, set(rs.delta1), lam)
    assert c1.terms == {lam: 1}
    assert total_dimension(c1, rs) == 1


def test_verma_highest_coefficient():
    cases = [
        ("gl", dict(m=2, n=1), None),
        ("ospB", dict(m=1, n=1), None),
        ("d21alpha", dict(), None),
    ]
    for family, kw, alpha in cases:
        rs = build_root_system(family, alpha=alpha, **kw)
        b = standard_borel(rs)
        lam = rank_zero(rs)
        c = verma_character(rs, set(b.odd_positive), lam)
        assert c.terms.get(lam, 0) == 1


def test_delta_a_must_be_odd():
    rs = build_root_system("gl", m=2, n=1)
    even = rs.root_by_name("e1-e2")
    with pytest.raises(ValueError):
        verma_character(rs, {even}, rank_zero(rs))


def test_gl22_numerators_agree_across_borels():
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    assert len(borels) == 6
    chars = [verma_character(rs, set(b.odd_positive), -weyl_vector(rs, b))
             for b in borels]
    for c in chars[1:]:
        assert chars[0] == c


def test_gl11_reflection_shift():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    rb = odd_reflect(rs, b, 1)
    alpha = rs.root_by_name("e1-d1").vector
    c1 = verma_character(rs, set(b.odd_positive), rank_zero(rs))
    c2 = verma_character(rs, set(rb.odd_positive), -alpha)
    assert c1 == c2
    c3 = verma_character(rs, set(b.odd_positive), parse_weight("1,0", 2))
    assert c1 != c3


def test_kostant_values():
    rs = build_root_system("gl", m=2, n=2)
    assert kostant_partitions(rs, rank_zero(rs)) == 1
    assert kostant_partitions(rs, parse_weight("1,-1,0,0", 4)) == 1
    assert kostant_partitions(rs, parse_weight("1,0,-1,0", 4)) == 0
    assert kostant_partitions(rs, parse_weight("-1,1,0,0", 4)) == 0
    assert kostant_partitions(rs, parse_weight("1/2,-1/2,0,0", 4)) == 0
    assert kostant_partitions(rs, parse_weight("1,1,-1,-1", 4)) == 0

    rs32 = build_root_system("gl", m=3, n=2)
    assert kostant_partitions(rs32, parse_weight("1,0,-1,0,0", 5)) == 2

    rsp = build_root_system("gl11n", n=2)
    assert kostant_partitions(rsp, rank_zero(rsp)) == 1
    assert kostant_partitions(rsp, parse_weight("1,0,0,-1", 4)) == 0

    rsb = build_root_system("ospB", m=1, n=1)
    assert kostant_partitions(rsb, parse_weight("2,0", 2)) == 1

    rsd = build_root_system("d21alpha")
    assert kostant_partitions(rsd, parse_weight("2,2,0", 3)) == 1
    assert kostant_partitions(rsd, parse_weight("4,0,0", 3)) == 1
    assert kostant_partitions(rsd, parse_weight("1,0,0", 3)) == 0


def test_multiplicity_at_highest_weight():
    for family, kw in [("gl", dict(m=2, n=1)), ("ospB", dict(m=2, n=1))]:
        rs = build_root_system(family, **kw)
        b = standard_borel(rs)
        lam = rank_zero(rs)
        free = frozenset(rs.negate(r) for r in b.odd_positive)
        q = MultiplicityQuery(free, lam, lam)
        assert weight_multiplicity(rs, q) == 1


def test_multiplicity_gl22_even_root_below():
    rs = build_root_system("gl", m=2, n=2)
    b = standard_borel(rs)  # the partition () Borel
    lam = rank_zero(rs)
    free = frozenset(rs.negate(r) for r in b.odd_positive)
    q = MultiplicityQuery(free, lam, parse_weight("-1,1,0,0", 4))
    assert weight_multiplicity(rs, q) == 1


def test_multiplicity_d21_below_2delta():
    # dim M^{b_1}(-rho)_{-rho - 2delta}; five PBW monomials land there
    rs = build_root_system("d21alpha")
    b = standard_borel(rs)
    top = -weyl_vector(rs, b)
    free = frozenset(rs.negate(r) for r in b.odd_positive)
    q = MultiplicityQuery(free, top, top - parse_weight("2,0,0", 3))
    assert weight_multiplicity(rs, q) == 5


def test_multiplicity_rejects_even_roots():
    rs = build_root_system("gl", m=2, n=1)
    even = rs.root_by_name("e1-e2")
    # a failed product build is not kept, so every call raises
    for _ in range(2):
        with pytest.raises(ValueError):
            weight_multiplicity(
                rs, MultiplicityQuery(frozenset([even]), rank_zero(rs), rank_zero(rs)))


def test_multiplicity_builds_each_free_sets_product_once(monkeypatch):
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    tops = [rank_zero(rs), parse_weight("1,0,-1/2,0", 4)]
    # the last target is off the root lattice, so its multiplicity is 0
    targets = [parse_weight(t, 4)
               for t in ("0,0,0,0", "-1,1,0,0", "-1,0,0,1", "-2,1,1,0", "1/2,0,0,-1/2")]
    cases = []
    for b in borels[:2]:
        free = frozenset(rs.negate(r) for r in b.odd_positive)
        for top in tops:
            num = verma_character(rs, b.odd_positive, top)
            for t in targets:
                mu = top + t
                cases.append((MultiplicityQuery(free, top, mu),
                              character_weight_multiplicity(rs, num, mu)))
    real = characters._times_factors
    calls = []

    def counted(terms, factors):
        calls.append(1)
        return real(terms, factors)

    monkeypatch.setattr(characters, "_times_factors", counted)
    # the first half of the queries share borels[0]'s free set, the second
    # half borels[1]'s
    for k, (q, mult) in enumerate(cases):
        assert weight_multiplicity(rs, q) == mult
        assert len(calls) == 1 + k // (len(cases) // 2)


def test_numerator_builds_each_odd_sets_product_once(monkeypatch):
    rs = build_root_system("gl", m=2, n=2)
    b = enumerate_borels(rs)[0][1]
    lam = parse_weight("1,0,-1/2,0", 4)
    real = characters._times_factors
    calls = []

    def counted(terms, factors):
        calls.append(1)
        return real(terms, factors)

    monkeypatch.setattr(characters, "_times_factors", counted)
    first = verma_character(rs, b.odd_positive, lam)
    assert len(calls) == 1
    # an equal odd set in any container, at any weight, reads the same product
    for delta_a in (set(b.odd_positive), list(b.odd_positive),
                    frozenset(b.odd_positive), tuple(reversed(b.odd_positive))):
        assert verma_character(rs, delta_a, lam) == first
        assert verma_character(rs, delta_a, rank_zero(rs)).terms == {
            w - lam: c for w, c in first.terms.items()}
    assert len(calls) == 1
    verma_character(rs, (), lam)
    assert len(calls) == 2
    # the Kac flag reads the numerator of the negated odd positives
    kac_flag_constituents(rs, b, lam)
    kac_flag_constituents(rs, b, rank_zero(rs))
    assert len(calls) == 3
    # a stray root raises on every call, with the cache warm; nothing is kept
    even = rs.root_by_name("e1-e2")
    for _ in range(2):
        with pytest.raises(ValueError, match="non odd roots"):
            verma_character(rs, set(b.odd_positive) | {even}, lam)
    assert len(calls) == 3
    assert verma_character(rs, b.odd_positive, lam) == first


def test_brick_checks_build_nothing_when_warm(monkeypatch):
    rs = build_root_system("gl", m=2, n=2)
    b = enumerate_borels(rs)[0][1]
    lam = rank_zero(rs)
    coll = [c for c in hypercubic_collections(rs, b, lam) if c.j == {1, 3}][0]
    rjb = odd_reflect(rs, odd_reflect(rs, b, 1), 3)
    back = {rs.negate(r) for r in coll.roots}
    coll_back = [c for c in hypercubic_collections(rs, rjb, lam) if set(c.roots) == back][0]
    real = characters._times_factors
    calls = []

    def counted(terms, factors):
        calls.append(1)
        return real(terms, factors)

    monkeypatch.setattr(characters, "_times_factors", counted)
    monkeypatch.setattr(adjusted, "_times_factors", counted)
    assert brick_decomposition_check(rs, b, lam, coll)
    # the meet's and the join's numerators, then the J-shift product
    assert len(calls) == 3
    assert brick_decomposition_check(rs, b, lam, coll)
    assert len(calls) == 3
    # r_J b has the same meet and join, so it reads the same two entries
    assert brick_decomposition_check(rs, rjb, lam, coll_back)
    assert len(calls) == 3


# the families of the benchmark's algebra-batch workload
ALGEBRA_BATCH_FAMILIES = {
    "gl(3|2)": ("gl", 3, 2, None),
    "ospB(2|1)": ("ospB", 2, 1, None),
    "ospB(2|2)": ("ospB", 2, 2, None),
    "ospD(1|2)": ("ospD", 1, 2, None),
    "ospD(2|2)": ("ospD", 2, 2, None),
    "d21": ("d21alpha", None, None, None),
    "d21@2/3": ("d21alpha", None, None, Fraction(2, 3)),
}


@pytest.mark.parametrize("name", ALGEBRA_BATCH_FAMILIES)
def test_character_terms_match_their_weight_of_rebuild(name):
    # terms are built as lam + den * offset without a reduction; each must
    # have the fields Weight.of gives, and equal lam plus its offset
    rs = build_root_system(*ALGEBRA_BATCH_FAMILIES[name])
    borels, _ = enumerate_borels(rs)
    zero = rank_zero(rs)
    rng = random.Random(name)
    for den in (1, 2, 3, 6):
        for with_a in (False, True):
            while True:
                r = [rng.randint(-2 * den, 2 * den) for _ in range(rs.rank)]
                s = [rng.randint(-2, 2) if with_a else 0 for _ in range(rs.rank)]
                lam = Weight.of(r, s, den)
                if lam.den == den and any(lam.s) == with_a:
                    break
            b = rng.choice(borels)
            terms = []
            for delta_a in (b.odd_positive, ()):
                c = verma_character(rs, delta_a, lam)
                assert c.terms == {lam + w: k
                                   for w, k in verma_character(rs, delta_a, zero).terms.items()}
                terms += c.terms
            flag = kac_flag_constituents(rs, b, lam)
            assert flag == [lam + w for w in kac_flag_constituents(rs, b, zero)]
            for w in terms + flag:
                v = Weight.of(w.r, w.s, w.den)
                assert (w.r, w.s, w.den) == (v.r, v.s, v.den)


@pytest.mark.parametrize("name", ALGEBRA_BATCH_FAMILIES)
def test_random_characters_hold_no_zero_term(name):
    # verma_character skips the constructor's zero scan: each coefficient
    # counts the subsets of the factors with one sum, so it is positive,
    # and the coefficients add up to 2^(number of factors)
    rs = build_root_system(*ALGEBRA_BATCH_FAMILIES[name])
    rng = random.Random(f"no zero term {name}")
    for _ in range(20):
        delta_a = [r for r in rs.delta1 if rng.random() < 0.5]
        lam = Weight.of([rng.randint(-4, 4) for _ in range(rs.rank)], den=rng.choice((1, 2, 3)))
        c = verma_character(rs, delta_a, lam)
        assert min(c.terms.values()) > 0
        assert sum(c.terms.values()) == 2 ** (len(rs.delta1) - len(delta_a))
        assert NumeratorCharacter(dict(c.terms)) == c


def test_zero_coefficients_are_dropped():
    rs = build_root_system("gl", m=2, n=1)
    lam = parse_weight("1/2,0,-1/3", 3)
    c = verma_character(rs, standard_borel(rs).odd_positive, lam)
    assert c.terms.get(lam, 0) == 1
    assert NumeratorCharacter({lam: 0}).terms == {}
    assert NumeratorCharacter({lam: 0, zero_weight(3): 2}).terms == {zero_weight(3): 2}
    # a dict without zeros is kept as given
    terms = {lam: 1}
    assert NumeratorCharacter(terms).terms is terms
    # cancellations in char_add drop out, in full or in part
    assert char_add(c, NumeratorCharacter({w: -k for w, k in c.terms.items()})).terms == {}
    part = char_add(c, NumeratorCharacter({lam: -1}))
    assert part.terms == {w: k for w, k in c.terms.items() if w != lam}
    assert 0 not in part.terms.values()


def truncated_terms(rs, numerator, depth):
    """Expand numerator / prod_{gamma even +}(1 - e^{-gamma}), each factor
    truncated at e^{-depth*gamma}."""
    terms = dict(numerator.terms)
    for gamma in rs.even_positive:
        new = {}
        for w, c in terms.items():
            u = w
            for _ in range(depth + 1):
                new[u] = new.get(u, 0) + c
                u = u - gamma.vector
        terms = new
    return terms


def test_multiplicity_matches_truncated_series():
    depth = 4
    cases = [
        ("gl", dict(m=2, n=1), None),
        ("gl", dict(m=2, n=2), None),
        ("ospB", dict(m=1, n=1), None),
        ("gl11n", dict(n=2), None),
        ("d21alpha", dict(), Fraction(1, 2)),
    ]
    for family, kw, alpha in cases:
        rs = build_root_system(family, alpha=alpha, **kw)
        # each even positive root raises the height by at least one, so
        # any partition reaching depth d uses at most d roots per factor
        height = ref_sort_height(rs)
        for gamma in rs.even_positive:
            assert height(gamma.vector) >= 1
        borels, _ = enumerate_borels(rs)
        for b in (borels[0], borels[-1]):
            lam = rank_zero(rs)
            num = verma_character(rs, set(b.odd_positive), lam)
            table = truncated_terms(rs, num, depth)
            free = frozenset(rs.negate(r) for r in b.odd_positive)
            checked = 0
            for mu, coeff in table.items():
                if any(height(w0 - mu) > depth for w0 in num.terms):
                    continue
                q = MultiplicityQuery(free, lam, mu)
                assert weight_multiplicity(rs, q) == coeff
                assert character_weight_multiplicity(rs, num, mu) == coeff
                checked += 1
            assert checked >= 4


def test_cone_membership_gl22():
    rs = build_root_system("gl", m=2, n=2)
    b = standard_borel(rs)  # the partition () Borel
    free = frozenset(rs.negate(r) for r in b.odd_positive)

    def pbw_reachable(text):
        # a PBW monomial uses each odd root at most once
        q = MultiplicityQuery(free, rank_zero(rs), -parse_weight(text, 4))
        return weight_multiplicity(rs, q) > 0

    assert pbw_reachable("1,1,-1,-1")
    # 2e1-2d1 = (e1-d1)+(e2-d1)+(e1-e2) stays reachable with the odd cap
    assert pbw_reachable("2,0,-2,0")
    # 2e2-2d1 needs e2-d1 twice
    assert not pbw_reachable("0,2,-2,0")


def test_kac_flag_constituents():
    rs = build_root_system("gl", m=2, n=1)
    b = standard_borel(rs)
    lam = rank_zero(rs)
    flag = kac_flag_constituents(rs, b, lam)
    assert len(flag) == 4
    assert set(flag) == {
        lam,
        parse_weight("1,0,-1", 3),
        parse_weight("0,1,-1", 3),
        parse_weight("1,1,-2", 3),
    }
    heights = [ref_sort_height(rs)(w) for w in flag]
    assert heights == sorted(heights)

    rs11 = build_root_system("gl", m=1, n=1)
    flag11 = kac_flag_constituents(rs11, standard_borel(rs11), zero_weight(2))
    assert set(flag11) == {zero_weight(2), parse_weight("1,-1", 2)}
    assert len(flag11) == 2


def test_kac_flag_character_identity():
    for family, kw in [("gl", dict(m=2, n=1)), ("gl", dict(m=2, n=2))]:
        rs = build_root_system(family, **kw)
        borels, _ = enumerate_borels(rs)
        for b in (borels[0], borels[-1]):
            for lam in (rank_zero(rs), parse_weight(
                    ",".join(["1"] + ["0"] * (len(rs.basis_names) - 1)))):
                total = NumeratorCharacter({})
                for w in kac_flag_constituents(rs, b, lam):
                    total = char_add(
                        total, verma_character(rs, set(b.odd_positive), w))
                induced = verma_character(rs, set(), lam)
                assert total == induced


def test_total_dimension():
    rs2 = build_root_system("gl11n", n=2)
    b = standard_borel(rs2)
    c = verma_character(rs2, set(b.odd_positive), rank_zero(rs2))
    assert total_dimension(c, rs2) == 4

    rs3 = build_root_system("gl11n", n=3)
    c3 = verma_character(rs3, set(rs3.delta1), rank_zero(rs3))
    assert total_dimension(c3, rs3) == 1

    rs22 = build_root_system("gl", m=2, n=2)
    c22 = verma_character(
        rs22, set(standard_borel(rs22).odd_positive), rank_zero(rs22))
    assert total_dimension(c22, rs22) is None


def test_character_json():
    rs = build_root_system("gl", m=1, n=1)
    b = standard_borel(rs)
    c = verma_character(rs, set(b.odd_positive), rank_zero(rs))
    payload = character_to_json(rs, c)
    assert len(payload) == 2
    assert all(set(e) == {"weight", "coeff"} for e in payload)
    assert all(e["coeff"] == 1 for e in payload)
    keys = [(ref_sort_height(rs)(parse_weight(e["weight"], 2)),
             parse_weight(e["weight"], 2).coords) for e in payload]
    assert keys == sorted(keys)
    # weights over different denominators and with a-parts keep the
    # order of height, then coordinates as (rational part, a-part)
    for rs, lams in [
            (build_root_system("gl", m=1, n=1), ["1/2,0", "1/3,1"]),
            (build_root_system("gl", m=2, n=2), ["1/2,0,1/3,0", "0,1/5,0,-1", "-1/6,0,0,0"]),
            (build_root_system("d21alpha"), ["1/2-a,1/3+2a,a", "a,0,-1/4", "0,-a,1"])]:
        c = NumeratorCharacter({})
        for k, text in enumerate(lams):
            b = enumerate_borels(rs)[0][k]
            c = char_add(c, verma_character(rs, set(b.odd_positive), parse_weight(text)))
        height = ref_sort_height(rs)
        order = sorted(c.terms, key=lambda w: (height(w), w.coords))
        assert character_to_json(rs, c) == [
            {"weight": render_weight(w), "coeff": c.terms[w]} for w in order]


def test_forced_hom_dimension_is_one():
    # weight space of M^{r_J b}(lam - sigma_J) at lam, for hypercubic J: an
    # orthogonal pair of isotropic simple roots, orthogonal to lam, whose
    # reflections' images meet in the image of the double reflection
    rs = build_root_system("gl", m=2, n=2)
    borels, _ = enumerate_borels(rs)
    b = borels[1]
    lam = rank_zero(rs)
    assert rs.orthogonal_roots(lam, (b.simple[0], b.simple[2])) == {b.simple[0], b.simple[2]}
    assert rs.roots_orthogonal(b.simple[0], b.simple[2])
    rjb = odd_reflect(rs, odd_reflect(rs, b, 3), 1)
    sigma = b.simple[0].vector + b.simple[2].vector
    free = frozenset(rs.negate(r) for r in rjb.odd_positive)
    assert weight_multiplicity(rs, MultiplicityQuery(free, lam - sigma, lam)) == 1

    r1b = odd_reflect(rs, b, 1)
    a1 = b.simple[0].vector
    free1 = frozenset(rs.negate(r) for r in r1b.odd_positive)
    assert weight_multiplicity(rs, MultiplicityQuery(free1, lam - a1, lam)) == 1

    rsp = build_root_system("gl11n", n=2)
    bp = standard_borel(rsp)
    rjbp = odd_reflect(rsp, odd_reflect(rsp, bp, 1), 2)
    sig = bp.simple[0].vector + bp.simple[1].vector
    freep = frozenset(rsp.negate(r) for r in rjbp.odd_positive)
    assert weight_multiplicity(
        rsp, MultiplicityQuery(freep, zero_weight(4) - sig, zero_weight(4))) == 1
