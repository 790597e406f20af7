"""Differential tests for the integer pairing kernel of RootSystem.

Every verdict of the kernel (its per-root entry point RootSystem._pair on
a weight weighed once by RootSystem._weigh, orthogonal_roots,
roots_orthogonal) and of the library code on top of it (atypical colors,
typicality, the OR(g, lambda) class map and the trivial quotient) is
checked on random weights against references built only on the Scalar
inner product of tests/oracles.py, including where that product raises
DegreeOverflow.
"""

import functools
import re

from fractions import Fraction

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from ortk.atypicality import is_typical
from ortk.numerics import DegreeOverflow, Scalar, Weight, parse_weight
from ortk.orgraph import atypical_colors, build_or_graph, build_or_lambda, rbtriv_check
from ortk.rootsys import build_root_system, enumerate_borels, weyl_vector

from oracles import inner_product, ref_atypical_colors, ref_orthogonal, ref_quotient, ref_rbtriv

SYSTEMS = {
    "gl(2|1)": ("gl", 2, 1, None),
    "gl(2|2)": ("gl", 2, 2, None),
    "gl(1|1)^3": ("gl11n", None, 3, None),
    "ospB(1|2)": ("ospB", 1, 2, None),
    "ospB(2|1)": ("ospB", 2, 1, None),
    "ospD(2|1)": ("ospD", 2, 1, None),
    "ospD(1|2)": ("ospD", 1, 2, None),
    "d21": ("d21alpha", None, None, None),
    "d21@2/3": ("d21alpha", None, None, Fraction(2, 3)),
}

FUZZ = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@functools.cache
def system(key):
    family, m, n, alpha = SYSTEMS[key]
    rs = build_root_system(family, m, n, alpha)
    borels, _ = enumerate_borels(rs)
    return rs, borels, build_or_graph(rs)


KEYS = sorted(SYSTEMS)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# a-parts on every family: on D(2,1;a) they overflow against the a-carrying
# diagonal entries unless they sit on e1, elsewhere they pair like numbers
a_parts = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def weights(draw, rs):
    """Random weights, often orthogonal to a root: a pairing that vanishes
    is the case the kernel has to get right."""
    # no a-part, an a-part on one coordinate, or a-parts anywhere
    carriers = draw(st.sampled_from([(), (), (draw(st.integers(0, rs.rank - 1)),),
                                     range(rs.rank)]))
    lam = Weight(tuple(Scalar(draw(rationals), draw(a_parts) if i in carriers else 0)
                       for i in range(rs.rank)))
    if draw(st.booleans()):
        # shift one coordinate of lam until it pairs to zero with beta
        beta = draw(st.sampled_from(rs.delta1))
        try:
            num = inner_product(lam, beta.vector, rs.form)
        except DegreeOverflow:
            return lam
        diag = rs.form.coords
        if rs.alpha_value is not None:
            num = Scalar(num.r + num.s * rs.alpha_value, 0)
            diag = [Scalar(d.r + d.s * rs.alpha_value, 0) for d in diag]
        i = draw(st.sampled_from([i for i, (b, d) in enumerate(zip(beta.vector.coords, diag))
                                  if b.r != 0 and d.s == 0 and d.r != 0]))
        unit = diag[i].r * beta.vector.coords[i].r
        shift = [Scalar(0, 0)] * rs.rank
        shift[i] = Scalar(num.r / unit, num.s / unit)
        lam = lam - Weight(tuple(shift))
    return lam


def outcome(fn, *args):
    """fn(*args), or the marker "overflow" where it raises DegreeOverflow."""
    try:
        return fn(*args)
    except DegreeOverflow:
        return "overflow"


# -- the kernel against the Scalar inner product ------------------------------


@pytest.mark.parametrize("key", KEYS)
@FUZZ
@given(data=st.data())
def test_kernel_matches_inner(data, key):
    rs, _, _ = system(key)
    roots = rs.delta0 + rs.delta1
    lam = data.draw(weights(rs))
    # every root's verdict and pairing value, DegreeOverflow included
    for root in roots:
        expected = outcome(inner_product, lam, root.vector, rs.form)
        got = outcome(lambda: rs._pair(rs._weigh(lam), root.support))
        if expected == "overflow":
            assert got == "overflow"
        else:
            r, s = got
            assert Scalar(Fraction(r, lam.den), Fraction(s, lam.den)) == expected
        assert (outcome(lambda: root in rs.orthogonal_roots(lam, (root,)))
                == outcome(ref_orthogonal, rs, lam, root))
    # a batch raises where any of its roots does
    batch = data.draw(st.lists(st.sampled_from(roots), max_size=6))
    try:
        expected = frozenset(r for r in batch if ref_orthogonal(rs, lam, r))
    except DegreeOverflow:
        expected = "overflow"
    assert outcome(rs.orthogonal_roots, lam, batch) == expected


# lambda's a-part where a root's support meets it and where it misses it.
# On D(2,1;a) the diagonal is (-1-a, 1, a): an a-part at d or e2 overflows
# against exactly the roots whose support holds that position, and an
# a-part at e1 pairs like a number.  Values are times lambda.den.
A_PART_CASES = [
    ("d21", "a,0,0", "2d", "overflow"),
    ("d21", "a,0,0", "d+e1-e2", "overflow"),
    ("d21", "a,0,0", "2e1", (0, 0)),
    ("d21", "0,0,a", "-2e2", "overflow"),
    ("d21", "0,0,a", "-2d", (0, 0)),
    ("d21", "1,a,0", "2e1", (0, 2)),
    ("d21", "1,a,0", "2d", (-2, -2)),
    ("d21", "1,a,0", "d-e1+e2", (-1, -2)),
    ("d21@2/3", "a,0,0", "2d", "overflow"),
    ("d21@2/3", "a,0,0", "-2e1", (0, 0)),
    ("gl(2|1)", "a,0,0", "e1-d1", (0, 1)),
    ("gl(2|1)", "a,0,0", "e2-d1", (0, 0)),
    ("gl(2|1)", "1/2a,0,1", "e1-d1", (2, 1)),
    ("gl(2|1)", "1/2a,0,1", "-e1+e2", (0, -1)),
]


@pytest.mark.parametrize("key, lam, name, expected", A_PART_CASES)
def test_kernel_on_a_parts_that_meet_or_miss_the_support(key, lam, name, expected):
    rs, _, _ = system(key)
    lam, root = parse_weight(lam), rs.root_by_name(name)
    assert outcome(lambda: rs._pair(rs._weigh(lam), root.support)) == expected
    inner = outcome(inner_product, lam, root.vector, rs.form)
    if expected == "overflow":
        assert inner == "overflow"
        with pytest.raises(DegreeOverflow, match=f"^pairing {re.escape(name)} with"):
            rs.orthogonal_roots(lam, (root,))
    else:
        assert inner == Scalar(Fraction(expected[0], lam.den), Fraction(expected[1], lam.den))
        assert (root in rs.orthogonal_roots(lam, (root,))) == ref_orthogonal(rs, lam, root)


@pytest.mark.parametrize("key", KEYS)
@FUZZ
@given(data=st.data())
def test_pairing_sums_match_inner_of_the_sum(data, key):
    rs, _, _ = system(key)
    lam, mu = data.draw(weights(rs)), data.draw(weights(rs))
    root = data.draw(st.sampled_from(rs.delta1))
    # the a-parts of the summands may cancel, so the sum can pair where
    # one summand alone overflows
    assert (outcome(lambda: root in rs.orthogonal_roots(lam + mu, (root,)))
            == outcome(ref_orthogonal, rs, lam + mu, root))


@pytest.mark.parametrize("key", KEYS)
def test_root_pairs_and_isotropy_match_inner(key):
    rs, _, _ = system(key)
    roots = rs.delta0 + rs.delta1
    for a in roots:
        assert a.isotropic == (a.parity == "odd" and ref_orthogonal(rs, a.vector, a))
        for b in roots:
            assert rs.roots_orthogonal(a, b) == ref_orthogonal(rs, a.vector, b)


# -- library call sites against references on the Scalar product --------------


def ref_is_typical(rs, b, lam):
    shifted = lam + weyl_vector(rs, b)
    return all(not ref_orthogonal(rs, shifted, r) for r in rs.delta_iso)


@pytest.mark.parametrize("key", KEYS)
@FUZZ
@given(data=st.data())
def test_call_sites_match_inner(data, key):
    rs, borels, og = system(key)
    lam = data.draw(weights(rs))
    b = data.draw(st.sampled_from(borels))
    assert outcome(is_typical, rs, b, lam) == outcome(ref_is_typical, rs, b, lam)
    try:
        d = ref_atypical_colors(rs, og, lam)
    except DegreeOverflow:
        with pytest.raises(DegreeOverflow):
            atypical_colors(rs, og, lam)
        with pytest.raises(DegreeOverflow):
            build_or_lambda(rs, og, lam)
        return
    assert atypical_colors(rs, og, lam) == d
    assert build_or_lambda(rs, og, lam).vertex_map == ref_quotient(og.graph, d)[1]


@pytest.mark.parametrize("key", KEYS)
@FUZZ
@given(data=st.data())
def test_rbtriv_check_matches_direct_criterion(data, key):
    # the quotient test against the direct pairing criterion; both raise
    # DegreeOverflow where a color root does not pair in degree one
    rs, _, og = system(key)
    lam = data.draw(weights(rs))
    assert outcome(rbtriv_check, rs, og, lam) == outcome(ref_rbtriv, rs, og, lam)
