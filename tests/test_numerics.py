"""Scalar and weight arithmetic, parsing, and the exact solver."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ortk.numerics import (
    BilinearForm,
    DegreeOverflow,
    NotInSpan,
    RankMismatch,
    SingularBasis,
    Scalar,
    expand_in_basis,
    inner_product,
    parse_scalar,
    parse_weight,
    render_scalar,
    render_weight,
    scalar,
    weight,
    zero_weight,
)


def test_scalar_add_and_neg():
    a = scalar(1)
    b = scalar(0, 1)
    assert a + b == Scalar(Fraction(1), Fraction(1))
    assert -a == scalar(-1)


def test_scalar_mul_keeps_degree_one():
    x = scalar(1, 1)
    assert scalar(-1) * x == scalar(-1, -1)
    assert x * Fraction(1, 2) == scalar(Fraction(1, 2), Fraction(1, 2))


def test_alpha_squared_overflows():
    with pytest.raises(DegreeOverflow):
        scalar(0, 1) * scalar(0, 1)
    with pytest.raises(DegreeOverflow):
        scalar(1, 1) * scalar(0, 2)


def test_scalar_zero_test_with_specialization():
    x = scalar(1, 2)
    assert not x.is_zero()
    assert x.is_zero(Fraction(-1, 2))
    assert not x.is_zero(Fraction(1, 2))
    assert scalar(0).is_zero()


GL22_FORM = BilinearForm((scalar(1), scalar(1), scalar(-1), scalar(-1)))
# basis order delta, eps1, eps2
D21_FORM = BilinearForm((scalar(-1, -1), scalar(1), scalar(0, 1)))


def test_isotropic_root_in_gl22():
    root = weight(1, 0, -1, 0)  # eps1 - delta1
    assert inner_product(root, root, GL22_FORM).is_zero()


def test_d21_odd_roots_isotropic_for_generic_parameter():
    for e1 in (1, -1):
        for e2 in (1, -1):
            root = weight(1, e1, e2)
            assert inner_product(root, root, D21_FORM).is_zero()


def test_d21_even_roots_not_isotropic():
    assert inner_product(weight(2, 0, 0), weight(2, 0, 0), D21_FORM) == scalar(-4, -4)
    assert inner_product(weight(0, 0, 2), weight(0, 0, 2), D21_FORM) == scalar(0, 4)


def test_inner_product_rank_mismatch():
    with pytest.raises(RankMismatch):
        inner_product(weight(1, 0), weight(1, 0, 0), GL22_FORM)


def test_inner_product_with_zero_vector():
    v = weight(3, Fraction(1, 2), -2, 0)
    assert inner_product(v, zero_weight(4), GL22_FORM).is_zero()


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def test_form_symmetry_and_bilinearity():
    rng = random.Random(7)
    for _ in range(50):
        v = weight(*[_random_rational(rng) for _ in range(4)])
        w = weight(*[_random_rational(rng) for _ in range(4)])
        u = weight(*[_random_rational(rng) for _ in range(4)])
        c = _random_rational(rng)
        assert inner_product(v, w, GL22_FORM) == inner_product(w, v, GL22_FORM)
        lhs = inner_product(v + w.scaled(c), u, GL22_FORM)
        rhs = inner_product(v, u, GL22_FORM) + inner_product(w, u, GL22_FORM) * c
        assert lhs == rhs


def test_expand_in_basis_roundtrip():
    basis = [weight(1, -1, 0), weight(0, 1, -1), weight(0, 0, 1)]
    rng = random.Random(11)
    for _ in range(25):
        v = weight(*[_random_rational(rng) for _ in range(3)])
        coeffs = expand_in_basis(v, basis)
        back = zero_weight(3)
        for c, b in zip(coeffs, basis):
            back = back + b.scaled(c)
        assert back == v


def test_expand_in_basis_with_alpha_part():
    basis = [weight(1, 0), weight(1, 1)]
    v = weight(scalar(2, 1), scalar(0, 2))
    coeffs = expand_in_basis(v, basis)
    assert coeffs == [scalar(2, -1), scalar(0, 2)]


def test_expand_detects_singular_basis():
    with pytest.raises(SingularBasis):
        expand_in_basis(weight(1, 1), [weight(1, 0), weight(2, 0)])


def test_expand_detects_out_of_span():
    with pytest.raises(NotInSpan):
        expand_in_basis(weight(1, 1, 1), [weight(1, -1, 0), weight(0, 1, -1)])


def test_scalar_render_parse_roundtrip():
    samples = [
        scalar(0),
        scalar(Fraction(-1, 2)),
        scalar(3),
        scalar(1, 1),
        scalar(0, Fraction(-2, 3)),
        scalar(Fraction(5, 4), Fraction(-1, 2)),
    ]
    for x in samples:
        assert parse_scalar(render_scalar(x)) == x
    assert parse_scalar("a") == scalar(0, 1)
    assert parse_scalar("-a") == scalar(0, -1)
    assert parse_scalar("1/2a") == scalar(0, Fraction(1, 2))


def test_weight_text_format():
    w = parse_weight("1,0,-1/2")
    assert w == weight(1, 0, Fraction(-1, 2))
    assert render_weight(w) == "1,0,-1/2"
    w2 = parse_weight("1+1a,0,-1/2", rank=3)
    assert w2.coords[0] == scalar(1, 1)
    with pytest.raises(RankMismatch):
        parse_weight("1,2", rank=3)
    with pytest.raises(ValueError):
        parse_weight("1,x")
