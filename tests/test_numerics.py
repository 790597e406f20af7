"""Scalar and weight arithmetic, parsing, and the Scalar inner product and
exact solver that tests/oracles.py keeps as references."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import pprint
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from ortk.adjusted import AdjustedBorel, HypercubicCollection
from ortk.atypicality import Emptiness, S1Classification
from ortk.characters import MultiplicityQuery, NumeratorCharacter, verma_character
from ortk.ecgraph import (
    ColoredGraph,
    ExchangeReport,
    ExtensionReport,
    IsoWitness,
    Quotient,
    Walk,
)
from ortk.manifest import LAMBDA_GRID, GridEntry
from ortk.numerics import (
    BilinearForm,
    DegreeOverflow,
    RankMismatch,
    SingularBasis,
    Scalar,
    Weight,
    parse_scalar,
    parse_weight,
    render_scalar,
    render_weight,
    scalar,
    weight,
    zero_weight,
)
from ortk.orgraph import (
    AtypicalColorSet,
    HypercubicImage,
    TrivialIntersection,
    WalkHomVerdict,
    build_or_graph,
)
from ortk.quiver import PathClass, Quiver
from ortk.rootsys import Borel, Root, build_root_system, enumerate_borels
from ortk.verify import ReportEntry, VerificationReport

from oracles import NotInSpan, expand_in_basis, inner_product


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


# -- the integer Weight against a Scalar-tuple reference ----------------------


@dataclass(frozen=True)
class RefWeight:
    """The Scalar-tuple Weight that the integer one replaced, kept as the
    reference: every operation works coordinate by coordinate on Scalars."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(
            c if isinstance(c, Scalar) else scalar(c) for c in self.coords))

    def is_zero(self, alpha=None):
        return all(c.is_zero(alpha) for c in self.coords)

    def is_rational(self):
        return all(c.s == 0 for c in self.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def _check(self, other):
        if len(self.coords) != len(other.coords):
            raise RankMismatch(f"rank {len(self.coords)} vs {len(other.coords)}")

    def __add__(self, other):
        self._check(other)
        return RefWeight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return RefWeight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return RefWeight(tuple(-a for a in self.coords))

    def scaled(self, c):
        c = c if isinstance(c, Scalar) else scalar(c)
        return RefWeight(tuple(a * c for a in self.coords))

    def render(self):
        return ",".join(render_scalar(c) for c in self.coords)


WEIGHT_FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                       suppress_health_check=[HealthCheck.too_slow])
small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def coordinate_lists(draw, rank):
    """Scalar coordinates with denominators up to 6 and a-parts on none,
    some or all of them."""
    carriers = draw(st.sampled_from(["none", "some", "all"]))
    coords = []
    for _ in range(rank):
        has_a = carriers == "all" or (carriers == "some" and draw(st.booleans()))
        coords.append(Scalar(draw(small_rationals), draw(small_rationals) if has_a else 0))
    return coords


def outcome(fn, *args):
    """fn(*args), or the class of the ArithmeticError or ValueError it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e)


def agrees(w, ref):
    """w is the integer Weight of the reference weight ref."""
    assert isinstance(w, Weight)
    assert w.coords == ref.coords
    assert w.den > 0 and gcd(w.den, *w.r, *w.s) == 1
    fresh = Weight(ref.coords)
    assert w == fresh and hash(w) == hash(fresh)
    return True


@WEIGHT_FUZZ
@given(data=st.data())
def test_integer_weight_matches_scalar_reference(data):
    rank = data.draw(st.integers(1, 4))
    ca, cb = data.draw(coordinate_lists(rank)), data.draw(coordinate_lists(rank))
    a, b = Weight(ca), Weight(cb)
    ra, rb = RefWeight(tuple(ca)), RefWeight(tuple(cb))
    assert agrees(a, ra) and agrees(b, rb)
    assert agrees(a + b, ra + rb)
    assert agrees(a - b, ra - rb)
    assert agrees(-a, -ra)
    # equality and hashing, also for a weight rebuilt from unreduced integers
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    k = data.draw(st.integers(1, 5))
    rebuilt = Weight.of([k * x for x in a.r], [k * x for x in a.s], k * a.den)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    # scaling by an int, a Fraction and an a-carrying Scalar
    for c in (data.draw(st.integers(-3, 3)), data.draw(small_rationals),
              Scalar(data.draw(small_rationals), data.draw(small_rationals))):
        got, expected = outcome(a.scaled, c), outcome(ra.scaled, c)
        if isinstance(expected, RefWeight):
            assert agrees(got, expected)
        else:
            assert got is expected is DegreeOverflow
    alpha = data.draw(small_rationals)
    assert a.is_zero() == ra.is_zero()
    assert a.is_zero(alpha) == ra.is_zero(alpha)
    # a weight that vanishes at a = alpha only
    on_alpha = [Scalar(-c.s * alpha, c.s) for c in cb]
    assert Weight(on_alpha).is_zero(alpha) and RefWeight(tuple(on_alpha)).is_zero(alpha)
    assert Weight(on_alpha).is_zero() == RefWeight(tuple(on_alpha)).is_zero()
    assert a.is_rational() == ra.is_rational()
    assert a.sort_key() == ra.sort_key()
    assert (a.sort_key() < b.sort_key()) == (ra.sort_key() < rb.sort_key())
    text = render_weight(a)
    assert text == ra.render()
    assert parse_weight(text, rank) == a
    # a weight of another rank
    other = Weight(data.draw(coordinate_lists(rank + 1)))
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        assert outcome(op, a, other) is RankMismatch
        assert outcome(op, ra, RefWeight(other.coords)) is RankMismatch


def test_weight_of_reduces_and_validates():
    w = Weight.of((2, -4), (6, 0), 4)
    assert (w.r, w.s, w.den) == ((1, -2), (3, 0), 2)
    assert w == weight(scalar(Fraction(1, 2), Fraction(3, 2)), -1)
    assert Weight.of((3, 0)) == weight(3, 0)
    with pytest.raises(ValueError):
        Weight.of((1, 2), (1,))
    with pytest.raises(ValueError):
        Weight.of((1, 2), den=0)


def test_weight_value_contract():
    # a Weight is the immutable tuple (r, s, den): it survives pickle and
    # copy, refuses assignment, has no order and no tuple repetition, and
    # every way of building one gives an equal value with an equal hash
    lam = weight(Fraction(1, 2), Fraction(-1, 3), scalar(Fraction(2, 3), 1))
    assert lam.den == 6
    assert lam == (lam.r, lam.s, lam.den) and hash(lam) == hash((lam.r, lam.s, lam.den))
    for copied in (pickle.loads(pickle.dumps(lam)), copy.copy(lam), copy.deepcopy(lam)):
        assert type(copied) is Weight and copied == lam and hash(copied) == hash(lam)
    for field in ("r", "s", "den"):
        with pytest.raises(AttributeError):
            setattr(lam, field, getattr(lam, field))
    for op in (lambda x, y: x < y, lambda x, y: x <= y,
               lambda x, y: x > y, lambda x, y: x >= y):
        with pytest.raises(TypeError):
            op(lam, lam)
    for op in (lambda x: x * 2, lambda x: 2 * x):
        with pytest.raises(TypeError):
            op(lam)
    rs = build_root_system("gl", 2, 1)
    terms = verma_character(rs, set(), lam).terms
    assert len(terms) > 1
    for w in terms:
        assert w.den == 6
        by_coords = Weight(w.coords)
        by_of = Weight.of([3 * x for x in w.r], [3 * y for y in w.s], 3 * w.den)
        for other in (by_coords, by_of, pickle.loads(pickle.dumps(w))):
            assert other == w and hash(other) == hash(w)
            assert other in terms


def test_frozen_record_value_contract():
    # the records are namedtuples or plain classes, not dataclasses, and keep
    # the dataclass contract: equal fields give equal records with equal
    # hashes, fields cannot be assigned, and Root and Borel, like Weight, have
    # no order.  Root and Borel hash as their integer data, which keeps set
    # and dict order, and so every golden byte, independent of the hash seed.
    rs = build_root_system("gl", 2, 2)
    b = enumerate_borels(rs)[0][0]
    root = b.simple[1]
    lam = weight(Fraction(1, 2), 0, -1, 2)
    g = ColoredGraph(("a", "b"), ("x",), (("b", "a", "x"),))
    same_root = Root(Weight.of(root.vector.r), root.parity, root.isotropic)
    same_borel = Borel(tuple(b.odd_positive), tuple(reversed(b.simple)))
    walk = Walk(g, ("a", "b"), ("x",))
    pairs = [
        (root, same_root),
        (b, same_borel),
        (scalar(Fraction(1, 2), 1), Scalar(Fraction(2, 4), 1)),
        (BilinearForm((1, scalar(-1))), BilinearForm([scalar(1), scalar(-1)])),
        (MultiplicityQuery({root}, lam, lam), MultiplicityQuery(frozenset([same_root]), lam, lam)),
        (AdjustedBorel({root}, b), AdjustedBorel(frozenset([root]), same_borel)),
        (HypercubicCollection({2}, lam, [root], lam),
         HypercubicCollection(frozenset([2]), lam, (same_root,), lam)),
        (g, ColoredGraph(["a", "b"], ["x"], [("a", "b", "x")])),
        (walk, Walk(ColoredGraph("ab", "x", [("a", "b", "x")]), ("a", "b"), ("x",))),
        (WalkHomVerdict.zero(), WalkHomVerdict(False, ())),
        (WalkHomVerdict(True, (root,)), WalkHomVerdict(True, (same_root,))),
        (AtypicalColorSet(lam, frozenset("x")), AtypicalColorSet(lam, frozenset(["x"]))),
        (HypercubicImage(b), HypercubicImage(same_borel)),
        (TrivialIntersection(), TrivialIntersection()),
        (PathClass(("a",), 0, 1), PathClass(("a",), 0, 1)),
        (LAMBDA_GRID[0], GridEntry("gl", 1, 1, LAMBDA_GRID[0].weights)),
        (S1Classification(frozenset([root]), frozenset(), frozenset(), Emptiness.EMPTY),
         S1Classification(frozenset([same_root]), frozenset(), frozenset(), Emptiness.EMPTY)),
        (ExchangeReport((walk,), (), 1, 2), ExchangeReport((walk,), (), 1, 2)),
        (ExtensionReport((), 3), ExtensionReport((), 3)),
    ]
    for x, y in pairs:
        assert x is not y and x == y and not x != y and hash(x) == hash(y), type(x)
    assert IsoWitness({"a": "b"}, {}) == IsoWitness([("a", "b")], {})
    assert hash(root) == hash(root.vector.r)
    assert hash(b) == hash((b.odd_positive,))
    # Borel equality and hash ignore .simple
    assert same_borel.simple != b.simple
    assert Borel(b.odd_positive, ()) == b and hash(Borel(b.odd_positive, ())) == hash(b)
    assert b != enumerate_borels(rs)[0][1] and root != b.simple[0]
    assert g != ColoredGraph(("a", "b"), ("x", "y"), (("a", "b", "x"),))
    assert ExchangeReport((), (), 1, 2) != ExchangeReport((), (), 1, 3)
    # a Quotient compares by its fields, and its vertex_map dict leaves it
    # unhashable, as the frozen dataclass was
    q = Quotient(g, {"a": "a", "b": "b"}, ())
    assert q == Quotient(g, {"a": "a", "b": "b"}, ()) and q != Quotient(g, {"a": "a", "b": "a"}, ())
    with pytest.raises(TypeError):
        hash(q)

    fields = [(b, ("odd_positive", "simple")), (g, ("vertices", "colors", "edges"))]
    fields += [(x, x._fields) for x, _ in pairs + [(q, q)] if hasattr(x, "_fields")]
    for x, names in fields:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, names[0])
    for x, y in ((root, same_root), (b, same_borel)):
        for op in (lambda u, v: u < v, lambda u, v: u <= v,
                   lambda u, v: u > v, lambda u, v: u >= v):
            with pytest.raises(TypeError):
                op(x, y)
    replaced = [x for x, _ in pairs[-3:]] + [q]
    for x in [b, root, g] + replaced:
        for copied in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(copied) is type(x) and copied == x
            assert x is q or hash(copied) == hash(x)
    assert copy.copy(b).simple == b.simple
    # the repr the dataclasses gave them
    for x in replaced:
        assert repr(x) == f"{type(x).__name__}(" + ", ".join(
            f"{name}={getattr(x, name)!r}" for name in x._fields) + ")"


def test_dataclasses_replace_plants_into_the_four_records():
    # bench/selftest.py plants wrong answers in these records through
    # dataclasses.replace; they are not dataclasses, and expose only the
    # field table that replace, fields and is_dataclass read
    g = ColoredGraph(("a", "b"), ("x",), (("a", "b", "x"),))
    cases = [
        (S1Classification(frozenset("a"), frozenset("b"), frozenset(), Emptiness.NONEMPTY),
         {"certified_in": frozenset("ab"), "certified_out": frozenset()}),
        (Quotient(g, {"a": "a", "b": "b"}, ()), {"vertex_map": {"a": "a", "b": "a"}}),
        (ExchangeReport((), (), 4, 5), {"n_shortest_walks": 5}),
        (ExtensionReport((), 7), {"violations": (("planted", None),)}),
    ]
    for x, changes in cases:
        cls = type(x)
        assert dataclasses.is_dataclass(x) and dataclasses.is_dataclass(cls)
        assert tuple(f.name for f in dataclasses.fields(x)) == cls._fields
        assert tuple(f.name for f in dataclasses.fields(cls)) == cls._fields
        y = dataclasses.replace(x, **changes)
        assert type(y) is cls and y != x
        for name in cls._fields:
            assert getattr(y, name) == changes.get(name, getattr(x, name)), (cls, name)
        assert dataclasses.replace(x) == x
        with pytest.raises(TypeError):
            dataclasses.replace(x, not_a_field=1)
        assert dataclasses.asdict(x) == {name: getattr(x, name) for name in cls._fields}
        # pprint takes what is_dataclass accepts for a dataclass
        assert pprint.pformat(x, width=10) == repr(x)


def test_mutable_and_identity_record_contract():
    # the mutable records compare by their fields and have no hash;
    # an ORGraph compares and hashes by identity
    w = weight(1, 0)
    arrows = [("a", 1, 2)]
    pairs = [
        (NumeratorCharacter({w: 1, weight(0, 1): 0}), NumeratorCharacter({w: 1})),
        (Quiver([1, 2], arrows, frozenset(), frozenset()),
         Quiver((1, 2), [["a", 1, 2]], [], [])),
        (ReportEntry("x", {}, "pass"), ReportEntry("x", {}, "pass", {})),
        (VerificationReport([ReportEntry("x", {}, "pass")]),
         VerificationReport([ReportEntry("x", {}, "pass", {})])),
    ]
    for x, y in pairs:
        assert x == y and not x != y, type(x)
        with pytest.raises(TypeError):
            hash(x)
    assert NumeratorCharacter({w: 1}) != NumeratorCharacter({w: 2})
    assert ReportEntry("x", {}, "pass") != ReportEntry("x", {}, "fail")
    rs = build_root_system("gl", 2, 1)
    og, og2 = build_or_graph(rs), build_or_graph(rs)
    assert og.graph == og2.graph and og == og and og != og2
    assert hash(og) == object.__hash__(og)
