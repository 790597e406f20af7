"""Path algebra quotients: preset shapes, frozen dimensions, reduction oracle."""

import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from hypothesis import given, settings, strategies as st

import ortk
from oracles import bareiss_rank
from ortk import quiver
from ortk.quiver import (
    BasisNotStabilized,
    PathClass,
    Quiver,
    build_quiver,
    hom_dimensions,
    path_normal_forms,
    render_path,
    word_normal_form,
)


def _words_dfs(q, s, t, length):
    """All composable arrow words from s to t, found by plain depth-first search."""
    amap = {name: (src, tgt) for name, src, tgt in q.arrows}
    names = sorted(amap)
    found = []

    def go(cur, at):
        if len(cur) == length:
            if at == t:
                found.append(tuple(cur))
            return
        for nm in names:
            src, tgt = amap[nm]
            if src == at:
                cur.append(nm)
                go(cur, tgt)
                cur.pop()

    go([], s)
    return found


def _oracle_relation_rows(q, words):
    """Integer relation rows of one degree over the columns words, in order.

    Column order is ascending and killed words skip their commutation
    translates, so this walks a different route than the package code.
    """
    cols = {wd: k for k, wd in enumerate(words)}
    rows = []
    for wd in words:
        length = len(wd)
        killed = False
        for z in q.zero_relations:
            k = len(z)
            if k <= length and any(wd[i:i + k] == z for i in range(length - k + 1)):
                killed = True
                break
        if killed:
            row = [0] * len(words)
            row[cols[wd]] = 1
            rows.append(row)
            continue
        for lhs, rhs in q.commutation_relations:
            k = len(lhs)
            for i in range(length - k + 1):
                for one, other in ((lhs, rhs), (rhs, lhs)):
                    if wd[i:i + k] == one:
                        swapped = wd[:i] + other + wd[i + k:]
                        if swapped != wd:
                            row = [0] * len(words)
                            row[cols[wd]] += 1
                            row[cols[swapped]] -= 1
                            rows.append(row)
    return rows


def _oracle_degree_dim(q, s, t, length):
    """Dimension of one degree of e_s A e_t, via integer elimination."""
    words = _words_dfs(q, s, t, length)
    if not words:
        return 0
    return len(words) - bareiss_rank(_oracle_relation_rows(q, words))


def _oracle_dim(q, s, t, max_len):
    return sum(_oracle_degree_dim(q, s, t, length) for length in range(max_len + 1))


def test_preset_shapes():
    q = build_quiver("preprojective_a2")
    assert len(q.vertices) == 2
    assert len(q.arrows) == 2
    assert len(q.zero_relations) == 2
    assert not q.commutation_relations

    q = build_quiver("chain3")
    assert q.vertices == [1, 2, 3]
    assert len(q.arrows) == 4
    assert len(q.zero_relations) == 4

    q = build_quiver("square4")
    assert len(q.vertices) == 4
    assert len(q.arrows) == 8
    assert len(q.zero_relations) == 16
    assert len(q.commutation_relations) == 4

    q = build_quiver("zigzag_window", 2)
    assert q.vertices == [-2, -1, 0, 1, 2]
    assert len(q.arrows) == 8
    assert len(q.zero_relations) == 6
    assert len(q.commutation_relations) == 3

    q = build_quiver("zigzag_window", w=3)
    assert len(q.vertices) == 7
    assert len(q.arrows) == 12
    assert len(q.zero_relations) == 10
    assert len(q.commutation_relations) == 5


def test_build_quiver_rejects_bad_presets():
    with pytest.raises(ValueError):
        build_quiver("zigzag_window", 1)
    with pytest.raises(ValueError):
        build_quiver("zigzag_window")
    with pytest.raises(ValueError):
        build_quiver("zigzag_window(x)")
    # the window size is given through w only, and only zigzag_window takes one
    with pytest.raises(ValueError, match="unknown preset"):
        build_quiver("zigzag_window(3)")
    with pytest.raises(ValueError, match="window size"):
        build_quiver("zigzag_window(2)", w=3)
    with pytest.raises(ValueError, match="window size"):
        build_quiver("chain3", w=3)
    with pytest.raises(ValueError):
        build_quiver("pentagon")


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(
            vertices=[1, 2],
            arrows=[("a", 1, 2), ("b", 2, 1)],
            zero_relations=frozenset({("a", "a")}),
            commutation_relations=frozenset(),
        )
    with pytest.raises(ValueError):
        Quiver(
            vertices=[1, 2],
            arrows=[("a", 1, 2), ("b", 2, 1)],
            zero_relations=frozenset(),
            commutation_relations=frozenset({(("a",), ("b",))}),
        )
    with pytest.raises(ValueError):
        Quiver(
            vertices=[1, 2],
            arrows=[("a", 1, 2), ("b", 2, 1)],
            zero_relations=frozenset(),
            commutation_relations=frozenset({(("a", "b"), ("a", "b", "a", "b"))}),
        )
    with pytest.raises(ValueError):
        Quiver(
            vertices=[1, 2],
            arrows=[("a", 1, 2), ("a", 2, 1)],
            zero_relations=frozenset(),
            commutation_relations=frozenset(),
        )


def test_preprojective_normal_forms():
    q = build_quiver("preprojective_a2")
    nf = path_normal_forms(q, 2)
    assert [pc.word for pc in nf[(1, 1)]] == [()]
    assert [pc.word for pc in nf[(1, 2)]] == [("a",)]
    assert [pc.word for pc in nf[(2, 1)]] == [("b",)]
    assert [pc.word for pc in nf[(2, 2)]] == [()]
    assert sum(len(v) for v in nf.values()) == 4
    assert hom_dimensions(q) == [[1, 1], [1, 1]]


def test_chain3_dimensions():
    # the four listed relations kill only the back-and-forth pairs, so the
    # straight-through words a*c and d*b survive: every pair has dimension 1
    q = build_quiver("chain3")
    assert hom_dimensions(q) == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    nf = path_normal_forms(q, 3)
    assert [pc.word for pc in nf[(1, 3)]] == [("a", "c")]
    assert [pc.word for pc in nf[(3, 1)]] == [("d", "b")]
    assert sum(len(v) for v in nf.values()) == 9


def test_square4_dimensions():
    q = build_quiver("square4")
    assert hom_dimensions(q) == [[1] * 4 for _ in range(4)]
    nf = path_normal_forms(q, 3)
    assert sum(len(v) for v in nf.values()) == 16
    assert [pc.word for pc in nf[(2, 4)]] == [("a", "f")]
    assert [pc.word for pc in nf[(4, 2)]] == [("e", "b")]
    assert [pc.word for pc in nf[(1, 3)]] == [("b", "c")]
    assert [pc.word for pc in nf[(3, 1)]] == [("d", "a")]
    for (s, t), classes in nf.items():
        for pc in classes:
            assert pc.source == s and pc.target == t


def test_zigzag_interior_dimensions():
    q = build_quiver("zigzag_window", w=3)
    dims = hom_dimensions(q)
    idx = {v: k for k, v in enumerate(q.vertices)}
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            if i == j:
                want = 2
            elif abs(i - j) == 1:
                want = 1
            else:
                want = 0
            assert dims[idx[i]][idx[j]] == want


def test_zigzag_loop_class():
    q = build_quiver("zigzag_window", 2)
    nf = path_normal_forms(q, 3)
    assert [pc.word for pc in nf[(0, 0)]] == [(), ("a1", "b1")]
    # boundary loops have no partner word to merge with but still survive
    assert [pc.word for pc in nf[(-2, -2)]] == [(), ("a-1", "b-1")]
    assert len(nf[(2, 2)]) == 2


def test_window_stability():
    inner = build_quiver("zigzag_window", 3)
    outer = build_quiver("zigzag_window", 4)
    din = hom_dimensions(inner)
    dout = hom_dimensions(outer)
    iin = {v: k for k, v in enumerate(inner.vertices)}
    iout = {v: k for k, v in enumerate(outer.vertices)}
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            assert din[iin[i]][iin[j]] == dout[iout[i]][iout[j]]


def test_dimension_symmetry():
    for preset, w in (("preprojective_a2", None), ("chain3", None), ("square4", None),
                      ("zigzag_window", 2), ("zigzag_window", 3)):
        dims = hom_dimensions(build_quiver(preset, w))
        n = len(dims)
        for i in range(n):
            for j in range(n):
                assert dims[i][j] == dims[j][i]


def test_rewriting_soundness():
    for preset, w in (("preprojective_a2", None), ("chain3", None), ("square4", None),
                      ("zigzag_window", 3)):
        q = build_quiver(preset, w)
        for z in q.zero_relations:
            assert word_normal_form(q, z) == {}
        for lhs, rhs in q.commutation_relations:
            assert word_normal_form(q, lhs) == word_normal_form(q, rhs)
    # the commuting squares carry actual nonzero classes
    q = build_quiver("square4")
    assert word_normal_form(q, ("c", "h")) == {("a", "f"): 1}
    q = build_quiver("zigzag_window", 3)
    assert word_normal_form(q, ("b0", "a0")) == {("a1", "b1"): 1}


def test_basis_words_are_fixed_points():
    for preset, w in (("preprojective_a2", None), ("chain3", None), ("square4", None),
                      ("zigzag_window", 2)):
        q = build_quiver(preset, w)
        nf = path_normal_forms(q, 3)
        for classes in nf.values():
            for pc in classes:
                if pc.word:
                    assert word_normal_form(q, pc.word) == {pc.word: 1}


def test_not_stabilized():
    q = build_quiver("chain3")
    with pytest.raises(BasisNotStabilized):
        path_normal_forms(q, 1)
    with pytest.raises(BasisNotStabilized):
        hom_dimensions(q, max_len=1)
    path_normal_forms(q, 2)
    with pytest.raises(BasisNotStabilized):
        path_normal_forms(build_quiver("preprojective_a2"), 0)
    with pytest.raises(ValueError):
        path_normal_forms(q, -1)


def test_word_normal_form_cases():
    q = build_quiver("preprojective_a2")
    assert word_normal_form(q, ("a", "b")) == {}
    assert word_normal_form(q, ("a",)) == {("a",): 1}
    with pytest.raises(ValueError):
        word_normal_form(q, ())
    q = build_quiver("chain3")
    assert word_normal_form(q, ("a", "c")) == {("a", "c"): 1}
    assert word_normal_form(q, ("a", "b", "a")) == {}


def test_word_normal_form_stops_at_the_first_zero_prefix(monkeypatch):
    q = build_quiver("zigzag_window", 3)
    degrees = []
    next_degree = quiver._next_degree

    def counting(out_arrows, layer):
        degrees.append(len(layer))
        return next_degree(out_arrows, layer)

    monkeypatch.setattr(quiver, "_next_degree", counting)
    # a1 b1 = b0 a0 and a0 a1 = 0, so the prefix a1 b1 a1 is zero: degree
    # 3 is the last one built, not degree 16
    assert word_normal_form(q, ("a1", "b1") * 8) == {}
    assert len(degrees) == 3
    degrees.clear()
    assert word_normal_form(q, ("a1", "b1")) == {("a1", "b1"): 1}
    assert word_normal_form(q, ("b0", "a0", "b0")) == {}
    assert len(degrees) == 5


def test_render_path():
    assert render_path(PathClass((), 0, 0)) == "e_0"
    assert render_path(PathClass(("a1", "b1"), 0, 0)) == "a1*b1"


def test_oracle_agreement():
    cases = [
        ("preprojective_a2", None, 2),
        ("chain3", None, 3),
        ("square4", None, 3),
        ("zigzag_window", 2, 3),
        ("zigzag_window", 3, 3),
    ]
    for preset, w, max_len in cases:
        q = build_quiver(preset, w)
        nf = path_normal_forms(q, max_len)
        for s in q.vertices:
            for t in q.vertices:
                assert len(nf[(s, t)]) == _oracle_dim(q, s, t, max_len), (preset, s, t)
                assert _oracle_degree_dim(q, s, t, max_len + 1) == 0, (preset, s, t)


# -- random quivers against the integer elimination oracle ----------------------


def _random_quiver(seed):
    """A quiver with 1-4 vertices and 1-4 arrows, loops and parallel arrows
    allowed, a few zero relations and a few commutation relations, some
    with lhs == rhs."""
    rng = random.Random(seed)
    vertices = list(range(rng.randint(1, 4)))
    arrows = []
    for k in range(rng.randint(1, 4)):
        # half the arrows run parallel to an earlier one, so that
        # commutation relations have distinct parallel words to join
        if arrows and rng.random() < 0.5:
            _, src, tgt = rng.choice(arrows)
        else:
            src, tgt = rng.choice(vertices), rng.choice(vertices)
        arrows.append(("x%d" % k, src, tgt))
    q = Quiver(vertices, arrows, frozenset(), frozenset())

    def word():
        """A random walk of 1-3 arrows, or None when it gets stuck."""
        name, _, at = rng.choice(arrows)
        wd = [name]
        for _ in range(rng.randint(0, 2)):
            out = [a for a in arrows if a[1] == at]
            if not out:
                return None
            name, _, at = rng.choice(out)
            wd.append(name)
        return tuple(wd)

    zeros = {z for z in (word() for _ in range(rng.randint(0, 3))) if z}
    comms = set()
    for _ in range(rng.randint(0, 4)):
        lhs = word()
        if lhs:
            src = next(a[1] for a in arrows if a[0] == lhs[0])
            tgt = next(a[2] for a in arrows if a[0] == lhs[-1])
            others = [wd for wd in _words_dfs(q, src, tgt, len(lhs)) if wd != lhs]
            rhs = rng.choice(others) if others and rng.random() < 0.75 else lhs
            comms.add((lhs, rhs))
    return Quiver(vertices, arrows, frozenset(zeros), frozenset(comms))


def _unit(words, wd):
    return [int(x == wd) for x in words]


@pytest.mark.parametrize("seed", range(60))
def test_random_quivers_match_the_oracle(seed):
    q = _random_quiver(seed)
    rng = random.Random(-seed)
    for max_len in range(4):
        grows = any(_oracle_degree_dim(q, s, t, max_len + 1)
                    for s in q.vertices for t in q.vertices)
        if grows:
            with pytest.raises(BasisNotStabilized):
                hom_dimensions(q, max_len)
        else:
            assert hom_dimensions(q, max_len) == [
                [_oracle_dim(q, s, t, max_len) for t in q.vertices] for s in q.vertices]
    # a word is zero exactly when e_w lies in the relation span, and two
    # words are equal exactly when e_w - e_w' does; sampled per degree
    for length in range(1, 4):
        for s in q.vertices:
            for t in q.vertices:
                words = _words_dfs(q, s, t, length)
                if not words:
                    continue
                rows = _oracle_relation_rows(q, words)
                rank = bareiss_rank(rows)
                for wd in rng.sample(words, min(3, len(words))):
                    nf = word_normal_form(q, wd)
                    in_span = bareiss_rank(rows + [_unit(words, wd)]) == rank
                    assert (nf == {}) == in_span, (seed, wd)
                    # the representative is the least word of the class
                    for rep, coef in nf.items():
                        assert coef == 1 and rep <= wd, (seed, wd, rep)
                        assert word_normal_form(q, rep) == nf, (seed, wd, rep)
                    other = rng.choice(words + [w for w in nf if w != wd])
                    diff = [x - y for x, y in zip(_unit(words, wd), _unit(words, other))]
                    same = bareiss_rank(rows + [diff]) == rank
                    assert (nf == word_normal_form(q, other)) == same, (seed, wd, other)


# -- max_len does not bound the work ----------------------------------------------


@pytest.mark.parametrize("preset,w", [("preprojective_a2", None), ("chain3", None),
                                      ("square4", None), ("zigzag_window", 2),
                                      ("zigzag_window", 3), ("zigzag_window", 5)])
def test_huge_max_len_matches_max_len_4(preset, w):
    # every preset's words vanish from degree 4 on, and path_normal_forms
    # stops at the first degree whose words all vanish; the child's timeout
    # turns a regression into a failure, not a hang
    want = repr(path_normal_forms(build_quiver(preset, w), 4))
    src = pathlib.Path(ortk.__file__).parents[1]
    code = ("import sys\n"
            "from ortk.quiver import build_quiver, path_normal_forms\n"
            "w = None if sys.argv[2] == '-' else int(sys.argv[2])\n"
            "print(repr(path_normal_forms(build_quiver(sys.argv[1], w), 10**6)))\n")
    out = subprocess.run([sys.executable, "-c", code, preset, "-" if w is None else str(w)],
                         env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                         encoding="utf-8", timeout=60, check=True)
    assert out.stdout == want + "\n"


# -- the oracle's rank against sympy ---------------------------------------------


@st.composite
def sparse_rows(draw):
    """Sparse rational rows over a few columns, some of them zero and some
    rational combinations of earlier rows."""
    width = draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ka, kb = (draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
                      for _ in range(2))
            row = [ka * x + kb * y for x, y in zip(a, b)]
        elif kind == "zero":
            row = [Fraction(0)] * width
        else:
            row = [draw(entry) for _ in range(width)]
        rows.append(row)
    return width, rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_rows())
def test_bareiss_rank_matches_sympy(case):
    width, rows = case
    # bareiss_rank takes integer rows: each row is scaled by the lcm of its
    # denominators, which keeps the rank
    scaled = [[int(v * math.lcm(*(x.denominator for x in row))) for v in row]
              for row in rows]
    matrix = sympy.Matrix(len(rows), width,
                          [sympy.Rational(v.numerator, v.denominator)
                           for row in rows for v in row])
    assert bareiss_rank(scaled) == matrix.rank()
