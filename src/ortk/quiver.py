"""Finite-dimensional path-algebra quotients for the bundled quiver presets.

A quiver carries two kinds of relations: zero relations that kill a path
word outright, and commutation relations that declare two parallel words
equal.  Every preset's relations are length-homogeneous, so Hom spaces
split by path length and each degree can be reduced on its own.

The reduction is deliberately blunt: enumerate all composable words up to
a length bound, translate every relation through every position, and row
reduce the resulting sparse system over the rationals.  Once the degree
max_len+1 quotient vanishes for every endpoint pair, all higher degrees
vanish too (the relation ideal is length-graded), so the computed bases
are complete.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

__all__ = [
    "BasisNotStabilized",
    "Quiver",
    "PathClass",
    "build_quiver",
    "path_normal_forms",
    "hom_dimensions",
    "word_normal_form",
    "render_path",
]


class BasisNotStabilized(ValueError):
    """Paths of length max_len+1 still contribute new basis classes."""


class PathClass(namedtuple("_PathClassFields", "word source target")):
    """Normal form of a path modulo the quiver's relations.

    The representative is the lexicographically smallest word in its
    residue class; the empty word stands for the idempotent at a vertex.
    """

    __slots__ = ()


class Quiver:
    """Vertices, named arrows (name, source, target) and the two kinds of
    relations."""

    __slots__ = ("vertices", "arrows", "zero_relations", "commutation_relations")

    def __init__(self, vertices: list, arrows: list, zero_relations: frozenset,
                 commutation_relations: frozenset):
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]
        self.zero_relations = frozenset(tuple(w) for w in zero_relations)
        self.commutation_relations = frozenset(
            (tuple(l), tuple(r)) for l, r in commutation_relations
        )
        seen = set()
        for name, src, tgt in self.arrows:
            if name in seen:
                raise ValueError("duplicate arrow name: %s" % name)
            seen.add(name)
            if src not in self.vertices or tgt not in self.vertices:
                raise ValueError("arrow %s has an endpoint outside the vertex set" % name)
        amap = _arrow_map(self)
        for w in self.zero_relations:
            if not w:
                raise ValueError("zero relation must be a nonempty word")
            _word_endpoints(amap, w)
        for lhs, rhs in self.commutation_relations:
            if not lhs or not rhs:
                raise ValueError("commutation relation sides must be nonempty")
            # degree-by-degree reduction needs length-homogeneous relations
            if len(lhs) != len(rhs):
                raise ValueError("commutation relation sides must have equal length")
            if _word_endpoints(amap, lhs) != _word_endpoints(amap, rhs):
                raise ValueError("commutation relation sides must share source and target")


def _arrow_map(q: Quiver) -> dict:
    return {name: (src, tgt) for name, src, tgt in q.arrows}


def _word_endpoints(amap: dict, word: tuple):
    """Source and target of a left-to-right arrow word; ValueError if broken."""
    at = None
    start = None
    for name in word:
        if name not in amap:
            raise ValueError("unknown arrow in relation word: %s" % name)
        src, tgt = amap[name]
        if at is None:
            start = src
        elif at != src:
            raise ValueError("relation word is not composable: %s" % (word,))
        at = tgt
    return start, at


def build_quiver(preset: str, w: int | None = None) -> Quiver:
    """Construct one of the bundled presets.

    preset is one of "preprojective_a2", "chain3", "square4", or
    "zigzag_window"; w is the zigzag window size, which only
    zigzag_window takes.
    """
    name = preset.strip()
    if w is not None and name != "zigzag_window":
        raise ValueError("only zigzag_window takes a window size, not %r" % preset)
    if name == "preprojective_a2":
        return Quiver(
            vertices=[1, 2],
            arrows=[("a", 1, 2), ("b", 2, 1)],
            zero_relations=frozenset({("a", "b"), ("b", "a")}),
            commutation_relations=frozenset(),
        )
    if name == "chain3":
        return Quiver(
            vertices=[1, 2, 3],
            arrows=[("a", 1, 2), ("b", 2, 1), ("c", 2, 3), ("d", 3, 2)],
            zero_relations=frozenset(
                {("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")}
            ),
            commutation_relations=frozenset(),
        )
    if name == "square4":
        # the four two-cycle pairs vanish, the four squares commute, and
        # the eight corner-turning cubics vanish
        zeros = {
            ("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"),
            ("g", "h"), ("h", "g"), ("e", "f"), ("f", "e"),
            ("b", "c", "h"), ("c", "h", "e"), ("h", "e", "b"), ("e", "b", "c"),
            ("a", "f", "g"), ("f", "g", "d"), ("g", "d", "a"), ("d", "a", "f"),
        }
        comms = {
            (("a", "f"), ("c", "h")),
            (("e", "b"), ("g", "d")),
            (("b", "c"), ("f", "g")),
            (("d", "a"), ("h", "e")),
        }
        return Quiver(
            vertices=[1, 2, 3, 4],
            arrows=[
                ("a", 2, 1), ("b", 1, 2),
                ("c", 2, 3), ("d", 3, 2),
                ("e", 4, 1), ("f", 1, 4),
                ("g", 4, 3), ("h", 3, 4),
            ],
            zero_relations=frozenset(zeros),
            commutation_relations=frozenset(comms),
        )
    if name == "zigzag_window":
        if w is None:
            raise ValueError("zigzag_window needs a window size w")
        if w < 2:
            raise ValueError("zigzag window size must be at least 2")
        vertices = list(range(-w, w + 1))
        arrows = []
        for i in range(-w + 1, w + 1):
            arrows.append(("a%d" % i, i - 1, i))
            arrows.append(("b%d" % i, i, i - 1))
        zeros = set()
        for i in range(-w + 1, w):
            zeros.add(("a%d" % i, "a%d" % (i + 1)))
            zeros.add(("b%d" % (i + 1), "b%d" % i))
        comms = set()
        for i in range(-w + 2, w + 1):
            comms.add((("a%d" % i, "b%d" % i), ("b%d" % (i - 1), "a%d" % (i - 1))))
        return Quiver(
            vertices=vertices,
            arrows=arrows,
            zero_relations=frozenset(zeros),
            commutation_relations=frozenset(comms),
        )
    raise ValueError("unknown preset: %r" % preset)


def _paths_up_to(q: Quiver, top: int) -> list:
    """paths[L] maps (source, target) to the sorted composable words of length L."""
    out_arrows = {v: [] for v in q.vertices}
    for name, src, tgt in q.arrows:
        out_arrows[src].append((name, tgt))
    for v in out_arrows:
        out_arrows[v].sort()
    paths = [{(v, v): [()] for v in q.vertices}]
    for _ in range(top):
        layer = {}
        for (s, t), words in paths[-1].items():
            for word in words:
                for name, tgt in out_arrows[t]:
                    layer.setdefault((s, tgt), []).append(word + (name,))
        for key in layer:
            layer[key].sort()
        paths.append(layer)
    return paths


def _relation_rows(q: Quiver, words: list) -> list:
    """Sparse rows (column index -> Fraction) of the degree's relation translates."""
    index = {wd: k for k, wd in enumerate(words)}
    rows = []
    for wd in words:
        n = len(wd)
        for z in q.zero_relations:
            k = len(z)
            if k <= n and any(wd[i:i + k] == z for i in range(n - k + 1)):
                rows.append({index[wd]: Fraction(1)})
                break
        for lhs, rhs in q.commutation_relations:
            k = len(lhs)
            for i in range(n - k + 1):
                for one, other in ((lhs, rhs), (rhs, lhs)):
                    if wd[i:i + k] == one:
                        swapped = wd[:i] + other + wd[i + k:]
                        if swapped != wd:
                            row = {index[wd]: Fraction(1)}
                            row[index[swapped]] = row.get(index[swapped], Fraction(0)) - 1
                            rows.append(row)
    return rows


def _rref(rows: list) -> dict:
    """Reduced row echelon form of sparse rational rows.

    Returns pivot column -> row, each row normalized with pivot
    coefficient 1 and every other pivot column eliminated.
    """
    pivots = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if v != 0}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            coef = row[lead]
            for c, v in pivots[lead].items():
                row[c] = row.get(c, Fraction(0)) - coef * v
            row = {c: v for c, v in row.items() if v != 0}
    for p in sorted(pivots, reverse=True):
        prow = pivots[p]
        for other, orow in pivots.items():
            if other != p and p in orow:
                coef = orow.pop(p)
                for c, v in prow.items():
                    if c == p:
                        continue
                    val = orow.get(c, Fraction(0)) - coef * v
                    if val == 0:
                        orow.pop(c, None)
                    else:
                        orow[c] = val
    return pivots


def _degree_basis(q: Quiver, words_ascending: list) -> list:
    """Basis words of one degree's quotient, lex-smallest representatives."""
    words = sorted(words_ascending, reverse=True)
    pivots = _rref(_relation_rows(q, words))
    return sorted(words[k] for k in range(len(words)) if k not in pivots)


def path_normal_forms(q: Quiver, max_len: int) -> dict:
    """Basis of every Hom space, as a map (source, target) -> list of PathClass.

    Raises BasisNotStabilized unless every word of length max_len+1
    reduces to zero; the relations are length-graded, so that check
    certifies all longer words vanish as well.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    paths = _paths_up_to(q, max_len + 1)
    result = {(s, t): [] for s in q.vertices for t in q.vertices}
    for length in range(max_len + 2):
        for (s, t), words in sorted(paths[length].items(), key=lambda kv: str(kv[0])):
            basis = _degree_basis(q, words)
            if not basis:
                continue
            if length == max_len + 1:
                raise BasisNotStabilized(
                    "dimension still grows at length %d for endpoints (%s, %s)"
                    % (length, s, t)
                )
            result[(s, t)].extend(PathClass(wd, s, t) for wd in basis)
    return result


def hom_dimensions(q: Quiver, max_len: int = 4) -> list:
    """Matrix of Hom-space dimensions; entry [i][j] counts paths vertices[i] -> vertices[j]."""
    nf = path_normal_forms(q, max_len)
    return [[len(nf[(s, t)]) for t in q.vertices] for s in q.vertices]


def word_normal_form(q: Quiver, word) -> dict:
    """Expand an arrow word over the basis of its degree.

    Returns a map from basis words to rational coefficients; the empty
    map means the word is zero in the quotient.  Only the word's own
    degree matters, so no stabilization bound is needed.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word has no endpoints; idempotents are already normal")
    amap = _arrow_map(q)
    s, t = _word_endpoints(amap, word)
    length = len(word)
    paths = _paths_up_to(q, length)
    words = sorted(paths[length].get((s, t), []), reverse=True)
    pivots = _rref(_relation_rows(q, words))
    col = words.index(word)
    if col not in pivots:
        return {word: Fraction(1)}
    out = {}
    for c, v in pivots[col].items():
        if c == col:
            continue
        out[words[c]] = -v
    return out


def render_path(pc: PathClass) -> str:
    if not pc.word:
        return "e_%s" % (pc.source,)
    return "*".join(pc.word)
