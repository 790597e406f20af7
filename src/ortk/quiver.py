"""Finite-dimensional path-algebra quotients for the bundled quiver presets.

A quiver carries two kinds of relations: zero relations that kill a path
word outright, and commutation relations that declare two parallel words
equal.  Both are length-homogeneous, so Hom spaces split by path length
and each degree can be reduced on its own.

Every relation is a monomial (z = 0) or a binomial with coefficients
+1 and -1 (lhs = rhs), so a degree reduces to classes of words.  Its
relation space is spanned by e_w for each word w that contains a zero
relation, and by e_w - e_w' for each pair of words that one commutation
translate turns into each other.  On a connected component of the
translate graph the binomials span exactly the vectors whose
coefficients sum to zero, and one killed word makes the span the whole
component.  So the quotient has one basis class per component without
a killed word, represented by its least word, and every word of that
component equals the representative with coefficient 1.  A relation
with other coefficients would need elimination over the rationals.

Words are built one degree at a time.  Once every word of a degree is
zero, so is every longer word, since it has a zero prefix (the relation
ideal is two-sided and length-graded).  The computed bases are complete
when the degree max_len+1 vanishes.
"""

from __future__ import annotations

from collections import namedtuple

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


def _out_arrows(q: Quiver) -> dict:
    """Vertex -> sorted (arrow name, target) pairs leaving it."""
    out = {v: [] for v in q.vertices}
    for name, src, tgt in q.arrows:
        out[src].append((name, tgt))
    for v in out:
        out[v].sort()
    return out


def _next_degree(out_arrows: dict, layer: dict) -> dict:
    """Extend every word of one degree by one arrow.

    layer maps (source, target) to the sorted composable words of one
    length; the result does the same for the next length.
    """
    nxt = {}
    for (s, t), words in layer.items():
        for word in words:
            for name, tgt in out_arrows[t]:
                nxt.setdefault((s, tgt), []).append(word + (name,))
    for key in nxt:
        nxt[key].sort()
    return nxt


def _contains(word: tuple, sub: tuple) -> bool:
    k = len(sub)
    return any(word[i:i + k] == sub for i in range(len(word) - k + 1))


def _degree_classes(q: Quiver, words: list) -> dict:
    """Map each word of one degree to the least word of its class, or to
    None when the class is zero.

    words must be closed under commutation translates.  Two words share
    a class when translates connect them; a class is zero when one of
    its words contains a zero relation.
    """
    parent = {wd: wd for wd in words}

    def find(wd):
        while parent[wd] != wd:
            parent[wd] = parent[parent[wd]]
            wd = parent[wd]
        return wd

    # each translate pair holds lhs at the position where the other holds
    # rhs, so reading lhs alone meets every pair once
    for wd in words:
        for lhs, rhs in q.commutation_relations:
            k = len(lhs)
            for i in range(len(wd) - k + 1):
                if wd[i:i + k] == lhs:
                    a, b = find(wd), find(wd[:i] + rhs + wd[i + k:])
                    parent[max(a, b)] = min(a, b)
    dead = {find(wd) for wd in words
            if any(_contains(wd, z) for z in q.zero_relations)}
    return {wd: None if find(wd) in dead else find(wd) for wd in words}


def path_normal_forms(q: Quiver, max_len: int) -> dict:
    """Basis of every Hom space, as a map (source, target) -> list of PathClass.

    Raises BasisNotStabilized unless every word of length max_len+1
    reduces to zero; the relations are length-graded, so that check
    certifies all longer words vanish as well.  Words are built one
    degree at a time, up to the first degree whose words all vanish.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out_arrows = _out_arrows(q)
    layer = {(v, v): [()] for v in q.vertices}
    result = {(s, t): [] for s in q.vertices for t in q.vertices}
    for length in range(max_len + 2):
        if length:
            layer = _next_degree(out_arrows, layer)
        live = False
        for (s, t), words in sorted(layer.items(), key=lambda kv: str(kv[0])):
            classes = _degree_classes(q, words)
            basis = [wd for wd in words if classes[wd] == wd]
            if not basis:
                continue
            if length == max_len + 1:
                raise BasisNotStabilized(
                    "dimension still grows at length %d for endpoints (%s, %s)"
                    % (length, s, t)
                )
            live = True
            result[(s, t)].extend(PathClass(wd, s, t) for wd in basis)
        if not live:
            break
    return result


def hom_dimensions(q: Quiver, max_len: int = 4) -> list:
    """Matrix of Hom-space dimensions; entry [i][j] counts paths vertices[i] -> vertices[j]."""
    nf = path_normal_forms(q, max_len)
    return [[len(nf[(s, t)]) for t in q.vertices] for s in q.vertices]


def word_normal_form(q: Quiver, word) -> dict:
    """The basis word that an arrow word equals, with coefficient 1.

    Returns {basis word: 1}, the least word of the word's class; the
    empty map means the word is zero in the quotient.  Only the word's
    own degree matters, so no stabilization bound is needed.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word has no endpoints; idempotents are already normal")
    s, t = _word_endpoints(_arrow_map(q), word)
    out_arrows = _out_arrows(q)
    layer = {(s, s): [()]}
    for _ in word:
        layer = _next_degree(out_arrows, layer)
    rep = _degree_classes(q, layer[(s, t)])[word]
    return {} if rep is None else {rep: 1}


def render_path(pc: PathClass) -> str:
    if not pc.word:
        return "e_%s" % (pc.source,)
    return "*".join(pc.word)
