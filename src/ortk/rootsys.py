"""Root data, Borel subalgebras and odd reflections.

Supported families: gl(m|n), gl(1|1)^n, osp(2m+1|2n), osp(2m|2n) and
D(2,1;a).  The even Borel is fixed once per family; a Borel subalgebra
is identified with its set of positive odd roots.  Odd reflections at
isotropic simple roots walk between Borels, and the ordered simple
system is inherited along each reflection (the inherited order is
asserted to be path-independent during enumeration).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .numerics import (
    BilinearForm,
    DegreeOverflow,
    RankMismatch,
    SingularBasis,
    Weight,
    scalar,
)

__all__ = [
    "UnsupportedFamily",
    "NotIsotropicSimple",
    "PreconditionViolated",
    "Root",
    "RootSystem",
    "Borel",
    "build_root_system",
    "basis_inverse",
    "standard_borel",
    "odd_reflect",
    "enumerate_borels",
    "pure_positive_roots",
    "weyl_vector",
    "borel_from_partition",
    "partition_of_borel",
]


class UnsupportedFamily(ValueError):
    """Family tag outside the supported list, or bad parameters."""


class NotIsotropicSimple(ValueError):
    """Reflection requested at a simple root that is not odd isotropic."""


class PreconditionViolated(ValueError):
    """Stated hypothesis of the requested operation does not hold."""


class Root:
    """A root: its vector, "even" or "odd", and whether it is isotropic.

    Immutable and without order; roots with equal fields are equal, and
    a root hashes as its integer vector, independently of the hash seed.
    A __slots__ class, not a namedtuple: the hot loops read its fields,
    and slot reads are the fastest attribute reads.
    """

    __slots__ = ("vector", "parity", "isotropic")

    def __init__(self, vector: Weight, parity: str, isotropic: bool):
        # every family's roots have integer coordinates, so vector.r is
        # the root as an integer vector
        if vector.den != 1 or any(vector.s):
            raise UnsupportedFamily(f"root {vector!r} is not integral")
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "isotropic", isotropic)

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign or delete {name!r} of an immutable Root")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.vector, self.parity, self.isotropic)
                == (other.vector, other.parity, other.isotropic))

    def __hash__(self):
        return hash(self.vector.r)

    def __reduce__(self):
        # the default would restore the slots through __setattr__
        return (Root, (self.vector, self.parity, self.isotropic))

    def sort_key(self):
        # the order of vector.sort_key(), whose a-parts are all zero
        return self.vector.r

    def __repr__(self):
        return f"Root({self.parity}, {self.vector!r})"


class RootSystem:
    """Immutable container for one family's root data.

    delta0/delta1 hold both signs of every root; even_positive and
    even_simple are fixed once (the even Borel never moves).  alpha_value
    is the optional rational specialization of the D(2,1;a) parameter and
    routes every zero test made through this object.
    """

    def __init__(
        self,
        family: str,
        params: tuple,
        basis_names: tuple[str, ...],
        form: BilinearForm,
        even_vectors: list[Weight],
        odd_vectors: list[Weight],
        standard_odd_positive: list[Weight],
        type_one: bool,
        alpha_value: Fraction | None,
    ):
        self.family = family
        self.params = params
        self.basis_names = basis_names
        self.form = form
        self.alpha_value = alpha_value
        self.type_one = type_one
        self.rank = len(basis_names)
        # the form's diagonal split into its rational part and its a-part
        diag = Weight(form.diagonal)
        if diag.den != 1:
            raise UnsupportedFamily("the form's diagonal is not integral")
        self._diag_r, self._diag_s = diag.r, diag.s

        def mk_root(v: Weight, parity: str) -> Root:
            root = Root(v, parity, False)
            if parity == "odd" and self.roots_orthogonal(root, root):
                root = Root(v, parity, True)
            return root

        self.delta0 = tuple(
            sorted((mk_root(v, "even") for v in even_vectors), key=Root.sort_key)
        )
        self.delta1 = tuple(
            sorted((mk_root(v, "odd") for v in odd_vectors), key=Root.sort_key)
        )
        self.delta_iso = tuple(r for r in self.delta1 if r.isotropic)
        self._by_ivec = {r.vector.r: r for r in self.delta0 + self.delta1}
        if len(self._by_ivec) != len(self.delta0) + len(self.delta1):
            raise UnsupportedFamily("duplicate root vectors in family data")

        pos_set = set(standard_odd_positive)
        # the standard even Borel: the lexicographically positive even roots
        self.even_positive = tuple(r for r in self.delta0 if r.vector.r > (0,) * self.rank)
        self.standard_odd_positive = tuple(
            r for r in self.delta1 if r.vector in pos_set
        )
        if len(self.standard_odd_positive) != len(pos_set):
            raise UnsupportedFamily("standard odd positives are not all roots")
        self.even_simple = _indecomposables(self.even_positive)
        self._names = {self.root_name(r): r for r in self.delta0 + self.delta1}
        # the character kernels' fixed work, kept per system (characters.py,
        # adjusted.py):
        #   "roots"                   -> the even-root table of the Kostant count
        #   (coordinates, index)      -> a Kostant state's partition count
        #   frozenset of odd roots    -> a free set's odd-subset sums, by lattice class
        #   ("numerator", odd set)    -> a numerator prod (1 + e^beta) as offsets
        #   ("brick", join odd set)   -> a brick check's J-shift product
        # One subset-sum dict per distinct free set, one product per
        # distinct odd set queried and one brick product per distinct join
        # odd set, each with at most 2^|delta1| terms; the Kostant states
        # grow with the queried coordinates.
        self._kostant_memo: dict = {}
        self._borel_cache: tuple | None = None

    # -- the integer pairing kernel ----------------------------------------------
    #
    # (lam, beta) for a root beta is sum_i lam_i * d_i * beta_i.  Each root
    # keeps its form-weighted vector d_i * beta_i as two integer vectors,
    # the rational part and the a-part of the diagonal, and a weight is two
    # integer vectors over its denominator.  A pairing is then two integer
    # dot products, split as (rational part, a-part).

    @cached_property
    def _weighted_roots(self) -> dict:
        """root -> its form-weighted vector, as (rational part, a-part)."""
        return {
            r: (tuple(d * x for d, x in zip(self._diag_r, r.vector.r)),
                tuple(d * x for d, x in zip(self._diag_s, r.vector.r)))
            for r in self.delta0 + self.delta1
        }

    def _pair(self, lam_r, lam_s, root: Root) -> tuple[int, int]:
        """(lam, root) times lam.den, as (rational part, a-part).

        Raises DegreeOverflow where the Scalar product does: an a-carrying
        coordinate of lam meets an a-carrying diagonal entry on a nonzero
        root coordinate."""
        wr, ws = self._weighted_roots[root]
        r = sum(map(mul, lam_r, wr))
        s = sum(map(mul, lam_r, ws))
        if any(lam_s):
            if any(x and y for x, y in zip(lam_s, ws)):
                raise DegreeOverflow(
                    f"pairing {self.root_name(root)} with an a-carrying weight "
                    "leaves the degree-1 space")
            s += sum(map(mul, lam_s, wr))
        return r, s

    def _pair_is_zero(self, r, s) -> bool:
        """Is r + s*a zero, under the specialization of a if there is one?"""
        alpha = self.alpha_value
        if alpha is None:
            return r == 0 and s == 0
        return r * alpha.denominator + s * alpha.numerator == 0

    def orthogonal_roots(self, lam: Weight, roots) -> frozenset[Root]:
        """The roots among roots that pair to zero with lam."""
        if lam.rank != self.rank:
            raise RankMismatch(f"weight of rank {lam.rank} against rank {self.rank}")
        return frozenset(r for r in roots
                         if self._pair_is_zero(*self._pair(lam.r, lam.s, r)))

    def roots_orthogonal(self, a: Root, b: Root) -> bool:
        """(a, b) = 0; root vectors are integral and carry no a-part."""
        return self._pair_is_zero(
            sum(x * d * y for x, d, y in zip(a.vector.r, self._diag_r, b.vector.r)),
            sum(x * d * y for x, d, y in zip(a.vector.r, self._diag_s, b.vector.r)))

    def root_from_ivec(self, v: tuple[int, ...]) -> Root | None:
        return self._by_ivec.get(v)

    def negate(self, r: Root) -> Root:
        out = self._by_ivec.get(tuple(-x for x in r.vector.r))
        if out is None:
            raise ValueError(f"negative of {r!r} is not a root")
        return out

    def root_name(self, r: Root) -> str:
        return self.vector_name(r.vector)

    def vector_name(self, v: Weight) -> str:
        if any(v.s):
            raise ValueError("root names are only defined for rational vectors")
        out = ""
        for name, x in zip(self.basis_names, v.r):
            if x:
                mag = abs(Fraction(x, v.den))
                sign = "-" if x < 0 else "+" if out else ""
                out += sign + ("" if mag == 1 else str(mag)) + name
        return out or "0"

    def root_by_name(self, name: str) -> Root:
        try:
            return self._names[name]
        except KeyError:
            raise ValueError(f"unknown root {name!r} for {self.family}") from None

    # -- the integer coordinate layer -------------------------------------------
    #
    # Coordinates in the height-extension basis (even simple roots first,
    # then unit vectors) come from one basis_inverse of that basis, stored
    # as integer rows scaled by a common denominator.  Every change to
    # even-simple coordinates goes through it, so the fixed basis is
    # never solved again.

    @cached_property
    def _inverse_height(self) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
        """(rows, den, height_row): den times the inverse of the extension
        basis as integer rows, and the sum of its first n_simple rows."""
        rows, den = basis_inverse([r.vector.r for r in self.even_simple], self.rank)
        height_row = tuple(sum(row[j] for row in rows[:len(self.even_simple)])
                           for j in range(self.rank))
        return rows, den, height_row

    @property
    def coord_denominator(self) -> int:
        """The common denominator of the coordinates height_coords scales by."""
        return self._inverse_height[1]

    def height_coords(self, v) -> tuple:
        """coord_denominator times the coordinates of the rational vector v
        (a tuple of ints or Fractions) in the height-extension basis; the
        first len(even_simple) entries are the even simple coordinates."""
        return tuple(sum(map(mul, row, v)) for row in self._inverse_height[0])

    def lattice_coords(self, v: Weight) -> tuple[int, ...] | None:
        """height_coords of v with the a-part specialized at alpha_value;
        None when v carries an a-part and a stays symbolic, or when a
        result is not an integer."""
        if v.rank != self.rank:
            raise RankMismatch(f"weight of rank {v.rank} against rank {self.rank}")
        if any(v.s) and self.alpha_value is None:
            return None
        alpha = self.alpha_value or 0  # without alpha the a-part is zero
        q, den = alpha.denominator, v.den * alpha.denominator
        out = self.height_coords([x * q + y * alpha.numerator for x, y in zip(v.r, v.s)])
        if any(x % den for x in out):
            return None
        return tuple(x // den for x in out)

    def sort_height(self, v: Weight) -> Fraction:
        """The even-simple height, extended by zero on a fixed complement basis."""
        _, den, height_row = self._inverse_height
        return Fraction(sum(map(mul, height_row, v.r)), den * v.den)


def basis_inverse(basis_ivecs, rank: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, den): den times the inverse of the basis completed by unit vectors.

    One Gauss-Jordan pass over [basis | I], with the integer vectors of
    basis_ivecs as columns.  The pivot columns of the identity block are
    the unit vectors that complete the basis, greedily in index order, and
    the identity block ends as the inverse of the completed basis: row i
    gives coordinate i, the basis vectors first.  den > 0 is the least
    common denominator.  Raises SingularBasis when the basis is dependent.
    """
    k = len(basis_ivecs)
    m = [[b[i] for b in basis_ivecs] + [int(i == j) for j in range(rank)]
         for i in range(rank)]
    pivots = []
    for col in range(k + rank):
        p = len(pivots)
        pivot = next((i for i in range(p, rank) if m[i][col]), None)
        if pivot is None:
            if col < k:
                raise SingularBasis(f"basis vector {col} is dependent on earlier ones")
            continue
        m[p], m[pivot] = m[pivot], m[p]
        a = m[p][col]
        for i in range(rank):
            c = m[i][col]
            if i != p and c:
                row = [a * x - c * y for x, y in zip(m[i], m[p])]
                g = gcd(*row)
                m[i] = [x // g for x in row]
        pivots.append(col)
    # row i is zero on every pivot column but its own, where it holds d_i;
    # every row keeps gcd 1, so the lcm of the d_i is the least denominator
    diag = [m[i][col] for i, col in enumerate(pivots)]
    den = lcm(*diag)
    return tuple(tuple(x * (den // d) for x in m[i][k:]) for i, d in enumerate(diag)), den


def _indecomposables(roots) -> tuple[Root, ...]:
    """Roots not expressible as a sum of two members (repeats allowed)."""
    vecset = {r.vector.r for r in roots}
    result = []
    for r in roots:
        v = r.vector.r
        # roots are nonzero, so v - w lands in vecset only for a real split
        if not any(tuple(a - b for a, b in zip(v, w)) in vecset for w in vecset):
            result.append(r)
    return tuple(sorted(result, key=Root.sort_key, reverse=True))


class Borel:
    """A Borel over the fixed even Borel: its positive odd roots.

    odd_positive is canonically sorted and is the identity of the Borel;
    simple carries the inherited total order on the simple system and is
    excluded from equality and hash.  Immutable.
    """

    __slots__ = ("odd_positive", "simple")

    def __init__(self, odd_positive: tuple[Root, ...], simple: tuple[Root, ...]):
        object.__setattr__(self, "odd_positive", odd_positive)
        object.__setattr__(self, "simple", simple)

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign or delete {name!r} of an immutable Borel")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.odd_positive == other.odd_positive

    def __hash__(self):
        return hash((self.odd_positive,))

    def __reduce__(self):
        # the default would restore the slots through __setattr__
        return (Borel, (self.odd_positive, self.simple))

    def __repr__(self):
        return f"Borel(odd_positive={self.odd_positive!r}, simple={self.simple!r})"

    def odd_set(self) -> frozenset[Root]:
        return frozenset(self.odd_positive)

    def isotropic_simple_indices(self) -> tuple[int, ...]:
        """1-based indices of the odd isotropic simple roots."""
        return tuple(
            i
            for i, r in enumerate(self.simple, start=1)
            if r.parity == "odd" and r.isotropic
        )


def _canonical_odd(roots) -> tuple[Root, ...]:
    return tuple(sorted(roots, key=Root.sort_key))


def build_root_system(
    family: str,
    m: int | None = None,
    n: int | None = None,
    alpha: Fraction | None = None,
) -> RootSystem:
    """Construct the root data for one family.

    gl and osp families need m, n >= 1; gl11n needs n >= 1; d21alpha
    takes no sizes but accepts an optional rational specialization of
    the parameter (alpha outside {0, -1}).
    """
    if family in ("gl", "ospB", "ospD"):
        if not m or not n or m < 1 or n < 1:
            raise UnsupportedFamily(f"{family} needs m >= 1 and n >= 1")
    elif family == "gl11n":
        if not n or n < 1:
            raise UnsupportedFamily("gl11n needs n >= 1")
    elif family == "d21alpha":
        if alpha is not None and alpha in (0, -1):
            raise UnsupportedFamily("d21alpha parameter must avoid 0 and -1")
    else:
        raise UnsupportedFamily(f"unsupported family {family!r}")

    if family == "gl":
        rank = m + n
        names = tuple(f"e{i+1}" for i in range(m)) + tuple(f"d{j+1}" for j in range(n))
        form = BilinearForm(tuple(scalar(1) for _ in range(m)) + tuple(scalar(-1) for _ in range(n)))
        ge = _unit_builder(rank)
        evens = [ge(i) - ge(j) for i in range(m) for j in range(m) if i != j]
        evens += [ge(m + i) - ge(m + j) for i in range(n) for j in range(n) if i != j]
        odds = []
        for i in range(m):
            for j in range(n):
                odds.append(ge(i) - ge(m + j))
                odds.append(ge(m + j) - ge(i))
        std = [ge(i) - ge(m + j) for i in range(m) for j in range(n)]
        return RootSystem(family, (m, n), names, form, evens, odds, std, True, None)

    if family == "gl11n":
        rank = 2 * n
        names = tuple(f"e{i+1}" for i in range(n)) + tuple(f"d{j+1}" for j in range(n))
        form = BilinearForm(tuple(scalar(1) for _ in range(n)) + tuple(scalar(-1) for _ in range(n)))
        ge = _unit_builder(rank)
        odds = []
        std = []
        for i in range(n):
            pos = ge(i) - ge(n + (n - 1 - i))
            odds.append(pos)
            odds.append(-pos)
            std.append(pos)
        return RootSystem(family, (n,), names, form, [], odds, std, True, None)

    if family in ("ospB", "ospD"):
        rank = m + n
        names = tuple(f"e{i+1}" for i in range(m)) + tuple(f"d{j+1}" for j in range(n))
        form = BilinearForm(tuple(scalar(1) for _ in range(m)) + tuple(scalar(-1) for _ in range(n)))
        ge = _unit_builder(rank)
        evens = []
        for i in range(m):
            for j in range(i + 1, m):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        evens.append(ge(i, s1) + ge(j, s2))
        if family == "ospB":
            for i in range(m):
                evens.append(ge(i))
                evens.append(-ge(i))
        for i in range(n):
            for j in range(i + 1, n):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        evens.append(ge(m + i, s1) + ge(m + j, s2))
        for i in range(n):
            evens.append(ge(m + i, 2))
            evens.append(ge(m + i, -2))
        odds = []
        std = []
        for i in range(m):
            for j in range(n):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        v = ge(i, s1) + ge(m + j, s2)
                        odds.append(v)
                        if s1 == 1:
                            std.append(v)
        if family == "ospB":
            for j in range(n):
                odds.append(ge(m + j))
                odds.append(-ge(m + j))
                std.append(ge(m + j))
        type_one = family == "ospD" and m == 1
        return RootSystem(family, (m, n), names, form, evens, odds, std, type_one, None)

    # d21alpha, basis order (delta, eps1, eps2)
    names = ("d", "e1", "e2")
    form = BilinearForm((scalar(-1, -1), scalar(1), scalar(0, 1)))
    ge = _unit_builder(3)
    evens = []
    for i in range(3):
        evens.append(ge(i, 2))
        evens.append(ge(i, -2))
    odds = []
    std = []
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                v = ge(0, s0) + ge(1, s1) + ge(2, s2)
                odds.append(v)
                if s0 == 1:
                    std.append(v)
    return RootSystem("d21alpha", (), names, form, evens, odds, std, False, alpha)


def _unit_builder(rank: int):
    def ge(i: int, c: int = 1) -> Weight:
        return Weight.of(c if j == i else 0 for j in range(rank))

    return ge


def standard_borel(rs: RootSystem) -> Borel:
    odd = _canonical_odd(rs.standard_odd_positive)
    return Borel(odd, _indecomposables(rs.even_positive + odd))


def odd_reflect(rs: RootSystem, b: Borel, i: int) -> Borel:
    """Reflect b at its i-th simple root (1-based).

    The root must be odd isotropic.  The new simple system is inherited
    (Cheng-Wang, GSM 144, section 1.4) and keeps the index order: the
    reflected root becomes its own negative, any beta with alpha+beta a
    root moves to alpha+beta, everything else stays.  The tests check it
    against a brute-force search for the indecomposable positive roots.
    """
    if not 1 <= i <= len(b.simple):
        raise NotIsotropicSimple(f"no simple root at index {i}")
    alpha = b.simple[i - 1]
    if alpha.parity != "odd" or not alpha.isotropic:
        raise NotIsotropicSimple(
            f"simple root {rs.root_name(alpha)} at index {i} is not odd isotropic"
        )
    new_simple = []
    for beta in b.simple:
        if beta == alpha:
            new_simple.append(rs.negate(alpha))
            continue
        summed = rs.root_from_ivec(tuple(a + c for a, c in zip(alpha.vector.r, beta.vector.r)))
        new_simple.append(beta if summed is None else summed)
    new_odd = set(b.odd_positive)
    new_odd.discard(alpha)
    new_odd.add(rs.negate(alpha))
    return Borel(_canonical_odd(new_odd), tuple(new_simple))


def enumerate_borels(rs: RootSystem) -> tuple[list[Borel], list[tuple[int, int, int]]]:
    """All Borels reachable by odd reflections, plus the reflection edges.

    Breadth-first from the standard Borel; within each layer Borels are
    ordered by their canonical odd-positive set, and ranks are assigned
    in discovery order.  Each undirected edge (u, i, v) is listed once,
    with i the 1-based simple index at the earlier endpoint.  Every
    simple system is inherited along odd_reflect from the standard
    Borel's, and a test oracle checks it; re-reaching a Borel along a
    second path asserts that the inherited order is path-independent.
    """
    if rs._borel_cache is not None:
        return rs._borel_cache
    start = standard_borel(rs)
    borels = [start]
    rank_of = {start: 0}
    edges: list[tuple[int, int, int]] = []
    frontier = [start]
    while frontier:
        discovered: dict[Borel, Borel] = {}
        pending: list[tuple[int, int, Borel]] = []
        for b in frontier:
            u = rank_of[b]
            for i in b.isotropic_simple_indices():
                nb = odd_reflect(rs, b, i)
                known = borels[rank_of[nb]] if nb in rank_of else discovered.setdefault(nb, nb)
                if known.simple != nb.simple:
                    raise AssertionError("simple order depends on the path taken")
                pending.append((u, i, nb))
        layer = sorted(
            discovered,
            key=lambda x: tuple(r.sort_key() for r in x.odd_positive),
        )
        for nb in layer:
            rank_of[nb] = len(borels)
            borels.append(nb)
        # each edge is seen from both ends, first from the lower rank
        edges.extend((u, i, rank_of[nb]) for u, i, nb in pending if u < rank_of[nb])
        frontier = layer
    rs._borel_cache = (borels, edges)
    return rs._borel_cache


def pure_positive_roots(
    rs: RootSystem, borels: list[Borel]
) -> tuple[frozenset[Root], frozenset[Root]]:
    """Roots positive for every Borel, and the isotropic ones among them."""
    common = set(borels[0].odd_positive)
    for b in borels[1:]:
        common &= b.odd_set()
    pure = frozenset(rs.even_positive) | frozenset(common)
    pure_iso = frozenset(r for r in pure if r.parity == "odd" and r.isotropic)
    return pure, pure_iso


def weyl_vector(rs: RootSystem, b: Borel) -> Weight:
    total = [0] * rs.rank
    for r in rs.even_positive:
        total = [t + x for t, x in zip(total, r.vector.r)]
    for r in b.odd_positive:
        total = [t - x for t, x in zip(total, r.vector.r)]
    return Weight.of(total, den=2)


# -- gl Borel <-> Young diagram dictionary -------------------------------------


def _unit_difference(rank: int, p: int, q: int) -> tuple[int, ...]:
    """The integer vector of unit p minus unit q."""
    return tuple(1 if k == p else -1 if k == q else 0 for k in range(rank))


def _require_gl(rs: RootSystem):
    if rs.family != "gl":
        raise UnsupportedFamily("partition addressing is specific to gl(m|n)")


def borel_from_partition(rs: RootSystem, parts: tuple[int, ...]) -> Borel:
    """The enumerated Borel whose flipped odd roots are the boxes of the diagram.

    parts lists row lengths bottom-up; row j, column c holds the root
    e_{m+1-c} - d_j, flipped to d_j - e_{m+1-c} when the box is present.
    The Borel comes from enumerate_borels, so its simple order is the
    inherited one.
    """
    _require_gl(rs)
    m, n = rs.params
    if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
        raise ValueError(f"row lengths must be weakly decreasing, got {parts}")
    if len(parts) > n or any(p < 0 or p > m for p in parts):
        raise ValueError(f"partition {parts} does not fit the {m}x{n} box")
    odd = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            col = m + 1 - i
            row_len = parts[j - 1] if j - 1 < len(parts) else 0
            if col <= row_len:
                v = _unit_difference(rs.rank, m + j - 1, i - 1)
            else:
                v = _unit_difference(rs.rank, i - 1, m + j - 1)
            odd.append(rs.root_from_ivec(v))
    odd = _canonical_odd(odd)
    borels, _ = enumerate_borels(rs)
    return next(b for b in borels if b.odd_positive == odd)


def partition_of_borel(rs: RootSystem, b: Borel) -> tuple[int, ...]:
    _require_gl(rs)
    m, n = rs.params
    flipped = set()
    pos = {r.vector.r for r in b.odd_positive}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if _unit_difference(rs.rank, m + j - 1, i - 1) in pos:
                flipped.add((j, m + 1 - i))
    rows = []
    for j in range(1, n + 1):
        cols = sorted(c for (row, c) in flipped if row == j)
        if cols != list(range(1, len(cols) + 1)):
            raise AssertionError(f"flipped boxes of row {j} are not left-justified")
        rows.append(len(cols))
    if any(rows[k] < rows[k + 1] for k in range(n - 1)):
        raise AssertionError("flipped boxes do not form a partition")
    while rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)
