"""Root data, Borel subalgebras and odd reflections.

Supported families: gl(m|n), gl(1|1)^n, osp(2m+1|2n), osp(2m|2n) and
D(2,1;a).  The even Borel is fixed once per family; a Borel subalgebra
is identified with its set of positive odd roots.  Odd reflections at
isotropic simple roots walk between Borels, and the ordered simple
system is inherited along each reflection (the inherited order is
asserted to be path-independent during enumeration).

Enumeration runs on integers: a root is its index into delta1 + delta0,
a Borel the bit mask of its odd positive roots, a simple system a tuple
of indices, and a reflection a bit flip plus one table lookup per
simple root.  Each Borel object is built once, when the search ends,
and the reflections are the search's edges.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import add, mul

from .numerics import DegreeOverflow, RankMismatch, SingularBasis, Weight, _ratio, render_weight

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
    "enumerate_borels",
    "pure_positive_roots",
    "weyl_vector",
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
    It has no pickle or repr of its own: the program never pickles or
    prints a Root, and RootSystem.root_name names one.  support is the
    pairing kernel's view of the root: its nonzero coordinates as
    (position, value) pairs, at most 3 in every family.
    A __slots__ class, not a namedtuple: the hot loops read its fields,
    and slot reads are the fastest attribute reads.
    """

    __slots__ = ("vector", "parity", "isotropic", "support")

    def __init__(self, vector: Weight, parity: str, isotropic: bool):
        # every family's roots have integer coordinates, so vector.r is
        # the root as an integer vector
        if vector.den != 1 or any(vector.s):
            raise UnsupportedFamily(f"root {render_weight(vector)} is not integral")
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "isotropic", isotropic)
        object.__setattr__(self, "support", tuple(compress(enumerate(vector.r), vector.r)))

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

    def sort_key(self):
        # roots are integral: their integer vectors order them
        return self.vector.r


class RootSystem:
    """Immutable container for one family's root data.

    delta0/delta1 hold both signs of every root; even_positive and
    even_simple are fixed once (the even Borel never moves).  alpha_value
    is the optional rational specialization of the D(2,1;a) parameter and
    routes every zero test made through this object.  form is the
    diagonal of the invariant form as an integer Weight: entry i is the
    form's value on the i-th basis vector, an a-part where it carries a.
    """

    def __init__(
        self,
        family: str,
        params: tuple,
        basis_names: tuple[str, ...],
        form: Weight,
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
        # the form's a-carrying diagonal entries, as (position, a-part)
        self._a_diagonal = tuple((i, d) for i, d in enumerate(form.s) if d)

        def mk_root(v: Weight, parity: str) -> Root:
            # (v, v) over every coordinate of v: the zero ones add nothing
            return Root(v, parity, parity == "odd" and self._pair_is_zero(
                *self._pair(self._weigh(v), enumerate(v.r))))

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
        # the character kernels' fixed work (characters.py, adjusted.py), one
        # table per kind; each product has at most 2^|delta1| terms
        self._kostant_counts: dict = {}  # (coordinates, index) -> Kostant count
        self._subset_sums: dict = {}  # free set -> its odd-subset sums by lattice class
        self._numerators: dict = {}  # odd set -> numerator prod (1 + e^beta) as offsets
        self._columns: dict = {}  # (odd set, den) -> that numerator as columns times den
        self._bricks: dict = {}  # join odd set -> a brick check's J-shift product
        self._borel_cache: tuple | None = None

    # -- the root index layer of Borel enumeration ---------------------------------
    #
    # Enumeration names a root by its index into delta1 + delta0, so an odd
    # root's index is its place in delta1, in canonical order, and its bit
    # in a Borel's mask of odd positive roots.  A simple system is a tuple
    # of indices.

    @cached_property
    def _root_index(self) -> tuple[tuple[Root, ...], dict, frozenset[int]]:
        """(roots, index, iso): delta1 + delta0, root -> its index, and the
        indices of the isotropic odd roots."""
        roots = self.delta1 + self.delta0
        iso = frozenset(k for k, r in enumerate(self.delta1) if r.isotropic)
        return roots, {r: k for k, r in enumerate(roots)}, iso

    # -- the integer pairing kernel ----------------------------------------------
    #
    # (lam, beta) for a root beta is sum_i lam_i * d_i * beta_i over the
    # form's diagonal d.  _weigh weighs lam by the form once per call,
    # scaled by lam.den: the rational-part vector lam_r * d_r, the a-part
    # vector lam_r * d_s + lam_s * d_r, and the positions where
    # lam_s * d_s != 0, where a product would have degree 2.  _pair then
    # pairs a root over its support, its at most 3 nonzero coordinates:
    # two short integer sums, split as (rational part, a-part), or
    # DegreeOverflow where the support meets an overflow position.

    def _weigh(self, lam: Weight) -> tuple[tuple[int, ...], list[int], set[int]]:
        """lam weighed by the form, times lam.den: (rational part, a-part,
        overflow positions)."""
        r, s = lam.r, lam.s
        if len(r) != self.rank:
            raise RankMismatch(f"weight of rank {len(r)} against rank {self.rank}")
        dr = self.form.r
        a_part, overflow = list(map(mul, s, dr)), set()
        # only the diagonal's a-carrying entries add to lam_r * d_s and
        # can overflow; D(2,1;a) is the one family that has them
        for i, d in self._a_diagonal:
            a_part[i] += r[i] * d
            if s[i]:
                overflow.add(i)
        return tuple(map(mul, r, dr)), a_part, overflow

    def _pair(self, weighed, support) -> tuple[int, int]:
        """(lam, root) times lam.den, as (rational part, a-part), for lam
        weighed by _weigh and the root's (position, coordinate) pairs: its
        support, or any pairs that hold it.

        Raises DegreeOverflow where the pairing leaves the degree-1 space
        Q + Q*a: the support meets an overflow position of lam."""
        wr, ws, overflow = weighed
        r = s = 0
        for i, x in support:
            if i in overflow:
                coords = dict(support)
                root = Weight.of(coords.get(j, 0) for j in range(self.rank))
                raise DegreeOverflow(f"pairing {self.vector_name(root)} with an "
                                     "a-carrying weight leaves the degree-1 space")
            r += wr[i] * x
            s += ws[i] * x
        return r, s

    def _pair_is_zero(self, r, s) -> bool:
        """Is r + s*a zero, under the specialization of a if there is one?"""
        alpha = self.alpha_value
        if alpha is None:
            return r == 0 and s == 0
        return r * alpha.denominator + s * alpha.numerator == 0

    def _pairs_to_zero(self, lam: Weight, supports) -> list[bool]:
        """For each root support in supports, does lam pair to zero with
        that root?  Raises DegreeOverflow where any pairing overflows."""
        weighed, pair, is_zero = self._weigh(lam), self._pair, self._pair_is_zero
        return [is_zero(*pair(weighed, support)) for support in supports]

    def orthogonal_roots(self, lam: Weight, roots) -> frozenset[Root]:
        """The roots among roots that pair to zero with lam."""
        roots = tuple(roots)
        return frozenset(compress(roots, self._pairs_to_zero(lam, [r.support for r in roots])))

    def roots_orthogonal(self, a: Root, b: Root) -> bool:
        """(a, b) = 0; root vectors are integral and carry no a-part."""
        return self._pair_is_zero(*self._pair(self._weigh(a.vector), b.support))

    def root_from_ivec(self, v: tuple[int, ...]) -> Root | None:
        return self._by_ivec.get(v)

    def negate(self, r: Root) -> Root:
        out = self._by_ivec.get(tuple(-x for x in r.vector.r))
        if out is None:
            raise ValueError(f"negative of {self.root_name(r)} is not a root")
        return out

    def root_name(self, r: Root) -> str:
        return self.vector_name(r.vector)

    def vector_name(self, v: Weight) -> str:
        if any(v.s):
            raise ValueError("root names are only defined for rational vectors")
        out = ""
        for name, x in zip(self.basis_names, v.r):
            if x:
                sign = "-" if x < 0 else "+" if out else ""
                out += sign + ("" if abs(x) == v.den else _ratio(abs(x), v.den)) + name
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

    @cached_property
    def _even_root_coords(self) -> tuple[tuple[int, ...], ...]:
        """The even positive roots in even-simple coordinates, descending:
        the parts of a Kostant partition."""
        n, den = len(self.even_simple), self.coord_denominator
        table = []
        for gamma in self.even_positive:
            coords = self.height_coords(gamma.vector.r)
            assert not any(coords[n:])
            assert all(c % den == 0 for c in coords[:n])
            ints = tuple(c // den for c in coords[:n])
            assert all(i >= 0 for i in ints) and sum(ints) >= 1
            table.append(ints)
        return tuple(sorted(table, reverse=True))

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

    odd_positive is canonically sorted; simple carries the inherited
    total order on the simple system.  Immutable, and compared by
    identity: enumerate_borels builds each Borel once, and the program
    addresses a Borel by its rank in that list, vertex k of the OR graph
    being Borel k.
    """

    __slots__ = ("odd_positive", "simple")

    def __init__(self, odd_positive: tuple[Root, ...], simple: tuple[Root, ...]):
        object.__setattr__(self, "odd_positive", odd_positive)
        object.__setattr__(self, "simple", simple)

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign or delete {name!r} of an immutable Borel")

    __setattr__ = __delattr__ = _frozen

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
        form = Weight.of((1,) * m + (-1,) * n)
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
        form = Weight.of((1,) * n + (-1,) * n)
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
        form = Weight.of((1,) * m + (-1,) * n)
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
    form = Weight.of((-1, 1, 0), (-1, 0, 1))
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


class _ReflectionRow(dict):
    """Where the odd reflection at the isotropic root index a sends each
    root index b: a to the index of -a, b to that of a+b where that is a
    root, else to b.  An entry is looked up on its first read and kept, so
    only the pairs that meet in a simple system are ever summed."""

    __slots__ = ("rs", "a")

    def __init__(self, rs: RootSystem, a: int):
        super().__init__()
        self.rs = rs
        self.a = a
        roots, index, _ = rs._root_index
        self[a] = index[rs.negate(roots[a])]

    def __missing__(self, b: int) -> int:
        roots, index, _ = self.rs._root_index
        summed = self.rs.root_from_ivec(
            tuple(map(add, roots[self.a].vector.r, roots[b].vector.r)))
        image = self[b] = b if summed is None else index[summed]
        return image


def _reflect(rows: dict, mask: int, simple: tuple[int, ...], k: int):
    """The odd reflection of a Borel at its simple root k (0-based), on root
    indices: (mask, simple) -> the reflected mask and simple system.

    The bits of alpha and -alpha flip; the simple system is inherited
    through alpha's _ReflectionRow, rows[alpha]."""
    a = simple[k]
    row = rows[a]
    return mask ^ (1 << a) ^ (1 << row[a]), tuple(map(row.__getitem__, simple))


def _borel_of(roots: tuple[Root, ...], mask: int, simple: tuple[int, ...]) -> Borel:
    """The Borel whose odd positive roots are the set bits of mask, in
    index order, which is canonical order."""
    odd = tuple(roots[k] for k in range(mask.bit_length()) if mask >> k & 1)
    return Borel(odd, tuple(roots[k] for k in simple))


def enumerate_borels(rs: RootSystem) -> tuple[list[Borel], list[tuple[int, int, int]]]:
    """All Borels reachable by odd reflections, plus the reflection edges.

    Breadth-first from the standard Borel; within each layer Borels are
    ordered by their canonical odd-positive set, and ranks are assigned
    in discovery order.  Each undirected edge (u, i, v) is listed once,
    with i the 1-based simple index at the earlier endpoint, which is
    also the index at the later one: r_i u = v and r_i v = u.  Every
    simple system is inherited along the reflections from the standard
    Borel's (Cheng-Wang, GSM 144, section 1.4, as _ReflectionRow maps
    it), and a test oracle checks it; re-reaching a Borel along a second
    path asserts that the inherited order is path-independent.

    The search runs on root indices: a Borel is the bit mask of its odd
    positive roots, keyed once in a dict, and its simple system a tuple
    of indices; each Borel is built once, at the end.
    """
    if rs._borel_cache is not None:
        return rs._borel_cache
    start = standard_borel(rs)
    roots, index, iso = rs._root_index
    masks = [sum(1 << index[r] for r in start.odd_positive)]
    simples = [tuple(index[r] for r in start.simple)]
    rank_of = {masks[0]: 0}
    edges: list[tuple[int, int, int]] = []
    # the reflection tables of this search only; the result alone is kept
    rows = {a: _ReflectionRow(rs, a) for a in iso}
    frontier = masks[:]
    while frontier:
        discovered: dict[int, tuple[int, ...]] = {}
        pending: list[tuple[int, int, int]] = []
        for mask in frontier:
            u = rank_of[mask]
            simple = simples[u]
            for k, a in enumerate(simple):
                if a not in iso:
                    continue
                nmask, nsimple = _reflect(rows, mask, simple, k)
                v = rank_of.get(nmask)
                known = discovered.setdefault(nmask, nsimple) if v is None else simples[v]
                if known != nsimple:
                    raise AssertionError("simple order depends on the path taken")
                pending.append((u, k + 1, nmask))
        # the masks sort as the canonical odd-positive sets do: delta1 is
        # sorted and closed under negation, so -delta1[k] is delta1[N-1-k]
        # with N = len(delta1).  A Borel holds one root of each pair
        # {k, N-1-k}, so two masks differ in whole pairs; the smallest and
        # the largest differing index form one pair, and the set holding
        # its lower index is the smaller one in both orders
        layer = sorted(discovered)
        for nmask in layer:
            rank_of[nmask] = len(masks)
            masks.append(nmask)
            simples.append(discovered[nmask])
        # each edge is seen from both ends, first from the lower rank
        edges.extend((u, i, rank_of[m]) for u, i, m in pending if u < rank_of[m])
        frontier = layer
    borels = [start] + [_borel_of(roots, m, s) for m, s in zip(masks[1:], simples[1:])]
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


# -- gl Borel -> Young diagram ------------------------------------------------


def _unit_difference(rank: int, p: int, q: int) -> tuple[int, ...]:
    """The integer vector of unit p minus unit q."""
    return tuple(1 if k == p else -1 if k == q else 0 for k in range(rank))


def partition_of_borel(rs: RootSystem, b: Borel) -> tuple[int, ...]:
    """The Young diagram of a gl(m|n) Borel, its OR graph vertex label.

    Row j, column c of the m x n box holds the odd root e_{m+1-c} - d_j;
    the box is in the diagram when b has it flipped to d_j - e_{m+1-c}.
    Row lengths are listed bottom-up, without trailing zeros.
    """
    if rs.family != "gl":
        raise UnsupportedFamily("partition addressing is specific to gl(m|n)")
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
