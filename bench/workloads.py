"""The benchmark's workloads: set-up, seeded operations, output checks.

A workload builds its state from setup_parts(), which run.py times part
by part, and make_ops(state, rng) turns the seed into a fixed list of
operations: one round.  Every Op has a
run() that calls ortk and a check(output) that compares the output with
the reference computations in oracle.py, raising CheckFailed on a
mismatch.  Expected values are computed on first use and cached, so
repeated rounds only pay for the comparison.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import ortk
import ortk.cli
import oracle as O
from oracle import CheckFailed, require, vec


class Op:
    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind, label, run, check):
        self.kind, self.label, self.run, self.check = kind, label, run, check


FRACTION_PROBE_REF_S = 0.0005  # fraction_probe's time at the reference speed


def fraction_probe() -> float:
    """Time a fixed piece of pure-Python exact arithmetic.

    The host's speed drifts by tens of percent within seconds; this
    probe, run next to the operations, measures that speed where they
    ran, and run.py rescales their times by it."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        seen[(i % 13, i % 17)] = acc
    return time.perf_counter() - t0


def weight(v) -> "ortk.Weight":
    return ortk.Weight(tuple(v))


def random_lambda(fam: O.Family, rng, lo=-2, hi=2) -> tuple:
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(fam.rank))


def sample(rng, draw, accept, tries=2000):
    """First draw that passes accept; the last draw if none does."""
    for _ in range(tries):
        v = draw()
        if accept(v):
            return v
    return v


def cached(compute):
    """A zero-argument function that computes once."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


# -- algebra-batch ---------------------------------------------------------------

# (family, operations of each class per round); the fourth ospB(2|2)
# operation of each class puts p90 inside its block of heavy operations
ALGEBRA_FAMILIES = (
    (("gl", 3, 2, None), 3),
    (("ospB", 2, 1, None), 3),
    (("ospB", 2, 2, None), 4),
    (("ospD", 1, 2, None), 3),
    (("ospD", 2, 2, None), 3),
    (("d21alpha", None, None, None), 3),
    (("d21alpha", None, None, Fraction(2, 3)), 3),
)

# families whose S1 classification stays at grid cost for every weight;
# the witness search on ospB(2|2) and ospD(2|2) runs 5-110 s per weight
S1_FAMILIES = {("gl", 3, 2, None), ("ospB", 2, 1, None), ("ospD", 1, 2, None),
               ("d21alpha", None, None, None), ("d21alpha", None, None, Fraction(2, 3))}

SERIES_DEPTH = 6


class System:
    """ortk's objects for one family, as built in set-up."""

    def __init__(self, key, with_rho=True):
        family, m, n, alpha = key
        self.key = key
        self.rs = ortk.build_root_system(family, m, n, alpha)
        self.borels, _ = ortk.enumerate_borels(self.rs)
        self.og = ortk.build_or_graph(self.rs)
        self.rhos = [ortk.weyl_vector(self.rs, b) for b in self.borels] if with_rho else None


def check_system(sys_: System, fam: O.Family) -> None:
    """Root data, Borel count and Weyl vectors against the formulas."""
    rs = sys_.rs
    name = f"{sys_.key[0]}({sys_.key[1]}|{sys_.key[2]})"
    require(len(sys_.borels) == fam.n_borels(),
            f"{name}: {len(sys_.borels)} Borels, closed form gives {fam.n_borels()}")
    require(len(sys_.og.graph.vertices) == fam.n_borels(), f"{name}: OR graph size")
    require({vec(r) for r in rs.even_positive} == set(fam.even_pos), f"{name}: even roots")
    require({vec(r) for r in rs.delta1} == set(fam.odd), f"{name}: odd roots")
    require({vec(r) for r in sys_.borels[0].odd_positive} == set(fam.std_odd_pos),
            f"{name}: standard Borel")
    if sys_.rhos is not None:
        for b, rho in zip(sys_.borels, sys_.rhos):
            own = fam.rho([vec(r) for r in b.odd_positive])
            require(vec(rho) == own, f"{name}: Weyl vector {vec(rho)} != {own}")


class AlgebraBatch:
    name = "algebra-batch"
    setup_repeats = 5
    setup_probes = 5
    warmup = True
    probe = staticmethod(fraction_probe)
    probe_ref_s = FRACTION_PROBE_REF_S

    def __init__(self, families=ALGEBRA_FAMILIES):
        self.families = families

    def setup_parts(self):
        return [lambda key=key: System(key) for key, _ in self.families]

    def make_ops(self, systems, rng):
        ops = []
        for s, (_, per_cell) in zip(systems, self.families):
            fam = O.Family(*s.key)
            table = cached(lambda fam=fam: O.series_table(fam, SERIES_DEPTH))
            checked = cached(lambda s=s, fam=fam: check_system(s, fam))
            builders = [self._mult_one, self._mult_series, self._numerators,
                        self._typical, self._brick]
            if s.key in S1_FAMILIES:
                builders.append(self._s1)
            for build in builders:
                for k in range(per_cell):
                    op = build(s, fam, rng, table, k)
                    ops.append(_with_system_check(op, checked))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _mult_one(s, fam, rng, table, k):
        i, j = rng.randrange(len(s.borels)), rng.randrange(len(s.borels))
        lam = weight(random_lambda(fam, rng))
        free = frozenset(s.rs.negate(r) for r in s.borels[i].odd_positive)
        q = ortk.MultiplicityQuery(free, lam - s.rhos[i], lam - s.rhos[j])

        def check(out):
            require(out == 1, f"multiplicity of rho pair ({i},{j}) is {out}, expected 1")

        return Op("mult_one", f"{s.key} borels {i},{j}",
                  lambda: ortk.weight_multiplicity(s.rs, q), check)

    @staticmethod
    def _mult_series(s, fam, rng, table, k):
        bi = rng.randrange(len(s.borels))
        lam = random_lambda(fam, rng)
        b = s.borels[bi]
        free = frozenset(s.rs.negate(r) for r in b.odd_positive)
        free_v = [vec(r) for r in free]
        base = O.sub(lam, fam.rho([vec(r) for r in b.odd_positive]))
        target = series_target(fam, rng, free_v, base)
        q = ortk.MultiplicityQuery(free, weight(base), weight(target))
        want = cached(lambda: O.series_multiplicity(fam, table(), SERIES_DEPTH,
                                                    free_v, base, target))

        def check(out):
            require(out == want(), f"multiplicity {out}, truncated series gives {want()}")

        return Op("mult_series", f"{s.key} borel {bi} target {O.render(target)}",
                  lambda: ortk.weight_multiplicity(s.rs, q), check)

    @staticmethod
    def _numerators(s, fam, rng, table, k):
        lam = weight(random_lambda(fam, rng))
        args = [(set(b.odd_positive), lam - rho) for b, rho in zip(s.borels, s.rhos)]
        b0 = s.borels[0]
        pos0 = {vec(r) for r in b0.odd_positive}
        top = O.sub(vec(lam), fam.rho(pos0))
        want = cached(lambda: O.numerator(top, [v for v in fam.odd if v not in pos0]))

        def run():
            return [ortk.verma_character(s.rs, delta, top_w) for delta, top_w in args]

        def check(out):
            expected = want()
            for k, ch in enumerate(out):
                got = {vec(w): c for w, c in ch.terms.items()}
                require(got == expected, f"numerator of Borel {k} differs "
                        f"({len(got)} terms, expected {len(expected)})")

        return Op("numerators", f"{s.key} lambda {O.render(vec(lam))}", run, check)

    @staticmethod
    def _typical(s, fam, rng, table, k):
        want = k % 2 == 0
        bi = rng.randrange(len(s.borels))
        b = s.borels[bi]
        pos = [vec(r) for r in b.odd_positive]
        lam = sample(rng, lambda: random_lambda(fam, rng),
                     lambda v: fam.typical(v, pos) == want)
        lam_w = weight(lam)
        shifted = lam_w + s.rhos[bi]
        type_one = s.rs.type_one

        def run():
            typical = ortk.is_typical(s.rs, b, lam_w)
            trivial = ortk.rbtriv_check(s.rs, s.og, shifted) if type_one else None
            return typical, trivial

        def check(out):
            own = fam.typical(lam, pos)
            require(out[0] == own, f"is_typical {out[0]}, inner products give {own}")
            if type_one:
                require(out[1] == own, f"trivial quotient {out[1]}, typical {own}")

        return Op("typical", f"{s.key} borel {bi} lambda {O.render(lam)}", run, check)

    @staticmethod
    def _s1(s, fam, rng, table, k):
        # the second operation of a cell runs the witness search for a
        # pure root where the family has one, the others never do, so
        # the cost of a round does not depend on the seed
        searches = k == 1
        want = k % 2 == 0
        bi = rng.randrange(len(s.borels))
        b = s.borels[bi]
        pos = [vec(r) for r in b.odd_positive]
        rho = fam.rho(pos)
        simple = {vec(r) for r in b.simple}
        _, pure_iso = ortk.pure_positive_roots(s.rs, s.borels)
        pure = [vec(r) for r in pure_iso if vec(r) not in simple]

        def search(v):
            return any(fam.orthogonal(O.add(v, rho), r) for r in pure)

        if not pure:
            accept = lambda v: fam.typical(v, pos) == want
        elif searches:
            accept = search
        else:
            accept = lambda v: fam.typical(v, pos) == want and not search(v)
        lam = sample(rng, lambda: random_lambda(fam, rng), accept)
        lam_w = weight(lam)
        shifted = lam_w + s.rhos[bi]
        type_one = s.rs.type_one
        bound = ortk.manifest.GAMMA_BOUND

        def run():
            cls = ortk.s1_classify(s.rs, b, lam_w, bound)
            trivial = ortk.rbtriv_check(s.rs, s.og, shifted) if type_one else None
            return cls, trivial

        def check(out):
            cls, trivial = out
            check_s1(fam, lam, pos,
                     [vec(r) for r in b.simple if r.parity == "odd" and r.isotropic],
                     {vec(r) for r in cls.certified_in},
                     {vec(r) for r in cls.certified_out},
                     {vec(r) for r in cls.unknown}, cls.emptiness_verdict.value,
                     type_one or s.key[0] == "d21alpha")
            if type_one:
                require(trivial == fam.typical(lam, pos), "trivial quotient != typical")

        return Op("s1", f"{s.key} borel {bi} lambda {O.render(lam)}", run, check)

    @staticmethod
    def _brick(s, fam, rng, table, k):
        # alternately one isotropic simple root orthogonal to lambda (2
        # collections) and an orthogonal pair of them (4 collections, one
        # with |J| = 2), so the cost of a round does not depend on the seed
        def simples_of(b):
            return [(i, vec(b.simple[i - 1])) for i in b.isotropic_simple_indices()]

        def has_pair(b):
            sim = simples_of(b)
            return any(fam.orthogonal(a, c) for x, (_, a) in enumerate(sim)
                       for _, c in sim[x + 1:])

        want = [0, 1] if k % 2 == 0 else [0, 1, 1, 2]
        pool = [bi for bi, b in enumerate(s.borels) if len(want) == 2 or has_pair(b)]
        if not pool:
            want, pool = [0, 1], list(range(len(s.borels)))
        bi = rng.choice(pool)
        b = s.borels[bi]
        simples = simples_of(b)
        lam = sample(rng, lambda: random_lambda(fam, rng),
                     lambda v: sorted(map(len, expected_collections(fam, v, simples))) == want)
        lam_w = weight(lam)

        def run():
            colls = ortk.hypercubic_collections(s.rs, b, lam_w)
            return colls, [ortk.brick_decomposition_check(s.rs, b, lam_w, c)
                           for c in colls if len(c.j) <= 2]

        def check(out):
            colls, verdicts = out
            require(all(verdicts), "brick decomposition identity fails")
            check_collections(fam, lam, simples,
                              [(sorted(c.j), [vec(r) for r in c.roots]) for c in colls])

        return Op("brick", f"{s.key} borel {bi} lambda {O.render(lam)}", run, check)


def _with_system_check(op, checked):
    inner = op.check

    def check(out):
        checked()
        inner(out)

    op.check = check
    return op


def series_target(fam, rng, free_v, base):
    """A weight whose multiplicity the truncated series decides: the top
    numerator term lowered by a few even roots and positive-height odd
    roots, at most SERIES_DEPTH below it."""
    top = base
    for v in free_v:
        if fam.height(v) > 0:
            top = O.add(top, v)
    pool = list(fam.even_pos) + [v for v in free_v if fam.height(v) > 0]
    zero = tuple(Fraction(0) for _ in range(fam.rank))

    def draw():
        d = zero
        for _ in range(rng.randint(1, 3)):
            d = O.add(d, rng.choice(pool))
        return d

    delta = sample(rng, draw, lambda d: fam.height(d) <= SERIES_DEPTH)
    if fam.height(delta) > SERIES_DEPTH:
        delta = zero
    return O.sub(top, delta)


def check_s1(fam, lam, pos, iso_simples, cin, cout, unknown, verdict, decided):
    """Certified sets partition the isotropic roots; roots negative for
    the Borel are out; isotropic simple roots are in exactly when they
    pair to zero with lambda; where emptiness is decided it matches
    typicality, elsewhere only a certified member makes S1 nonempty."""
    iso = set(fam.iso)
    require(not (cin & cout) and not (cin & unknown) and not (cout & unknown),
            "S1 certified sets overlap")
    require(cin | cout | unknown == iso, "S1 sets do not cover the isotropic roots")
    posset = set(pos)
    require({v for v in iso if v not in posset} <= cout, "negative root not certified out")
    for a in iso_simples:
        where = cin if fam.orthogonal(lam, a) else cout
        require(a in where, f"simple root {a} misclassified")
    if decided:
        want = "empty" if fam.typical(lam, pos) else "nonempty"
        require(verdict == want, f"S1 verdict {verdict}, typicality gives {want}")
    else:
        want = "nonempty" if cin else "undetermined"
        require(verdict == want, f"S1 verdict {verdict}, expected {want}")


def expected_collections(fam, lam, simples):
    """Index sets of isotropic simple roots that are pairwise orthogonal
    and orthogonal to lambda, the empty set included."""
    cand = [(i, a) for i, a in simples if fam.orthogonal(lam, a)]
    out = []
    for mask in range(1 << len(cand)):
        pick = [cand[t] for t in range(len(cand)) if mask >> t & 1]
        if all(fam.orthogonal(a, b) for x, (_, a) in enumerate(pick)
               for _, b in pick[x + 1:]):
            out.append(sorted(i for i, _ in pick))
    return out


def check_collections(fam, lam, simples, colls):
    """Collections are exactly expected_collections."""
    expected = expected_collections(fam, lam, simples)
    got = sorted(j for j, _ in colls)
    require(got == sorted(expected), f"collections {got}, expected {sorted(expected)}")
    by_index = dict(simples)
    for j, roots in colls:
        require(sorted(roots) == sorted(by_index[i] for i in j), "collection roots")


# -- graph-stretch ---------------------------------------------------------------

# (family, reference graph, walk probes per round); the walk counts put
# the median inside the gl(1|1)^6 operations and p90 inside the gl(4|3)
# walks, away from the steps between families
GRAPH_FAMILIES = (
    (("gl", 4, 3, None), ("young", 4, 3), 24),
    (("gl11n", None, 6, None), ("hypercube", 6), 30),
    (("ospB", 3, 2, None), ("young", 3, 2), 16),
    (("ospD", 3, 2, None), None, 16),
)
QUOTIENTS_PER_FAMILY = 4


def own_graph(key):
    """The OR graph predicted by the Young/hypercube dictionary (gl, gl11n)."""
    if key[0] == "gl":
        return O.young_graph(key[1], key[2])
    if key[0] == "gl11n":
        return O.hypercube_graph(key[2])
    return None


def reference_graph(ref):
    verts, edges = (O.young_graph(ref[1], ref[2]) if ref[0] == "young"
                    else O.hypercube_graph(ref[1]))
    colors = sorted({c for _, _, c in edges})
    return verts, edges, ortk.ColoredGraph(tuple(verts), tuple(colors), tuple(edges))


def edge_set(edges):
    return {(frozenset((u, v)), c) for u, v, c in edges}


class GraphStretch:
    name = "graph-stretch"
    setup_repeats = 3
    setup_probes = 5
    warmup = True
    probe = staticmethod(fraction_probe)
    probe_ref_s = FRACTION_PROBE_REF_S

    def __init__(self, families=GRAPH_FAMILIES):
        self.families = families

    def setup_parts(self):
        return [lambda key=key, ref=ref, walks=walks: (System(key, with_rho=False), ref, walks)
                for key, ref, walks in self.families]

    def make_ops(self, state, rng):
        ops = []
        for s, ref, walks in state:
            fam = O.Family(*s.key)
            g = s.og.graph
            verts, edges = list(g.vertices), list(g.edges)

            def check_family(s=s, fam=fam, verts=verts, edges=edges):
                check_system(s, fam)
                own = own_graph(s.key)
                if own is not None:
                    require(set(own[0]) == set(verts), f"{s.key}: vertex labels")
                    require(edge_set(own[1]) == edge_set(edges), f"{s.key}: edges")

            checked = cached(check_family)
            family_ops = [self._exchange(s, verts, edges), self._extension(s)]
            if ref is not None:
                family_ops.append(self._iso(s, ref, edges))
            color_root = {c: fam.vector_of_name(c) for c in g.colors}
            lams = []
            for _ in range(QUOTIENTS_PER_FAMILY):
                want = rng.choice((2, 3, 4))
                lam = sample(rng, lambda: random_lambda(fam, rng),
                             lambda v: sum(fam.orthogonal(v, r)
                                           for r in color_root.values()) == want)
                lams.append(lam)
                family_ops.append(self._quotient(s, fam, lam, color_root, verts, edges))
            for k in range(walks):
                family_ops.append(self._walk(s, fam, lams[k % len(lams)], color_root,
                                             verts, edges, rng))
            ops += [_with_system_check(op, checked) for op in family_ops]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _exchange(s, verts, edges):
        want = cached(lambda: O.geodesic_count(verts, edges))

        def check(out):
            require(out.passed, f"{s.key}: exchange property fails")
            require(out.n_shortest_walks == want(),
                    f"{s.key}: {out.n_shortest_walks} geodesics, expected {want()}")

        return Op("exchange", str(s.key), lambda: ortk.verify_exchange(s.og.graph), check)

    @staticmethod
    def _extension(s):
        def check(out):
            require(out.passed, f"{s.key}: rainbow extension fails")
            require(out.n_configurations > 0, f"{s.key}: no configurations tested")

        return Op("extension", str(s.key),
                  lambda: ortk.verify_rainbow_extension(s.og.graph), check)

    @staticmethod
    def _iso(s, ref, edges):
        _, ref_edges, ref_graph = reference_graph(ref)

        def check(out):
            require(out is not None, f"{s.key}: not isomorphic to {ref}")
            O.check_isomorphism(edges, ref_edges, out.vertex_bijection, out.color_bijection)

        return Op("iso", f"{s.key} ~ {ref}",
                  lambda: ortk.colored_isomorphic(s.og.graph, ref_graph), check)

    @staticmethod
    def _quotient(s, fam, lam, color_root, verts, edges):
        lam_w = weight(lam)
        contracted = {c for c, r in color_root.items() if not fam.orthogonal(lam, r)}

        def expected():
            cls, qverts, qedges = O.quotient(verts, edges, contracted)
            return cls, qverts, qedges, O.geodesic_count(qverts, qedges)

        want = cached(expected)

        def run():
            q = ortk.build_or_lambda(s.rs, s.og, lam_w)
            return (q, ortk.verify_exchange(q.graph),
                    ortk.verify_rainbow_extension(q.graph))

        def check(out):
            q, ex, ext = out
            cls, qverts, qedges, geodesics = want()
            require(len(q.graph.vertices) == len(qverts),
                    f"quotient has {len(q.graph.vertices)} classes, expected {len(qverts)}")
            require(set(q.graph.colors) == set(color_root) - contracted, "quotient colors")
            vmap = q.vertex_map
            require(all((vmap[u] == vmap[v]) == (cls[u] == cls[v])
                        for u in verts for v in verts), "quotient classes differ")
            require(ex.passed and ext.passed, "exchange/extension fails on the quotient")
            require(ex.n_shortest_walks == geodesics, "quotient geodesic count")

        return Op("quotient", f"{s.key} lambda {O.render(lam)}", run, check)

    @staticmethod
    def _walk(s, fam, lam, color_root, verts, edges, rng):
        g = s.og.graph
        at = rng.choice(verts)
        path = [at]
        for _ in range(rng.randrange(1, 9)):
            at, _c = rng.choice(sorted(g.neighbors(at), key=str))
            path.append(at)
        walk = ortk.make_walk(g, path)
        lam_w = weight(lam)
        contracted = {c for c, r in color_root.items() if not fam.orthogonal(lam, r)}
        want = cached(lambda: O.walk_nonzero(verts, edges, contracted, path))

        def check(out):
            require(out.nonzero == want(),
                    f"walk {path}: oracle {out.nonzero}, shortest-walk test {want()}")
            if out.nonzero:
                cls = O.contract(verts, edges, contracted)
                steps = sum(1 for a, b in zip(path, path[1:]) if cls[a] != cls[b])
                require(len(out.monomial) == steps, "monomial length")

        return Op("walk", f"{s.key} {'/'.join(map(str, path))}",
                  lambda: ortk.walk_hom_oracle(s.rs, s.og, lam_w, walk), check)


# -- cli-queries ---------------------------------------------------------------

ENTRY = "import sys; from ortk.cli import main; sys.exit(main())"


class ChildRunner:
    """Runs `ortk ARGV` as a child process, as the console script would:
    the package from src/, bytecode read from a cache outside src/."""

    def __init__(self, root):
        self.root = root
        self.cache = os.path.join(root, ".bench_build", "pycache")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONPYCACHEPREFIX=self.cache, PYTHONDONTWRITEBYTECODE="1",
                        PYTHONHASHSEED="0")

    def warm(self, argvs) -> None:
        """Fill the bytecode cache, as installing the package would."""
        env = dict(self.env)
        env.pop("PYTHONDONTWRITEBYTECODE")
        for argv in argvs:
            subprocess.run([sys.executable, "-c", ENTRY, *argv], env=env, cwd=self.root,
                           capture_output=True, timeout=170, check=True)

    def __call__(self, argv):
        p = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=self.env,
                           cwd=self.root, capture_output=True, timeout=170)
        return p.returncode, p.stdout.decode("utf-8")


def run_in_process(argv):
    """Replay `ortk ARGV` through ortk.cli.run_command in this process."""
    lines = []
    code = ortk.cli.run_command(list(argv), lines.append)
    return code, "\n".join(lines) + "\n"


NO_WORK = ["--help"]


def family_flags(key):
    family, m, n, alpha = key
    flags = ["--family", "d21" if family == "d21alpha" else family]
    if m is not None:
        flags += ["--m", str(m)]
    if n is not None:
        flags += ["--n", str(n)]
    if alpha is not None:
        flags += ["--alpha", str(alpha)]
    return flags


def parse_json(out):
    code, text = out
    require(code == 0, f"exit code {code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"output is not JSON: {e}") from None


def vertex_label(fam, k, rng):
    """A --borel value: partition label, bit string or #rank."""
    if fam.family == "gl":
        verts, _ = O.young_graph(fam.m, fam.n)
        return rng.choice(verts)
    if fam.family == "gl11n":
        return "".join(rng.choice("01") for _ in range(fam.n))
    return f"#{k}"


def standard_iso_simples(fam):
    """(1-based index, root) of the isotropic simple roots of the standard
    Borel, in ortk's simple order (gl: e1-e2,...,em-d1,d1-d2,...; gl11n:
    e1-dn, e2-d(n-1), ...)."""
    if fam.family == "gl":
        return [(fam.m, O.sub(fam.unit(fam.m - 1), fam.unit(fam.m)))]
    n = fam.n
    return [(i + 1, O.sub(fam.unit(i), fam.unit(2 * n - 1 - i))) for i in range(n)]


GL = lambda m, n: ("gl", m, n, None)
GL11 = lambda n: ("gl11n", None, n, None)
OSPB = lambda m, n: ("ospB", m, n, None)
OSPD = lambda m, n: ("ospD", m, n, None)
D21 = ("d21alpha", None, None, None)
D21A = ("d21alpha", None, None, Fraction(2, 3))

CLI_SLOTS = (
    [("character", (k, False)) for k in (GL(3, 2), OSPB(2, 1), OSPD(2, 2), OSPD(1, 2), GL11(3))]
    + [("character", (k, True)) for k in (D21, GL(2, 2))]
    + [("multiplicity", k) for k in (GL(3, 2), GL(2, 2), OSPB(2, 1), OSPD(2, 2), OSPD(1, 2), D21A)]
    # seven equal-cost ospB(2|2) queries put p90 inside a plateau of
    # equal latencies, whatever the seed
    + [("multiplicity", OSPB(2, 2))] * 7
    + [("typical", k) for k in (GL(2, 2), GL(3, 2), GL11(3), OSPB(2, 1), OSPD(1, 2), D21A)]
    + [("s1", k) for k in (GL(2, 1), GL(2, 2), GL11(2), OSPB(1, 1), OSPD(1, 2), D21)]
    + [("quotient", k) for k in (GL(2, 2), GL(3, 2), GL11(4), OSPB(2, 2), OSPD(2, 2))]
    + [("walk", k) for k in (GL(2, 1), GL(2, 2), GL(3, 2), GL11(3), GL11(4))]
    # ten more gl(3|2) walks: about as many queries cost less than a walk
    # as cost more, so the median falls inside this block of equal costs
    + [("walk", GL(3, 2))] * 10
    + [("hypercubic", k) for k in (GL(2, 1), GL(2, 2), GL11(2), GL11(3))]
    + [("quiver", p) for p in ("preprojective_a2", "chain3", "square4", "zigzag_window")]
    + [("or-graph", k) for k in (GL(4, 3), GL(3, 2), GL11(4), OSPB(2, 2), OSPD(2, 2))]
    + [("verify", v) for v in (("exchange", "gl"), ("extension", "gl11n"),
                               ("iso", "ospB"), ("all", "d21"))]
)


class CliQueries:
    name = "cli-queries"
    setup_repeats = 9
    setup_probes = 2
    warmup = False  # each child starts cold; there is no memo to fill
    # a child spends most of its time starting up and importing, which
    # the in-process probe does not track; a bare interpreter start does
    probe_ref_s = 0.05

    def __init__(self, root, slots=CLI_SLOTS):
        self.child = ChildRunner(root)
        self.runner = self.child
        self.slots = slots

    def probe(self) -> float:
        """Time a child interpreter that imports nothing of ortk."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.child.env,
                       cwd=self.child.root, capture_output=True, timeout=60, check=True)
        return time.perf_counter() - t0

    def build(self):
        self.child.warm([NO_WORK, ["verify", "all", "--family", "d21"]])

    def replay_in_process(self):
        """Run the queries through ortk.cli.run_command in this process,
        timed against the in-process probe."""
        self.runner = run_in_process
        self.probe, self.probe_ref_s = fraction_probe, FRACTION_PROBE_REF_S

    def setup_parts(self):
        return [self.start]

    def start(self):
        code, _ = self.child(NO_WORK)
        require(code == 0, f"ortk {' '.join(NO_WORK)} exits {code}")

    def make_ops(self, state, rng):
        ops = []
        for cmd, arg in self.slots:
            argv, check = getattr(self, "_" + cmd.replace("-", "_"))(arg, rng)
            ops.append(Op(cmd, " ".join(argv),
                          lambda argv=argv: self.runner(argv), check))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _character(arg, rng):
        key, induced = arg
        fam = O.Family(*key)
        k = rng.randrange(fam.n_borels())
        argv = ["character", *family_flags(key), f"--lambda={O.render(random_lambda(fam, rng))}",
                "--borel", vertex_label(fam, k, rng), "--out", "json"]
        if induced:
            argv.append("--induced")
        factors = len(fam.odd) if induced else len(fam.odd) // 2

        def check(out):
            data = parse_json(out)
            total = sum(item["coeff"] for item in data)
            require(total == 2 ** factors,
                    f"coefficients sum to {total}, expected 2^{factors}")
            require(all(item["coeff"] > 0 for item in data), "nonpositive coefficient")

        return argv, check

    @staticmethod
    def _multiplicity(key, rng):
        fam = O.Family(*key)
        lam = random_lambda(fam, rng)
        free = [O.neg(v) for v in fam.std_odd_pos]
        mu = series_target(fam, rng, free, lam)
        argv = ["multiplicity", *family_flags(key), f"--lambda={O.render(lam)}",
                f"--mu={O.render(mu)}", "--out", "json"]
        want = cached(lambda: O.series_multiplicity(
            fam, O.series_table(fam, SERIES_DEPTH), SERIES_DEPTH, free, lam, mu))

        def check(out):
            got = parse_json(out)["multiplicity"]
            require(got == want(), f"multiplicity {got}, truncated series gives {want()}")

        return argv, check

    @staticmethod
    def _typical(key, rng):
        fam = O.Family(*key)
        want = rng.random() < 0.5
        lam = sample(rng, lambda: random_lambda(fam, rng),
                     lambda v: fam.typical(v, fam.std_odd_pos) == want)
        argv = ["typical", *family_flags(key), f"--lambda={O.render(lam)}", "--out", "json"]

        def check(out):
            got = parse_json(out)["typical"]
            own = fam.typical(lam, fam.std_odd_pos)
            require(got == own, f"typical {got}, inner products give {own}")

        return argv, check

    @staticmethod
    def _s1(key, rng):
        fam = O.Family(*key)
        want = rng.random() < 0.5
        lam = sample(rng, lambda: random_lambda(fam, rng),
                     lambda v: fam.typical(v, fam.std_odd_pos) == want)
        argv = ["s1", *family_flags(key), f"--lambda={O.render(lam)}", "--out", "json"]
        iso_simples = ([a for _, a in standard_iso_simples(fam)]
                       if fam.family in ("gl", "gl11n") else [])
        decided = fam.family in ("gl", "gl11n", "d21alpha") or \
            (fam.family == "ospD" and fam.m == 1)

        def check(out):
            data = parse_json(out)
            sets = [{fam.vector_of_name(nm) for nm in data[k]}
                    for k in ("certified_in", "certified_out", "unknown")]
            check_s1(fam, lam, fam.std_odd_pos, iso_simples, *sets,
                     data["emptiness"], decided)

        return argv, check

    @staticmethod
    def _quotient(key, rng):
        fam = O.Family(*key)
        pos_iso = [v for v in fam.std_odd_pos if v in set(fam.iso)]
        lam = sample(rng, lambda: random_lambda(fam, rng),
                     lambda v: sum(fam.orthogonal(v, r) for r in pos_iso) >= 2)
        argv = ["quotient", *family_flags(key), f"--lambda={O.render(lam)}", "--out", "json"]
        own = own_graph(key)

        def check(out):
            data = parse_json(out)
            g = ortk.graph_from_json(data)
            require(ortk.graph_to_json(g) == data, "quotient JSON does not round-trip")
            allowed = {c for c in g.colors if fam.orthogonal(lam, fam.vector_of_name(c))}
            require(set(g.colors) == allowed, "a contracted color survives")
            require(len(g.vertices) <= fam.n_borels(), "more classes than Borels")
            adj = O.adjacency(g.vertices, g.edges)
            require(len(O.bfs(adj, g.vertices[0])) == len(g.vertices), "quotient disconnected")
            if own is not None:
                contracted = {c for _, _, c in own[1]
                              if not fam.orthogonal(lam, fam.vector_of_name(c))}
                _, qverts, qedges = O.quotient(*own, contracted)
                require(len(g.vertices) == len(qverts),
                        f"{len(g.vertices)} classes, expected {len(qverts)}")
                require(len(g.edges) == len(edge_set(qedges)), "quotient edge count")

        return argv, check

    @staticmethod
    def _walk(key, rng):
        fam = O.Family(*key)
        verts, edges = own_graph(key)
        adj = O.adjacency(verts, edges)
        roots = {c: fam.vector_of_name(c) for _, _, c in edges}
        lam = sample(rng, lambda: random_lambda(fam, rng),
                     lambda v: any(fam.orthogonal(v, r) for r in roots.values()))
        at = rng.choice(verts)
        path = [at]
        for _ in range(rng.randrange(1, 7)):
            at, _c = rng.choice(sorted(adj[at]))
            path.append(at)
        argv = ["walk", *family_flags(key), f"--lambda={O.render(lam)}",
                "--path", ",".join(path), "--out", "json"]
        contracted = {c for c, r in roots.items() if not fam.orthogonal(lam, r)}
        want = O.walk_nonzero(verts, edges, contracted, path)
        cls = O.contract(verts, edges, contracted)
        steps = sum(1 for a, b in zip(path, path[1:]) if cls[a] != cls[b])

        def check(out):
            data = parse_json(out)
            got = data["verdict"] == "Nonzero"
            require(got == want, f"walk verdict {data['verdict']}, shortest-walk test {want}")
            if got:
                require(len(data["monomial"]) == steps, "monomial length")

        return argv, check

    @staticmethod
    def _hypercubic(key, rng):
        fam = O.Family(*key)
        simples = standard_iso_simples(fam)
        lam = sample(rng, lambda: random_lambda(fam, rng),
                     lambda v: any(fam.orthogonal(v, a) for _, a in simples))
        argv = ["hypercubic", *family_flags(key), f"--lambda={O.render(lam)}", "--out", "json"]

        def check(out):
            data = parse_json(out)
            splits = {str(i): ("indecomposable" if fam.orthogonal(lam, a) else "decomposable")
                      for i, a in simples}
            require(data["splits"] == splits, f"splits {data['splits']}, expected {splits}")
            require(all(c["brick_identity"] for c in data["collections"]),
                    "brick decomposition identity fails")
            check_collections(fam, lam, simples,
                              [(c["j"], [fam.vector_of_name(nm) for nm in c["roots"]])
                               for c in data["collections"]])

        return argv, check

    @staticmethod
    def _quiver(preset, rng):
        w = 3 if preset == "zigzag_window" else None
        argv = ["quiver", "--preset", preset, "--max-len", "3", "--out", "json"]
        if w is not None:
            argv += ["--w", str(w)]
        want = O.quiver_dims(preset, w)

        def check(out):
            data = parse_json(out)
            require(data["dimensions"] == want, f"dimensions {data['dimensions']}")
            require(data["total_dimension"] == sum(map(sum, want)), "total dimension")
            sizes = sum(len(v) for v in data["basis"].values())
            require(sizes == sum(map(sum, want)), "basis size")

        return argv, check

    @staticmethod
    def _or_graph(key, rng):
        fam = O.Family(*key)
        argv = ["or-graph", *family_flags(key), "--out", "json"]
        own = own_graph(key)

        def check(out):
            data = parse_json(out)
            g = ortk.graph_from_json(data)
            require(ortk.graph_to_json(g) == data, "OR graph JSON does not round-trip")
            require(len(g.vertices) == fam.n_borels(),
                    f"{len(g.vertices)} vertices, closed form gives {fam.n_borels()}")
            adj = O.adjacency(g.vertices, g.edges)
            require(len(O.bfs(adj, g.vertices[0])) == len(g.vertices), "OR graph disconnected")
            if own is not None:
                require(set(g.vertices) == set(own[0]), "vertex labels")
                require(edge_set(g.edges) == edge_set(own[1]), "edges")

        return argv, check

    @staticmethod
    def _verify(arg, rng):
        mode, family = arg
        argv = ["verify", mode, "--family", family]

        def check(out):
            code, text = out
            require(code == 0, f"exit code {code}")
            last = text.strip().splitlines()[-1]
            require(last.startswith("overall pass"), f"verify reports: {last}")

        return argv, check


def setup(wl):
    return [part() for part in wl.setup_parts()]


def workload(name, root):
    if name == "algebra-batch":
        return AlgebraBatch()
    if name == "graph-stretch":
        return GraphStretch()
    if name == "cli-queries":
        return CliQueries(root)
    raise ValueError(f"unknown workload {name!r}")
