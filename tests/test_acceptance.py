"""Acceptance gate.

Each test prints one line, "CRITERION n: PASS/FAIL: summary", then
asserts the criterion (run with -s to see every line; failed criteria
also show the line in the captured output).

Two criteria fail on purpose.  The claims they encode are false for the
objects this package constructs; the failing assertions state the
claimed values, and the computed values are independently frozen in the
module tests (test_atypicality, test_characters).
"""

import math
import time

import pytest

from test_characters import truncated_terms
from test_lattice import ref_witness
from test_quiver import _oracle_degree_dim, _oracle_dim

from ortk import manifest
from ortk.characters import (
    MultiplicityQuery,
    character_weight_multiplicity,
    verma_character,
    weight_multiplicity,
)
from ortk.ecgraph import build_reference_graph, colored_isomorphic, make_walk
from ortk.numerics import parse_weight, zero_weight
from ortk.orgraph import walk_hom_oracle
from ortk.quiver import build_quiver, hom_dimensions
from ortk.rootsys import weyl_vector
from ortk.verify import (
    _Builds,
    suite_characters,
    suite_exchange,
    suite_extension,
    suite_gl11n_dimensions,
    suite_hypercubic,
    suite_quiver,
    suite_typicality,
    suite_walks,
)

# truncation depth of the brute-force character expansion (truncated_terms)
# that criterion 5 probes against
PHI_DEPTH = 4


@pytest.fixture(scope="module")
def builds():
    return _Builds()


def test_criterion_1(builds):
    worst = 0.0
    all_ok = True
    for chk in manifest.ISO_SUITE:
        t0 = time.perf_counter()
        rs, borels, og = builds.get(chk.family, chk.m, chk.n)
        ref = build_reference_graph(chk.reference, chk.m, chk.n)
        witness = colored_isomorphic(og.graph, ref)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if chk.reference == "young":
            expected = math.comb(chk.m + chk.n, chk.m)
        else:
            expected = 2 ** chk.n
        if witness is None or len(og.graph.vertices) != expected or dt > 5.0:
            all_ok = False
    print("CRITERION 1: %s: %d color-respecting reference isomorphisms with "
          "the expected vertex counts, worst case %.2fs"
          % ("PASS" if all_ok else "FAIL", len(manifest.ISO_SUITE), worst))
    assert all_ok


def test_criterion_2(builds):
    rs, borels, og = builds.get("d21alpha", None, None)
    degree = {v: 0 for v in og.graph.vertices}
    for u, v, _ in og.graph.edges:
        degree[u] += 1
        degree[v] += 1
    structure_ok = (
        len(borels) == 4
        and sorted(degree.values()) == [1, 1, 1, 3]
        and weyl_vector(rs, borels[0]) == parse_weight("-1,1,1", 3)
        and weyl_vector(rs, borels[1]) == zero_weight(3)
        and sorted(rs.root_name(r) for r in borels[1].odd_positive
                   if r.isotropic and all(r in b.odd_set() for b in borels))
            == ["d+e1+e2"]
    )
    beta = rs.root_by_name("d+e1+e2")
    w = ref_witness(rs, borels, beta, zero_weight(3), manifest.GAMMA_BOUND)
    found = "(%s, gamma=0)" % og.graph.vertices[borels.index(w[0])] if w else "no witness"
    claim_ok = w is not None and w[0] == borels[1] and w[1] == zero_weight(3)
    ok = structure_ok and claim_ok
    print("CRITERION 2: %s: tree shape, Weyl vectors, and the pure root are "
          "as expected; simple even witness search for d+e1+e2 found %s "
          "(claimed: the rho=0 Borel with gamma=0)"
          % ("PASS" if ok else "FAIL", found))
    assert structure_ok
    # claimed witness; the brute-force search is exhaustive to the gamma
    # bound and the dimension condition rules every candidate out (the
    # value there is 5), as s1_classify proves for every bound
    assert claim_ok


def test_criterion_2_structure(builds):
    # the computed half of criterion 2, which must keep passing
    rs, borels, og = builds.get("d21alpha", None, None)
    degree = {v: 0 for v in og.graph.vertices}
    for u, v, _ in og.graph.edges:
        degree[u] += 1
        degree[v] += 1
    assert len(borels) == 4
    assert sorted(degree.values()) == [1, 1, 1, 3]
    assert weyl_vector(rs, borels[0]) == parse_weight("-1,1,1", 3)
    assert weyl_vector(rs, borels[1]) == zero_weight(3)
    pure = [rs.root_name(r) for r in borels[1].odd_positive
            if r.isotropic and all(r in b.odd_set() for b in borels)]
    assert pure == ["d+e1+e2"]


def test_criterion_2_bounded_search_finds_no_witness(builds):
    rs, borels, _ = builds.get("d21alpha", None, None)
    beta = rs.root_by_name("d+e1+e2")
    assert ref_witness(rs, borels, beta, zero_weight(3), manifest.GAMMA_BOUND) is None


def test_criterion_3(builds):
    t0 = time.perf_counter()
    ex = suite_exchange(builds)
    xt = suite_extension(builds)
    dt = time.perf_counter() - t0
    pairs = sum(len(entry.weights) for entry in manifest.LAMBDA_GRID)
    clean = all(e.status == "pass" for e in ex + xt)
    ok = clean and pairs >= 40 and dt <= 60.0
    print("CRITERION 3: %s: exchange and rainbow extension hold on %d graphs "
          "(%d weight pairs, zero counterexamples) in %.1fs"
          % ("PASS" if ok else "FAIL", len(ex), pairs, dt))
    assert clean
    assert pairs >= 40
    assert dt <= 60.0


def test_criterion_4(builds):
    rs, borels, og = builds.get("gl", 2, 2)
    lam = zero_weight(4)
    good = walk_hom_oracle(rs, og, lam, make_walk(og.graph, ["∅", "1", "2", "21"]))
    bad = walk_hom_oracle(rs, og, lam,
                          make_walk(og.graph, ["∅", "1", "2", "21", "11"]))
    sweep = suite_walks(builds)
    sweep_ok = all(e.status == "pass" for e in sweep)
    n_walks = sum(e.payload["walks"] for e in sweep)
    ok = good.nonzero and not bad.nonzero and sweep_ok
    print("CRITERION 4: %s: the worked composite is Nonzero and its "
          "extension is Zero; oracle verdicts match the independent "
          "shortest-walk test on %d walks"
          % ("PASS" if ok else "FAIL", n_walks))
    assert good.nonzero
    assert not bad.nonzero
    assert sweep_ok


def test_criterion_5(builds):
    chars = suite_characters(builds)
    chars_ok = all(e.status == "pass" for e in chars)

    rs22, borels22, og22 = builds.get("gl", 2, 2)
    b = borels22[0]
    num = verma_character(rs22, set(b.odd_positive), zero_weight(4))
    table = truncated_terms(rs22, num, PHI_DEPTH)
    probe_ok = True
    for r in list(rs22.even_positive) + list(b.odd_positive):
        mu = zero_weight(4) - r.vector
        if character_weight_multiplicity(rs22, num, mu) != table.get(mu, 0):
            probe_ok = False

    rs, borels, og = builds.get("d21alpha", None, None)
    b1 = borels[0]
    top = zero_weight(3) - weyl_vector(rs, b1)
    free = frozenset(rs.negate(r) for r in b1.odd_positive)
    got = weight_multiplicity(
        rs, MultiplicityQuery(free, top, top - parse_weight("2,0,0", 3)))
    ok = chars_ok and probe_ok and got == 1
    print("CRITERION 5: %s: numerators agree across Borels and cross "
          "multiplicities are one on all %d grid weights (truncated series "
          "probe at depth %d agrees); the claimed dimension one at distance "
          "2d below the top of the rank 0 module computes to %d"
          % ("PASS" if ok else "FAIL", len(chars), PHI_DEPTH, got))
    assert chars_ok
    assert probe_ok
    # claimed value; five PBW monomials land on that weight
    assert got == 1


def test_criterion_5_numerators_and_multiplicities(builds):
    # the computed parts of criterion 5, which must keep passing
    assert all(e.status == "pass" for e in suite_characters(builds))


def test_criterion_5_truncated_series_probe(builds):
    rs, borels, _ = builds.get("gl", 2, 2)
    b = borels[0]
    num = verma_character(rs, set(b.odd_positive), zero_weight(4))
    table = truncated_terms(rs, num, PHI_DEPTH)
    for r in list(rs.even_positive) + list(b.odd_positive):
        mu = zero_weight(4) - r.vector
        assert character_weight_multiplicity(rs, num, mu) == table.get(mu, 0)


def test_criterion_5_dimension_computes_to_five(builds):
    rs, borels, _ = builds.get("d21alpha", None, None)
    b1 = borels[0]
    top = zero_weight(3) - weyl_vector(rs, b1)
    free = frozenset(rs.negate(r) for r in b1.odd_positive)
    got = weight_multiplicity(
        rs, MultiplicityQuery(free, top, top - parse_weight("2,0,0", 3)))
    assert got == 5


def test_criterion_6(builds):
    hy = suite_hypercubic(builds)
    ok = all(e.status == "pass" for e in hy)
    n_coll = sum(e.payload.get("collections", 0)
                 for e in hy if e.check == "brick-decomposition")
    kac = next(e for e in hy if e.check == "kac-flag")
    print("CRITERION 6: %s: %d hypercubic collections verified with 4^|J| "
          "bricks each; the four flag constituents are %s"
          % ("PASS" if ok else "FAIL", n_coll,
             " ".join(kac.payload["constituents"])))
    assert ok


def test_criterion_7(builds):
    dims = suite_gl11n_dimensions(builds)
    ok = len(dims) == 5 and all(e.status == "pass" for e in dims)
    print("CRITERION 7: %s: every Verma over gl11n (n <= 5) has total "
          "dimension 2^n and the whole odd algebra gives dimension 1"
          % ("PASS" if ok else "FAIL"))
    assert ok


def test_criterion_8(builds):
    ty = suite_typicality(builds)
    n_pass = sum(e.status == "pass" for e in ty)
    n_skip = sum(e.status == "skipped" for e in ty)
    n_fail = sum(e.status == "fail" for e in ty)
    ok = n_fail == 0 and n_pass == 36 and n_skip == 14
    print("CRITERION 8: %s: typicality, trivial quotient, and emptiness "
          "agree on %d weights (%d without an unconditional criterion "
          "skipped, %d violations)"
          % ("PASS" if ok else "FAIL", n_pass, n_skip, n_fail))
    assert ok


def test_criterion_9(builds):
    t0 = time.perf_counter()
    qs = suite_quiver(builds)
    suite_ok = all(e.status == "pass" for e in qs)
    oracle_ok = True
    for preset in ("preprojective_a2", "square4"):
        q = build_quiver(preset)
        dims = hom_dimensions(q, manifest.QUIVER_MAX_LEN)
        for a, s in enumerate(q.vertices):
            for b, t in enumerate(q.vertices):
                if _oracle_dim(q, s, t, manifest.QUIVER_MAX_LEN) != dims[a][b]:
                    oracle_ok = False
                if _oracle_degree_dim(q, s, t, manifest.QUIVER_MAX_LEN + 1) != 0:
                    oracle_ok = False
    dt = time.perf_counter() - t0
    ok = suite_ok and oracle_ok and dt <= 5.0
    print("CRITERION 9: %s: preset dimensions and window stability hold and "
          "match the independent rank oracle through degree %d in %.2fs"
          % ("PASS" if ok else "FAIL", manifest.QUIVER_MAX_LEN + 1, dt))
    assert suite_ok
    assert oracle_ok
    assert dt <= 5.0
