"""Report plumbing and the cheap verification suites.

The heavy suites (characters, walks, typicality, hypercubic) are checked
in the acceptance tests; here we exercise the fast ones, the report
format, the family filter that every suite applies itself, and the
typicality suite's skip and fault paths.
"""

import hashlib
import json
import operator
from pathlib import Path

import pytest

from ortk import manifest, verify
from ortk.characters import NumeratorCharacter
from ortk.ecgraph import ColoredGraph
from ortk.rootsys import standard_borel
from ortk.verify import ReportEntry, VerificationReport, run_suite

from oracles import is_shortest

# the number of grid weights
GRID_SIZE = sum(len(entry.weights) for entry in manifest.LAMBDA_GRID)


def test_iso_suite_passes_with_expected_counts():
    report = run_suite("iso")
    assert len(report.entries) == len(manifest.ISO_SUITE)
    assert report.passed
    got = [(e.parameters["family"], e.parameters["m"], e.parameters["n"])
           for e in report.entries]
    want = [(c.family, c.m, c.n) for c in manifest.ISO_SUITE]
    assert got == want
    for e in report.entries:
        assert e.payload["vertices"] == e.payload["expected"]


def test_exchange_and_extension_cover_the_grid():
    ex = run_suite("exchange")
    xt = run_suite("extension")
    n_expected = len(manifest.grid_families()) + GRID_SIZE
    assert len(ex.entries) == n_expected
    assert len(xt.entries) == n_expected
    assert ex.passed and xt.passed
    assert all(e.check == "exchange" for e in ex.entries)
    assert all(e.check == "rainbow-extension" for e in xt.entries)
    # OR(g) rows come first, without a lambda parameter
    n_families = len(manifest.grid_families())
    assert all("lambda" not in e.parameters for e in ex.entries[:n_families])
    assert all("lambda" in e.parameters for e in ex.entries[n_families:])


def test_family_filter():
    report = run_suite("iso", "gl")
    assert len(report.entries) == 5
    assert all(e.parameters["family"] == "gl" for e in report.entries)
    report = run_suite("exchange", "d21alpha")
    assert len(report.entries) == 1 + 4
    assert report.passed


FAMILIES = ("gl", "gl11n", "ospB", "ospD", "d21alpha")
GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_all.json"


@pytest.mark.parametrize("name", [name for name, _ in verify._SUITES])
def test_each_suite_applies_the_family_filter(name):
    # run_suite does not filter what the suites return, so a filtered run
    # must give exactly the unfiltered run's entries for that family
    full = run_suite(name).entries
    for fam in FAMILIES:
        want = [e.to_json() for e in full if e.parameters.get("family") == fam]
        assert [e.to_json() for e in run_suite(name, fam).entries] == want, fam


def test_filtered_all_matches_the_golden_report():
    golden = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))["entries"]
    counts = {}
    for fam in FAMILIES:
        got = [e.to_json() for e in run_suite("all", fam).entries]
        assert got == [e for e in golden if e["parameters"].get("family") == fam], fam
        counts[fam] = len(got)
    assert counts == {"gl": 118, "gl11n": 76, "ospB": 65, "ospD": 34, "d21alpha": 26}


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_report_json_shape():
    report = run_suite("exchange", "gl11n")
    data = report.to_json()
    assert data["schema"] == 1
    assert data["overall"] == "pass"
    assert len(data["entries"]) == len(report.entries)
    for row in data["entries"]:
        assert set(row) == {"check", "parameters", "status", "payload"}
        assert row["status"] in ("pass", "fail", "skipped")
    # serializable with sorted keys, byte-identical across runs
    text1 = json.dumps(data, sort_keys=True)
    text2 = json.dumps(run_suite("exchange", "gl11n").to_json(), sort_keys=True)
    assert text1 == text2


def test_overall_fail_logic():
    good = ReportEntry("x", {}, "pass")
    skip = ReportEntry("y", {}, "skipped")
    bad = ReportEntry("z", {}, "fail", {"why": "synthetic"})
    assert VerificationReport([good, skip]).passed
    r = VerificationReport([good, bad])
    assert not r.passed
    assert r.to_json()["overall"] == "fail"


def test_d21_worked_example_entries():
    report = run_suite("all", "d21alpha")
    assert report.passed
    by_check = {e.check: e for e in report.entries}
    assert by_check["d21-rho-b3"].payload["rho"] == "0,0,0"
    assert by_check["d21-rho-b1"].payload["rho"] == "-1,1,1"
    assert by_check["d21-pure-roots"].payload["pure"] == [
        "2d", "2e1", "2e2", "d+e1+e2"]
    assert by_check["d21-tree-shape"].payload["degrees"] == [1, 1, 1, 3]


# -- the characters suite decides each family once: a planted fault in one
# family must fail every grid weight of that family and no other -------------


def planted_in(rs):
    # gl(2|2) is the only gl family of rank 4 on the grid
    return rs.family == "gl" and rs.rank == 4


def assert_only_gl22_fails(report):
    assert len(report.entries) == GRID_SIZE
    for e in report.entries:
        p = e.parameters
        faulty = (p["family"], p["m"], p["n"]) == ("gl", 2, 2)
        assert e.status == ("fail" if faulty else "pass"), p
    assert sum(e.status == "fail" for e in report.entries) == 5


def test_characters_multiplicity_fault_fails_its_whole_family(monkeypatch):
    # every multiplicity of the suite is one weight_multiplicity query
    real = verify.weight_multiplicity

    def planted(rs, q):
        return 2 if planted_in(rs) else real(rs, q)

    monkeypatch.setattr(verify, "weight_multiplicity", planted)
    assert_only_gl22_fails(run_suite("characters"))


def test_characters_numerator_fault_fails_its_whole_family(monkeypatch):
    real = verify.verma_character

    def planted(rs, delta_a, lam):
        ch = real(rs, delta_a, lam)
        if planted_in(rs) and set(delta_a) == set(standard_borel(rs).odd_positive):
            return NumeratorCharacter({**ch.terms, lam: ch.terms.get(lam, 0) + 1})
        return ch

    monkeypatch.setattr(verify, "verma_character", planted)
    assert_only_gl22_fails(run_suite("characters"))


# -- the typicality suite decides "skipped" before it asks is_typical or
# s1_classify, and a wrong typicality verdict fails every decided weight ----

UNDECIDED = {("ospB", 1, 1), ("ospB", 2, 1), ("ospB", 2, 2), ("ospD", 2, 2)}
SKIP_REASON = "no unconditional emptiness criterion for this family"


def count_calls(monkeypatch, name, wrap=None):
    """Replace verify.<name> by a wrapper that records each call's system
    as (family, *params) and passes the result through wrap."""
    real = getattr(verify, name)
    calls = []

    def counted(rs, b, lam):
        calls.append((rs.family, *rs.params))
        out = real(rs, b, lam)
        return out if wrap is None else wrap(out)

    monkeypatch.setattr(verify, name, counted)
    return calls


def row_key(entry):
    p = entry.parameters
    return p["family"], p["m"], p["n"]


def test_typicality_skips_undecided_families_without_deciding_them(monkeypatch):
    typical_calls = count_calls(monkeypatch, "is_typical")
    s1_calls = count_calls(monkeypatch, "s1_classify")
    entries = run_suite("typicality").entries
    skipped = [e for e in entries if row_key(e) in UNDECIDED]
    assert len(skipped) == 14
    for e in skipped:
        assert e.status == "skipped" and e.payload == {"reason": SKIP_REASON}, e.parameters
    assert all(e.status == "pass" for e in entries if row_key(e) not in UNDECIDED)
    assert len(typical_calls) == len(s1_calls) == 36
    assert not any(key in UNDECIDED for key in typical_calls + s1_calls)


def test_typicality_fault_fails_every_decided_weight(monkeypatch):
    count_calls(monkeypatch, "is_typical", wrap=operator.not_)
    entries = run_suite("typicality").entries
    statuses = [(row_key(e) in UNDECIDED, e.status) for e in entries]
    assert statuses.count((False, "fail")) == 36
    assert statuses.count((True, "skipped")) == 14
    assert len(statuses) == 50


# -- the hypercubic suite builds only its rows -----------------------------------


def test_hypercubic_builds_only_its_rows(monkeypatch):
    # its five grid rows, then gl(2|1) for kac-flag; no other grid family
    real = verify.build_root_system
    built = []

    def counted(family, m, n):
        built.append((family, m, n))
        return real(family, m, n)

    monkeypatch.setattr(verify, "build_root_system", counted)
    assert run_suite("hypercubic").passed
    assert built == [("gl", 2, 2), ("gl", 3, 2), ("gl11n", None, 1), ("gl11n", None, 2),
                     ("gl11n", None, 3), ("gl", 2, 1)]


# -- the walks suite draws the pinned walks ---------------------------------------

# the first 16 hex digits of a sha256 of the vertex sequences of the walks
# that each grid row's entries check: one BFS geodesic per ordered vertex
# pair, then WALKS_PER_PAIR random walks seeded by WALK_SEED plus the row's
# index in the unfiltered grid
WALK_DIGESTS = {
    ("gl", 1, 1): "63f8b62c72058e71",
    ("gl", 2, 1): "542a2f7e999d59eb",
    ("gl", 2, 2): "4cc8a18a34c166be",
    ("gl", 3, 2): "6b28c421b1d7ac7d",
    ("gl11n", None, 1): "38bf7486b785b21c",
    ("gl11n", None, 2): "52678216ee6cd0fc",
    ("gl11n", None, 3): "b1d037b848503aa0",
    ("ospB", 1, 1): "f8aab225d01e8305",
    ("ospB", 2, 1): "73405af2fd7e25f6",
    ("ospB", 2, 2): "ff026389e3cdf18a",
    ("ospD", 1, 2): "c058cb5982d85020",
    ("ospD", 2, 2): "181f1a4abeb183d6",
    ("d21alpha", None, None): "fcd05b25ed26d9d2",
}


def drawn_walk_digests(monkeypatch, family=None) -> dict:
    """Run the walks suite with verify.walk_hom_oracle recording each walk;
    every weight of a row must see the same walks, and each row maps to the
    digest of that list."""
    real = verify.walk_hom_oracle
    seen = {}

    def recording(rs, og, lam, w):
        seen.setdefault(og, {}).setdefault(lam, []).append(w.walk_vertices)
        return real(rs, og, lam, w)

    monkeypatch.setattr(verify, "walk_hom_oracle", recording)
    assert run_suite("walks", family).passed
    rows = [(r.family, r.m, r.n) for r in manifest.LAMBDA_GRID if family in (None, r.family)]
    assert len(seen) == len(rows)
    digests = {}
    for row, by_lam in zip(rows, seen.values()):
        walks = next(iter(by_lam.values()))
        assert all(other == walks for other in by_lam.values()), row
        text = "\n".join(",".join(map(str, vertices)) for vertices in walks)
        digests[row] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return digests


def test_geodesic_walks_follow_the_first_edge_the_bfs_crossed():
    # one walk per ordered pair, sources and targets in vertex order; a
    # step between parallel edges takes the first in adjacency order
    g = ColoredGraph("abcd", "xyzw", (("a", "b", "y"), ("a", "b", "x"),
                                      ("b", "c", "z"), ("a", "d", "w"), ("c", "d", "x")))
    walks = list(verify._geodesic_walks(g))
    assert [(w.walk_vertices[0], w.walk_vertices[-1]) for w in walks] == [
        (u, v) for u in "abcd" for v in "abcd" if u != v]
    assert all(is_shortest(g, w) for w in walks)
    assert all(w.walk_colors == tuple(g.edge_colors(a, b)[0] for a, b in
                                      zip(w.walk_vertices, w.walk_vertices[1:]))
               for w in walks)
    assert walks[0].walk_colors == ("x",)
    assert walks[1].walk_vertices == ("a", "b", "c")


def test_walks_suite_draws_the_pinned_walks(monkeypatch):
    assert drawn_walk_digests(monkeypatch) == WALK_DIGESTS
    # a family filter draws the same walks: the seed is the unfiltered index
    gl11n = drawn_walk_digests(monkeypatch, "gl11n")
    assert gl11n == {row: d for row, d in WALK_DIGESTS.items() if row[0] == "gl11n"}
