"""The default verification suite and its report format.

Each check produces one ReportEntry; a VerificationReport aggregates
them.  Entry order follows the pinned manifest, so two runs on the same
build emit identical reports.  Each suite applies the family filter
itself, so a check for a filtered-out family never runs.  quiver, whose
row reduction loads fractions, is imported only by the quiver suite,
which runs only unfiltered.
"""

from __future__ import annotations

import random

from . import manifest
from .adjusted import brick_decomposition_check, hypercubic_collections
from .atypicality import Emptiness, is_typical, s1_classify
from .characters import (
    MultiplicityQuery,
    kac_flag_constituents,
    total_dimension,
    verma_character,
    weight_multiplicity,
)
from .ecgraph import (
    _as_walk,
    build_reference_graph,
    colored_isomorphic,
    make_walk,
    verify_exchange,
    verify_rainbow_extension,
)
from .numerics import parse_weight, render_weight, zero_weight
from .orgraph import build_or_graph, build_or_lambda, rbtriv_check, walk_hom_oracle
from .rootsys import (
    build_root_system,
    enumerate_borels,
    pure_positive_roots,
    weyl_vector,
)

__all__ = [
    "ReportEntry",
    "VerificationReport",
    "run_suite",
    "suite_iso",
    "suite_exchange",
    "suite_extension",
    "suite_d21",
    "suite_characters",
    "suite_walks",
    "suite_typicality",
    "suite_hypercubic",
    "suite_gl11n_dimensions",
    "suite_quiver",
]


class ReportEntry:
    """One check's outcome, written out by to_json."""

    __slots__ = ("check", "parameters", "status", "payload")

    def __init__(self, check: str, parameters: dict, status: str, payload: dict | None = None):
        self.check = check
        self.parameters = parameters
        self.status = status  # "pass" | "fail" | "skipped"
        self.payload = {} if payload is None else payload

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "parameters": self.parameters,
            "status": self.status,
            "payload": self.payload,
        }


class VerificationReport:
    """The entries of one suite run, in manifest order."""

    __slots__ = ("entries",)

    def __init__(self, entries: list):
        self.entries = entries

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "overall": "pass" if self.passed else "fail",
            "entries": [e.to_json() for e in self.entries],
        }


class _Builds:
    """Per-run cache of root systems, Borel enumerations, and OR graphs."""

    def __init__(self):
        self._cache = {}

    def get(self, family, m, n):
        key = (family, m, n)
        if key not in self._cache:
            rs = build_root_system(family, m, n)
            borels, edges = enumerate_borels(rs)
            og = build_or_graph(rs)
            self._cache[key] = (rs, borels, og)
        return self._cache[key]


def _params(family, m, n, lam_text=None) -> dict:
    out = {"family": family, "m": m, "n": n}
    if lam_text is not None:
        out["lambda"] = lam_text
    return out


def _entry(check, parameters, ok, payload) -> ReportEntry:
    return ReportEntry(check, parameters, "pass" if ok else "fail", payload)


def _walk_payload(w) -> dict:
    return {
        "walk_vertices": [str(v) for v in w.walk_vertices],
        "walk_colors": [str(c) for c in w.walk_colors],
    }


def _want(family_filter, family) -> bool:
    return family_filter is None or family == family_filter


def _grid(builds: _Builds, family_filter=None, keys=None):
    """(row, rs, borels, og) for each LAMBDA_GRID row the filter keeps;
    keys, when given, keeps only the rows whose (family, m, n) it holds,
    so nothing is built for the others."""
    for row in manifest.LAMBDA_GRID:
        if _want(family_filter, row.family) and (
                keys is None or (row.family, row.m, row.n) in keys):
            yield (row, *builds.get(row.family, row.m, row.n))


def suite_iso(builds: _Builds, family=None) -> list:
    entries = []
    for chk in manifest.ISO_SUITE:
        if not _want(family, chk.family):
            continue
        rs, borels, og = builds.get(chk.family, chk.m, chk.n)
        ref = build_reference_graph(chk.reference, chk.m, chk.n)
        n_vertices = len(og.graph.vertices)
        ok = n_vertices == chk.vertices and colored_isomorphic(og.graph, ref) is not None
        entries.append(_entry("reference-iso",
                              _params(chk.family, chk.m, chk.n) | {"reference": chk.reference},
                              ok, {"vertices": n_vertices, "expected": chk.vertices}))
    return entries


def _quotient_graphs(builds: _Builds, family_filter=None):
    """Every OR(g) of the grid, then every OR(g, lambda) at the shifted weight."""
    for family, m, n in manifest.grid_families():
        if _want(family_filter, family):
            yield family, m, n, None, builds.get(family, m, n)[2].graph
    for row, rs, borels, og in _grid(builds, family_filter):
        rho = weyl_vector(rs, borels[0])
        for lam_text in row.weights:
            lam = parse_weight(lam_text, rs.rank)
            quotient = build_or_lambda(rs, og, lam + rho)
            yield row.family, row.m, row.n, lam_text, quotient.graph


def suite_exchange(builds: _Builds, family=None) -> list:
    entries = []
    for fam, m, n, lam_text, graph in _quotient_graphs(builds, family):
        report = verify_exchange(graph)
        payload = {
            "shortest_walks": report.n_shortest_walks,
            "rainbow_walks": report.n_rainbow_walks,
        }
        if not report.passed:
            bad = (report.shortest_not_rainbow + report.rainbow_not_shortest)[0]
            payload["counterexample"] = _walk_payload(bad)
        entries.append(_entry("exchange", _params(fam, m, n, lam_text), report.passed, payload))
    return entries


def suite_extension(builds: _Builds, family=None) -> list:
    entries = []
    for fam, m, n, lam_text, graph in _quotient_graphs(builds, family):
        report = verify_rainbow_extension(graph)
        payload = {"configurations": report.n_configurations}
        if not report.passed:
            w, vertex = report.violations[0]
            payload["counterexample"] = _walk_payload(w) | {"extension_vertex": str(vertex)}
        entries.append(_entry(
            "rainbow-extension", _params(fam, m, n, lam_text), report.passed, payload))
    return entries


def suite_d21(builds: _Builds, family=None) -> list:
    if not _want(family, "d21alpha"):
        return []
    rs, borels, og = builds.get("d21alpha", None, None)
    p = _params("d21alpha", None, None)
    n_vertices = len(og.graph.vertices)
    degrees = sorted(og.graph.degree(v) for v in og.graph.vertices)
    rho1 = weyl_vector(rs, borels[0])
    rho3 = weyl_vector(rs, borels[1])
    pure, _ = pure_positive_roots(rs, borels)
    names = sorted(rs.root_name(r) for r in pure)
    return [
        _entry("d21-tree-shape", p,
               n_vertices == 4 and len(og.graph.edges) == 3 and degrees == [1, 1, 1, 3],
               {"vertices": n_vertices, "degrees": degrees}),
        _entry("d21-rho-b1", p, rho1 == parse_weight("-1,1,1", 3), {"rho": render_weight(rho1)}),
        _entry("d21-rho-b3", p, rho3 == zero_weight(3), {"rho": render_weight(rho3)}),
        _entry("d21-pure-roots", p, names == ["2d", "2e1", "2e2", "d+e1+e2"], {"pure": names}),
    ]


def suite_characters(builds: _Builds, family=None) -> list:
    """All-Borel numerator agreement and the multiplicity-one check, decided
    once per family at lam = 0: lam translates every numerator by e^lam and
    cancels from base - target."""
    entries = []
    for row, rs, borels, og in _grid(builds, family):
        # the top of M^b(-rho_b)
        tops = [-weyl_vector(rs, b) for b in borels]
        chars = [verma_character(rs, b.odd_positive, top) for b, top in zip(borels, tops)]
        agree = all(chars[0] == ch for ch in chars[1:])
        # the multiplicity of -rho in M^b2(-rho2)
        frees = [frozenset(rs.negate(r) for r in b2.odd_positive) for b2 in borels]
        mult_ok = all(weight_multiplicity(rs, MultiplicityQuery(free, top2, top)) == 1
                      for free, top2 in zip(frees, tops) for top in tops)
        for lam_text in row.weights:
            entries.append(_entry("character-agreement",
                                  _params(row.family, row.m, row.n, lam_text), agree and mult_ok,
                                  {"borels": len(borels), "terms": len(chars[0].terms)}))
    return entries


def _projection_nonzero(quotient, walk) -> bool:
    """Independent zero test: the projected walk is shortest in the
    quotient, by the distances of the quotient graph's walk index."""
    vmap, g = quotient.vertex_map, quotient.graph
    surviving = sum(
        1
        for a, b in zip(walk.walk_vertices, walk.walk_vertices[1:])
        if vmap[a] != vmap[b]
    )
    start = g._vindex[vmap[walk.walk_vertices[0]]]
    end = g._vindex[vmap[walk.walk_vertices[-1]]]
    return surviving == g._walk_index.dist[start][end]


def _geodesic_walks(graph):
    """One BFS-shortest walk per ordered vertex pair: the path to v in the
    BFS tree from u that the graph's walk index keeps."""
    ix = graph._walk_index
    for u, (du, up) in enumerate(zip(ix.dist, ix.parent)):
        for v, d in enumerate(du):
            if d <= 0:
                continue
            path = [v]
            for _ in range(d):
                path.append(up[path[-1]])
            path.reverse()
            bits = [next(b for z, b in ix.adj[x] if z == y)
                    for x, y in zip(path, path[1:])]
            yield _as_walk(graph, ix, path, bits)


def suite_walks(builds: _Builds, family=None) -> list:
    """walk_hom_oracle against the independent shortest-walk test."""
    entries = []
    for row, rs, borels, og in _grid(builds, family):
        rho = weyl_vector(rs, borels[0])
        # the walks depend on the family only, not on lambda; the rows are
        # distinct, so the seed is the row's index in the unfiltered grid
        # and a family filter draws the same walks
        walks = list(_geodesic_walks(og.graph))
        rng = random.Random(manifest.WALK_SEED + manifest.LAMBDA_GRID.index(row))
        verts = list(og.graph.vertices)
        for _ in range(manifest.WALKS_PER_PAIR):
            at = rng.choice(verts)
            path = [at]
            for _ in range(rng.randrange(1, 9)):
                nbrs = og.graph.neighbors(at)
                if not nbrs:
                    break
                at, _c = rng.choice(sorted(nbrs, key=str))
                path.append(at)
            walks.append(make_walk(og.graph, path))
        for lam_text in row.weights:
            lam = parse_weight(lam_text, rs.rank) + rho
            quotient = build_or_lambda(rs, og, lam)
            mismatch = None
            for w in walks:
                got = walk_hom_oracle(rs, og, lam, w).nonzero
                want = _projection_nonzero(quotient, w)
                if got != want and mismatch is None:
                    mismatch = _walk_payload(w) | {"oracle": got, "shortest": want}
            payload = {"walks": len(walks)}
            if mismatch:
                payload["counterexample"] = mismatch
            entries.append(_entry("walk-consistency",
                                  _params(row.family, row.m, row.n, lam_text),
                                  mismatch is None, payload))
    return entries


def suite_typicality(builds: _Builds, family=None) -> list:
    """Typicality, trivial quotient, and S1 emptiness agree where decided."""
    entries = []
    for row, rs, borels, og in _grid(builds, family):
        decided = rs.type_one or rs.family == "d21alpha"
        b = borels[0]
        rho = weyl_vector(rs, b)
        for lam_text in row.weights:
            params = _params(row.family, row.m, row.n, lam_text)
            if not decided:
                entries.append(ReportEntry("typicality-equivalence", params, "skipped", {
                    "reason": "no unconditional emptiness criterion for this family"}))
                continue
            lam = parse_weight(lam_text, rs.rank)
            typical = is_typical(rs, b, lam)
            verdict = s1_classify(rs, b, lam).emptiness_verdict
            ok = typical == (verdict == Emptiness.EMPTY)
            payload = {"typical": typical, "emptiness": verdict.value}
            if rs.type_one:
                trivial = rbtriv_check(rs, og, lam + rho)
                ok = ok and trivial == typical
                payload["trivial_quotient"] = trivial
            entries.append(_entry("typicality-equivalence", params, ok, payload))
    return entries


_HYPERCUBIC_KEYS = (
    ("gl11n", None, 1),
    ("gl11n", None, 2),
    ("gl11n", None, 3),
    ("gl", 2, 2),
    ("gl", 3, 2),
)


def suite_hypercubic(builds: _Builds, family=None) -> list:
    entries = []
    for row, rs, borels, og in _grid(builds, family, _HYPERCUBIC_KEYS):
        for lam_text in row.weights:
            lam = parse_weight(lam_text, rs.rank)
            verdicts = [brick_decomposition_check(rs, b, lam, coll)
                        for b in borels for coll in hypercubic_collections(rs, b, lam)
                        if len(coll.j) <= 3]
            entries.append(_entry("brick-decomposition",
                                  _params(row.family, row.m, row.n, lam_text),
                                  all(verdicts), {"collections": len(verdicts)}))

    if not _want(family, "gl"):
        return entries
    rs, borels, og = builds.get("gl", 2, 1)
    flag = kac_flag_constituents(rs, borels[0], zero_weight(3))
    names = [render_weight(w) for w in flag]
    ok = len(names) == 4 and set(names) == {"0,0,0", "1,0,-1", "0,1,-1", "1,1,-2"}
    entries.append(_entry("kac-flag", _params("gl", 2, 1, "0,0,0"), ok, {"constituents": names}))
    return entries


def suite_gl11n_dimensions(builds: _Builds, family=None) -> list:
    if not _want(family, "gl11n"):
        return []
    entries = []
    for n in range(1, 6):
        rs, borels, og = builds.get("gl11n", None, n)
        lam = zero_weight(rs.rank)
        dims_ok = all(
            total_dimension(verma_character(rs, set(b.odd_positive), lam), rs) == 2 ** n
            for b in borels
        )
        whole = total_dimension(verma_character(rs, set(rs.delta1), lam), rs)
        entries.append(_entry(
            "gl11n-dimensions", _params("gl11n", None, n),
            dims_ok and whole == 1 and len(borels) == 2 ** n,
            {"borels": len(borels), "verma_dim": 2 ** n, "whole_algebra_dim": whole}))
    return entries


def suite_quiver(builds: _Builds, family=None) -> list:
    if family is not None:
        return []
    from .quiver import build_quiver, hom_dimensions, word_normal_form

    dims = hom_dimensions(build_quiver("preprojective_a2"), manifest.QUIVER_MAX_LEN)

    win = {}
    for w in (3, 4):
        qz = build_quiver("zigzag_window", w)
        dz = hom_dimensions(qz, manifest.QUIVER_MAX_LEN)
        idx = {v: k for k, v in enumerate(qz.vertices)}
        win[w] = {(i, j): dz[idx[i]][idx[j]] for i in (-1, 0, 1) for j in (-1, 0, 1)}
    # the interior is the same in both windows: 2 on the diagonal, 1 next to it, 0 beyond
    zigzag_ok = win[3] == win[4] and all(
        d == (2 if i == j else (1 if abs(i - j) == 1 else 0)) for (i, j), d in win[3].items()
    )

    q4 = build_quiver("square4")
    sound = all(word_normal_form(q4, z) == {} for z in q4.zero_relations) and all(
        word_normal_form(q4, lhs) == word_normal_form(q4, rhs)
        for lhs, rhs in q4.commutation_relations
    )
    return [
        _entry("quiver-preprojective", {"preset": "preprojective_a2"},
               dims == [[1, 1], [1, 1]], {"total_dimension": sum(map(sum, dims))}),
        _entry("quiver-zigzag-window", {"preset": "zigzag_window", "windows": [3, 4]},
               zigzag_ok, {"interior": {"diagonal": 2, "adjacent": 1, "far": 0}}),
        _entry("quiver-square4-soundness", {"preset": "square4"}, sound,
               {"zero_relations": len(q4.zero_relations),
                "commutation_relations": len(q4.commutation_relations)}),
    ]


_SUITES = (
    ("iso", suite_iso),
    ("exchange", suite_exchange),
    ("extension", suite_extension),
    ("d21", suite_d21),
    ("characters", suite_characters),
    ("walks", suite_walks),
    ("typicality", suite_typicality),
    ("hypercubic", suite_hypercubic),
    ("gl11n-dimensions", suite_gl11n_dimensions),
    ("quiver", suite_quiver),
)


def run_suite(mode: str = "all", family: str | None = None) -> VerificationReport:
    """Run one verification mode ("exchange", "extension", "iso", or "all").

    family, when given, restricts the report to entries for that family.
    Each suite applies the filter itself, so a check for another family
    never runs; checks without a family parameter (the quiver presets)
    run only unfiltered.
    """
    selected = [fn for name, fn in _SUITES if mode in ("all", name)]
    if not selected:
        raise ValueError("unknown verify mode: %r" % mode)
    builds = _Builds()
    return VerificationReport([e for fn in selected for e in fn(builds, family)])
