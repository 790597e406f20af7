"""The default verification suite and its report format.

Each check produces one ReportEntry; a VerificationReport aggregates
them.  Entry order follows the pinned manifest, so two runs on the same
build emit identical reports.
"""

from __future__ import annotations

import random

from . import manifest
from .adjusted import brick_decomposition_check, hypercubic_collections
from .atypicality import Emptiness, is_typical, s1_classify
from .characters import (
    MultiplicityQuery,
    characters_equal,
    kac_flag_constituents,
    total_dimension,
    verma_character,
    weight_multiplicity,
)
from .ecgraph import (
    bfs_distances,
    build_reference_graph,
    colored_isomorphic,
    make_walk,
    verify_exchange,
    verify_rainbow_extension,
)
from .numerics import parse_weight, render_weight, zero_weight
from .orgraph import build_or_graph, build_or_lambda, rbtriv_check, walk_hom_oracle
from .quiver import build_quiver, hom_dimensions, word_normal_form
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
    """One check's outcome; entries with equal fields are equal."""

    __slots__ = ("check", "parameters", "status", "payload")

    def __init__(self, check: str, parameters: dict, status: str, payload: dict | None = None):
        self.check = check
        self.parameters = parameters
        self.status = status  # "pass" | "fail" | "skipped"
        self.payload = {} if payload is None else payload

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_json() == other.to_json()

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "parameters": self.parameters,
            "status": self.status,
            "payload": self.payload,
        }


class VerificationReport:
    """The entries of one suite run, in manifest order; reports with equal
    entries are equal."""

    __slots__ = ("entries",)

    def __init__(self, entries: list):
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

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


def _walk_payload(w) -> dict:
    return {
        "walk_vertices": [str(v) for v in w.walk_vertices],
        "walk_colors": [str(c) for c in w.walk_colors],
    }


def _want(family_filter, family) -> bool:
    return family_filter is None or family == family_filter


def suite_iso(builds: _Builds, family=None) -> list:
    entries = []
    for chk in manifest.ISO_SUITE:
        if not _want(family, chk.family):
            continue
        rs, borels, og = builds.get(chk.family, chk.m, chk.n)
        ref = build_reference_graph(chk.reference, chk.m, chk.n)
        count_ok = len(og.graph.vertices) == chk.vertices
        witness = colored_isomorphic(og.graph, ref)
        ok = count_ok and witness is not None
        entries.append(ReportEntry(
            check="reference-iso",
            parameters=_params(chk.family, chk.m, chk.n) | {"reference": chk.reference},
            status="pass" if ok else "fail",
            payload={"vertices": len(og.graph.vertices), "expected": chk.vertices},
        ))
    return entries


def _quotient_graphs(builds: _Builds, family_filter=None):
    """Every OR(g) of the grid, then every OR(g, lambda) at the shifted weight."""
    for family, m, n in manifest.grid_families():
        if not _want(family_filter, family):
            continue
        rs, borels, og = builds.get(family, m, n)
        yield family, m, n, None, og.graph
    for entry in manifest.LAMBDA_GRID:
        if not _want(family_filter, entry.family):
            continue
        rs, borels, og = builds.get(entry.family, entry.m, entry.n)
        rho = weyl_vector(rs, borels[0])
        for lam_text in entry.weights:
            lam = parse_weight(lam_text, rs.rank)
            quotient = build_or_lambda(rs, og, lam + rho)
            yield entry.family, entry.m, entry.n, lam_text, quotient.graph


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
        entries.append(ReportEntry(
            check="exchange",
            parameters=_params(fam, m, n, lam_text),
            status="pass" if report.passed else "fail",
            payload=payload,
        ))
    return entries


def suite_extension(builds: _Builds, family=None) -> list:
    entries = []
    for fam, m, n, lam_text, graph in _quotient_graphs(builds, family):
        report = verify_rainbow_extension(graph)
        payload = {"configurations": report.n_configurations}
        if not report.passed:
            w, vertex = report.violations[0]
            payload["counterexample"] = _walk_payload(w) | {"extension_vertex": str(vertex)}
        entries.append(ReportEntry(
            check="rainbow-extension",
            parameters=_params(fam, m, n, lam_text),
            status="pass" if report.passed else "fail",
            payload=payload,
        ))
    return entries


def suite_d21(builds: _Builds, family=None) -> list:
    if not _want(family, "d21alpha"):
        return []
    rs, borels, og = builds.get("d21alpha", None, None)
    entries = []
    p = _params("d21alpha", None, None)

    degrees = sorted(og.graph.degree(v) for v in og.graph.vertices)
    tree_ok = (
        len(og.graph.vertices) == 4
        and len(og.graph.edges) == 3
        and degrees == [1, 1, 1, 3]
    )
    entries.append(ReportEntry(
        check="d21-tree-shape",
        parameters=p,
        status="pass" if tree_ok else "fail",
        payload={"vertices": len(og.graph.vertices), "degrees": degrees},
    ))

    rho1 = weyl_vector(rs, borels[0])
    ok1 = rho1 == parse_weight("-1,1,1", 3)
    entries.append(ReportEntry(
        check="d21-rho-b1",
        parameters=p,
        status="pass" if ok1 else "fail",
        payload={"rho": render_weight(rho1)},
    ))

    rho3 = weyl_vector(rs, borels[1])
    ok3 = rho3 == zero_weight(3)
    entries.append(ReportEntry(
        check="d21-rho-b3",
        parameters=p,
        status="pass" if ok3 else "fail",
        payload={"rho": render_weight(rho3)},
    ))

    pure, _ = pure_positive_roots(rs, borels)
    names = sorted(rs.root_name(r) for r in pure)
    ok_pure = names == ["2d", "2e1", "2e2", "d+e1+e2"]
    entries.append(ReportEntry(
        check="d21-pure-roots",
        parameters=p,
        status="pass" if ok_pure else "fail",
        payload={"pure": names},
    ))
    return entries


def suite_characters(builds: _Builds, family=None) -> list:
    """All-Borel numerator agreement and the multiplicity-one check, decided
    once per family at lam = 0: lam translates every numerator by e^lam and
    cancels from base - target."""
    entries = []
    for entry in manifest.LAMBDA_GRID:
        if not _want(family, entry.family):
            continue
        rs, borels, og = builds.get(entry.family, entry.m, entry.n)
        # the top of M^b(-rho_b)
        tops = [-weyl_vector(rs, b) for b in borels]
        chars = [verma_character(rs, b.odd_positive, top) for b, top in zip(borels, tops)]
        agree = all(characters_equal(chars[0], ch) for ch in chars[1:])
        # the multiplicity of -rho in M^b2(-rho2)
        frees = [frozenset(rs.negate(r) for r in b2.odd_positive) for b2 in borels]
        mult_ok = all(weight_multiplicity(rs, MultiplicityQuery(free, top2, top)) == 1
                      for free, top2 in zip(frees, tops) for top in tops)
        for lam_text in entry.weights:
            entries.append(ReportEntry(
                check="character-agreement",
                parameters=_params(entry.family, entry.m, entry.n, lam_text),
                status="pass" if agree and mult_ok else "fail",
                payload={"borels": len(borels), "terms": len(chars[0].terms)},
            ))
    return entries


def _projection_nonzero(quotient, walk) -> bool:
    """Independent zero test: the projected walk is shortest in the quotient."""
    vmap = quotient.vertex_map
    surviving = sum(
        1
        for a, b in zip(walk.walk_vertices, walk.walk_vertices[1:])
        if vmap[a] != vmap[b]
    )
    dist = bfs_distances(quotient.graph, vmap[walk.walk_vertices[0]])
    return surviving == dist[vmap[walk.walk_vertices[-1]]]


def _geodesic_walks(graph):
    """One BFS-shortest walk per ordered vertex pair."""
    for u in graph.vertices:
        parent = {u: None}
        order = [u]
        k = 0
        while k < len(order):
            x = order[k]
            k += 1
            for y, c in graph.neighbors(x):
                if y not in parent:
                    parent[y] = (x, c)
                    order.append(y)
        for v in graph.vertices:
            if v == u:
                continue
            verts = [v]
            colors = []
            x = v
            while parent[x] is not None:
                x, c = parent[x]
                verts.append(x)
                colors.append(c)
            verts.reverse()
            colors.reverse()
            yield make_walk(graph, verts, colors)


def suite_walks(builds: _Builds, family=None) -> list:
    """walk_hom_oracle against the independent shortest-walk test."""
    entries = []
    for idx, entry in enumerate(manifest.LAMBDA_GRID):
        if not _want(family, entry.family):
            continue
        rs, borels, og = builds.get(entry.family, entry.m, entry.n)
        rho = weyl_vector(rs, borels[0])
        # the walks depend on the family only, not on lambda
        walks = list(_geodesic_walks(og.graph))
        rng = random.Random(manifest.WALK_SEED + idx)
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
        for lam_text in entry.weights:
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
            entries.append(ReportEntry(
                check="walk-consistency",
                parameters=_params(entry.family, entry.m, entry.n, lam_text),
                status="pass" if mismatch is None else "fail",
                payload=payload,
            ))
    return entries


def suite_typicality(builds: _Builds, family=None) -> list:
    """Typicality, trivial quotient, and S1 emptiness agree where decided."""
    entries = []
    for entry in manifest.LAMBDA_GRID:
        if not _want(family, entry.family):
            continue
        rs, borels, og = builds.get(entry.family, entry.m, entry.n)
        b = borels[0]
        rho = weyl_vector(rs, b)
        for lam_text in entry.weights:
            lam = parse_weight(lam_text, rs.rank)
            params = _params(entry.family, entry.m, entry.n, lam_text)
            typical = is_typical(rs, b, lam)
            verdict = s1_classify(rs, b, lam).emptiness_verdict
            if rs.type_one:
                trivial = rbtriv_check(rs, og, lam + rho)
                ok = typical == trivial == (verdict == Emptiness.EMPTY)
                entries.append(ReportEntry(
                    check="typicality-equivalence",
                    parameters=params,
                    status="pass" if ok else "fail",
                    payload={
                        "typical": typical,
                        "trivial_quotient": trivial,
                        "emptiness": verdict.value,
                    },
                ))
            elif rs.family == "d21alpha":
                ok = typical == (verdict == Emptiness.EMPTY)
                entries.append(ReportEntry(
                    check="typicality-equivalence",
                    parameters=params,
                    status="pass" if ok else "fail",
                    payload={"typical": typical, "emptiness": verdict.value},
                ))
            else:
                entries.append(ReportEntry(
                    check="typicality-equivalence",
                    parameters=params,
                    status="skipped",
                    payload={"reason": "no unconditional emptiness criterion for this family"},
                ))
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
    for entry in manifest.LAMBDA_GRID:
        if (entry.family, entry.m, entry.n) not in _HYPERCUBIC_KEYS:
            continue
        if not _want(family, entry.family):
            continue
        rs, borels, og = builds.get(entry.family, entry.m, entry.n)
        for lam_text in entry.weights:
            lam = parse_weight(lam_text, rs.rank)
            checked = 0
            ok = True
            for b in borels:
                for coll in hypercubic_collections(rs, b, lam):
                    if len(coll.j) > 3:
                        continue
                    if not brick_decomposition_check(rs, b, lam, coll):
                        ok = False
                    checked += 1
            entries.append(ReportEntry(
                check="brick-decomposition",
                parameters=_params(entry.family, entry.m, entry.n, lam_text),
                status="pass" if ok else "fail",
                payload={"collections": checked},
            ))

    if not _want(family, "gl"):
        return entries
    rs, borels, og = builds.get("gl", 2, 1)
    b = borels[0]
    flag = kac_flag_constituents(rs, b, zero_weight(3))
    names = [render_weight(w) for w in flag]
    want = {"0,0,0", "1,0,-1", "0,1,-1", "1,1,-2"}
    ok = len(names) == 4 and set(names) == want
    entries.append(ReportEntry(
        check="kac-flag",
        parameters=_params("gl", 2, 1, "0,0,0"),
        status="pass" if ok else "fail",
        payload={"constituents": names},
    ))
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
        ok = dims_ok and whole == 1 and len(borels) == 2 ** n
        entries.append(ReportEntry(
            check="gl11n-dimensions",
            parameters=_params("gl11n", None, n),
            status="pass" if ok else "fail",
            payload={"borels": len(borels), "verma_dim": 2 ** n, "whole_algebra_dim": whole},
        ))
    return entries


def suite_quiver(builds: _Builds, family=None) -> list:
    if family is not None:
        return []
    entries = []
    q = build_quiver("preprojective_a2")
    dims = hom_dimensions(q, manifest.QUIVER_MAX_LEN)
    ok = dims == [[1, 1], [1, 1]]
    entries.append(ReportEntry(
        check="quiver-preprojective",
        parameters={"preset": "preprojective_a2"},
        status="pass" if ok else "fail",
        payload={"total_dimension": sum(map(sum, dims))},
    ))

    stable = True
    values_ok = True
    win = {}
    for w in (3, 4):
        qz = build_quiver("zigzag_window", w)
        dz = hom_dimensions(qz, manifest.QUIVER_MAX_LEN)
        idx = {v: k for k, v in enumerate(qz.vertices)}
        win[w] = {(i, j): dz[idx[i]][idx[j]] for i in (-1, 0, 1) for j in (-1, 0, 1)}
    for (i, j), d in win[3].items():
        if d != win[4][(i, j)]:
            stable = False
        want = 2 if i == j else (1 if abs(i - j) == 1 else 0)
        if d != want:
            values_ok = False
    entries.append(ReportEntry(
        check="quiver-zigzag-window",
        parameters={"preset": "zigzag_window", "windows": [3, 4]},
        status="pass" if (stable and values_ok) else "fail",
        payload={"interior": {"diagonal": 2, "adjacent": 1, "far": 0}},
    ))

    q4 = build_quiver("square4")
    sound = all(word_normal_form(q4, z) == {} for z in q4.zero_relations) and all(
        word_normal_form(q4, lhs) == word_normal_form(q4, rhs)
        for lhs, rhs in q4.commutation_relations
    )
    entries.append(ReportEntry(
        check="quiver-square4-soundness",
        parameters={"preset": "square4"},
        status="pass" if sound else "fail",
        payload={"zero_relations": len(q4.zero_relations),
                 "commutation_relations": len(q4.commutation_relations)},
    ))
    return entries


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

    family, when given, restricts the report to entries for that family;
    checks without a family parameter are dropped by the filter.
    """
    builds = _Builds()
    if mode == "all":
        selected = [fn for _, fn in _SUITES]
    else:
        matches = [fn for name, fn in _SUITES if name == mode]
        if not matches:
            raise ValueError("unknown verify mode: %r" % mode)
        selected = matches
    entries = []
    for fn in selected:
        entries.extend(fn(builds, family))
    if family is not None:
        entries = [e for e in entries if e.parameters.get("family") == family]
    return VerificationReport(entries)
