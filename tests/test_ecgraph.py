"""Edge-colored graph machinery."""

import itertools
import json
import random
from array import array
from math import factorial

import pytest

from hypothesis import given, settings, strategies as st

from ortk import ecgraph, manifest
from ortk.ecgraph import (
    ColoredGraph,
    DisconnectedEndpoints,
    ExchangeReport,
    ExtensionReport,
    InvalidWalk,
    Walk,
    build_reference_graph,
    colored_isomorphic,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_walk,
    quotient_by_colors,
    verify_exchange,
    verify_rainbow_extension,
)
from ortk.numerics import parse_weight
from ortk.orgraph import build_or_graph, build_or_lambda
from ortk.rootsys import build_root_system

from oracles import (
    bfs_distances,
    inverse_witness,
    is_color_isomorphism,
    is_rainbow,
    is_shortest,
    ref_quotient,
    state_loop_extension,
    structure,
)


def path_graph(labels, colors):
    """Path with one edge per consecutive pair, colored as given."""
    edges = tuple((labels[i], labels[i + 1], colors[i])
                  for i in range(len(colors)))
    return ColoredGraph(tuple(labels), tuple(dict.fromkeys(colors)), edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        ColoredGraph(("a", "a"), ("c",), ())
    with pytest.raises(ValueError):
        ColoredGraph(("a", "b"), ("c",), (("a", "a", "c"),))
    with pytest.raises(ValueError):
        ColoredGraph(("a", "b"), ("c",), (("a", "x", "c"),))
    with pytest.raises(ValueError):
        ColoredGraph(("a", "b"), ("c",), (("a", "b", "d"),))
    with pytest.raises(ValueError):
        ColoredGraph(("a", "b"), ("c",), (("a", "b", "c"), ("b", "a", "c")))


def test_edge_normalization():
    g = ColoredGraph(("a", "b"), ("c",), (("b", "a", "c"),))
    assert g.edges == (("a", "b", "c"),)
    assert g.has_edge("a", "b", "c") and g.has_edge("b", "a", "c")
    assert g.edge_colors("a", "b") == ("c",)


def test_make_walk_inference_and_errors():
    g = path_graph("abc", ["x", "y"])
    w = make_walk(g, "abc")
    assert w.walk_colors == ("x", "y")
    with pytest.raises(InvalidWalk):
        make_walk(g, "ac")
    with pytest.raises(InvalidWalk):
        make_walk(g, "ab", colors=("y",))
    with pytest.raises(InvalidWalk):
        make_walk(g, "")
    # parallel edges of two colors force explicit colors
    g2 = ColoredGraph(("a", "b"), ("x", "y"),
                      (("a", "b", "x"), ("a", "b", "y")))
    with pytest.raises(InvalidWalk):
        make_walk(g2, "ab")
    assert make_walk(g2, "ab", colors=("y",)).walk_colors == ("y",)


def test_is_rainbow():
    g = path_graph("abcd", ["x", "y", "x"])
    assert is_rainbow(make_walk(g, "a"))
    assert is_rainbow(make_walk(g, "abc"))
    assert not is_rainbow(make_walk(g, "abcd"))


def test_is_shortest():
    g = build_reference_graph("young", 2, 2)
    assert is_shortest(g, make_walk(g, ["∅"]))
    assert is_shortest(g, make_walk(g, ["∅", "1", "2", "21"]))
    assert not is_shortest(g, make_walk(g, ["∅", "1", "11", "21", "11"]))


def test_is_shortest_disconnected():
    from ortk.ecgraph import Walk

    g = ColoredGraph(("a", "b", "c"), ("x",), (("a", "b", "x"),))
    # hand-built walk object between components; make_walk would reject it
    stray = Walk(g, ("a", "c"), ("x",))
    with pytest.raises(DisconnectedEndpoints):
        is_shortest(g, stray)


def test_young_reference_counts():
    g = build_reference_graph("young", 2, 2)
    assert len(g.vertices) == 6
    assert len(g.edges) == 6
    assert len(g.colors) == 4
    assert set(g.vertices) == {"∅", "1", "2", "11", "21", "22"}
    g32 = build_reference_graph("young", 3, 2)
    assert len(g32.vertices) == 10
    g33 = build_reference_graph("young", 3, 3)
    assert len(g33.vertices) == 20


def test_young_colors_are_column_row():
    g = build_reference_graph("young", 2, 2)
    # the first box added to the empty diagram sits at column 1, row 1
    assert g.edge_colors("∅", "1") == ((1, 1),)
    assert g.edge_colors("1", "2") == ((2, 1),)
    assert g.edge_colors("1", "11") == ((1, 2),)
    assert g.edge_colors("21", "22") == ((2, 2),)


def test_young_maximal_chain():
    g = build_reference_graph("young", 3, 2)
    dist = bfs_distances(g, "∅")
    assert dist["222"] == 6
    # every maximal chain is rainbow: each step adds a distinct box
    report = verify_exchange(g)
    assert report.passed


def test_hypercube_reference():
    g = build_reference_graph("hypercube", n=3)
    assert len(g.vertices) == 8
    assert len(g.edges) == 12
    assert g.colors == (1, 2, 3)
    assert g.edge_colors("000", "100") == (1,)
    assert g.edge_colors("000", "001") == (3,)


def test_reference_validation():
    with pytest.raises(ValueError):
        build_reference_graph("young", 0, 2)
    with pytest.raises(ValueError):
        build_reference_graph("hypercube")
    with pytest.raises(ValueError):
        build_reference_graph("cayley", 2, 2)


def test_quotient_contract_one_edge():
    g = path_graph("abc", ["c1", "c2"])
    q = quotient_by_colors(g, {"c1"})
    graph, vmap = q.graph, q.vertex_map
    assert set(graph.vertices) == {"a", "c"}
    assert vmap == {"a": "a", "b": "a", "c": "c"}
    assert graph.edges == (("a", "c", "c2"),)
    assert q.loops == ()


def test_quotient_empty_colorset_identity():
    g = build_reference_graph("young", 2, 2)
    q = quotient_by_colors(g, set())
    assert structure(q.graph) == structure(g)
    assert all(v == w for v, w in q.vertex_map.items())


def test_quotient_produces_loop():
    # triangle with one contracted edge: the two other edges become a
    # parallel pair unless colors differ; contracting two edges makes a loop
    g = ColoredGraph(("a", "b", "c"), ("x", "y", "z"),
                     (("a", "b", "x"), ("b", "c", "y"), ("a", "c", "z")))
    q = quotient_by_colors(g, {"x", "y"})
    assert len(q.graph.vertices) == 1
    assert q.loops == (("a", "z"),)
    assert q.graph.edges == ()


def test_quotient_merges_parallel_same_color():
    g = ColoredGraph(("a", "b", "c", "d"), ("x", "y"),
                     (("a", "b", "x"), ("c", "d", "x"),
                      ("a", "c", "y"), ("b", "d", "y")))
    q = quotient_by_colors(g, {"x"})
    # both y-edges collapse to a single edge between the two classes
    assert len(q.graph.vertices) == 2
    assert q.graph.edges == (("a", "c", "y"),)


def test_quotient_rejects_unknown_color():
    g = path_graph("ab", ["x"])
    with pytest.raises(ValueError):
        quotient_by_colors(g, {"nope"})


# OR graphs with 3 to 6 colors: every color set of each is contracted
MEMO_GRAPHS = [("gl", 2, 2), ("gl", 3, 2), ("gl11n", None, 3), ("ospD", 2, 2)]


@pytest.mark.parametrize("family, m, n", MEMO_GRAPHS)
def test_quotient_memo_matches_bfs_reference_on_every_color_set(family, m, n):
    og = build_or_graph(build_root_system(family, m=m, n=n)).graph
    g = ColoredGraph(og.vertices, og.colors, og.edges)  # a fresh, cold memo
    subsets = [frozenset(d) for k in range(len(g.colors) + 1)
               for d in itertools.combinations(g.colors, k)]
    for warm in (False, True):
        for d in subsets:
            assert (d in g._quotients) == warm
            q = quotient_by_colors(g, d)
            graph, vmap, loops = ref_quotient(g, d)
            assert structure(q.graph) == structure(graph)
            assert q.vertex_map == vmap
            assert len(q.loops) == len(loops) and set(q.loops) == loops
    assert len(g._quotients) == len(subsets)


def test_quotient_memo_hands_out_copies_of_the_class_map():
    g = build_reference_graph("young", 2, 2)
    d = {(1, 1), (1, 2)}
    first = quotient_by_colors(g, d)
    want = dict(first.vertex_map)
    first.vertex_map["∅"] = "22"
    first.vertex_map.pop("1")
    again = quotient_by_colors(g, d)
    assert again.vertex_map == want == ref_quotient(g, d)[1]
    assert again.vertex_map is not first.vertex_map
    # the immutable parts are shared, and with them the quotient's walk index
    assert again.graph is first.graph and again.loops is first.loops
    assert again.graph._walk_index is first.graph._walk_index


def test_quotient_memo_still_rejects_unknown_color():
    g = path_graph("abc", ["x", "y"])
    quotient_by_colors(g, {"x"})
    quotient_by_colors(g, ())
    for d in ({"nope"}, {"x", "nope"}):
        with pytest.raises(ValueError, match="nope"):
            quotient_by_colors(g, d)
    assert set(g._quotients) == {frozenset({"x"}), frozenset()}


def test_quotient_memo_keeps_one_entry_per_color_set():
    g = build_reference_graph("hypercube", n=3)
    for d in ([1], (1,), {1}, [2, 1], (1, 2), [], set(), [3, 2, 1], iter([2])):
        quotient_by_colors(g, d)
    assert set(g._quotients) == {frozenset(), frozenset({1}), frozenset({2}),
                                 frozenset({1, 2}), frozenset({1, 2, 3})}


def test_colored_isomorphic_young_self():
    g = build_reference_graph("young", 2, 2)
    w = colored_isomorphic(g, g)
    assert w is not None
    assert is_color_isomorphism(g, g, w.vertex_bijection, w.color_bijection)
    inv = inverse_witness(w)
    assert is_color_isomorphism(g, g, inv.vertex_bijection, inv.color_bijection)


def test_colored_isomorphic_relabeled():
    rng = random.Random(13)
    g = build_reference_graph("hypercube", n=3)
    new_names = {v: f"N{k}" for k, v in enumerate(g.vertices)}
    new_colors = {c: f"col{c}" for c in g.colors}
    shuffled = list(g.edges)
    rng.shuffle(shuffled)
    h = ColoredGraph(
        tuple(new_names[v] for v in reversed(g.vertices)),
        tuple(new_colors[c] for c in (3, 1, 2)),
        tuple((new_names[u], new_names[v], new_colors[c]) for u, v, c in shuffled))
    w = colored_isomorphic(g, h)
    assert w is not None
    assert is_color_isomorphism(g, h, w.vertex_bijection, w.color_bijection)


def test_colored_isomorphic_absent():
    g = build_reference_graph("hypercube", n=2)
    h = build_reference_graph("young", 2, 2)
    assert colored_isomorphic(g, h) is None
    # same vertex and edge counts but wrong coloring: recolor a 4-cycle
    # with a single color; the hypercube uses two
    sq = ColoredGraph(("00", "01", "11", "10"), ("only",),
                      (("00", "01", "only"), ("01", "11", "only"),
                       ("11", "10", "only"), ("10", "00", "only")))
    assert colored_isomorphic(g, sq) is None


def test_colored_isomorphic_symmetry():
    g = build_reference_graph("young", 2, 2)
    relabel = {v: v + "'" for v in g.vertices}
    h = ColoredGraph(tuple(relabel[v] for v in g.vertices), g.colors,
                     tuple((relabel[u], relabel[v], c) for u, v, c in g.edges))
    w = colored_isomorphic(g, h)
    back = colored_isomorphic(h, g)
    assert w is not None and back is not None
    inv = inverse_witness(w)
    assert is_color_isomorphism(h, g, inv.vertex_bijection, inv.color_bijection)


# the OR graphs of the graph-stretch benchmark and their reference graphs
ISO_PAIRS = [(("gl", 4, 3), ("young", 4, 3)),
             (("gl11n", None, 6), ("hypercube", None, 6)),
             (("ospB", 3, 2), ("young", 3, 2))]


@pytest.mark.parametrize("system, ref", ISO_PAIRS)
def test_colored_isomorphic_on_the_stretch_pairs(system, ref):
    family, m, n = system
    g = build_or_graph(build_root_system(family, m=m, n=n)).graph
    h = build_reference_graph(*ref)
    for _ in ("cold", "warm"):
        w = colored_isomorphic(g, h)
        assert w is not None
        assert is_color_isomorphism(g, h, w.vertex_bijection, w.color_bijection)
    # one edge recolored: its color is no longer what the isomorphism needs
    u, v, c = g.edges[0]
    other = next(d for d in g.colors if d != c and not g.has_edge(u, v, d))
    recolored = ColoredGraph(g.vertices, g.colors, ((u, v, other),) + g.edges[1:])
    assert colored_isomorphic(recolored, h) is None
    assert colored_isomorphic(h, recolored) is None
    # the kept color degrees are the counts of the edges at each vertex
    for graph in (g, h, recolored):
        assert graph._color_degrees == {
            x: {d: sum(1 for a, b, e in graph.edges if x in (a, b) and e == d)
                for d in {e for a, b, e in graph.edges if x in (a, b)}}
            for x in graph.vertices}


def quadratic_match_order(g):
    """The isomorphism search's vertex order as first written: each
    component starts at a vertex of the largest degree, ties broken by a
    linear index lookup per vertex, and is walked breadth first."""
    remaining = set(g.vertices)
    order = []
    while remaining:
        start = max(remaining, key=lambda v: (g.degree(v), -g.vertices.index(v)))
        remaining.discard(start)
        queue = [start]
        for x in queue:
            order.append(x)
            for y, _ in g.neighbors(x):
                if y in remaining:
                    remaining.discard(y)
                    queue.append(y)
    return order


MATCH_ORDER_PAIRS = [((c.family, c.m, c.n), (c.reference, c.m, c.n))
                     for c in manifest.ISO_SUITE] + ISO_PAIRS


@pytest.mark.parametrize("system, ref", MATCH_ORDER_PAIRS,
                         ids=["-".join(map(str, system)) for system, _ in MATCH_ORDER_PAIRS])
def test_match_order_matches_the_quadratic_order(system, ref):
    family, m, n = system
    for g in (build_or_graph(build_root_system(family, m=m, n=n)).graph,
              build_reference_graph(*ref)):
        assert list(g._match_order) == quadratic_match_order(g)


def test_match_order_starts_each_component_at_its_first_max_degree_vertex():
    # two components; degrees tie inside {a, b} and {x, y, z} starts at y
    g = ColoredGraph(("a", "b", "x", "y", "z"), ("c",),
                     (("a", "b", "c"), ("x", "y", "c"), ("y", "z", "c")))
    assert list(g._match_order) == quadratic_match_order(g) == ["y", "x", "z", "a", "b"]
    # built once and kept on the graph for every later search
    assert g._match_order is g._match_order


def test_verify_exchange_pass_cases():
    for g in [build_reference_graph("young", 2, 2),
              build_reference_graph("young", 3, 2),
              build_reference_graph("hypercube", n=4)]:
        report = verify_exchange(g)
        assert report.passed
        assert report.n_shortest_walks > 0
        assert report.n_rainbow_walks > 0


def test_verify_exchange_counterexample():
    g = path_graph("abc", ["x", "x"])
    report = verify_exchange(g)
    assert not report.passed
    assert len(report.shortest_not_rainbow) == 1
    bad = report.shortest_not_rainbow[0]
    assert bad.walk_vertices == ("a", "b", "c")
    assert bad.walk_colors == ("x", "x")
    assert report.rainbow_not_shortest == ()


def test_verify_exchange_rainbow_not_shortest():
    # 4-cycle with all colors distinct: going the long way around is a
    # rainbow walk of length 3 between adjacent vertices
    g = ColoredGraph(("a", "b", "c", "d"), ("1", "2", "3", "4"),
                     (("a", "b", "1"), ("b", "c", "2"),
                      ("c", "d", "3"), ("d", "a", "4")))
    report = verify_exchange(g)
    assert not report.passed
    assert report.rainbow_not_shortest


def test_verify_exchange_requires_connected():
    g = ColoredGraph(("a", "b", "c"), ("x",), (("a", "b", "x"),))
    with pytest.raises(DisconnectedEndpoints):
        verify_exchange(g)


def test_rainbow_extension_pass():
    for g in [build_reference_graph("young", 2, 2),
              build_reference_graph("hypercube", n=3)]:
        report = verify_rainbow_extension(g)
        assert report.passed

    # hypothesis never fires on a monochrome triangle
    tri = ColoredGraph(("a", "b", "c"), ("x",),
                       (("a", "b", "x"), ("b", "c", "x"), ("a", "c", "x")))
    report = verify_rainbow_extension(tri)
    assert report.passed
    assert report.n_configurations == 0


def test_rainbow_extension_violation():
    # path a-1-b-2-c-1-d: rainbow walk a,1,b,2,c then edge c-1-d exists,
    # but no walk d -> a using exactly color 2
    g = ColoredGraph(("a", "b", "c", "d"), ("1", "2"),
                     (("a", "b", "1"), ("b", "c", "2"), ("c", "d", "1")))
    report = verify_rainbow_extension(g)
    assert not report.passed
    walks = {(v.walk_vertices, v.walk_colors, y) for v, y in report.violations}
    assert (("a", "b", "c"), ("1", "2"), "d") in walks


def test_json_round_trip():
    rng = random.Random(17)
    for g in [build_reference_graph("young", 2, 3),
              build_reference_graph("hypercube", n=3)]:
        blob = json.dumps(graph_to_json(g))
        h = graph_from_json(json.loads(blob))
        assert structure(h) == structure(g)


def test_dot_export():
    g = build_reference_graph("hypercube", n=2)
    dot = graph_to_dot(g, name="Q2")
    assert dot.startswith("graph Q2 {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == 4
    assert '"00" -- "01"' in dot or '"00" -- "10"' in dot
    assert 'label="1"' in dot and 'label="2"' in dot
    g2 = build_reference_graph("young", 2, 2)
    dot2 = graph_to_dot(g2)
    assert 'label="1,1"' in dot2


def test_rainbow_walk_length_cap():
    # property: no rainbow walk exceeds the color count
    g = build_reference_graph("young", 2, 2)
    report = verify_exchange(g)
    # the enumerator only ever saw walks of length <= 4 = |colors|;
    # indirectly checked through the geodesic diameter
    assert max(bfs_distances(g, v).get("22", 0) for v in g.vertices) <= 4
    assert report.n_rainbow_walks > 0


def test_rainbow_extension_reach_is_keyed_on_the_target():
    # the rainbow walk c 0 a 1 b with the edge b-0-e needs a walk e -> c
    # using exactly {1}; e's only neighbour is b, so there is none
    g = ColoredGraph(("a", "b", "c", "e"), ("0", "1"),
                     (("a", "b", "0"), ("a", "b", "1"), ("a", "c", "0"),
                      ("a", "c", "1"), ("b", "e", "0"), ("b", "e", "1")))
    report = verify_rainbow_extension(g)
    assert not report.passed
    walks = [(v.walk_vertices, v.walk_colors, y) for v, y in report.violations]
    assert (("c", "a", "b"), ("0", "1"), "e") in walks
    assert report == reference_extension(g)


# -- walk-by-walk references ----------------------------------------------------


def reference_exchange(g):
    """Every geodesic and every rainbow walk, listed one at a time."""
    dist_from = {v: bfs_distances(g, v) for v in g.vertices}
    if any(len(d) != len(g.vertices) for d in dist_from.values()):
        raise DisconnectedEndpoints("graph is not connected")

    def geodesics(u, v):
        du, dv = dist_from[u], dist_from[v]
        total = du[v]

        def grow(path_v, path_c, x):
            if x == v:
                yield tuple(path_v), tuple(path_c)
                return
            for y, c in g.neighbors(x):
                if du[y] == du[x] + 1 and dv[y] == total - du[x] - 1:
                    yield from grow(path_v + [y], path_c + [c], y)

        return grow([u], [], u)

    bad_shortest, n_shortest = [], 0
    vs = list(g.vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            for path_v, path_c in geodesics(u, v):
                n_shortest += 1
                if len(set(path_c)) != len(path_c):
                    bad_shortest.append(Walk(g, path_v, path_c))

    bad_rainbow, n_rainbow = [], 0

    def grow(path_v, path_c, x, source):
        nonlocal n_rainbow
        for y, c in g.neighbors(x):
            if c in path_c:
                continue
            n_rainbow += 1
            if dist_from[source][y] != len(path_c) + 1:
                bad_rainbow.append(Walk(g, tuple(path_v + [y]), tuple(path_c + [c])))
            grow(path_v + [y], path_c + [c], y, source)

    for u in vs:
        grow([u], [], u, u)
    return ExchangeReport(tuple(bad_shortest), tuple(bad_rainbow), n_shortest, n_rainbow)


def reference_reach(g, start, target, colorset):
    """A walk start -> target using each color of colorset once, unmemoised."""
    if not colorset:
        return start == target
    return any(c in colorset and reference_reach(g, y, target, colorset - {c})
               for y, c in g.neighbors(start))


def reference_extension(g):
    violations, n_conf = [], 0

    def grow(path_v, path_c, x):
        nonlocal n_conf
        if len(path_c) >= 2:
            for y, c in g.neighbors(x):
                if c != path_c[0]:
                    continue
                n_conf += 1
                if not reference_reach(g, y, path_v[0], frozenset(path_c[1:])):
                    violations.append((Walk(g, tuple(path_v), tuple(path_c)), y))
        for y, c in g.neighbors(x):
            if c not in path_c:
                grow(path_v + [y], path_c + [c], y)

    for u in g.vertices:
        grow([u], [], u)
    return ExtensionReport(tuple(violations), n_conf)


@st.composite
def connected_graphs(draw):
    """Connected graphs on 2-7 vertices and 1-4 colors, parallel edges of
    distinct colors allowed; a share are relabeled reference graphs,
    which pass both checks."""
    if draw(st.integers(0, 4)) == 0:
        kind = draw(st.sampled_from([("young", 2, 2), ("young", 2, 1), ("young", 3, 1),
                                     ("hypercube", None, 1), ("hypercube", None, 2)]))
        ref = build_reference_graph(*kind)
        names = draw(st.permutations([f"v{k}" for k in range(len(ref.vertices))]))
        rename = dict(zip(ref.vertices, names))
        return ColoredGraph(tuple(names), tuple(str(c) for c in ref.colors),
                            tuple((rename[u], rename[v], str(c)) for u, v, c in ref.edges))
    n = draw(st.integers(2, 7))
    colors = tuple(str(c) for c in range(draw(st.integers(1, 4))))
    verts = tuple(draw(st.permutations([f"v{k}" for k in range(n)])))
    color = st.sampled_from(colors)
    # a spanning tree on k -> an earlier vertex, then extra edges
    edges = {(verts[draw(st.integers(0, k - 1))], verts[k], draw(color)) for k in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), color)
    for a, b, c in draw(st.lists(pair, max_size=2 * n)):
        if a != b:
            edges.add((verts[min(a, b)], verts[max(a, b)], c))
    return ColoredGraph(verts, colors, tuple(edges))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs())
def test_state_counting_matches_walk_by_walk_reference(g):
    want_exchange = structure(reference_exchange(g))
    want_extension = structure(reference_extension(g))
    # the walk index is kept on the graph: either check may build it for
    # the other, so both orders run, each on a fresh graph object; the
    # reports' walks name their graph, so they compare by structure
    first = ColoredGraph(g.vertices, g.colors, g.edges)
    assert structure(verify_exchange(first)) == want_exchange
    assert structure(verify_rainbow_extension(first)) == want_extension
    second = ColoredGraph(g.vertices, g.colors, g.edges)
    assert structure(verify_rainbow_extension(second)) == want_extension
    assert structure(verify_exchange(second)) == want_exchange
    apart = ColoredGraph(g.vertices + ("isolated",), g.colors, g.edges)
    with pytest.raises(DisconnectedEndpoints):
        verify_exchange(apart)
    assert verify_rainbow_extension(apart) == reference_extension(apart)


@pytest.mark.parametrize("g", [
    path_graph("abc", ["x", "x"]),
    ColoredGraph(("a", "b", "c", "d"), ("1", "2"),
                 (("a", "b", "1"), ("b", "c", "2"), ("c", "d", "1"))),
    build_reference_graph("hypercube", n=3),
], ids=["not-rainbow", "no-extension", "hypercube"])
def test_rainbow_states_are_built_once_and_reports_are_not_kept(g, monkeypatch):
    sources = []
    rainbow_states = ecgraph._rainbow_states

    def counting(low, adj, u):
        sources.append(u)
        return rainbow_states(low, adj, u)

    monkeypatch.setattr(ecgraph, "_rainbow_states", counting)
    # either check may come first, each order on a fresh graph object
    for first, second in ((verify_exchange, verify_rainbow_extension),
                          (verify_rainbow_extension, verify_exchange)):
        sources.clear()
        fresh = ColoredGraph(g.vertices, g.colors, g.edges)
        reports = {first: [first(fresh)]}
        # the first check's pass already holds every frontier that the
        # extension check reads: one entry per color at each vertex
        assert sources == list(range(len(g.vertices)))
        assert [set(front) for front in fresh._walk_index.frontier] == \
            [{b for _, b in nbrs} for nbrs in fresh._walk_index.adj]
        reports[second] = [second(fresh)]
        reports[first].append(first(fresh))
        reports[second].append(second(fresh))
        # one color-coding pass per source, for the four calls together
        assert sources == list(range(len(g.vertices)))
        for check, want in ((verify_exchange, reference_exchange(fresh)),
                            (verify_rainbow_extension, reference_extension(fresh))):
            once, again = reports[check]
            assert once == again == want
            # each call builds its own report
            assert once is not again


@pytest.mark.parametrize("g, exchange", [
    (ColoredGraph((), (), ()), ExchangeReport((), (), 0, 0)),
    (ColoredGraph(("a",), (), ()), ExchangeReport((), (), 0, 0)),
    (ColoredGraph(("a", "b"), ("x",), ()), DisconnectedEndpoints),
    (ColoredGraph(("a", "b"), ("x",), (("a", "b", "x"),)), ExchangeReport((), (), 1, 2)),
], ids=["empty", "one-vertex", "two-apart", "one-edge"])
def test_walk_checks_on_graphs_without_walks_to_extend(g, exchange):
    # no configuration exists, so the frontiers are empty or absent
    if exchange is DisconnectedEndpoints:
        with pytest.raises(DisconnectedEndpoints):
            verify_exchange(g)
    else:
        assert verify_exchange(g) == exchange
    assert verify_rainbow_extension(g) == ExtensionReport((), 0)
    assert g._walk_index.frontier == tuple(
        {b: (0, ()) for _, b in nbrs} for nbrs in g._walk_index.adj)


STRETCH_GRAPHS = [("gl", 4, 3), ("gl11n", None, 6), ("ospB", 3, 2), ("ospD", 3, 2)]


def same_extension(g):
    """verify_rainbow_extension and the per-state loop give one report."""
    report = verify_rainbow_extension(g)
    assert report == state_loop_extension(g)
    return report


@pytest.mark.parametrize("family, m, n", STRETCH_GRAPHS)
def test_frontiers_match_the_state_loop_on_stretch_graphs(family, m, n):
    rs = build_root_system(family, m=m, n=n)
    og = build_or_graph(rs)
    report = same_extension(og.graph)
    assert report.passed and report.n_configurations > 0
    # 20 seeded lambdas, each drawn until its quotient keeps two colors
    rng = random.Random(f"{family}{m}{n}")
    kept = []
    while len(kept) < 20:
        lam = parse_weight(",".join(str(rng.choice((-1, 0, 0, 1))) for _ in range(rs.rank)))
        q = build_or_lambda(rs, og, lam).graph
        if len(q.colors) >= 2:
            kept.append(len(q.colors))
            assert same_extension(q).passed
    assert max(kept) >= 4


def test_frontiers_match_the_state_loop_on_q7():
    report = same_extension(build_reference_graph("hypercube", n=7))
    assert report.passed and report.n_configurations == 2 ** 7 * sum(
        factorial(7) // factorial(7 - k) for k in range(2, 8))


def planted_q4(extra_colors=()):
    """Q4 with the edge 0000 -- 0001 recolored from 4 to 3; extra unused
    colors come first in the color order, so they move every used bit up."""
    q = build_reference_graph("hypercube", n=4)
    edges = tuple((u, v, 3 if (u, v) == ("0000", "0001") else c) for u, v, c in q.edges)
    return ColoredGraph(q.vertices, tuple(extra_colors) + q.colors, edges)


def test_planted_violation_matches_both_references():
    g = planted_q4()
    report = same_extension(g)
    assert not report.passed
    assert structure(report) == structure(reference_extension(g))
    assert (len(report.violations), report.n_configurations) == (66, 898)


def test_frontier_keys_past_63_bits_fall_back_to_tuples():
    # 5 vertex bits and 60 unused colors before the four used ones: the
    # keys need 69 bits, more than an array('q') holds
    narrow, wide = planted_q4(), planted_q4(f"unused{k}" for k in range(60))
    fronts = [keys for front in wide._walk_index.frontier for _, keys in front.values()]
    assert all(type(keys) is tuple for keys in fronts)
    assert max(map(max, filter(None, fronts))) >= 2 ** 63
    assert all(type(keys) is array for front in narrow._walk_index.frontier
               for _, keys in front.values() if keys)

    def walks(report):
        return [(w.walk_vertices, w.walk_colors, y) for w, y in report.violations]

    report, want = same_extension(wide), verify_rainbow_extension(narrow)
    assert report.n_configurations == want.n_configurations
    assert walks(report) == walks(want)


def test_or_lambda_quotients_share_their_walk_index():
    rs = build_root_system("gl", m=3, n=2)
    og = build_or_graph(rs)
    lam = parse_weight("1,0,0,-1,0")
    first = build_or_lambda(rs, og, lam)
    reports = verify_exchange(first.graph), verify_rainbow_extension(first.graph)
    again = build_or_lambda(rs, og, lam)
    assert again.graph is first.graph
    assert "_walk_index" in again.graph.__dict__
    assert again.graph._walk_index is first.graph._walk_index
    assert (verify_exchange(again.graph), verify_rainbow_extension(again.graph)) == reports


@pytest.mark.parametrize("n", range(1, 8))
def test_hypercube_walk_counts(n):
    g = build_reference_graph("hypercube", n=n)
    geodesics = 2 ** (n - 1) * sum(factorial(n) // factorial(n - d) for d in range(1, n + 1))
    exchange = verify_exchange(g)
    extension = verify_rainbow_extension(g)
    assert exchange.passed and extension.passed
    assert exchange.n_shortest_walks == geodesics
    assert exchange.n_rainbow_walks == 2 * geodesics
    assert extension.n_configurations == 2 ** n * sum(
        factorial(n) // factorial(n - k) for k in range(2, n + 1))


json_ids = st.one_of(st.text(max_size=4), st.integers(-5, 50))
json_colors = st.one_of(
    st.text(max_size=3), st.integers(-5, 50),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.text(max_size=2), st.integers(0, 9), st.text(max_size=2)))


@st.composite
def json_graphs(draw):
    verts = draw(st.lists(json_ids, min_size=1, max_size=6, unique=True))
    colors = draw(st.lists(json_colors, max_size=4, unique=True))
    edges = set()
    if colors and len(verts) > 1:
        for _ in range(draw(st.integers(0, 8))):
            u, v = draw(st.lists(st.sampled_from(verts), min_size=2, max_size=2, unique=True))
            edges.add((u, v, draw(st.sampled_from(colors))))
    # one triple per edge, whichever way round it was drawn
    edges = {frozenset((u, v)) | {("c", c)}: (u, v, c) for u, v, c in edges}
    return ColoredGraph(tuple(verts), tuple(colors), tuple(edges.values()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=json_graphs())
def test_json_round_trip_random_graphs(g):
    h = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
    assert structure(h) == structure(g)
    assert [type(c) for c in h.colors] == [type(c) for c in g.colors]
