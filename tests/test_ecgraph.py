"""Edge-colored graph machinery."""

import json
import random
from math import factorial

import pytest

from hypothesis import given, settings, strategies as st

from ortk.ecgraph import (
    ColoredGraph,
    DisconnectedEndpoints,
    ExchangeReport,
    ExtensionReport,
    InvalidWalk,
    Walk,
    bfs_distances,
    build_reference_graph,
    colored_isomorphic,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_color_isomorphism,
    is_rainbow,
    is_shortest,
    make_walk,
    quotient_by_colors,
    verify_exchange,
    verify_rainbow_extension,
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
    assert q.graph == g
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


def test_colored_isomorphic_young_self():
    g = build_reference_graph("young", 2, 2)
    w = colored_isomorphic(g, g)
    assert w is not None
    assert is_color_isomorphism(g, g, w.vertex_bijection, w.color_bijection)
    inv = w.inverse()
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
    inv = w.inverse()
    assert is_color_isomorphism(h, g, inv.vertex_bijection, inv.color_bijection)


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
        assert h == g


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
    assert verify_exchange(g) == reference_exchange(g)
    assert verify_rainbow_extension(g) == reference_extension(g)
    apart = ColoredGraph(g.vertices + ("isolated",), g.colors, g.edges)
    with pytest.raises(DisconnectedEndpoints):
        verify_exchange(apart)
    assert verify_rainbow_extension(apart) == reference_extension(apart)


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
    assert h == g
    assert [type(c) for c in h.colors] == [type(c) for c in g.colors]
