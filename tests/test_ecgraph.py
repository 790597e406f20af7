"""Edge-colored graph machinery."""

import itertools
import json
import random
import sys
from math import factorial

import pytest

from hypothesis import given, settings, strategies as st

from ortk import ecgraph, manifest, verify
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
from ortk.numerics import parse_weight, zero_weight
from ortk.orgraph import build_or_graph, build_or_lambda, semibrick_index_sets
from ortk.rootsys import build_root_system, enumerate_borels

from oracles import (
    bfs_distances,
    bfs_match_order,
    inverse_witness,
    is_color_isomorphism,
    is_rainbow,
    is_shortest,
    ref_colored_isomorphic,
    ref_quotient,
    ref_semibrick_index_sets,
    state_loop_exchange,
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


def random_iso_graph(rng):
    """A graph on 0-8 vertices, often disconnected, with 1-4 colors of
    which some may be unused: plain, with every drawn pair joined by 2-3
    parallel edges of distinct colors, or with one color only, so that
    several edges of one color meet at a vertex.  A fourth kind draws
    up to 5 edges, each of a new color, so that all the used colors
    share one signature; a drawn pair may take 2 or 3 of them."""
    kind = rng.choice(("plain", "parallel", "one color", "a color per edge"))
    n = rng.randint(0, 8)
    colors = ("c0",) if kind == "one color" else tuple(f"c{k}" for k in range(rng.randint(1, 4)))
    edges = set()
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        a, b = sorted(rng.sample(range(n), 2))
        if kind == "a color per edge":
            fresh = tuple(f"c{len(colors) + k}" for k in range(rng.choice((1, 1, 2, 3))))
            if len(edges) + len(fresh) > 5:
                break
            colors += fresh
        else:
            width = rng.randint(2, 3) if kind == "parallel" else 1
            fresh = rng.sample(colors, min(width, len(colors)))
        for c in fresh:
            edges.add((f"v{a}", f"v{b}", c))
    return ColoredGraph(tuple(f"v{k}" for k in range(n)), colors, tuple(edges))


def relabeled_copy(g, rng):
    """g under a random vertex and color renaming, with its vertex, color
    and edge orders shuffled and up to two unused colors added."""
    names = [f"w{k}" for k in range(len(g.vertices))]
    rng.shuffle(names)
    rename = dict(zip(g.vertices, names))
    recolor = dict(zip(g.colors, rng.sample([f"d{k}" for k in range(len(g.colors))],
                                            len(g.colors))))
    colors = list(recolor.values()) + [f"unused{k}" for k in range(rng.randint(0, 2))]
    edges = [(rename[u], rename[v], recolor[c]) for u, v, c in g.edges]
    for seq in (names, colors, edges):
        rng.shuffle(seq)
    return ColoredGraph(tuple(sorted(names)), tuple(colors), tuple(edges))


def damaged_copy(g, rng):
    """A relabeled copy of g with one edge recolored, moved to another
    pair, or swapped with another edge of its color (u-v, x-y become u-y,
    x-v, which keeps every vertex's color degrees); None when the drawn
    change is not possible."""
    h = relabeled_copy(g, rng)
    edges = list(h.edges)
    if not edges:
        return None
    u, v, c = edges.pop(rng.randrange(len(edges)))
    change = rng.choice(("recolor", "move", "swap"))
    if change == "recolor":
        others = [d for d in h.colors if d != c]
        if not others:
            return None
        new = [(u, v, rng.choice(others))]
    elif change == "move":
        new = [(*rng.sample(h.vertices, 2), c)]
    else:
        same = [e for e in edges if e[2] == c and not {u, v} & set(e[:2])]
        if not same:
            return None
        x, y, _ = same[0]
        edges.remove(same[0])
        new = [(u, y, c), (x, v, c)]
    try:
        return ColoredGraph(h.vertices, h.colors, tuple(edges + new))
    except ValueError:  # the change made a duplicate edge
        return None


def test_colored_isomorphic_matches_the_reference_on_seeded_random_pairs():
    rng = random.Random("isomorphism reference")
    found = {True: 0, False: 0, "searched": 0}
    for _ in range(400):
        g = random_iso_graph(rng)
        for h in (relabeled_copy(g, rng), damaged_copy(g, rng), random_iso_graph(rng)):
            if h is None:
                continue
            for a, b in ((g, h), (h, g)):
                w = colored_isomorphic(a, b)
                assert (w is not None) == (ref_colored_isomorphic(a, b) is not None)
                if w is not None:
                    assert is_color_isomorphism(a, b, w.vertex_bijection, w.color_bijection)
                found[w is not None] += 1
                found["searched"] += w is None and a._iso_table.census == b._iso_table.census
    # relabeled copies are isomorphic and most other pairs are not; some
    # pairs share every signature, so that the search itself rejects them
    assert found[True] >= 800 and found[False] >= 800 and found["searched"] >= 10
    empty = ColoredGraph((), ("unused",), ())
    assert colored_isomorphic(empty, ColoredGraph((), (), ())) == ({}, {})


# the OR graphs of the graph-stretch benchmark and their reference graphs
ISO_PAIRS = [(("gl", 4, 3), ("young", 4, 3)),
             (("gl11n", None, 6), ("hypercube", None, 6)),
             (("ospB", 3, 2), ("young", 3, 2))]


@pytest.fixture
def iso_tables(monkeypatch):
    """The graphs whose isomorphism table is built while the test runs."""
    built = []
    build = ecgraph._build_iso_table

    def counting(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(ecgraph, "_build_iso_table", counting)
    return built


@pytest.mark.parametrize("system, ref", ISO_PAIRS)
def test_colored_isomorphic_on_the_stretch_pairs(system, ref, iso_tables):
    family, m, n = system
    g = build_or_graph(build_root_system(family, m=m, n=n)).graph
    h = build_reference_graph(*ref)
    for _ in ("cold", "warm"):
        w = colored_isomorphic(g, h)
        assert w is not None
        assert is_color_isomorphism(g, h, w.vertex_bijection, w.color_bijection)
    # one table per graph, built by the cold call and read by the warm one
    assert iso_tables == [g, h]
    assert ref_colored_isomorphic(g, h) is not None
    # one edge recolored: its color is no longer what the isomorphism needs
    u, v, c = g.edges[0]
    other = next(d for d in g.colors if d != c and not g.has_edge(u, v, d))
    recolored = ColoredGraph(g.vertices, g.colors, ((u, v, other),) + g.edges[1:])
    assert colored_isomorphic(recolored, h) is None
    assert colored_isomorphic(h, recolored) is None
    assert ref_colored_isomorphic(recolored, h) is None
    # the kept color degrees are the counts of the edges at each vertex
    for graph in (g, h, recolored):
        assert [{graph.colors[k]: m for k, m in cd.items()}
                for cd in graph._iso_table.color_degrees] == [
            {d: sum(1 for a, b, e in graph.edges if x in (a, b) and e == d)
             for d in {e for a, b, e in graph.edges if x in (a, b)}}
            for x in graph.vertices]


MATCH_ORDER_PAIRS = [((c.family, c.m, c.n), (c.reference, c.m, c.n))
                     for c in manifest.ISO_SUITE] + ISO_PAIRS


@pytest.mark.parametrize("system, ref", MATCH_ORDER_PAIRS,
                         ids=["-".join(map(str, system)) for system, _ in MATCH_ORDER_PAIRS])
def test_match_order_matches_the_quadratic_order(system, ref):
    family, m, n = system
    for g in (build_or_graph(build_root_system(family, m=m, n=n)).graph,
              build_reference_graph(*ref)):
        assert [g.vertices[v] for v in g._iso_order.order] == bfs_match_order(g)


def test_colored_isomorphic_on_1024_vertices():
    # Q10 against itself and against OR(gl(1|1)^10): the search matches
    # 1024 vertices, deeper than Python's default recursion limit
    q10 = build_reference_graph("hypercube", n=10)
    og = build_or_graph(build_root_system("gl11n", n=10)).graph
    assert len(q10.vertices) == len(og.vertices) == 1024
    for a, b in ((q10, q10), (q10, og), (og, q10)):
        w = colored_isomorphic(a, b)
        assert w is not None
        assert is_color_isomorphism(a, b, w.vertex_bijection, w.color_bijection)


def test_the_second_graph_builds_no_match_order():
    # the search reads the match order of its first graph only; a fresh
    # graph used as the second argument builds its signature rows alone
    g = build_or_graph(build_root_system("gl", m=3, n=2)).graph
    h = build_reference_graph("young", 3, 2)
    cold = colored_isomorphic(g, h)
    assert "_iso_order" in vars(g) and "_iso_table" in vars(h)
    assert "_iso_order" not in vars(h)
    # the warm search gives the same witness
    assert colored_isomorphic(g, h) == cold
    assert "_iso_order" not in vars(h)


def test_match_order_starts_each_component_at_its_first_max_degree_vertex():
    # two components; degrees tie inside {a, b} and {x, y, z} starts at y
    g = ColoredGraph(("a", "b", "x", "y", "z"), ("c",),
                     (("a", "b", "c"), ("x", "y", "c"), ("y", "z", "c")))
    assert [g.vertices[v] for v in g._iso_order.order] == bfs_match_order(g) == \
        ["y", "x", "z", "a", "b"]
    # built once and kept on the graph for every later search
    assert g._iso_table is g._iso_table and g._iso_order is g._iso_order


def search_steps(g, h):
    """colored_isomorphic(g, h) and the number of vertex steps its search
    took (images yielded by its inner candidates generators, counted by a
    profile hook, which sees each yield as a return of the yielded value):
    one per vertex when it never backtracks."""
    steps = 0

    def hook(frame, event, arg):
        nonlocal steps
        if event == "return" and arg is not None and \
                frame.f_code.co_name == "candidates" and \
                frame.f_code.co_filename == ecgraph.__file__:
            steps += 1

    sys.setprofile(hook)
    try:
        w = colored_isomorphic(g, h)
    finally:
        sys.setprofile(None)
    return w, steps


def test_isomorphism_search_never_backtracks_on_the_stretch_pairs():
    for (family, m, n), ref in ISO_PAIRS:
        g = build_or_graph(build_root_system(family, m=m, n=n)).graph
        h = build_reference_graph(*ref)
        for a, b in ((g, h), (h, g)):
            w, steps = search_steps(a, b)
            assert w is not None and steps == len(a.vertices)


def test_colored_isomorphic_binds_a_color_only_to_its_signature():
    # b comes first in the order, and in h its neighbour by the one-edge
    # color Y comes before its neighbour by the two-edge color X: only the
    # signature test keeps x from being bound to Y, which would fail later
    g = ColoredGraph(("a", "b", "c", "d", "e"), ("x", "y"),
                     (("a", "b", "x"), ("b", "c", "y"), ("d", "e", "x")))
    h = renamed(g, "CBADE", "XY")
    for a, b in ((g, h), (h, g)):
        w, steps = search_steps(a, b)
        assert is_color_isomorphism(a, b, *w) and steps == 5


def renamed(g, vertices, colors):
    """g with vertex and color IDs upper-cased, listed in the given orders."""
    return ColoredGraph(tuple(vertices), tuple(colors),
                        tuple((u.upper(), v.upper(), c.upper()) for u, v, c in g.edges))


@pytest.mark.parametrize("g, vertices, colors", [
    # a and c look alike until a's neighbour p turns out to have one more
    # edge than c's neighbour q; in h, C comes before A, so the search
    # first binds x to Y and must unbind it to bind x to X
    (ColoredGraph(("b", "a", "c", "p", "q", "p2"), ("x", "y", "z", "w", "u"),
                  (("b", "a", "x"), ("b", "c", "y"), ("a", "p", "z"), ("c", "q", "w"),
                   ("p", "p2", "u"))),
     ("B", "C", "A", "P", "Q", "P2"), ("X", "Y", "Z", "W", "U")),
    # the same with b -- a and b -- c each two parallel edges: both
    # bijections of {x1, x2} onto {X3, X4} fail before A is tried
    (ColoredGraph(("b", "a", "c", "p", "q", "p2"), ("x1", "x2", "x3", "x4", "y", "z", "u"),
                  (("b", "a", "x1"), ("b", "a", "x2"), ("b", "c", "x3"), ("b", "c", "x4"),
                   ("a", "p", "y"), ("c", "q", "z"), ("p", "p2", "u"))),
     ("B", "C", "A", "P", "Q", "P2"), ("X1", "X2", "X3", "X4", "Y", "Z", "U")),
], ids=["one-color-pairs", "parallel-pairs"])
def test_colored_isomorphic_unbinds_colors_on_backtrack(g, vertices, colors):
    h = renamed(g, vertices, colors)
    for a, b in ((g, h), (h, g)):
        w, steps = search_steps(a, b)
        assert w is not None and is_color_isomorphism(a, b, *w)
        assert ref_colored_isomorphic(a, b) is not None
        # the first candidate for the second vertex fails
        assert steps > len(a.vertices)


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


@pytest.fixture
def pass_sources(monkeypatch):
    """The sources of every color-coding pass run while the test runs."""
    sources = []
    rainbow_states = ecgraph._rainbow_states

    def counting(low, adj, du, u):
        sources.append(u)
        return rainbow_states(low, adj, du, u)

    monkeypatch.setattr(ecgraph, "_rainbow_states", counting)
    return sources


@pytest.mark.parametrize("g", [
    path_graph("abc", ["x", "x"]),
    ColoredGraph(("a", "b", "c", "d"), ("1", "2"),
                 (("a", "b", "1"), ("b", "c", "2"), ("c", "d", "1"))),
    build_reference_graph("hypercube", n=3),
], ids=["not-rainbow", "no-extension", "hypercube"])
def test_rainbow_states_are_built_once_and_reports_are_not_kept(g, pass_sources):
    # either check may come first, each order on a fresh graph object
    for first, second in ((verify_exchange, verify_rainbow_extension),
                          (verify_rainbow_extension, verify_exchange)):
        pass_sources.clear()
        fresh = ColoredGraph(g.vertices, g.colors, g.edges)
        # the BFS rows alone never run the color-coding pass
        list(verify._geodesic_walks(fresh))
        assert pass_sources == []
        reports = {first: [first(fresh)]}
        # the first check's pass already recorded the extension verdict
        assert pass_sources == list(range(len(g.vertices)))
        assert recorded_extension(fresh) == listed_extension(reference_extension(fresh))
        reports[second] = [second(fresh)]
        reports[first].append(first(fresh))
        reports[second].append(second(fresh))
        # one color-coding pass per source, for the four calls together
        assert pass_sources == list(range(len(g.vertices)))
        for check, want in ((verify_exchange, reference_exchange(fresh)),
                            (verify_rainbow_extension, reference_extension(fresh))):
            once, again = reports[check]
            assert once == again == want
            # each call builds its own report
            assert once is not again


def test_bfs_only_readers_never_run_the_color_coding_pass(pass_sources):
    rs = build_root_system("gl11n", n=3)
    og = build_or_graph(rs)
    lam = zero_weight(rs.rank)
    borels, _ = enumerate_borels(rs)
    for bbar in borels:
        assert semibrick_index_sets(rs, og, lam, bbar) == \
            ref_semibrick_index_sets(rs, og, lam, bbar)
    assert "_walk_index" in build_or_lambda(rs, og, lam).graph.__dict__
    entries = verify.suite_walks(verify._Builds())
    assert entries and all(e.status == "pass" for e in entries)
    assert pass_sources == []


@pytest.mark.parametrize("g, exchange", [
    (ColoredGraph((), (), ()), ExchangeReport((), (), 0, 0)),
    (ColoredGraph(("a",), (), ()), ExchangeReport((), (), 0, 0)),
    (ColoredGraph(("a", "b"), ("x",), ()), DisconnectedEndpoints),
    (ColoredGraph(("a", "b"), ("x",), (("a", "b", "x"),)), ExchangeReport((), (), 1, 2)),
], ids=["empty", "one-vertex", "two-apart", "one-edge"])
def test_walk_checks_on_graphs_without_walks_to_extend(g, exchange):
    # no configuration exists, so none is counted and none fails
    if exchange is DisconnectedEndpoints:
        with pytest.raises(DisconnectedEndpoints):
            verify_exchange(g)
    else:
        assert verify_exchange(g) == exchange
    assert verify_rainbow_extension(g) == ExtensionReport((), 0)
    assert recorded_extension(g) == (0, [])


STRETCH_GRAPHS = [("gl", 4, 3), ("gl11n", None, 6), ("ospB", 3, 2), ("ospD", 3, 2)]


def recorded_extension(g):
    """The extension verdict that the color-coding pass recorded: the
    configuration count and the failing v0, by vertex ID."""
    rx = g._rainbow_index
    return rx.n_configurations, [g.vertices[v] for v in rx.bad_starts]


def listed_extension(report):
    """The same verdict read off a report: its configuration count and
    the start of each violation, once each, in the order listed."""
    return report.n_configurations, list(dict.fromkeys(
        w.walk_vertices[0] for w, _ in report.violations))


def same_extension(g):
    """verify_rainbow_extension and the per-state loop give one report,
    and the recorded verdict is the loop's."""
    report = verify_rainbow_extension(g)
    want = state_loop_extension(g)
    assert report == want
    assert recorded_extension(g) == listed_extension(want)
    return report


def same_exchange(g):
    """verify_exchange and the per-state loop give one report."""
    report = verify_exchange(g)
    assert report == state_loop_exchange(g)
    return report


def stretch_quotients(family, m, n):
    """OR(g) of a stretch family and 20 seeded OR(g, lambda) quotients,
    each lambda drawn until its quotient keeps two colors."""
    rs = build_root_system(family, m=m, n=n)
    og = build_or_graph(rs)
    rng = random.Random(f"{family}{m}{n}")
    quotients = []
    while len(quotients) < 20:
        lam = parse_weight(",".join(str(rng.choice((-1, 0, 0, 1))) for _ in range(rs.rank)))
        q = build_or_lambda(rs, og, lam).graph
        if len(q.colors) >= 2:
            quotients.append(q)
    return og.graph, quotients


@pytest.mark.parametrize("family, m, n", STRETCH_GRAPHS)
def test_frontiers_match_the_state_loop_on_stretch_graphs(family, m, n):
    g, quotients = stretch_quotients(family, m, n)
    report = same_extension(g)
    assert report.passed and report.n_configurations > 0
    assert all(same_extension(q).passed for q in quotients)
    assert max(len(q.colors) for q in quotients) >= 4


@pytest.mark.parametrize("family, m, n", STRETCH_GRAPHS)
def test_exchange_matches_the_state_loop_on_stretch_graphs(family, m, n):
    g, quotients = stretch_quotients(family, m, n)
    report = same_exchange(g)
    assert report.passed and report.n_shortest_walks > 0
    assert all(same_exchange(q).passed for q in quotients)


def test_frontiers_match_the_state_loop_on_q7():
    report = same_extension(build_reference_graph("hypercube", n=7))
    assert report.passed and report.n_configurations == 2 ** 7 * sum(
        factorial(7) // factorial(7 - k) for k in range(2, 8))


def random_colored_graph(rng):
    """A connected graph on 3-9 vertices and 2-5 colors: a random
    spanning tree plus random extra edges, parallel edges of distinct
    colors allowed."""
    n = rng.randint(3, 9)
    colors = tuple(f"c{k}" for k in range(rng.randint(2, 5)))
    verts = tuple(f"v{k}" for k in range(n))
    edges = {(verts[rng.randrange(k)], verts[k], rng.choice(colors)) for k in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        edges.add((verts[min(a, b)], verts[max(a, b)], rng.choice(colors)))
    return ColoredGraph(verts, colors, tuple(edges))


def test_exchange_matches_the_state_loop_on_seeded_random_graphs():
    rng = random.Random("exchange state loop")
    failing = ordered = 0
    for _ in range(300):
        g = random_colored_graph(rng)
        # the bad pairs and bad sources name every witness walk, so equal
        # reports also agree on both lists and on the witnesses' order
        report = same_exchange(g)
        failing += not report.passed
        ordered += min(map(len, report[:2])) >= 2
    # most fail, a few pass; many list two or more walks of each kind
    assert 250 <= failing < 300 and ordered >= 150


def test_extension_matches_the_state_loop_on_seeded_random_graphs():
    rng = random.Random("extension state loop")
    failing = several = 0
    for _ in range(300):
        g = random_colored_graph(rng)
        # equal reports agree on every violation and on their order, so
        # the recorded failing v0 are compared one by one
        report = same_extension(g)
        failing += not report.passed
        several += len(g._rainbow_index.bad_starts) >= 2
    # most fail, a few pass; many fail from two or more v0
    assert 250 <= failing < 300 and several >= 150


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


def test_planted_violation_behind_60_unused_colors():
    # 5 vertex bits and 60 unused colors before the four used ones: the
    # states need 69 bits, more than a machine word
    narrow, wide = planted_q4(), planted_q4(f"unused{k}" for k in range(60))
    assert max(map(max, wide._rainbow_index.rainbow)) >= 2 ** 63

    def walks(report):
        return [(w.walk_vertices, w.walk_colors, y) for w, y in report.violations]

    report, want = same_extension(wide), verify_rainbow_extension(narrow)
    assert report.n_configurations == want.n_configurations
    assert walks(report) == walks(want)
    assert recorded_extension(wide) == recorded_extension(narrow)


def test_or_lambda_quotients_share_their_walk_index():
    rs = build_root_system("gl", m=3, n=2)
    og = build_or_graph(rs)
    lam = parse_weight("1,0,0,-1,0")
    first = build_or_lambda(rs, og, lam)
    reports = verify_exchange(first.graph), verify_rainbow_extension(first.graph)
    again = build_or_lambda(rs, og, lam)
    assert again.graph is first.graph
    # both tables are kept on the shared quotient graph
    assert {"_walk_index", "_rainbow_index"} <= again.graph.__dict__.keys()
    assert again.graph._walk_index is first.graph._walk_index
    assert again.graph._rainbow_index is first.graph._rainbow_index
    assert (verify_exchange(again.graph), verify_rainbow_extension(again.graph)) == reports


@pytest.mark.parametrize("n", range(1, 8))
def test_hypercube_walk_counts(n):
    g = build_reference_graph("hypercube", n=n)
    geodesics = 2 ** (n - 1) * sum(factorial(n) // factorial(n - d) for d in range(1, n + 1))
    exchange = same_exchange(g)
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
