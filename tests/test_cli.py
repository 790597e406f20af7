"""Command line behavior: exit codes, output formats, round trips."""

import json

import pytest

from ortk.cli import run_command
from ortk.ecgraph import graph_from_json, graph_to_json


def cap(argv):
    buf = []
    code = run_command(argv, print_fn=lambda *a: buf.append(" ".join(str(x) for x in a)))
    return code, "\n".join(buf)


def test_or_graph_json_gl22():
    code, out = cap(["or-graph", "--family", "gl", "--m", "2", "--n", "2",
                     "--out", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    assert len(data["colors"]) == 4
    g = graph_from_json(data)
    assert graph_to_json(g) == data


def test_or_graph_output_is_bit_stable():
    argv = ["or-graph", "--family", "ospB", "--m", "2", "--n", "1", "--out", "json"]
    assert cap(argv) == cap(argv)


def test_walk_zero_example():
    code, out = cap(["walk", "--family", "gl", "--m", "2", "--n", "2",
                     "--lambda", "0,0,0,0", "--path", "∅,1,2,21,11"])
    assert code == 0
    assert out == "verdict Zero"


def test_walk_nonzero_example():
    code, out = cap(["walk", "--family", "gl", "--m", "2", "--n", "2",
                     "--lambda", "0,0,0,0", "--path", "∅,1,2,21"])
    assert code == 0
    assert out == "verdict Nonzero"


def test_walk_json_monomial():
    code, out = cap(["walk", "--family", "gl", "--m", "2", "--n", "2",
                     "--lambda", "0,0,0,0", "--path", "∅,1,2,21",
                     "--out", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Nonzero"
    assert len(data["monomial"]) == 3


def test_verify_all_d21_report(tmp_path):
    path = tmp_path / "report.json"
    code, out = cap(["verify", "all", "--family", "d21", "--report", str(path)])
    assert code == 0
    assert "overall pass" in out
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["overall"] == "pass"
    by_check = {e["check"]: e for e in data["entries"]}
    assert by_check["d21-rho-b3"]["status"] == "pass"
    assert by_check["d21-rho-b3"]["payload"]["rho"] == "0,0,0"
    assert by_check["d21-pure-roots"]["payload"]["pure"] == [
        "2d", "2e1", "2e2", "d+e1+e2"]


def test_verify_iso_exit_zero():
    code, out = cap(["verify", "iso", "--family", "gl11n"])
    assert code == 0
    assert out.count("PASS") == 5


def test_quotient_json_round_trip():
    code, out = cap(["quotient", "--family", "gl", "--m", "2", "--n", "2",
                     "--lambda", "1,0,0,-1", "--out", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 3
    assert graph_to_json(graph_from_json(data)) == data


def test_dot_output_shape():
    code, out = cap(["or-graph", "--family", "gl11n", "--n", "2", "--out", "dot"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph OR {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if " -- " in ln) == 4


def test_character_json_gl11n():
    code, out = cap(["character", "--family", "gl11n", "--n", "1",
                     "--lambda", "0,0", "--out", "json"])
    assert code == 0
    data = json.loads(out)
    assert {(d["coeff"], d["weight"]) for d in data} == {(1, "0,0"), (1, "-1,1")}
    code, out = cap(["character", "--family", "gl11n", "--n", "1",
                     "--lambda", "0,0", "--induced", "--out", "json"])
    assert code == 0
    induced = json.loads(out)
    assert sum(d["coeff"] for d in induced) == 4
    assert {d["weight"]: d["coeff"] for d in induced}["0,0"] == 2


def test_multiplicity_values():
    base = ["multiplicity", "--family", "gl", "--m", "2", "--n", "1",
            "--lambda", "0,0,0"]
    code, out = cap(base + ["--mu=0,0,0"])
    assert (code, out) == (0, "1")
    code, out = cap(base + ["--mu=-1,0,1"])
    assert (code, out) == (0, "2")


def test_typical_text_and_json():
    code, out = cap(["typical", "--family", "gl", "--m", "2", "--n", "2",
                     "--lambda", "0,0,0,0"])
    assert (code, out) == (0, "atypical")
    code, out = cap(["typical", "--family", "d21", "--alpha", "2/3",
                     "--lambda", "1,1,1", "--out", "json"])
    assert code == 0
    assert json.loads(out) == {"typical": True}


def test_s1_json():
    code, out = cap(["s1", "--family", "gl", "--m", "2", "--n", "2",
                     "--lambda", "0,0,0,0", "--out", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["emptiness"] == "nonempty"
    assert "e1-d2" in data["certified_in"]
    assert "e2-d1" in data["certified_in"]


def test_hypercubic_json_gl21():
    code, out = cap(["hypercubic", "--family", "gl", "--m", "2", "--n", "1",
                     "--lambda", "0,0,0", "--out", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["splits"] == {"2": "indecomposable"}
    assert len(data["collections"]) == 2
    assert all(c["brick_identity"] for c in data["collections"])
    singleton = data["collections"][1]
    assert singleton["roots"] == ["e2-d1"]
    assert singleton["sigma"] == "0,1,-1"


def test_quiver_json_totals():
    code, out = cap(["quiver", "--preset", "square4", "--max-len", "3",
                     "--out", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["total_dimension"] == 16
    assert data["basis"]["2->4"] == ["a*f"]
    code, out = cap(["quiver", "--preset", "preprojective_a2", "--out", "json"])
    assert code == 0
    assert json.loads(out)["total_dimension"] == 4


def test_borel_addressing():
    base = ["character", "--family", "gl", "--m", "2", "--n", "1",
            "--lambda", "0,0,0", "--out", "json"]
    _, by_default = cap(base)
    _, by_label = cap(base + ["--borel", "∅"])
    _, by_rank = cap(base + ["--borel", "#0"])
    _, by_roots = cap(base + ["--borel", "e1-d1,e2-d1"])
    assert by_default == by_label == by_rank == by_roots
    _, other = cap(base + ["--borel", "#2"])
    assert other != by_default


@pytest.mark.parametrize("command, extra", [
    ("character", []),
    ("character", ["--induced"]),
    ("multiplicity", ["--mu={mu}"]),
    ("typical", []),
    ("s1", ["--gamma-bound", "2"]),
])
@pytest.mark.parametrize("system, mu", [
    (["--family", "gl", "--m", "3", "--n", "2", "--lambda", "1,0,0,0,-1"],
     "0,0,0,1,-1"),
    (["--family", "ospB", "--m", "1", "--n", "2", "--lambda", "1,0,0"], "0,0,0"),
    (["--family", "d21", "--alpha", "2/3", "--lambda", "1,0,0"], "-1,0,0"),
])
def test_default_borel_is_rank_zero(command, extra, system, mu):
    # without --borel these commands skip the Borel enumeration
    extra = [x.format(mu=mu) for x in extra]
    for out in ("text", "json"):
        argv = [command] + system + extra + ["--out", out]
        default = cap(argv)
        assert default[0] == 0
        assert default == cap(argv + ["--borel", "#0"])


@pytest.mark.parametrize("argv", [
    ["or-graph", "--family", "gl", "--m", "2"],
    ["or-graph", "--family", "d21", "--m", "2", "--n", "1"],
    ["or-graph", "--family", "gl11n", "--n", "2", "--m", "1"],
    ["walk", "--family", "gl", "--m", "2", "--n", "2", "--lambda", "0,0",
     "--path", "∅,1"],
    ["walk", "--family", "gl", "--m", "2", "--n", "2", "--lambda", "0,0,0,0",
     "--path", "∅,21"],
    ["walk", "--family", "gl", "--m", "2", "--n", "2", "--lambda", "0,0,0,0",
     "--path", "∅,zz"],
    ["character", "--family", "gl", "--m", "2", "--n", "2",
     "--lambda", "0,0,0,0", "--borel", "zz"],
    ["quiver", "--preset", "pentagon"],
    ["quiver", "--preset", "zigzag_window", "--w", "1"],
    ["typical", "--family", "gl", "--m", "2", "--n", "2", "--lambda", "x,y"],
    ["typical", "--family", "gl", "--m", "2", "--n", "2",
     "--lambda", "0,0,0,0", "--alpha", "1/2"],
    ["verify", "nothing"],
    ["no-such-command"],
    # an a-part that leaves the degree-1 space when paired with a root
    ["typical", "--family", "d21", "--lambda", "a,0,0"],
    ["s1", "--family", "d21", "--lambda", "a,1,1"],
    ["quotient", "--family", "d21", "--lambda", "a,0,0"],
    ["hypercubic", "--family", "d21", "--lambda", "a,1,1"],
    ["s1", "--family", "gl", "--m", "2", "--n", "1", "--lambda", "0,0,0",
     "--gamma-bound", "-1"],
])
def test_usage_errors_exit_two(argv):
    code, _ = cap(argv)
    assert code == 2


def test_degree_overflow_is_reported_on_stderr(capsys):
    code, out = cap(["typical", "--family", "d21", "--lambda", "a,0,0"])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree-1 space" in err
    assert "Traceback" not in err
