"""Command line behavior: exit codes, output formats, round trips."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

import ortk
from ortk.cli import build_parser, run_command
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


@pytest.mark.parametrize("spelling", ["#\u0663", "#+3", "# 3", "#03", "#3 "])
def test_borel_rank_is_written_in_decimal(spelling, capsys):
    # int() reads each of these as 3, but only "#3" addresses Borel 3, the
    # vertex 11 of gl(2|2)
    argv = ["hypercubic", "--family", "gl", "--m", "2", "--n", "2",
            "--lambda", "0,0,0,0", "--out", "json"]
    code, out = cap(argv + ["--borel", "#3"])
    assert code == 0 and json.loads(out)["borel"] == "11"
    capsys.readouterr()
    assert cap(argv + ["--borel", spelling]) == (2, "")
    assert capsys.readouterr().err == f"error: bad Borel rank {spelling!r}\n"


@pytest.mark.parametrize("command, extra", [
    ("character", []),
    ("character", ["--induced"]),
    ("multiplicity", ["--mu={mu}"]),
    ("typical", []),
    ("s1", []),
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
    # a removed flag
    ["s1", "--family", "gl", "--m", "2", "--n", "1", "--lambda", "0,0,0",
     "--gamma-bound", "2"],
    # a report path that cannot be opened, found before the suite runs
    ["verify", "iso", "--family", "gl", "--report", "/nonexistent/dir/r.json"],
])
def test_usage_errors_exit_two(argv):
    code, _ = cap(argv)
    assert code == 2


def test_bad_mu_names_the_mu_flag(capsys):
    code, out = cap(["multiplicity", "--family", "gl", "--m", "2", "--n", "1",
                     "--lambda", "0,0,0", "--mu=0,0"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: bad --mu '0,0': expected 3 coordinates, got 2\n")


@pytest.mark.parametrize("preset", ["zigzag_window(2)", "chain3"])
def test_window_flag_applies_to_zigzag_window_only(preset, capsys):
    # the window size has one spelling, --w, and no other preset takes it
    code, out = cap(["quiver", "--preset", preset, "--w", "3"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: --w only applies to --preset zigzag_window\n"


def test_zigzag_window_without_w_names_the_flag(capsys):
    # build_quiver's own message names its parameter w; the CLI names --w
    code, out = cap(["quiver", "--preset", "zigzag_window"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: --preset zigzag_window needs --w\n"


@pytest.mark.parametrize("coord", ["1/0", "1/0a", "1+1/0a", "1/0+a"])
def test_zero_denominator_is_a_bad_lambda(coord, capsys):
    # the a-carrying forms are parse errors too, not a ZeroDivisionError text
    text = f"{coord},0,0"
    code, out = cap(["typical", "--family", "d21", "--lambda", text])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: bad --lambda '{text}': cannot parse scalar '{coord}'\n")


@pytest.mark.parametrize("coord", ["1 2a", "1/2 3a", "\u0663a", "\u0663", "1_0"])
def test_malformed_coordinate_is_a_bad_lambda(coord, capsys):
    # '1 2a' was read as 1+2a, and Fraction reads '\u0663' as 3 and '1_0'
    # as 10; a coordinate needs a sign before its a-part and ASCII digits
    text = f"{coord},0,0"
    code, out = cap(["character", "--family", "d21", "--lambda", text])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: bad --lambda {text!r}: cannot parse scalar {coord!r}\n")


@pytest.mark.parametrize("alpha", ["\u0663", "1_0", "2/0", "a", "0.5"])
def test_alpha_is_an_ascii_rational(alpha, capsys):
    code, out = cap(["typical", "--family", "d21", "--alpha", alpha, "--lambda", "1,1,1"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: --alpha must be a rational like 2/3, got {alpha!r}\n")


def test_degree_overflow_is_reported_on_stderr(capsys):
    code, out = cap(["typical", "--family", "d21", "--lambda", "a,0,0"])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree-1 space" in err
    assert "Traceback" not in err


def _fault(*args, **kwargs):
    raise ZeroDivisionError("internal fault")


@pytest.mark.parametrize("module, name, argv", [
    ("ortk.numerics", "parse_weight", ["typical", "--family", "d21", "--lambda", "1,0,0"]),
    ("ortk.ecgraph", "make_walk",
     ["walk", "--family", "gl", "--m", "2", "--n", "2", "--lambda", "0,0,0,0", "--path", "∅,1"]),
    ("ortk.rootsys", "RootSystem.root_by_name",
     ["character", "--family", "gl", "--m", "2", "--n", "1", "--lambda", "0,0,0",
      "--borel", "e1-d1"]),
])
def test_internal_fault_is_not_a_usage_error(module, name, argv, monkeypatch):
    # only the ValueErrors of bad input exit 2; any other exception raised
    # while reading --lambda, --path or --borel escapes run_command
    target = importlib.import_module(module)
    *owner, attr = name.split(".")
    for part in owner:
        target = getattr(target, part)
    monkeypatch.setattr(target, attr, _fault)
    with pytest.raises(ZeroDivisionError, match="internal fault"):
        run_command(argv, print_fn=lambda *a: None)


def child_env():
    """The environment of a child interpreter that imports this ortk."""
    src = str(pathlib.Path(ortk.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_closed_stdout_exits_one_without_a_traceback():
    # the read end of the child's stdout pipe is closed before the child
    # starts, so its first write fails with EPIPE: it exits 1 and writes
    # nothing to stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "ortk.cli", "typical", "--family", "gl", "--m", "1",
             "--n", "1", "--lambda", "0,0"],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env())
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, b"")


# -- each command imports only the layers it runs -------------------------------

GL21 = ["--family", "gl", "--m", "2", "--n", "1", "--lambda", "0,0,0"]
GRAPH_ONLY = {"characters", "atypicality", "adjusted", "quiver", "verify"}
NOT_LOADED = [
    (["quiver", "--preset", "chain3"],
     {"rootsys", "characters", "ecgraph", "orgraph", "adjusted", "verify", "manifest"}),
    (["typical"] + GL21,
     {"ecgraph", "orgraph", "characters", "adjusted", "quiver", "verify", "manifest"}),
    (["s1"] + GL21,
     {"ecgraph", "orgraph", "characters", "adjusted", "quiver", "verify", "manifest"}),
    (["multiplicity"] + GL21 + ["--mu", "0,0,0"],
     {"ecgraph", "orgraph", "atypicality", "adjusted", "quiver", "verify", "manifest"}),
    (["character"] + GL21,
     {"ecgraph", "orgraph", "atypicality", "adjusted", "quiver", "verify", "manifest"}),
    (["walk", "--family", "gl", "--m", "2", "--n", "2", "--lambda", "0,0,0,0",
      "--path", "∅,1"], GRAPH_ONLY),
    (["quotient"] + GL21, GRAPH_ONLY),
    (["or-graph", "--family", "gl", "--m", "2", "--n", "1"], GRAPH_ONLY),
    # the quiver suite runs only unfiltered
    (["verify", "iso", "--family", "gl"], {"quiver"}),
]

# run main() with the given argv, then print its exit code and the modules
# loaded, as JSON on the last line of stdout
PROBE = """
import contextlib, io, json, sys
from ortk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main()
print(json.dumps([code, sorted(sys.modules)]))
"""


def modules_after(argv):
    """Exit code and every module loaded after `ortk ARGV` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", PROBE] + argv, env=child_env(),
                         capture_output=True, encoding="utf-8", check=True)
    code, modules = json.loads(out.stdout.splitlines()[-1])
    return code, set(modules)


def loaded_by(argv):
    """Exit code and ortk modules after `ortk ARGV` in a fresh interpreter."""
    code, modules = modules_after(argv)
    return code, {m for m in modules if m.split(".")[0] == "ortk"}


def test_help_loads_no_layer():
    assert loaded_by(["--help"]) == (0, {"ortk", "ortk.cli"})


@pytest.mark.parametrize("argv, absent", NOT_LOADED, ids=[argv[0] for argv, _ in NOT_LOADED])
def test_command_loads_only_its_layers(argv, absent):
    code, modules = loaded_by(argv)
    assert code == 0
    assert "ortk.cli" in modules
    assert modules.isdisjoint(f"ortk.{m}" for m in absent)


DATA = pathlib.Path(__file__).parent / "data"

# each query's --out json output is pinned byte for byte in tests/data/cli/
GOLDEN_QUERIES = {
    "character_gl21_fractional": [
        "character", "--family", "gl", "--m", "2", "--n", "1",
        "--lambda", "1/2,-1/3,2/3"],
    "character_d21_a_part": [
        "character", "--family", "d21", "--lambda", "a,1/2,-1"],
    "character_d21_alpha_2_3_a_part": [
        "character", "--family", "d21", "--alpha", "2/3", "--lambda", "a,1/2,-1"],
    "multiplicity_gl21_fractional": [
        "multiplicity", "--family", "gl", "--m", "2", "--n", "1",
        "--lambda", "1/2,-1/3,2/3", "--mu=-3/2,2/3,5/3"],
    "s1_ospB21": [
        "s1", "--family", "ospB", "--m", "2", "--n", "1", "--lambda", "1/2,0,1"],
    # four pure roots pair to zero with lam + rho and stay unknown
    "s1_ospB22": [
        "s1", "--family", "ospB", "--m", "2", "--n", "2", "--lambda=1,2,-1,0"],
    "hypercubic_gl22": [
        "hypercubic", "--family", "gl", "--m", "2", "--n", "2",
        "--lambda", "1,0,0,-1"],
    # split indices and J sets at a Borel whose inherited simple order
    # differs from the order of its indecomposable roots
    "hypercubic_gl32_borel21": [
        "hypercubic", "--family", "gl", "--m", "3", "--n", "2",
        "--lambda", "1,0,0,0,-1", "--borel", "21"],
    "quotient_gl22": [
        "quotient", "--family", "gl", "--m", "2", "--n", "2",
        "--lambda", "1/2,0,0,-1/2"],
    "quiver_zigzag_w3": ["quiver", "--preset", "zigzag_window", "--w", "3"],
    # D_lambda = {e1-d1, e2-d2}: the walk crosses both, and the two kept
    # steps give a monomial of two roots
    "walk_gl22_contracted": [
        "walk", "--family", "gl", "--m", "2", "--n", "2", "--lambda", "1,0,0,-1",
        "--path", "∅,1,2,21,22"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
def test_query_json_matches_golden_file(name):
    code, out = cap(GOLDEN_QUERIES[name] + ["--out", "json"])
    assert code == 0
    assert (out + "\n").encode("utf-8") == (DATA / "cli" / f"{name}.json").read_bytes()


NO_DATACLASSES = {name: argv + ["--out", "json"] for name, argv in {
    "character": GOLDEN_QUERIES["character_gl21_fractional"],
    "character-a-part": GOLDEN_QUERIES["character_d21_a_part"],
    "character-alpha": GOLDEN_QUERIES["character_d21_alpha_2_3_a_part"],
    "multiplicity": GOLDEN_QUERIES["multiplicity_gl21_fractional"],
    "character-borel": ["character"] + GL21 + ["--borel", "1"],
    "multiplicity-borel": ["multiplicity"] + GL21 + ["--mu", "0,0,0", "--borel", "1"],
    "quiver": ["quiver", "--preset", "chain3"],
    "typical": ["typical"] + GL21,
    "s1": GOLDEN_QUERIES["s1_ospB21"],
    "walk": ["walk", "--family", "gl", "--m", "2", "--n", "2", "--lambda", "0,0,0,0",
             "--path", "∅,1"],
    "quotient": GOLDEN_QUERIES["quotient_gl22"],
    "or-graph": ["or-graph", "--family", "gl", "--m", "2", "--n", "1"],
    "hypercubic": GOLDEN_QUERIES["hypercubic_gl22"],
}.items()} | {f"verify-{mode}": ["verify", mode, "--family", "d21"]
              for mode in ("exchange", "extension", "iso")}


@pytest.mark.parametrize("name", NO_DATACLASSES)
def test_query_child_does_not_import_dataclasses(name):
    # importing dataclasses (and the inspect it pulls in) costs a query child
    # several milliseconds, and no command uses it.  Weights are parsed to
    # integers and quiver classes carry no coefficients, so fractions (and
    # the decimal it pulls in, another 2 ms) loads only for --alpha
    argv = NO_DATACLASSES[name]
    code, modules = modules_after(argv)
    assert code == 0
    assert {"dataclasses", "inspect"}.isdisjoint(modules)
    makes_fractions = "--alpha" in argv
    assert {"fractions", "decimal"}.isdisjoint(modules) != makes_fractions
    assert "ortk.numerics" in modules


def _dataclass_decorated(node) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def test_only_the_replaced_records_are_dataclasses():
    # no class is decorated with @dataclass, since each @dataclass body and
    # the dataclasses import cost every query child start-up time.  Only the
    # four records that bench/selftest.py plants wrong answers in through
    # dataclasses.replace expose a field table, built on first read, so
    # dataclasses.is_dataclass accepts exactly these four.
    src = pathlib.Path(ortk.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert not [(path.stem, node.name)
                for path in paths
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ClassDef) and _dataclass_decorated(node)]
    modules = [importlib.import_module(f"ortk.{path.stem}") for path in paths
               if path.stem != "__init__"]
    exposed = {(module.__name__, value.__name__)
               for module in modules
               for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__
               and hasattr(value, "__dataclass_fields__")}
    assert exposed == {("ortk.atypicality", "S1Classification"), ("ortk.ecgraph", "Quotient"),
                       ("ortk.ecgraph", "ExchangeReport"), ("ortk.ecgraph", "ExtensionReport")}


def test_verify_all_matches_golden_files(tmp_path):
    report = tmp_path / "verify.json"
    code, out = cap(["verify", "all", "--report", str(report)])
    assert code == 0
    assert report.read_bytes() == (DATA / "verify_all.json").read_bytes()
    assert (out + "\n").encode("utf-8") == (DATA / "verify_all.txt").read_bytes()


# -- one command's subparser: the same usage, help and errors as the full parser --

COMMANDS = ["or-graph", "quotient", "verify", "character", "multiplicity", "typical", "s1",
            "walk", "hypercubic", "quiver"]


def parsed(parser, argv, capsys):
    """Exit code, stdout and stderr of parser.parse_args(argv); code None
    when it parses."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def parity_argvs():
    """--help, the missing required arguments, a bad --out choice and an
    unknown flag (reported by the top-level parser) of every command."""
    for command in COMMANDS:
        yield [command, "--help"]
        yield [command]
        yield ["verify", "all", "--out", "bogus"] if command == "verify" \
            else [command, "--family", "gl", "--out", "bogus"]
        yield [command, "--bogus"]


def test_run_command_builds_only_the_named_subparser(capsys, monkeypatch):
    for command in COMMANDS:
        (sub,) = build_parser(command)._subparsers._group_actions
        assert list(sub.choices) == [command]
    (sub,) = build_parser()._subparsers._group_actions
    assert list(sub.choices) == COMMANDS
    # run_command names the command when argv[0] is one, and else builds all
    built = []
    monkeypatch.setattr(ortk.cli, "build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    argvs = [[command, "--help"] for command in COMMANDS] + [["--help"], ["wlak"], [],
                                                            ["--out", "json", "walk"]]
    for argv in argvs:
        run_command(argv, print_fn=lambda *a: None)
    assert built == COMMANDS + [None] * 4


@pytest.mark.parametrize("columns", ["80", "200", "40"])
def test_one_command_parser_writes_the_full_parsers_bytes(columns, capsys, monkeypatch):
    # argparse wraps usage and help at the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", columns)
    for argv in parity_argvs():
        want = parsed(build_parser(), argv, capsys)
        assert parsed(build_parser(argv[0]), argv, capsys) == want, argv
        assert want[0] in (0, 2) and want[1] + want[2], argv
        code = run_command(argv, print_fn=lambda *a: None)
        assert (code, *capsys.readouterr()) == want, argv


def test_help_unknown_and_empty_command_lines_are_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    choices = ", ".join(repr(c) for c in COMMANDS)
    usage = "usage: ortk [-h] {" + ",".join(COMMANDS) + "} ...\n"
    assert run_command(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage) and err == ""
    assert all(f"\n    {c} " in out for c in COMMANDS)
    assert run_command(["wlak"]) == 2
    assert capsys.readouterr() == ("", usage + "ortk: error: argument command: invalid "
                                   f"choice: 'wlak' (choose from {choices})\n")
    assert run_command([]) == 2
    assert capsys.readouterr() == (
        "", usage + "ortk: error: the following arguments are required: command\n")


# -- random argv: exit code 0, 1 or 2 and never a traceback --------------------

JUNK = ["--bogus", "extra", "-", "--", "--out", "#", ",", "1,,2"]
FAMILIES = ["gl", "gl11n", "ospB", "ospD", "d21"]
COORDS = ["0", "1", "-1", "2", "1/2", "-2/3"]
A_COORDS = ["a", "-a", "1+a", "1/2-2/3a"]
BAD_COORDS = ["x", "", "a*a", "1/0"]


def sometimes(draw, chance=5):
    """True but about one time in chance."""
    return draw(st.sampled_from([True] * (chance - 1) + [False]))


@st.composite
def system_flags(draw):
    """(argv, rank): --family with the sizes it takes, at most 3, mostly
    well formed; rank is None where the flags name no root system.
    ospB and ospD stay at m + n <= 4 so that each example runs briefly."""
    if not sometimes(draw, 20):
        return ["--family", "sl", "--m", "1", "--n", "1"], None
    family = draw(st.sampled_from(FAMILIES))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if family in ("ospB", "ospD") and m + n > 4:
        m, n = 2, 2
    sizes = {"gl": {"--m": m, "--n": n}, "ospB": {"--m": m, "--n": n},
             "ospD": {"--m": m, "--n": n}, "gl11n": {"--n": n}, "d21": {}}[family]
    rank = {"gl11n": 2 * n, "d21": 3}.get(family, m + n)
    argv = ["--family", family]
    for flag, value in sizes.items():
        argv += [flag, str(value)]
    if not sometimes(draw, 8):
        # a size missing, out of range or given where the family takes none
        argv += draw(st.sampled_from([["--m", "0"], ["--n", "4"], ["--m", "x"],
                                      ["--m", "1"], ["--n", "-1"]]))
        rank = None
    if family == "d21" and draw(st.booleans()):
        argv += ["--alpha", draw(st.sampled_from(["2/3", "1/2", "-1", "0", "x"]))]
    elif not sometimes(draw, 20):
        argv += ["--alpha", "2/3"]
    return argv, rank


@st.composite
def weight_texts(draw, rank, family):
    """A weight of the given rank, with a-parts on d21; now and then one of
    the wrong rank or with a bad coordinate."""
    size = rank if rank and sometimes(draw, 10) else draw(st.integers(1, 7))
    pool = COORDS + (A_COORDS if family == "d21" else [])
    coords = [draw(st.sampled_from(pool)) for _ in range(size)]
    if not sometimes(draw, 10):
        coords[draw(st.integers(0, size - 1))] = draw(st.sampled_from(BAD_COORDS))
    return ",".join(coords)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["or-graph", "quotient", "verify", "character",
                                    "multiplicity", "typical", "s1", "walk",
                                    "hypercubic", "quiver"]))
    if command == "verify":
        # iso and exchange only, always with a family, so each run stays short
        argv = [command, draw(st.sampled_from(["iso", "exchange"])),
                "--family", draw(st.sampled_from(FAMILIES))]
    elif command == "quiver":
        argv = [command, "--preset", draw(st.sampled_from(
            ["preprojective_a2", "zigzag_window", "zigzag_window(2)", "chain3",
             "square4", "pentagon"]))]
        for flag in ("--w", "--max-len"):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(["0", "1", "2", "3", "-1", "x"]))]
    else:
        flags, rank = draw(system_flags())
        argv = [command] + flags
        family = flags[1]
        if command != "or-graph" and sometimes(draw, 20):
            argv += ["--lambda=" + draw(weight_texts(rank, family))]
        if command in ("character", "multiplicity", "typical", "s1", "hypercubic") \
                and draw(st.booleans()):
            argv += ["--borel", draw(st.sampled_from(
                ["#0", "#1", "#2", "#9", "#x", "∅", "1", "2", "e1-d1", "e1-d1,e2-d1",
                 "zz", ""]))]
        if command == "multiplicity" and sometimes(draw, 20):
            argv += ["--mu=" + draw(weight_texts(rank, family))]
        if command == "character" and draw(st.booleans()):
            argv += ["--induced"]
        if command == "walk" and sometimes(draw, 20):
            labels = {"gl": ["∅", "1", "2", "11", "21"],
                      "gl11n": ["00", "10", "01", "000", "100"]}.get(family, ["#0", "#1", "#2"])
            argv += ["--path", ",".join(draw(st.lists(st.sampled_from(labels + ["zz"]),
                                                       min_size=1, max_size=3)))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["text", "json", "json", "dot", "bogus"]))]
    if not sometimes(draw, 8):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_random_argv_exits_cleanly(argv, capsys):
    code = run_command(argv, print_fn=lambda *a: None)
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
