"""The lazy package namespace: every exported name and submodule resolves
to the object its defining module holds."""

import functools
import importlib
import inspect
import pathlib
import sys

import pytest

import ortk

# the names that `import ortk` exports
EXPORTED = {
    "BasisNotStabilized", "Borel", "ColoredGraph",
    "DisconnectedEndpoints", "Emptiness", "ExchangeReport", "ExtensionReport",
    "HypercubicCollection", "InvalidWalk", "MultiplicityQuery", "NotIsotropicSimple",
    "NumeratorCharacter", "ORGraph", "PathClass", "PreconditionViolated", "Quiver",
    "Quotient", "ReportEntry", "Root", "RootSystem", "S1Classification", "Scalar",
    "SplitVerdict", "UnsupportedFamily", "VerificationReport", "Walk", "WalkHomVerdict",
    "Weight", "atypical_colors",
    "borel_meet_join", "brick_decomposition_check", "build_or_graph", "build_or_lambda",
    "build_quiver", "build_reference_graph", "build_root_system", "character_to_json",
    "character_weight_multiplicity", "colored_isomorphic",
    "enumerate_borels", "graph_from_json", "graph_to_dot", "graph_to_json",
    "hom_dimensions", "hypercubic_collections", "is_typical",
    "kac_flag_constituents", "kostant_partitions", "make_walk",
    "parse_weight", "partition_of_borel", "path_normal_forms", "pure_positive_roots",
    "quotient_by_colors", "rbtriv_check", "render_path",
    "render_weight", "run_suite", "s1_classify",
    "semibrick_index_sets", "split_criterion", "standard_borel", "total_dimension",
    "verify_exchange", "verify_rainbow_extension", "verma_character", "walk_hom_oracle",
    "weight_multiplicity", "weyl_vector", "word_normal_form", "zero_weight",
}

SUBMODULES = ("adjusted", "atypicality", "characters", "cli", "ecgraph", "manifest",
              "numerics", "orgraph", "quiver", "rootsys", "verify")


def test_all_is_the_exported_name_set():
    assert len(ortk.__all__) == len(EXPORTED)
    assert set(ortk.__all__) == EXPORTED


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_name_is_its_defining_modules_object(name):
    obj = getattr(ortk, name)
    assert obj is getattr(sys.modules[obj.__module__], name)
    assert obj.__module__.startswith("ortk.")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_as_attribute(name):
    assert getattr(ortk, name) is importlib.import_module(f"ortk.{name}")


def test_star_import_binds_every_exported_name():
    ns = {}
    exec("from ortk import *", ns)
    assert EXPORTED <= set(ns)


def test_dir_covers_all():
    assert set(ortk.__all__) <= set(dir(ortk))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ortk.no_such_name
    assert not hasattr(ortk, "no_such_name")


# -- every function in src/ortk runs in the program, or says why not ----------

# the functions that neither `verify all` nor a pinned CLI query enters,
# each with the reason it stays.  Dunders are covered too: a function bound
# to a dunder name must run or be listed here like any other.  Only code
# that collections.namedtuple and enum generate, whose co_filename is not
# in src/ortk, is left out.
UNREACHED = {
    "numerics.Weight.coords": "I/O boundary: the tests and bench/oracle.py read a weight "
                              "as Scalars",
    "numerics.Weight.__new__": "I/O boundary: bench/workloads.py and the tests build weights "
                               "from Fractions; the program builds them with Weight.of",
    "numerics.Scalar.__new__": "I/O boundary: Weight(coords) makes a Scalar of each int or "
                               "Fraction coordinate, as the tests do",
    "numerics._rat": "the Scalar constructor's int-or-Fraction check",
    "numerics.Weight.is_zero": "reference arithmetic: the oracles' and the benchmark's "
                               "zero test of a weight",
    "numerics.Weight._no_order": "misuse guard: <, <=, > and >= of a Weight raise TypeError, "
                                 "not the tuple order",
    "numerics.Weight.__mul__": "misuse guard: w * c and c * w raise TypeError, not tuple "
                               "repetition",
    "numerics.Weight.__reduce__": "pickle and copy rebuild a Weight through Weight.of, "
                                  "as README states",
    "numerics._DataclassFields.__get__": "bench-only: bench/selftest.py plants wrong answers "
                                         "through dataclasses.replace",
    "rootsys.Root._frozen": "immutability guard: assigning or deleting a Root field raises",
    "rootsys.Root.__eq__": "value equality: the program meets each root as its system's one "
                           "object, while the tests compare roots built apart",
    "rootsys.RootSystem.root_from_ivec": "reference lookup: tests/oracles.py reflects a Borel "
                                         "on root vectors through it",
    "rootsys.partition_of_borel": "public Young-diagram reader of one Borel; OR graph labels "
                                  "read the same diagram from the enumeration's masks",
    "rootsys.Borel._frozen": "immutability guard: assigning or deleting a Borel field raises",
    "ecgraph.ColoredGraph._frozen": "immutability guard: assigning or deleting a graph field "
                                    "raises",
    "ortk.__getattr__": "PEP 562 lazy namespace: `import ortk` then ortk.<name>; the CLI "
                        "imports its layers directly",
    "ortk.__dir__": "PEP 562 lazy namespace: dir(ortk) lists the exported names",
    "ecgraph._rainbow_dfs": "counterexample lister: runs only when a walk check fails",
    "ecgraph._geodesic_dfs": "counterexample lister: runs only when a walk check fails",
    "verify._walk_payload": "counterexample lister: reports a failing walk check's walks",
    "characters.NumeratorCharacter.__init__": "I/O boundary: the tests and bench/selftest.py "
                                              "build characters from term dicts; "
                                              "verma_character skips its zero scan",
    "characters.character_weight_multiplicity": "acceptance criteria 4 and 5 state their "
                                                "tables with it",
    "characters.kostant_partitions": "the term count character_weight_multiplicity sums",
    "characters._kostant_scaled": "kostant_partitions' lookup, also tests/oracles.py's",
    "orgraph.semibrick_index_sets": "a real algorithm with an exhaustive reference, out of "
                                    "the suite until the paper ties it to characters",
    "ecgraph.graph_from_json": "bench-only: bench/workloads.py reads the JSON graphs it checks",
    "ecgraph._decode_color": "graph_from_json's color reader",
    "cli.main": "the console entry point; the guard calls run_command, which main wraps",
}


def _defined_functions():
    """{"module.qualname": code} for every module-level function and every
    class-level method, static method, class method, property getter and
    cached_property function whose code is in src/ortk, dunders included
    (not the code that namedtuple and enum generate, such as _make,
    __repr__ and __new__); closures and lambdas are not attributes."""
    package = pathlib.Path(ortk.__file__).parent
    bindings = []  # (short module name, holder qualname, attribute, function)
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module("ortk" if path.stem == "__init__" else f"ortk.{path.stem}")
        short = module.__name__.removeprefix("ortk.")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                bindings.append((short, "", attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for cattr, cobj in vars(obj).items():
                    if isinstance(cobj, (staticmethod, classmethod)):
                        cobj = cobj.__func__
                    elif isinstance(cobj, property):
                        cobj = cobj.fget
                    elif isinstance(cobj, functools.cached_property):
                        cobj = cobj.func
                    if inspect.isfunction(cobj):
                        bindings.append((short, obj.__qualname__ + ".", cattr, cobj))
    return {f"{short}.{f.__qualname__}": f.__code__
            for short, holder, attr, f in bindings
            if f.__qualname__ == holder + attr
            and pathlib.Path(f.__code__.co_filename).parent == package}


def test_the_guard_covers_hand_written_dunders_only():
    # a dunder written in src/ortk is one of the guard's functions, like any
    # method; the dunders that namedtuple and enum generate are not, and
    # neither is a function bound to a dunder name that another class defines
    functions = _defined_functions()
    for name in ("rootsys.Root.__hash__", "rootsys.Root.__eq__", "numerics.Weight.__add__",
                 "numerics.Weight.__reduce__", "rootsys.Borel._frozen", "ortk.__getattr__"):
        assert name in functions, name
    for name in ("manifest.GridEntry.__repr__", "manifest.GridEntry.__new__",
                 "manifest.GridEntry.__getnewargs__", "adjusted.SplitVerdict.__new__"):
        assert name not in functions, name
    assert all(pathlib.Path(code.co_filename).parent == pathlib.Path(ortk.__file__).parent
               for code in functions.values())


def test_every_function_runs_or_is_listed(tmp_path):
    # record every code object entered while `verify all --report` and each
    # CLI query pinned in tests/test_cli.py run (JSON and text), the queries
    # that must not import dataclasses, the dot output of
    # test_dot_output_shape and a character query at a Borel named by its
    # roots; a function in src/ortk none of them enters is dead code unless
    # UNREACHED names it with its reason
    from test_cli import GOLDEN_QUERIES, NO_DATACLASSES

    from ortk.cli import run_command

    queries = [["verify", "all", "--report", str(tmp_path / "report.json")]]
    queries += [argv + out for argv in GOLDEN_QUERIES.values() for out in (["--out", "json"], [])]
    queries += list(NO_DATACLASSES.values())
    queries.append(["or-graph", "--family", "gl11n", "--n", "2", "--out", "dot"])
    queries.append(["character", "--family", "gl", "--m", "2", "--n", "1",
                    "--lambda", "0,0,0", "--borel", "e1-d1,e2-d1"])
    functions = _defined_functions()
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [run_command(argv, print_fn=lambda *a: None) for argv in queries]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(queries)
    unreached = {name for name, code in functions.items() if code not in entered}
    dead = sorted(unreached - set(UNREACHED))
    assert not dead, f"never entered and not in UNREACHED: {dead}"
    listed = sorted(set(UNREACHED) - unreached)
    assert not listed, f"in UNREACHED but entered: {listed}"
