"""The lazy package namespace: every exported name and submodule resolves
to the object its defining module holds."""

import importlib
import inspect
import sys

import pytest

import ortk

# the names that `import ortk` exported when it imported every layer eagerly
EXPORTED = {
    "BasisNotStabilized", "BilinearForm", "Borel", "ColoredGraph",
    "DisconnectedEndpoints", "Emptiness", "ExchangeReport", "ExtensionReport",
    "HypercubicCollection", "InvalidWalk", "MultiplicityQuery", "NotIsotropicSimple",
    "NumeratorCharacter", "ORGraph", "PathClass", "PreconditionViolated", "Quiver",
    "Quotient", "ReportEntry", "Root", "RootSystem", "S1Classification", "Scalar",
    "SplitVerdict", "UnsupportedFamily", "VerificationReport", "Walk", "WalkHomVerdict",
    "Weight", "atypical_colors", "bfs_distances",
    "borel_meet_join", "brick_decomposition_check", "build_or_graph", "build_or_lambda",
    "build_quiver", "build_reference_graph", "build_root_system", "character_to_json",
    "character_weight_multiplicity", "colored_isomorphic",
    "enumerate_borels", "graph_from_json", "graph_to_dot", "graph_to_json",
    "hom_dimensions", "hypercubic_collections", "is_lambda_adjusted", "is_typical",
    "kac_flag_constituents", "kostant_partitions", "make_walk", "odd_reflect",
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


# -- every exported function is reached by the program, or says why not --------

# the exported functions that neither `verify all` nor a pinned CLI query
# enters, each with the reason it stays
UNREACHED = {
    "character_weight_multiplicity": "acceptance criteria 4 and 5 state their tables with it",
    "kostant_partitions": "the term count character_weight_multiplicity sums",
    "graph_from_json": "bench-only: bench/workloads.py reads the JSON graphs it checks",
    "is_lambda_adjusted": "test reference: the meet and join of every grid collection",
    "semibrick_index_sets": "a real algorithm with an exhaustive reference, out of the "
                            "suite until the paper ties it to characters",
}


def test_every_exported_function_runs_or_is_listed():
    # record every code object entered while `verify all` and each CLI query
    # pinned in tests/test_cli.py run, and the dot output of
    # test_dot_output_shape; an exported function none of them enters is dead
    # surface unless UNREACHED names it with its reason
    from test_cli import GOLDEN_QUERIES, NO_DATACLASSES

    from ortk.cli import run_command

    queries = [argv + ["--out", "json"] for argv in GOLDEN_QUERIES.values()]
    queries += list(NO_DATACLASSES.values())
    queries.append(["or-graph", "--family", "gl11n", "--n", "2", "--out", "dot"])
    functions = {name: getattr(ortk, name) for name in ortk.__all__}
    functions = {name: f.__code__ for name, f in functions.items() if inspect.isfunction(f)}
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        assert ortk.run_suite("all").passed
        codes = [run_command(argv, print_fn=lambda *a: None) for argv in queries]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(queries)
    assert {name for name, code in functions.items() if code not in entered} == set(UNREACHED)
