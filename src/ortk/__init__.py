"""Exact Borel-subalgebra combinatorics for basic Lie superalgebras.

The namespace is lazy (PEP 562): ``import ortk`` loads no layer, and the
first access to an exported name or a submodule imports the module that
defines it, so a command pays only for the layers it runs.
"""

__version__ = "0.1.0"

# exported names by defining module; each layer is imported on first use
_EXPORTS = {
    "adjusted": (
        "AdjustedBorel",
        "HypercubicCollection",
        "SplitVerdict",
        "borel_meet_join",
        "brick_decomposition_check",
        "hypercubic_collections",
        "is_lambda_adjusted",
        "reflect_along",
        "semibrick_character_check",
        "split_criterion",
    ),
    "atypicality": (
        "Emptiness",
        "S1Classification",
        "is_typical",
        "s1_classify",
    ),
    "characters": (
        "MultiplicityQuery",
        "NumeratorCharacter",
        "character_to_json",
        "character_weight_multiplicity",
        "characters_equal",
        "kac_flag_constituents",
        "kostant_partitions",
        "total_dimension",
        "verma_character",
        "weight_multiplicity",
    ),
    "ecgraph": (
        "ColoredGraph",
        "DisconnectedEndpoints",
        "ExchangeReport",
        "ExtensionReport",
        "InvalidWalk",
        "Quotient",
        "Walk",
        "bfs_distances",
        "build_reference_graph",
        "colored_isomorphic",
        "graph_from_json",
        "graph_to_dot",
        "graph_to_json",
        "is_rainbow",
        "is_shortest",
        "make_walk",
        "quotient_by_colors",
        "verify_exchange",
        "verify_rainbow_extension",
    ),
    "numerics": (
        "BilinearForm",
        "Scalar",
        "Weight",
        "parse_weight",
        "render_weight",
        "zero_weight",
    ),
    "orgraph": (
        "ORGraph",
        "WalkHomVerdict",
        "atypical_colors",
        "build_or_graph",
        "build_or_lambda",
        "image_intersection_kind",
        "rbtriv_check",
        "semibrick_index_sets",
        "walk_hom_oracle",
    ),
    "quiver": (
        "BasisNotStabilized",
        "PathClass",
        "Quiver",
        "build_quiver",
        "hom_dimensions",
        "path_normal_forms",
        "render_path",
        "word_normal_form",
    ),
    "rootsys": (
        "Borel",
        "NotIsotropicSimple",
        "PreconditionViolated",
        "Root",
        "RootSystem",
        "UnsupportedFamily",
        "borel_from_partition",
        "build_root_system",
        "enumerate_borels",
        "odd_reflect",
        "partition_of_borel",
        "pure_positive_roots",
        "standard_borel",
        "weyl_vector",
    ),
    "verify": (
        "ReportEntry",
        "VerificationReport",
        "run_suite",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "manifest"}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module

    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
