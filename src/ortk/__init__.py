"""Exact Borel-subalgebra combinatorics for basic Lie superalgebras."""

__version__ = "0.1.0"

from .adjusted import (
    AdjustedBorel,
    HypercubicCollection,
    SplitVerdict,
    borel_meet_join,
    brick_decomposition_check,
    hypercubic_collections,
    is_lambda_adjusted,
    reflect_along,
    semibrick_character_check,
    split_criterion,
)
from .atypicality import (
    Emptiness,
    S1Classification,
    is_typical,
    s1_classify,
)
from .characters import (
    MultiplicityQuery,
    NumeratorCharacter,
    character_to_json,
    character_weight_multiplicity,
    characters_equal,
    kac_flag_constituents,
    kostant_partitions,
    total_dimension,
    verma_character,
    weight_multiplicity,
)
from .ecgraph import (
    ColoredGraph,
    DisconnectedEndpoints,
    ExchangeReport,
    ExtensionReport,
    InvalidWalk,
    Quotient,
    Walk,
    bfs_distances,
    build_reference_graph,
    colored_isomorphic,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_rainbow,
    is_shortest,
    make_walk,
    quotient_by_colors,
    verify_exchange,
    verify_rainbow_extension,
)
from .numerics import (
    BilinearForm,
    Scalar,
    Weight,
    parse_weight,
    render_weight,
    zero_weight,
)
from .orgraph import (
    ORGraph,
    WalkHomVerdict,
    atypical_colors,
    build_or_graph,
    build_or_lambda,
    image_intersection_kind,
    rbtriv_check,
    semibrick_index_sets,
    walk_hom_oracle,
)
from .quiver import (
    BasisNotStabilized,
    PathClass,
    Quiver,
    build_quiver,
    hom_dimensions,
    path_normal_forms,
    render_path,
    word_normal_form,
)
from .rootsys import (
    Borel,
    NotIsotropicSimple,
    PreconditionViolated,
    Root,
    RootSystem,
    UnsupportedFamily,
    borel_from_partition,
    build_root_system,
    enumerate_borels,
    odd_reflect,
    partition_of_borel,
    pure_positive_roots,
    standard_borel,
    weyl_vector,
)
from .verify import ReportEntry, VerificationReport, run_suite
