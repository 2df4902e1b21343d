"""spectramin: minimum spectral radius among connected graphs with a given
independence number, with certified comparisons and exhaustive verification."""

from .analytic import (
    AnalyticSolution,
    boundary_matrix,
    f_value,
    family_bracket,
    family_char_poly,
    hub_bracket,
    hub_exceeds,
    path_cycle_swap_gap,
    perron_closed_form,
    rho_analytic,
    t_of_rho,
)
from .enumeration import (
    bicyclic_graphs,
    enumerate_connected,
    enumerate_with_edge_count,
    unicyclic_graphs,
)
from .formats import from_edge_list, from_graph6, to_edge_list, to_graph6
from .graphs import (
    BicyclicSpec,
    Graph,
    InvalidInputError,
    InvalidParameterError,
    VertexLabeling,
    automorphisms,
    build_bicyclic,
    build_complete,
    build_cycle,
    build_join_extremal,
    canonical_form,
    canonical_labeling,
    cut_edges,
    cycles_mutually_disjoint,
    double_fork_tree,
    independence_number,
    internal_paths,
    is_connected,
    predicted_independence,
    spec_B,
    spec_C,
    spec_P,
)
from .spectral import (
    CharPoly,
    NumericFailure,
    RhoBracket,
    SpectralResult,
    char_poly,
    compare_rho_certified,
    full_spectrum,
    interlacing_holds,
    perron_pair,
    rho_bracket,
    rho_numeric,
)
from .transforms import (
    ExemptionError,
    RewriteStep,
    delete_edge,
    find_minimal_bicyclic_core,
    proof_replay,
    relocate_vertex,
    shift_neighbors,
    split_vertex,
    subdivide_internal,
)
from .verify import (
    MinimizerResult,
    VerificationReport,
    compare_families,
    graph_from_family,
    minimizer,
    minimizer_bicyclic,
    theorem_prediction,
    verify_descent_endpoint_readings,
    verify_edge_minimal_pair,
    verify_family_grids,
    verify_max_extremal,
    verify_minimum_radius_case_table,
    verify_small_order_minimizers,
)

__version__ = "0.1.0"
