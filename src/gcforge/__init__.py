"""gcforge: convolutional layers for graph signals, built by translating a
weight kernel across the graph instead of sliding it over a grid."""

from .graph import (
    ConnectivityError,
    CoordinateSet,
    EdgeListFormatError,
    Graph,
    GraphError,
    ParameterError,
    bfs_distances,
    dump_edge_list,
    grid_coordinates,
    grid_graph,
    infer_knn_graph,
    is_connected,
    load_coordinates,
    load_edge_list,
)
from .translations import (
    AdjacencyError,
    DeformationScore,
    DomainSizeError,
    KernelPlacement,
    SearchStats,
    Translation,
    deformation_score,
    enumerate_translations_bruteforce,
    find_local_translation,
    is_edge_constrained,
    is_injective,
    snp_violations,
)
from .propagation import (
    PlacementMap,
    PlacementReport,
    SettleStats,
    closeness_centrality,
    init_kernel,
    most_central_vertex,
    parse_placements,
    placement_report,
    propagate,
    refine,
    serialize_placements,
)
from .layer import (
    GridCheckReport,
    SchemeError,
    WeightSharingScheme,
    build_scheme,
    export_scheme,
    import_scheme,
    verify_grid_equivalence,
)

__version__ = "0.1.0"
