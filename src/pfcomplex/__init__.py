"""Piecewise-flat simplicial complexes and their certificates."""

from .complexes import (
    CollapseResult,
    Complex,
    FreeFacePair,
    QuotientDegeneracyError,
    QuotientResult,
    build_complex,
    canonical_simplex,
    collapse_core,
    disjoint_union,
    euler_characteristic,
    free_face_check,
    free_faces,
    link,
    quotient,
    star,
)
from .metric import (
    Arc,
    EccentricityBounds,
    MetricComplex,
    MetricError,
    MetricGraph,
    cat0_two_complex_check,
    corner_angle,
    dihedral_angle,
    edge_link_graph,
    extendability_check,
    gauss_bonnet,
    gauss_bonnet_check,
    girth,
    link_condition_check,
    metric_disjoint_union,
    metric_quotient,
    min_eccentricity,
    npc_edge_link_check,
    realizable,
    shortest_cycle,
    validate_metric,
    vertex_link_graph,
)
from .homology import (
    BettiVector,
    ChainMatrix,
    betti,
    boundary_matrix,
    local_homology,
    solid_chain_check,
)
from .builders import (
    GcifyResult,
    box_complex,
    example1_interface_complex,
    example_complex,
    example_report,
    flat_torus2,
    flat_torus3,
    free_group_complex,
    gcify,
    genus_surface,
    glue_double_tori,
    house_with_two_rooms,
    midpoint_subdivision,
    simplex_complex,
)
from .pfcio import parse, serialize
from .report import CheckItem, CheckReport, PfcError

__version__ = "0.1.0"
