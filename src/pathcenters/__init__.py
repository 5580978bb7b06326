"""Exact symbolic toolkit for centers of path, Cohn and Leavitt path algebras."""

from .center_theory import (
    CenterBounds,
    CenterStructure,
    center_bounds,
    center_prime_cohn,
    center_prime_leavitt,
    center_structure_KE,
    classify_prime_leavitt,
    cycle_center_evaluate,
    graded_prime_ideals,
    is_prime_cohn,
    is_prime_leavitt,
    uniqueness_check_exit_free,
    verify_bounds,
)
from .errors import (
    AmbientError,
    GraphError,
    HypothesisNotMet,
    InvariantViolation,
    ParseError,
    PathcentersError,
    ResourceCapExceeded,
    WordError,
)
from .graph import (
    Cycle,
    Graph,
    Path,
    classify_vertex,
    condition_L,
    connected_components,
    cycle_graph,
    cycle_has_exit,
    cycles_without_exits,
    disjoint_union,
    enumerate_hereditary_saturated,
    exit_free_cycle_vertices,
    extended_graph,
    find_cycles,
    hereditary_saturated_closure,
    is_downward_directed,
    line_graph,
    opposite_graph,
    quotient_graph,
    rose_graph,
    toeplitz_graph,
)
from .graph_algebra import (
    COHN,
    LEAVITT,
    PATH,
    Algebra,
    GAElement,
    GMonomial,
    SpecialEdgeChoice,
    T_operator,
    centrality_witness,
    check_central,
    cohn_to_leavitt_graph,
    fixed_point_subspace,
    normal_form,
    word_element,
)
from .oracle import (
    CentralSubspace,
    OracleWindow,
    central_subspace,
    graded_center_component,
    verify_structure,
)
from .path_algebra import left_annihilator_test
from .scalars import QQ, PrimeField, field_from_characteristic
from .textio import element_to_text, emit_graph, parse_element, parse_graph

__version__ = "0.1.0"
