"""Exact symbolic toolkit for centers of path, Cohn and Leavitt path algebras."""

from .center_theory import (
    CenterBounds,
    CenterStructure,
    center_bounds,
    center_prime_cohn,
    center_prime_leavitt,
    center_structure_KE,
    classify_prime_leavitt,
    graded_prime_ideals,
    is_prime_cohn,
    is_prime_leavitt,
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
    cycle_has_exit,
    cycles_without_exits,
    enumerate_hereditary_saturated,
    exit_free_cycle_vertices,
    find_cycles,
    hereditary_saturated_closure,
    is_downward_directed,
    quotient_graph,
)
from .graph_algebra import (
    COHN,
    LEAVITT,
    PATH,
    Algebra,
    GAElement,
    GMonomial,
    SpecialEdgeChoice,
    centrality_witness,
    check_central,
    normal_form,
)
from .oracle import (
    CentralSubspace,
    OracleWindow,
    central_subspace,
    verify_structure,
)
from .scalars import QQ, PrimeField, field_from_characteristic
from .textio import element_to_text, parse_graph

# loaded for `perfbench/tracing.py`, which wraps `path_algebra.KEElement`
from . import path_algebra  # noqa: F401

__version__ = "0.1.0"
