"""Least-eigenvalue frameworks, universal completability, vector colorings.

The library builds the eigenspace framework of a graph's smallest
adjacency eigenvalue, decides whether that framework is universally
completable by solving an exact linear system, enumerates the frameworks
it dominates, and computes certified optimal vector colorings for
1-walk-regular graphs. Everything with an integer least eigenvalue runs in
exact rational arithmetic; the floating backend covers the rest.
"""

from .coloring import (
    ColoringVerdict,
    OneWalkRegularCertificate,
    UVCResult,
    VectorColoring,
    is_one_walk_regular,
    is_uniquely_vector_colorable_1wr,
    optimal_vector_coloring_1wr,
    validate_coloring,
)
from .completability import (
    ConditionReport,
    UCVerdict,
    XSpaceBasis,
    clique_condition,
    clique_condition_any,
    dominated_frameworks,
    gershgorin_scale,
    is_universally_completable,
    neighborhood_condition,
    phi,
    phi_inverse,
    xspace,
)
from .errors import (
    EigenframeError,
    Graph6Error,
    InternalCheckError,
    NumericalError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .exact import (
    CayleySpectrum,
    ExactMatrix,
    LeastEigenspace,
    Spectrum,
    adjacency_matrix,
    cayley_spectrum,
    is_psd_exact,
    least_eigenspace,
    nullspace,
    projector_onto_nullspace,
    rank_exact,
)
from .frameworks import (
    Framework,
    StressMatrix,
    canonical_stress,
    congruent,
    dominates,
    kneser_framework,
    least_eigenvalue_framework,
    qkneser_framework,
)
from .graphs import (
    CayleySpec,
    Graph,
    cayley_z2,
    complement,
    cycle,
    emit_graph6,
    from_edges,
    induced_subgraph,
    is_split,
    kneser,
    maximal_cliques,
    parse_graph6,
    q_kneser,
)
from .survey import SurveyRecord, SurveyReport, enumerate_orbits, run_survey, survey_one

__version__ = "0.1.0"
