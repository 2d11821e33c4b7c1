"""Finite-scale LOCAL-model simulation and a constructive local-lemma
engine with exact rational certificates."""

from .canonical import CanonicalForm, canonical_type
from .connect import (
    Connection,
    Reduction,
    apply,
    compose,
    identity_connection,
    identity_reduction,
    pull_partial,
)
from .csp import (
    Constraint,
    Csp,
    PartialAssignment,
    discrete_partition,
    is_solution,
    probability,
    restrict_constraint,
    restrict_csp,
    stats,
)
from .binary import binary_reduce
from .compilers import BootstrapResult, bootstrap, rand_to_csp
from .engine import (
    LllVerdict,
    MoserTardosResult,
    WeightedGroundSet,
    construct_partial,
    cover_family,
    lll_check,
    moser_tardos_solve,
    solve_weighted,
    step,
)
from .generators import gadget_build, gadget_layout, generate
from .graphcsp import csp_to_lcl, decode_graph_csp, encode_graph_csp
from .graphs import (
    RootedBall,
    StructuredGraph,
    VertexLabeling,
    ball,
    build_graph,
    greedy_coloring,
    with_labeling,
)
from .localrun import (
    LclProblem,
    LocalAlgorithm,
    RunReport,
    det_pipeline,
    run_deterministic,
    verify_lcl,
)
from .algorithms import builtin_algorithm, proper_coloring_problem

__all__ = [name for name in dir() if not name.startswith("_")]
