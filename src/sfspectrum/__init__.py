"""Structurally fixed spectra of parameterized multi-channel linear systems.

The toolkit decides whether a polynomially or linearly parameterized
multi-channel system keeps a fixed spectrum for every parameter value, via
three cross-checkable routes (pencil sampling, closed-loop generic rank plus
subspace dimensions, and colored-graph balance / connectivity), and computes
numeric fixed spectra at chosen parameter points.
"""

from .polymatrix import (
    FIELD_PRIME,
    ParamMatrix,
    ParamPoint,
    ParamPoly,
    rank_exact,
)
from .system import (
    ChannelSubset,
    Classification,
    LinearParamDecomposition,
    MultiChannelSystem,
    NotLinearlyParameterized,
    classify,
    detect_linear_parameterization,
    split,
    stack,
)
from .fixedmodes import (
    FixedSpectrumResult,
    FloatRangeError,
    NumericSystem,
    fixed_spectrum,
    pencil_rank_deficient,
    random_feedback_oracle,
)
from .structural import (
    GenericDims,
    StructuralVerdict,
    closed_loop_generic_rank,
    decide_linear,
    decide_polynomial,
    generic_dims,
    markov_identity,
)
from .graph import (
    CycleSubgraph,
    EnumerationBudgetExceeded,
    NonBinaryParameterization,
    SimilarityClass,
    SystemGraph,
    build_graph,
    decide_graphical,
    enumerate_cycle_subgraphs,
    export_dot,
    similarity_classes,
    state_only_scc_exists,
)

__version__ = "0.1.0"

__all__ = [
    "FIELD_PRIME",
    "ParamPoly",
    "ParamMatrix",
    "ParamPoint",
    "rank_exact",
    "MultiChannelSystem",
    "ChannelSubset",
    "LinearParamDecomposition",
    "Classification",
    "NotLinearlyParameterized",
    "stack",
    "split",
    "detect_linear_parameterization",
    "classify",
    "NumericSystem",
    "FloatRangeError",
    "FixedSpectrumResult",
    "pencil_rank_deficient",
    "fixed_spectrum",
    "random_feedback_oracle",
    "StructuralVerdict",
    "GenericDims",
    "decide_polynomial",
    "decide_linear",
    "markov_identity",
    "generic_dims",
    "closed_loop_generic_rank",
    "SystemGraph",
    "CycleSubgraph",
    "SimilarityClass",
    "NonBinaryParameterization",
    "EnumerationBudgetExceeded",
    "build_graph",
    "state_only_scc_exists",
    "enumerate_cycle_subgraphs",
    "similarity_classes",
    "decide_graphical",
    "export_dot",
]
