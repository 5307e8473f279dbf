"""Sparse-graph majority/LDGM codes over erasure channels.

Construction and simulation of low-density majority codes (LDMCs), LDGMs and
their mixtures; belief-propagation decoding; exact bit-MAP via F2 rank
computations; erasure/entropy polynomial machinery with density-evolution
bounds; and single-/two-point converse bounds for graceful-degradation
analysis.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .channels import (
    BMSummary,
    ChannelParam,
    ReceivedWord,
    bms_metrics,
    h_b,
    h_b_inv,
    matched_surrogates,
    mgl_variant_check,
    transmit,
)
from .ensemble import (
    CheckKind,
    DegreeProfile,
    EnsembleSpec,
    FactorGraph,
    InfeasibleSpecError,
    SamplingFailureError,
    degree_stats,
    encode,
    parse_graph,
    parse_profile,
    sample_graph,
    serialize_graph,
    serialize_profile,
)
from .exactdec import (
    BitMatrix,
    ContradictionError,
    HrankResult,
    map_ber_linear,
    rank_hrank,
    subsample,
)
from .bp import BeliefState, DecodeResult, measure, run_bp
from .efun import (
    EFunctionFamily,
    EPolynomial,
    MessageAlphabet,
    build_family,
    d_function,
    error_poly,
    f_alphabet,
    first_zero,
)
from .devo import (
    DEBounds,
    DETrace,
    bounds_from_traces,
    fixed_point,
    iterate,
    large_d_bound,
)
from .converse import (
    ExitResult,
    area_two_point,
    exit_tools,
    general_two_point,
    linear_single_point,
    linear_two_point,
    repetition_domination,
    shannon_single_point,
    threshold_comparison,
)
from .optimize import (
    OptProblem,
    OptResult,
    objective,
    optimize_profile,
    project_simplex,
)

__all__ = [
    "__version__",
    # channels
    "ChannelParam", "ReceivedWord", "BMSummary", "transmit", "bms_metrics",
    "matched_surrogates", "mgl_variant_check", "h_b", "h_b_inv",
    # ensemble
    "CheckKind", "DegreeProfile", "EnsembleSpec", "FactorGraph",
    "sample_graph", "encode", "degree_stats",
    "serialize_graph", "parse_graph", "parse_profile", "serialize_profile",
    "InfeasibleSpecError", "SamplingFailureError",
    # exactdec
    "BitMatrix", "HrankResult", "rank_hrank", "subsample", "map_ber_linear",
    "ContradictionError",
    # bp
    "BeliefState", "DecodeResult", "run_bp", "measure",
    # efun
    "EPolynomial", "MessageAlphabet", "EFunctionFamily", "f_alphabet",
    "error_poly", "build_family", "d_function", "first_zero",
    # devo
    "DETrace", "DEBounds", "iterate", "bounds_from_traces", "fixed_point",
    "large_d_bound",
    # converse
    "ExitResult", "shannon_single_point",
    "linear_single_point", "linear_two_point", "general_two_point",
    "area_two_point", "repetition_domination", "exit_tools",
    "threshold_comparison",
    # optimize
    "OptProblem", "OptResult", "objective", "optimize_profile",
    "project_simplex",
]
