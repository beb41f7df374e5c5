"""Exchangeable random graphs from graphexes: declaration, expectation
formulas, sampling and Monte Carlo validation."""

from .expr import EvalError, Expr, ExprError, ParseError, parse
from .finiteness import ConditionVerdict, FinitenessReport, check_local_finiteness
from .graphstats import (
    DegreeHistogram,
    counts,
    degree_histogram,
    degrees,
    largest_component,
    largest_component_size,
    sparsity_ratio,
)
from .harness import (
    ConnectivityReport,
    DegreeLawReport,
    HarnessError,
    ProjectivityReport,
    ValidationReport,
    connectivity_experiment,
    degdist_experiment,
    projectivity_test,
    validate_expectations,
)
from .model import FAMILIES, Graphex, GraphexError, SpecError, build, build_from_json, dilate
from .quadrature import IntegralResult, QuadratureError, poisson_tail
from .rng import derive_key, stream
from .sampler import (
    SampledGraph,
    SamplerConfig,
    SamplerError,
    choose_theta_max,
    restrict,
    sample_keg,
    sample_planted_degrees,
)
from .theory import (
    ExpectationResult,
    InfiniteExpectationError,
    TheoryError,
    degree_ccdf,
    degree_pmf,
    expected_degree_count,
    expected_edges,
    expected_vertices,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionVerdict",
    "ConnectivityReport",
    "DegreeHistogram",
    "DegreeLawReport",
    "EvalError",
    "ExpectationResult",
    "Expr",
    "ExprError",
    "FAMILIES",
    "FinitenessReport",
    "Graphex",
    "GraphexError",
    "HarnessError",
    "InfiniteExpectationError",
    "IntegralResult",
    "ParseError",
    "ProjectivityReport",
    "QuadratureError",
    "SampledGraph",
    "SamplerConfig",
    "SamplerError",
    "SpecError",
    "TheoryError",
    "ValidationReport",
    "build",
    "build_from_json",
    "check_local_finiteness",
    "choose_theta_max",
    "connectivity_experiment",
    "counts",
    "degdist_experiment",
    "degree_ccdf",
    "degree_histogram",
    "degree_pmf",
    "degrees",
    "derive_key",
    "dilate",
    "expected_degree_count",
    "expected_edges",
    "expected_vertices",
    "largest_component",
    "largest_component_size",
    "parse",
    "poisson_tail",
    "projectivity_test",
    "restrict",
    "sample_keg",
    "sample_planted_degrees",
    "sparsity_ratio",
    "stream",
    "validate_expectations",
    "__version__",
]
