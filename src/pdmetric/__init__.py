"""Exact metric geometry of persistence diagrams over metric pairs.

The package computes exact bottleneck and p-Wasserstein distances between
finite diagrams over a metric pair (X, A), produces optimal matchings and
constant-speed geodesics, and runs desk-scale probes of the diagram
space's metric structure (discreteness bounds, Cauchy limits, epsilon-nets
and dense families, a separability adversary, and the sup-cube truncation
gap obstructing geodesics).
"""

from .diagram import (
    Diagram,
    canonicalize,
    empty_diagram,
    parse_diagram,
    write_diagram,
)
from .errors import (
    CoverageGap,
    EmptyAnnulus,
    InvalidMetric,
    NoGeodesicOracle,
    NotCauchy,
    ParseError,
    PdmetricError,
    PreconditionViolated,
    SpaceMismatch,
    TooLarge,
)
from .geodesics import (
    DiagramPath,
    GoodnessCertificate,
    GoodnessReason,
    Route,
    c0_truncation_gap,
    geodesic_between,
    goodness,
    midpoint_check,
)
from .matching import (
    MatchedPair,
    Matching,
    bottleneck,
    brute_force_dp,
    candidate_thresholds,
    feasible_at_threshold,
    matching_from_json,
    matching_to_json,
    total_persistence,
    wasserstein,
)
from .probes import (
    DenseFamily,
    EpsNet,
    ProbeReport,
    Verdict,
    approximate_from_family,
    cauchy_chain_limit,
    dense_family,
    greedy_eps_net,
    isolated_point_bound,
    net_growth_probe,
    separability_adversary,
    vanishing_pair_demo,
)
from .spaces import (
    BASEPOINT,
    EUCLIDEAN,
    SUP,
    BasepointTag,
    FiniteExplicit,
    HalfLineOrigin,
    MetricPair,
    PlaneDiagonal,
    Point,
    QuotientOf,
    SupCubeTruncatedC0,
    quotient_distance,
    quotient_geodesic,
    space_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spaces
    "SUP",
    "EUCLIDEAN",
    "Point",
    "BasepointTag",
    "BASEPOINT",
    "MetricPair",
    "PlaneDiagonal",
    "HalfLineOrigin",
    "FiniteExplicit",
    "SupCubeTruncatedC0",
    "QuotientOf",
    "quotient_distance",
    "quotient_geodesic",
    "space_from_json",
    # diagrams
    "Diagram",
    "canonicalize",
    "empty_diagram",
    "parse_diagram",
    "write_diagram",
    # matching
    "MatchedPair",
    "Matching",
    "candidate_thresholds",
    "feasible_at_threshold",
    "bottleneck",
    "wasserstein",
    "brute_force_dp",
    "total_persistence",
    "matching_to_json",
    "matching_from_json",
    # geometry
    "GoodnessReason",
    "GoodnessCertificate",
    "goodness",
    "Route",
    "DiagramPath",
    "geodesic_between",
    "midpoint_check",
    "c0_truncation_gap",
    # probes
    "Verdict",
    "ProbeReport",
    "EpsNet",
    "DenseFamily",
    "isolated_point_bound",
    "vanishing_pair_demo",
    "cauchy_chain_limit",
    "greedy_eps_net",
    "net_growth_probe",
    "dense_family",
    "approximate_from_family",
    "separability_adversary",
    # errors
    "PdmetricError",
    "SpaceMismatch",
    "NoGeodesicOracle",
    "InvalidMetric",
    "TooLarge",
    "ParseError",
    "PreconditionViolated",
    "NotCauchy",
    "EmptyAnnulus",
    "CoverageGap",
]
