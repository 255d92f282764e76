"""Certified inequality chains for strongly convex functions.

The package evaluates and certifies the two-sided majorization chain

    S_b f(y)  <=  S_a f(x) - c * (S_a x^2 - S_b y^2)
              <=  S_a f(x)  <=  endpoint bound,

its order-n generalization through an exact integral identity, and the
divergence sandwich it induces for Csiszar f-divergences.  See the
individual modules for the mathematics; the ``sherman-bounds`` console
script exposes the same operations on JSON inputs.  Without the
installed script, ``python -m sherman_bounds <subcommand> ...`` is the
same command.
"""

from .bounds import (
    BoundChain,
    CHAIN_SLACK,
    JensenBound,
    converse_sherman_strong,
    full_chain,
    jensen_strong,
    resolve_modulus,
)
from .convexity import (
    FunctionSpec,
    ModulusCertificate,
    SampleVerdict,
    check_derivative_consistency,
    divided_difference,
    estimate_strong_modulus,
    function_from_name,
    is_n_convex,
    is_n_strongly_convex,
    shift_to_convex,
)
from .divergence import (
    DistributionPair,
    DivergenceKernel,
    DivergenceSandwich,
    aggregated_divergence_bounds,
    catalog,
    csiszar_divergence,
    divergence_bounds,
    get_kernel,
)
from .errors import (
    DegenerateInterval,
    DimensionMismatch,
    DomainError,
    EmptyPoints,
    KernelConditionIndefinite,
    LengthMismatch,
    MajorizationNotVerified,
    MissingDerivative,
    ModulusNotCertified,
    NotMajorized,
    ParseError,
    PointOutOfInterval,
    QuadratureFailure,
    RatioOutOfDomain,
    ShermanBoundsError,
    ValidationError,
    WeightsNotNormalized,
    ZeroAggregateWeight,
)
from .fink import (
    FinkReport,
    HigherOrderBound,
    KernelCondition,
    check_kernel_condition,
    higher_order_sherman_bound,
    sherman_difference_identity,
)
from .majorization import (
    MajorizationCert,
    StochasticMatrix,
    VerificationResult,
    WeightedVector,
    generate_weighted_pair,
    majorizes,
    verify_weighted_majorization,
)

__version__ = "0.1.0"

__all__ = [
    "BoundChain",
    "CHAIN_SLACK",
    "DegenerateInterval",
    "DimensionMismatch",
    "DistributionPair",
    "DivergenceKernel",
    "DivergenceSandwich",
    "DomainError",
    "EmptyPoints",
    "FinkReport",
    "FunctionSpec",
    "HigherOrderBound",
    "JensenBound",
    "KernelCondition",
    "KernelConditionIndefinite",
    "LengthMismatch",
    "MajorizationCert",
    "MajorizationNotVerified",
    "MissingDerivative",
    "ModulusCertificate",
    "ModulusNotCertified",
    "NotMajorized",
    "ParseError",
    "PointOutOfInterval",
    "QuadratureFailure",
    "RatioOutOfDomain",
    "SampleVerdict",
    "ShermanBoundsError",
    "StochasticMatrix",
    "ValidationError",
    "VerificationResult",
    "WeightedVector",
    "WeightsNotNormalized",
    "ZeroAggregateWeight",
    "aggregated_divergence_bounds",
    "catalog",
    "check_derivative_consistency",
    "check_kernel_condition",
    "converse_sherman_strong",
    "csiszar_divergence",
    "divergence_bounds",
    "divided_difference",
    "estimate_strong_modulus",
    "full_chain",
    "function_from_name",
    "generate_weighted_pair",
    "get_kernel",
    "higher_order_sherman_bound",
    "is_n_convex",
    "is_n_strongly_convex",
    "jensen_strong",
    "majorizes",
    "resolve_modulus",
    "sherman_difference_identity",
    "shift_to_convex",
    "verify_weighted_majorization",
]
