"""Refined arithmetic-geometric mean ratio bounds, certified numerically.

The package evaluates the classical two-term mean ratio
R(t, v) = ((1-v) + v t) / t^v together with a catalog of named upper and
lower bounds on it (exponential, polynomial, Kantorovich-power, reciprocal,
and deformed-exponential families), sweeps each bound over its validity
region, searches for evidence that pairs of bounds are not ordered, and
lifts the bounds to Hermitian positive-definite matrices in the Loewner
order under spectral-sandwich hypotheses.  A CLI (``youngbounds``) exposes
the same operations with JSON/CSV reports.
"""

from .catalog import (
    BoundSpec,
    Certificate,
    ChainLink,
    bound_ids,
    certify_point,
    chain_check,
    evaluate,
    evaluate_grid,
    get_bound,
    list_bounds,
    tightest,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    RegionError,
    SandwichViolationError,
    UnknownBoundError,
    UnknownDiffError,
    WitnessNotFoundError,
    YoungBoundsError,
)
from .operators import (
    HermitianMatrix,
    OperatorCertificate,
    SandwichSpec,
    certify_corollary_one,
    certify_corollary_two,
    hermitian_power,
    loewner_leq,
    read_matrix,
    validate_sandwich,
    weighted_arithmetic,
    weighted_geometric,
    write_matrix,
)
from .scalar import (
    DeformParam,
    EvalPoint,
    deformed_exp,
    deformed_exp_raw,
    kantorovich,
    kantorovich_identity_arg,
    young_ratio,
)
from .verify import (
    DIFF_PRESETS,
    REMARK_VALUES,
    NonOrderingWitness,
    Region,
    RemarkRow,
    SweepReport,
    diff_ids,
    eval_diff,
    find_sign_change,
    reproduce_remarks,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BoundSpec",
    "Certificate",
    "ChainLink",
    "DeformParam",
    "DIFF_PRESETS",
    "DimensionMismatchError",
    "DomainError",
    "EvalPoint",
    "HermitianMatrix",
    "NonOrderingWitness",
    "NotPositiveDefiniteError",
    "OperatorCertificate",
    "Region",
    "RegionError",
    "RemarkRow",
    "REMARK_VALUES",
    "SandwichSpec",
    "SandwichViolationError",
    "SweepReport",
    "UnknownBoundError",
    "UnknownDiffError",
    "WitnessNotFoundError",
    "YoungBoundsError",
    "bound_ids",
    "certify_corollary_one",
    "certify_corollary_two",
    "certify_point",
    "chain_check",
    "deformed_exp",
    "deformed_exp_raw",
    "diff_ids",
    "eval_diff",
    "evaluate",
    "evaluate_grid",
    "find_sign_change",
    "get_bound",
    "hermitian_power",
    "kantorovich",
    "kantorovich_identity_arg",
    "list_bounds",
    "loewner_leq",
    "read_matrix",
    "reproduce_remarks",
    "sweep",
    "tightest",
    "validate_sandwich",
    "weighted_arithmetic",
    "weighted_geometric",
    "write_matrix",
    "young_ratio",
]
