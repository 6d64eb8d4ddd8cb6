"""Weighted geometric means and principal powers of accretive matrices,
with a randomized verification harness for the associated inequality
catalog.

The mean A #_r B extends from positive definite to accretive matrices via
principal branches and stays computable on r in (-1,0) u (0,1) u (1,2)
through branch-specific integral representations discretized by
Gauss-Jacobi quadrature.
"""

from .linalg import LapackError, PreconditionError, SingularMatrixError
from .sectors import (
    MAX_DIM,
    SectorCertificate,
    derive_seed,
    gen_accretive,
    gen_pd,
    gen_sectorial,
    gen_unitary,
    in_sector,
    is_accretive,
    sector_angle,
    validate_sector_angle,
)
from .quadrature import (
    NodeBudgetError,
    QuadratureRule,
    jacobi_exponents,
    mean_order_branch,
    quadrature_rule,
)
from .means import (
    EigenbasisConditionError,
    NonAccretiveWarning,
    PrincipalBranchError,
    arithmetic_mean,
    geometric_mean,
    geometric_mean_integral,
    harmonic_mean,
    principal_power,
    principal_power_eigen,
    principal_power_quad,
)
from .maps import (
    MAP_KINDS,
    Compression,
    Pinching,
    TraceAverage,
    UnitaryMixture,
    apply_map,
    random_map,
)
from .norms import numerical_radius, ui_norm
from .checks import EvalContext, catalog, check_by_id, informational_catalog, suite_ids
from .runner import (
    RunConfig,
    replay_trial,
    run_check,
    run_suite,
    sample_instance,
)
from .matrixio import MatrixFormatError, dumps_matrix, loads_matrix, parse_matrix, write_matrix

__version__ = "0.1.0"

__all__ = [
    "MAX_DIM",
    "MAP_KINDS",
    "Compression",
    "EigenbasisConditionError",
    "EvalContext",
    "LapackError",
    "MatrixFormatError",
    "NodeBudgetError",
    "NonAccretiveWarning",
    "Pinching",
    "PreconditionError",
    "PrincipalBranchError",
    "QuadratureRule",
    "RunConfig",
    "SectorCertificate",
    "SingularMatrixError",
    "TraceAverage",
    "UnitaryMixture",
    "apply_map",
    "arithmetic_mean",
    "catalog",
    "check_by_id",
    "derive_seed",
    "dumps_matrix",
    "gen_accretive",
    "gen_pd",
    "gen_sectorial",
    "gen_unitary",
    "geometric_mean",
    "geometric_mean_integral",
    "harmonic_mean",
    "in_sector",
    "informational_catalog",
    "is_accretive",
    "jacobi_exponents",
    "loads_matrix",
    "mean_order_branch",
    "numerical_radius",
    "parse_matrix",
    "principal_power",
    "principal_power_eigen",
    "principal_power_quad",
    "quadrature_rule",
    "random_map",
    "replay_trial",
    "run_check",
    "run_suite",
    "sample_instance",
    "sector_angle",
    "suite_ids",
    "ui_norm",
    "validate_sector_angle",
    "write_matrix",
]
