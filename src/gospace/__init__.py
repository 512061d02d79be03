"""Geodesic-orbit and natural-reductivity checks for compact homogeneous
spaces carrying block-norm (multi-summand) metrics.

The pipeline: build a compact Lie algebra from structure constants
(:mod:`gospace.liealg`), split it into a reductive pair and invariant
summands (:mod:`gospace.homspace`), put a block norm on the tangent space
(:mod:`gospace.finsler`), then decide geodesic-orbit / naturally-reductive
properties (:mod:`gospace.gocheck`), either on your own space or on the
built-in catalog (:mod:`gospace.catalog`).  One projection per direction
fills both GO fields of a report; :func:`gospace.gocheck.latifi_residuals`
is the independent check.
"""

from . import errors
from .catalog import list_catalog, make_space
from .errors import GoSpaceError
from .finsler import (LFunction, PhiProfile, f_squared, l_from_phi, l_linear,
                      l_pert3, metric_operator, parse_metric,
                      strong_convexity_check)
from .gocheck import (GO, INCONCLUSIVE, NOT_GO, NOT_NR, NR, CheckReport,
                      centralizer_condition_check, go_verdict, nr_check,
                      reports, residuals, sample_plan, two_summand_phi_check,
                      verdicts, wallach_system_check)
from .homspace import (Decomposition, HomogeneousSpace, build,
                       centralizer_in_h, invariance_residual,
                       isotropy_decompose, symmetric_commutant_dim,
                       tilde_centralizer)
from .liealg import (LieAlgebra, direct_sum, from_matrices, jacobi_residual,
                     q_invariance_residual, quaternionify, realify,
                     so_matrices, sp_matrices, su_matrices)
from .suites import (BATTERY_THREE_BLOCK, BATTERY_TWO_BLOCK, SUITE_NAMES,
                     SuiteResult, run_suite)

__version__ = "0.1.0"

__all__ = [
    "list_catalog", "make_space",
    "GoSpaceError",
    "LFunction", "PhiProfile", "f_squared", "l_from_phi", "l_linear",
    "l_pert3", "metric_operator", "parse_metric", "strong_convexity_check",
    "GO", "INCONCLUSIVE", "NOT_GO", "NOT_NR", "NR", "CheckReport",
    "centralizer_condition_check", "go_verdict", "nr_check", "reports",
    "residuals", "sample_plan", "two_summand_phi_check", "verdicts",
    "wallach_system_check",
    "Decomposition", "HomogeneousSpace", "build", "centralizer_in_h",
    "invariance_residual", "isotropy_decompose", "symmetric_commutant_dim",
    "tilde_centralizer",
    "LieAlgebra", "direct_sum", "from_matrices", "jacobi_residual",
    "q_invariance_residual", "quaternionify", "realify", "so_matrices",
    "sp_matrices", "su_matrices",
    "BATTERY_THREE_BLOCK", "BATTERY_TWO_BLOCK", "SUITE_NAMES", "SuiteResult",
    "run_suite",
]
