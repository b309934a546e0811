"""specgate: certified spectra of non-Hermitian banded infinite matrices.

Compute eigenvalues, eigenfunctions, pseudospectra and eigenvalue condition
numbers of operators given by entry rules, and certify each eigenvalue
inside a rigorous enclosure by combining interval-arithmetic residual
bounds with per-operator resolvent inversion constants.
"""

from .intervals import IntervalError
from .ltp import (GAP_FLOOR_CUBIC, GapMembershipError, LTPModel, c_of_m,
                  cubic_ltp_model, dist_bound, harmonic_ltp_model,
                  kappa_bound, lambda_asymptotic, lattice_ltp_model,
                  model_for_operator, model_from_json)
from .operators import (OperatorSpec, harmonic_oscillator_operator,
                        hermite_cubic_operator, lattice_longrange_operator,
                        load_plugin_operator)
from .precision import DOUBLE, PrecisionContext, bigfloat, guard_digits, parse_precision
from .sigma import gamma, left_null_vector, smallest_singular
from .solver import (ConditionResult, GridResult, GapScanError,
                     bootstrap_certify, condition_number,
                     evaluate_eigenfunction, pseudospectrum_grid)
from .truncation import TailError, rectangular, square, tail_padding
from .verify import (Bound, CertificationError, Enclosure, certify_eigenvalue,
                     eigenvector_error_bound, verified_residual)

__version__ = "0.1.0"

__all__ = [
    "IntervalError",
    "GAP_FLOOR_CUBIC", "GapMembershipError", "LTPModel", "c_of_m",
    "cubic_ltp_model", "dist_bound", "harmonic_ltp_model", "kappa_bound",
    "lambda_asymptotic", "lattice_ltp_model", "model_for_operator",
    "model_from_json",
    "OperatorSpec", "harmonic_oscillator_operator",
    "hermite_cubic_operator", "lattice_longrange_operator",
    "load_plugin_operator",
    "DOUBLE", "PrecisionContext", "bigfloat", "guard_digits", "parse_precision",
    "gamma", "left_null_vector", "smallest_singular",
    "ConditionResult", "GridResult", "GapScanError", "bootstrap_certify",
    "condition_number", "evaluate_eigenfunction", "pseudospectrum_grid",
    "TailError", "rectangular", "square", "tail_padding",
    "Bound", "CertificationError", "Enclosure", "certify_eigenvalue",
    "eigenvector_error_bound", "verified_residual",
]
