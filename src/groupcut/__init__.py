"""Exact construction, verification, and certification of periodic
piecewise-linear cut-generating functions, all over rational arithmetic."""

from .errors import DomainError, FormatError, NotMinimal
from .pwl import Interval, PeriodicPWL, rat
from .constructions import (gmi, interval_system, new_slope,
                            pi_infinity_value, pi_k, pi_k_reflected,
                            truncation_bound)
from .verification import (Certificate, brute_force_subadditive,
                           check_minimal, check_nonnegative, check_slope_census,
                           check_subadditive, check_symmetry, check_zero_set)
from .extremality import (equality_structure, replay_pi_k_facet_proof,
                          restricted_facet_test, two_slope_shortcut)
from .seqmerge import (MergedFn, check_lift_nondecreasing, eval_merged, phi_m,
                       pi_n_k, sample_subadditivity_nd)

__all__ = [
    "DomainError", "FormatError", "NotMinimal",
    "Interval", "PeriodicPWL", "rat",
    "gmi", "interval_system", "new_slope", "pi_infinity_value", "pi_k",
    "pi_k_reflected", "truncation_bound",
    "Certificate", "brute_force_subadditive", "check_minimal",
    "check_nonnegative", "check_slope_census", "check_subadditive",
    "check_symmetry", "check_zero_set",
    "equality_structure", "replay_pi_k_facet_proof", "restricted_facet_test",
    "two_slope_shortcut",
    "MergedFn", "check_lift_nondecreasing", "eval_merged", "phi_m", "pi_n_k",
    "sample_subadditivity_nd",
]

__version__ = "1.0.0"
