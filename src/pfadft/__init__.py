"""Multiplierless DFT approximations on the prime-factor algorithm.

Low-complexity transform kernels (entries in {0, +-1/2, +-1}) composed
through coprime index mappings, with exact operation accounting and the
error/frequency-response analysis tooling to validate them.
"""

from .analysis import (cosine_probe, filter_response, response_error_curve,
                       row_error_table, worst_rows)
from .complexity import complexity_report, count_plan
from .design import (alpha_interval, candidate_matrix, error_energy, mape,
                     orth_deviation, scale_vector, select_optimal, sweep_alpha)
from .dyadic import CsdCode, csd_encode, csd_eval
from .exactdft import dft_matrix
from .kernels import factorization, kernel, kernel_to_json
from .pfa import (ExecutionPlan, apply_kernel_fast, assemble_scale, build_index_maps,
                  dense_matrix, execute, fast_exact, instrumented_count, plan,
                  plan_from_json, plan_to_json)
from .schedule import OpCount

__version__ = "0.1.0"

__all__ = [
    "CsdCode", "ExecutionPlan", "OpCount",
    "alpha_interval", "apply_kernel_fast", "assemble_scale",
    "build_index_maps", "candidate_matrix", "complexity_report",
    "cosine_probe", "count_plan",
    "csd_encode", "csd_eval", "dense_matrix", "dft_matrix",
    "error_energy", "execute", "factorization", "fast_exact",
    "filter_response", "instrumented_count", "kernel",
    "kernel_to_json", "mape", "orth_deviation", "plan", "plan_from_json",
    "plan_to_json", "response_error_curve",
    "row_error_table", "scale_vector", "select_optimal", "sweep_alpha",
    "worst_rows",
]
