"""Frozen low-complexity DFT kernels and their butterfly factorizations.

The 3-, 11-, and 31-point kernels are the quantized matrices at expansion
factor 9/8. Each factors exactly as A^T C A with A = diag(1, B_{n-1}) and C
block-diagonal over the multiplier set; the core comes from the same
conjugation that factors the exact transforms and is validated in integer
arithmetic against the dense kernel. ``pfadft.pfa.leaf_schedule`` compiles
[A, C, A^T] into the add/shift schedule that both executes the transform
and yields its operation count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .design import candidate_matrix, scale_vector
from .exactdft import KERNEL_LENGTHS, a_stage_matrix, derive_core
from .schedule import Schedule, compile_stages

OPTIMAL_ALPHA = 9.0 / 8.0


@lru_cache(maxsize=None)
def kernel(n: int) -> np.ndarray:
    """Dense low-complexity kernel at the selected expansion factor.

    Entries are multiples of 1/2 and exactly representable, so the returned
    complex128 matrix is exact.
    """
    if n not in KERNEL_LENGTHS:
        raise ValueError(f"no approximate kernel for n={n}")
    return candidate_matrix(n, OPTIMAL_ALPHA)


@dataclass(frozen=True)
class KernelFactorization:
    """A^T C A decomposition of a dense kernel."""

    n: int
    a_matrix: np.ndarray      # integer butterfly stage diag(1, B_{n-1})
    core: np.ndarray          # block-diagonal complex core, entries in halves

    def dense(self) -> np.ndarray:
        """Exact dense expansion of the factorization (integer arithmetic)."""
        A = self.a_matrix
        c2re = np.rint(2 * self.core.real).astype(np.int64)
        c2im = np.rint(2 * self.core.imag).astype(np.int64)
        re2 = A.T @ c2re @ A
        im2 = A.T @ c2im @ A
        return (re2 + 1j * im2) / 2.0


@lru_cache(maxsize=None)
def factorization(n: int) -> KernelFactorization:
    """Derive the butterfly factorization of kernel(n), exactly.

    The core is the block-diagonal conjugation of the kernel by
    diag(1, B_{n-1}) (see :func:`pfadft.exactdft.derive_core`); it is checked
    to stay inside the multiplier set and to reproduce the kernel exactly.
    """
    T = kernel(n)
    A = a_stage_matrix(n)
    core = derive_core(T)
    vals = set(np.abs(core.real).ravel()) | set(np.abs(core.imag).ravel())
    if not vals <= {0.0, 0.5, 1.0}:
        raise ValueError(f"core entries leave the multiplier set: {sorted(vals)}")
    fact = KernelFactorization(n, A, core)
    if np.abs(fact.dense() - T).max() != 0.0:
        raise ValueError("factorization does not reproduce the dense kernel")
    return fact


@lru_cache(maxsize=None)
def approx_dense_schedule(n: int) -> Schedule:
    """Schedule for the unfactorized kernel (dense row sums)."""
    return compile_stages([kernel(n)], n)


# ---------------------------------------------------------------------------
# scale radicand

@lru_cache(maxsize=None)
def kernel_eta(n: int) -> Fraction:
    """Common radicand of the non-DC rows of kernel(n)."""
    sv = scale_vector(kernel(n))
    rads = sv.radicands
    if rads[0] != 1 or len(set(rads[1:])) != 1:
        raise ValueError("kernel scale does not have the diag(1, sqrt(eta) I) form")
    return rads[1]


# ---------------------------------------------------------------------------
# export

def kernel_to_json(n: int) -> str:
    """Dense kernel as exact dyadic triples [a, b, k], entry (a + j b) / 2^k with
    k = 0 when both parts are integers and 1 otherwise, for external verification."""
    T2 = np.rint(2 * kernel(n)).ravel()
    entries = [[a // 2, b // 2, 0] if a % 2 == 0 and b % 2 == 0 else [a, b, 1]
               for a, b in zip(T2.real.astype(int).tolist(), T2.imag.astype(int).tolist())]
    return json.dumps({"n": n, "alpha": "9/8", "entries": entries})
