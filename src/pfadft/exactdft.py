"""Exact DFT matrices and the butterfly conjugation that factors them.

``dft_matrix`` is the literal O(N^2) definition; ``dft_matrix(n) @ x`` is
the oracle for the equivalence tests in the suite. ``derive_core``
conjugates a transform by the +-1 butterfly stage ``a_stage_matrix`` into a
block-diagonal core (a real cosine block and a pure imaginary sine block),
which removes the redundant arithmetic. The exact and approximate 3-, 11-
and 31-point leaves share that stage (see ``pfadft.pfa.leaf_schedule``).
"""
from __future__ import annotations

import numbers

import numpy as np

#: lengths with a fast factorized transform: the exact transforms here and
#: the approximate kernels of ``pfadft.kernels``
KERNEL_LENGTHS = (3, 11, 31)

#: longest transform built from the definition: plan leaves and sweeps stop
#: here, since a definition schedule compiles n^2 operations (about 4 s and
#: 134 MiB already at n = 512)
MAX_DEFINITION_LENGTH = 512


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def dft_matrix(n: int) -> np.ndarray:
    """The n x n matrix of powers of the principal n-th root of unity."""
    if not _is_integer(n) or n < 1:
        raise ValueError(f"transform length must be a positive integer, got {n!r}")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def a_stage_matrix(n: int) -> np.ndarray:
    """diag(1, B_{n-1}) for odd n: passes the DC sample and butterflies the
    rest. B = [[I, J], [-J, I]], J the counter-identity, so B^T B = 2 I."""
    if n % 2 != 1:
        raise ValueError(f"the butterfly stage needs an odd length, got {n}")
    h = (n - 1) // 2
    B = np.zeros((n - 1, n - 1), dtype=np.int64)
    B[:h, :h] = np.eye(h, dtype=np.int64)
    B[:h, h:] = np.eye(h, dtype=np.int64)[::-1]
    B[h:, :h] = -np.eye(h, dtype=np.int64)[::-1]
    B[h:, h:] = np.eye(h, dtype=np.int64)
    A = np.zeros((n, n), dtype=np.int64)
    A[0, 0] = 1
    A[1:, 1:] = B
    return A


def derive_core(dense: np.ndarray) -> np.ndarray:
    """Conjugate a conjugate-symmetric transform matrix into its core.

    Returns C with dense = A^T C A, where A = diag(1, B_{n-1}). Since
    A A^T = D = diag(1, 2, ..., 2), C = D^-1 A dense A^T D^-1. Entries within
    1e-12 of a multiple of 1/2 are snapped to it: the conjugation reproduces
    rational core entries (0, +-1/2, +-1) of the exact transforms only to
    floating precision, and snapping restores them so the schedule compiler
    classifies them as shifts rather than general multiplications. Matrices
    with entries in halves come out exact and are left unchanged. C must be
    block-diagonal (real block of order (n+1)/2, imaginary block of order
    (n-1)/2); anything else means the input lacked the required symmetry and
    is reported as an error.
    """
    n = dense.shape[0]
    h = (n - 1) // 2
    A = a_stage_matrix(n)
    d = np.full(n, 0.5)
    d[0] = 1.0
    C = d[:, None] * (A @ dense @ A.T) * d
    for part in (C.real, C.imag):
        snapped = np.round(2 * part) / 2
        near = np.abs(part - snapped) <= 1e-12
        part[near] = snapped[near]
    if (C[: h + 1, h + 1:].any() or C[h + 1:, : h + 1].any()
            or C[: h + 1, : h + 1].imag.any() or C[h + 1:, h + 1:].real.any()):
        raise ValueError("matrix does not reduce to a block-diagonal core")
    return C
