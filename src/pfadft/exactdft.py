"""Exact DFT reference paths.

``dft_matrix`` is the literal O(N^2) definition; ``dft_matrix(n) @ x`` is
the oracle for the equivalence tests in the suite. ``fast_exact`` provides
the butterfly-factorized exact transforms for lengths 3, 11, and 31: the matrix
is conjugated into a block-diagonal core (a real cosine block and a pure
imaginary sine block) by the same +-1 butterfly stage the approximate
kernels use, which is what removes the redundant arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .schedule import Schedule, compile_stages, run_numpy

#: lengths with a fast factorized transform: the exact transforms here and
#: the approximate kernels of ``pfadft.kernels``
KERNEL_LENGTHS = (3, 11, 31)

#: longest transform built from the definition: plan leaves and sweeps stop
#: here, since a definition schedule compiles n^2 operations (about 4 s and
#: 134 MiB already at n = 512)
MAX_DEFINITION_LENGTH = 512


def dft_matrix(n: int) -> np.ndarray:
    """The n x n matrix of powers of the principal n-th root of unity."""
    if n < 1:
        raise ValueError("transform length must be positive")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def butterfly_matrix(m: int) -> np.ndarray:
    """+-1 block pairing mirrored inputs: [[I, J], [-J, I]] with J the
    counter-identity of order m/2. Satisfies B^T B = 2 I."""
    if m % 2 != 0:
        raise ValueError("butterfly order must be even")
    h = m // 2
    B = np.zeros((m, m), dtype=np.int64)
    B[:h, :h] = np.eye(h, dtype=np.int64)
    B[:h, h:] = np.eye(h, dtype=np.int64)[::-1]
    B[h:, :h] = -np.eye(h, dtype=np.int64)[::-1]
    B[h:, h:] = np.eye(h, dtype=np.int64)
    return B


def a_stage_matrix(n: int) -> np.ndarray:
    """diag(1, B_{n-1}): passes the DC sample and butterflies the rest."""
    A = np.zeros((n, n), dtype=np.int64)
    A[0, 0] = 1
    A[1:, 1:] = butterfly_matrix(n - 1)
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


@lru_cache(maxsize=None)
def exact_fast_schedule(n: int) -> Schedule:
    """Operation schedule for the factorized exact transform."""
    if n not in KERNEL_LENGTHS:
        raise ValueError(f"no fast exact factorization for n={n}")
    core = derive_core(dft_matrix(n))
    A = a_stage_matrix(n)
    return compile_stages([A, core, A.T], n)


@lru_cache(maxsize=None)
def exact_definition_schedule(n: int) -> Schedule:
    """Dense by-definition schedule (general complex row sums)."""
    if n < 1:
        raise ValueError("transform length must be positive")
    if n == 1:
        return compile_stages([np.eye(1)], 1)
    return compile_stages([dft_matrix(n)], n)


def _run_leaf(sched: Schedule, x) -> np.ndarray:
    """Run an n-point leaf schedule on a signal or a batch of column signals."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] != sched.n_in:
        raise ValueError(f"input length {x.shape[0]} does not match n={sched.n_in}")
    if x.ndim == 1:
        return run_numpy(sched, x[:, None])[:, 0]
    return run_numpy(sched, x)


def fast_exact(n: int, x) -> np.ndarray:
    """Factorized exact transform for n in {3, 11, 31}."""
    return _run_leaf(exact_fast_schedule(n), x)
