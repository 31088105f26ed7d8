"""Error tables, filter-bank frequency responses, and the cosine probe.

Rows of a transform matrix are treated as FIR filters. Per-row error
energies integrate |H(w) - Hhat(w)|^2 over the positive-frequency half
[0, pi]; the closed form below evaluates that integral exactly from the
row difference and its lag autocorrelation, so row energies of conjugate
row pairs sum to the full-circle energy and the grand total ties out to
the matrix error energy.

The paper's error tables come from the leaf factors, never from the placed
n x n matrix or the n-point DFT matrix (Van Loan, "The ubiquitous
Kronecker product", J. Comput. Appl. Math. 2000). In CRT grid coordinates
a plan is S * (kron_l T_l), and the exact DFT is kron_l F_l. Every exact
entry has modulus 1, so |A - F| = |A conj(F) - 1|, the grid array
s_grid * kron_l (T_l o conj(F_l)) - 1. An exact leaf's factor
T_l o conj(F_l) is all ones, and by the residue rule the scale does not
vary along its axis, so epsilon and MAPE are one pass over the sub-grid of
the approximate leaves, each cell weighted by prod n_l^2 over the exact
leaves; a plan with no approximate leaf gives exactly 0. The scale is
also constant on each block of rows whose leaf indices are zero on the
same leaves, so phi follows from per-block norms of the leaf Grams
T_l T_l^H.

Any rows of A - F are the difference of ``pfadft.pfa.plan_rows`` for the
plan and for the exact DFT, both built from the leaf matrices alone. Row
n - K of A - F is the conjugate of row K (each kernel's rows pair by
conjugation, and the scale is even in K), so only rows 0 .. n // 2 are
built. Row n - K's half-spectrum energy is the full-circle energy
2 pi ||d_K||^2 less row K's. The response error takes one FFT per row
K = 1 .. n // 2 and reads each exact row's peak off the closed-form
Dirichlet kernel: |H_{n-K}(w)| = |H_K(-w)|, so the two rows share their
maximum over the symmetric grid. A plan with no approximate leaf gives
``DB_FLOOR``. The
dense functions of ``pfadft.design`` (``error_energy``, ``mape``,
``orth_deviation``) stay the oracle the tests hold these figures to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .design import ErrorReport
from .exactdft import _is_integer, dft_matrix
from .pfa import (ROW_BLOCK, ExecutionPlan, assemble_scale, build_index_maps, execute,
                  leaf_matrix, plan, plan_rows, tree_leaves)

DB_FLOOR = -300.0


@dataclass(frozen=True)
class RowErrorEnergy:
    row: int
    energy: float


@dataclass(frozen=True)
class ResponseCurve:
    omega: np.ndarray          # uniform grid over [-pi, pi)
    magnitude_db: np.ndarray


def _as_plan(variant, n=None) -> ExecutionPlan:
    if isinstance(variant, ExecutionPlan):
        return variant
    if n is None:
        raise ValueError(f"variant {variant!r} needs a transform length n")
    return plan(n, variant)


def row_error_energies(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Exact half-spectrum error energy of every row.

    For row difference d[m], the integral of |sum_m d[m] e^{-jmw}|^2 over
    [0, pi] equals pi*||d||^2 + sum over odd lags u of (4/u) Im C_u with
    C_u the lag-u autocorrelation of d. Even lags integrate to zero.
    """
    base, cross = _half_spectrum_terms(np.asarray(approx) - np.asarray(exact))
    return base + cross


def _half_spectrum_terms(D: np.ndarray):
    """The terms pi*||d||^2 and sum over odd lags u of (4/u) Im C_u of each
    row's half-spectrum energy; the conjugate row's energy is their
    difference."""
    n = D.shape[1]
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    G = np.fft.fft(D, nfft, axis=1)
    corr = np.fft.ifft(G * np.conj(G), axis=1)[:, :n]
    odd = np.arange(1, n, 2)
    base = np.pi * np.sum(np.abs(D) ** 2, axis=1)
    cross = corr[:, odd].imag @ (4.0 / odd)
    return base, cross


def _difference_blocks(plan_: ExecutionPlan, rows: np.ndarray):
    """Rows ``rows`` of A - F, ``ROW_BLOCK`` at a time, each block a
    (rows, n) array built from the leaf matrices."""
    for lo in range(0, len(rows), ROW_BLOCK):
        K = rows[lo:lo + ROW_BLOCK]
        D = plan_rows(plan_, K)
        D -= plan_rows(plan_, K, exact=True)
        yield D


def row_error_table(variant, n=None):
    """Per-row half-spectrum error energies of a variant, 0-indexed rows.

    Rows 0 .. n // 2 are built; row n - K, the conjugate of row K, takes
    the full-circle energy less row K's (see the module docstring).
    """
    p = _as_plan(variant, n)
    terms = [_half_spectrum_terms(D) for D in _difference_blocks(p, np.arange(p.n // 2 + 1))]
    base, cross = (np.concatenate(t) for t in zip(*terms))
    mirrored = (base - cross)[1:(p.n + 1) // 2][::-1]
    energies = np.concatenate([base + cross, mirrored])
    return [RowErrorEnergy(i, float(e)) for i, e in enumerate(energies)]


def worst_rows(variant, n=None, k: int = 3):
    """The k rows with the largest error energy, worst first."""
    table = row_error_table(variant, n)
    return sorted(table, key=lambda r: r.energy, reverse=True)[:k]


# ---------------------------------------------------------------------------
# frequency responses

def _response_grid(rows: np.ndarray, grid_points: int) -> np.ndarray:
    """H(w) for each row on the uniform grid over [-pi, pi)."""
    return np.fft.fftshift(np.fft.fft(rows, grid_points, axis=-1), axes=-1)


def response_omega(grid_points: int) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(grid_points))


def filter_response(matrix_row, grid_points: int = 4096) -> ResponseCurve:
    """Normalized magnitude response of one matrix row, peak at 0 dB."""
    row = np.asarray(matrix_row, dtype=np.complex128)
    if grid_points < 2 * row.size:
        raise ValueError("grid must oversample the row at least twice")
    H = _response_grid(row, grid_points)
    peak = np.max(np.abs(H))
    if peak == 0.0:
        raise ValueError("zero row has no normalizable response")
    db = 20.0 * np.log10(np.maximum(np.abs(H) / peak, 10.0 ** (DB_FLOOR / 20.0)))
    return ResponseCurve(response_omega(grid_points), db)


def response_error_curve(approx_row, exact_row, grid_points: int = 4096) -> ResponseCurve:
    """20 log10(|H(w) - Hhat(w)| / max_w |H(w)|), floored at -300 dB."""
    a = np.asarray(approx_row, dtype=np.complex128)
    e = np.asarray(exact_row, dtype=np.complex128)
    if grid_points < 2 * e.size:
        raise ValueError("grid must oversample the row at least twice")
    H = _response_grid(e, grid_points)
    Ha = _response_grid(a, grid_points)
    peak = np.max(np.abs(H))
    if peak == 0.0:
        raise ValueError("zero exact row has no normalizable response")
    ratio = np.maximum(np.abs(Ha - H) / peak, 10.0 ** (DB_FLOOR / 20.0))
    return ResponseCurve(response_omega(grid_points), 20.0 * np.log10(ratio))


def _dirichlet_peaks(n: int, grid_points: int) -> np.ndarray:
    """max over the grid of |H(w)| for every row K of the exact n-point DFT.

    Row K's response at bin j is the Dirichlet kernel
    |sin(pi n d) / sin(pi d)| with d = K/n + j/N (N grid points), which
    peaks at d = 0 and falls monotonically through the main lobe. The two
    bins either side of j = -K N / n lie at d = -r / (n N) and
    (n - r) / (n N), r = K N mod n; with N >= 2n both are in the main lobe,
    so the grid's maximum is at the nearer one.
    """
    r = (np.arange(n) * grid_points) % n
    u = np.minimum(r, n - r)
    with np.errstate(invalid="ignore"):
        peaks = np.sin(np.pi * u / grid_points) / np.sin(np.pi * u / (n * grid_points))
    return np.where(u == 0, float(n), peaks)


def response_error_max_db(variant, n=None) -> float:
    """Worst response-error level over all non-DC rows of a variant.

    By linearity H - Hhat is one FFT of the row difference, taken for rows
    1 .. n // 2 only, since row n - K mirrors row K; each exact row's peak
    |H| comes from the closed form (see the module docstring).
    """
    p = _as_plan(variant, n)
    grid = 8192 if p.n > 64 else 4096
    if grid < 2 * p.n:
        raise ValueError("grid must oversample the row at least twice")
    if all(leaf.kind != "approx" for leaf in tree_leaves(p.tree)):
        return DB_FLOOR
    rows = np.arange(1, p.n // 2 + 1)
    err = np.concatenate([np.abs(np.fft.fft(D, grid, axis=1)).max(axis=1)
                          for D in _difference_blocks(p, rows)])
    worst = np.max(err / _dirichlet_peaks(p.n, grid)[rows])
    return float(20.0 * np.log10(max(worst, 10.0 ** (DB_FLOOR / 20.0))))


# ---------------------------------------------------------------------------
# reference error tables

def plan_error_figures(plan_: ExecutionPlan) -> ErrorReport:
    """(epsilon, MAPE %, phi) of a plan, from its leaf matrices.

    Never forms the placed n x n matrix, the n-point DFT matrix or the
    n^3 Gram product; see the module docstring.
    """
    leaves = tree_leaves(plan_.tree)
    lengths = tuple(leaf.n for leaf in leaves)
    n = plan_.n
    mats = [leaf_matrix(leaf) for leaf in leaves]
    s_grid = assemble_scale(plan_).values()[build_index_maps(*lengths).inverse]

    # epsilon and MAPE over the approximate leaves' sub-grid, one block of
    # rows per row of the first approximate leaf
    is_approx = [leaf.kind == "approx" for leaf in leaves]
    s_cube = s_grid.reshape(lengths)
    s_sub = s_cube[tuple(slice(None) if a else slice(1) for a in is_approx)]
    if not np.array_equal(np.broadcast_to(s_sub, lengths), s_cube):
        raise AssertionError("scale is not constant along an exact leaf's axis")
    factors = [T * dft_matrix(m).conj() for T, m, a in zip(mats, lengths, is_approx) if a]
    first, *others = factors or [np.ones((1, 1))]
    rest = reduce(np.kron, others, np.ones((1, 1)))
    sq_sum = abs_sum = 0.0
    for s_rows, row in zip(s_sub.reshape(len(first), -1, 1), first):
        D = np.multiply.outer(rest, row).reshape(len(rest), -1)
        D *= s_rows
        D -= 1.0
        dev = np.abs(D).ravel()
        sq_sum += float(dev @ dev)
        abs_sum += float(dev.sum())
    weight = math.prod(m * m for m, a in zip(lengths, is_approx) if not a)
    epsilon = np.pi * sq_sum * weight
    mape_percent = 100.0 * abs_sum * weight / n ** 3

    # zero pattern of each grid row, (i_l != 0)_l read as a row-major index
    # into the Kronecker product of the per-leaf 2 x 2 blocks below
    L = len(leaves)
    cells = np.indices(lengths).reshape(L, -1)
    pattern = np.ravel_multi_index(tuple(cells != 0), (2,) * L)
    sq = s_grid ** 2
    w = np.zeros(2 ** L)
    w[pattern] = sq
    if not np.array_equal(w[pattern], sq):
        raise AssertionError("scale is not constant on a zero-pattern block")
    blocks, diags = [], []
    for T in mats:
        G2 = np.abs(T @ T.conj().T) ** 2
        blocks.append(np.array([[G2[0, 0], G2[0, 1:].sum()],
                                [G2[1:, 0].sum(), G2[1:, 1:].sum()]]))
        diags.append(np.array([G2[0, 0], np.trace(G2[1:, 1:])]))
    gram_fro2 = w @ reduce(np.kron, blocks) @ w
    gram_diag2 = (w * w) @ reduce(np.kron, diags)
    phi = 1.0 - np.sqrt(gram_diag2 / gram_fro2)
    return ErrorReport(epsilon, mape_percent, float(phi))


GROUND_VARIANTS = (("scaled", "F*_{n}"), ("csd", "F'_{n}"))


def ground_error_table():
    """(epsilon, mape %, phi) for the scaled and CSD ground approximations."""
    return [(n, label.format(n=n), *plan_error_figures(plan(n, variant)).as_tuple())
            for n in (3, 11, 31) for variant, label in GROUND_VARIANTS]


def composed_error_table():
    """(epsilon, mape %, phi) for the paper's fourteen 1023-point
    approximations and the unscaled composition T*_1023."""
    from .complexity import COMPOSED_VARIANTS
    return [(1023, label, *plan_error_figures(plan(1023, variant)).as_tuple())
            for variant, label in COMPOSED_VARIANTS
            if variant not in ("exact", "exact-definition")]


# ---------------------------------------------------------------------------
# cosine probe

@dataclass(frozen=True)
class CosineProbe:
    magnitudes: np.ndarray
    dominant_bins: tuple
    dominant_peak: float
    nondominant_max: float

    @property
    def leakage_ratio(self) -> float:
        return self.nondominant_max / self.dominant_peak


def cosine_probe(n: int, bin_index: int, variant) -> CosineProbe:
    """Magnitude spectrum of a pure integer-bin cosine through a variant.

    Reports the two dominant lobes (the bin and its mirror) and the largest
    magnitude anywhere else, the leakage statistic.
    """
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"transform length must be a positive integer, got {n!r}")
    if not (_is_integer(bin_index) and 0 < bin_index < n / 2):
        raise ValueError(f"bin must be an integer strictly inside (0, n/2), got {bin_index!r}")
    p = _as_plan(variant, n)
    x = np.cos(2.0 * np.pi * bin_index * np.arange(n) / n)
    mag = np.abs(execute(p, x))
    dom = (bin_index, n - bin_index)
    rest = np.delete(mag, dom)
    return CosineProbe(mag, dom, float(np.max(mag[list(dom)])), float(np.max(rest)))
