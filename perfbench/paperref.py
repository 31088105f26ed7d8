"""References the benchmark checks pfadft's outputs against.

Two kinds, both independent of the code under test:

* figures published in the paper (operation counts, sweep candidate count,
  the optimal expansion factor, the response-error bound, cosine leakage);
* recomputations from first principles with numpy alone: the DFT matrix
  from ``np.fft.fft`` of the identity and the three error figures and the
  response error straight from their definitions.

The paper's error table and its 31-point per-row energies are not used:
two of their values cannot be reproduced from their definitions, and
checking against them would need exclusions.
"""

from __future__ import annotations

import numpy as np

N = 1023
HYBRID_ROMAN = ("I", "II", "III", "IV", "V", "VI")

#: the 17 composed 1023-point variants, with their labels in the paper's tables
VARIANT_LABELS = (
    ("exact-definition", "F_1023 (PFA, definition kernels)"),
    ("exact", "F_1023 (PFA, fast kernels)"),
    *((f"hybrid-{r}-{s}", {"scaled": "F*", "csd": "F'"}[s] + f"_1023,{r}")
      for r in HYBRID_ROMAN for s in ("scaled", "csd")),
    ("unscaled", "T*_1023"),
    ("scaled", "F*_1023"),
    ("csd", "F'_1023"),
)
VARIANTS = tuple(v for v, _ in VARIANT_LABELS)
EXACT_VARIANTS = ("exact", "exact-definition")

#: (real mults, real adds, bit shifts) per 1023-point transform, from the paper
PLAN_COUNTS = {
    "exact": (39682, 50772, 682),
    "hybrid-I-scaled": (40364, 50772, 682),
    "hybrid-I-csd": (39000, 53500, 3410),
    "hybrid-II-scaled": (32242, 49842, 4402),
    "hybrid-II-csd": (30382, 53562, 8122),
    "hybrid-III-scaled": (11962, 46812, 10582),
    "hybrid-III-csd": (9982, 50772, 14542),
    "hybrid-IV-scaled": (31684, 49842, 4402),
    "hybrid-IV-csd": (29700, 53810, 8370),
    "hybrid-V-scaled": (11324, 46812, 10582),
    "hybrid-V-csd": (9300, 50860, 14630),
    "hybrid-VI-scaled": (2722, 45882, 14302),
    "hybrid-VI-csd": (682, 49962, 18382),
    "unscaled": (0, 45882, 14302),
    "scaled": (2044, 45882, 14302),
    "csd": (0, 49970, 18390),
}
SWEEP_CANDIDATES_31 = 42
OPTIMAL_ALPHA = 9 / 8
RESPONSE_BOUND_DB = -17.0
COSINE_BIN = 100
COSINE_LEAKAGE, COSINE_LEAKAGE_TOL = 0.09, 0.02
#: a CSD scale constant of the paper: sqrt(66/91) encodes as 55/64
CSD_PROBE = (np.sqrt(66 / 91), 55 / 64)


def dft_reference(n: int = N) -> np.ndarray:
    """DFT matrix built by numpy's FFT, column m = fft(e_m)."""
    return np.fft.fft(np.eye(n), axis=0)


def error_figures(A: np.ndarray, F: np.ndarray):
    """(epsilon, MAPE %, phi) of an approximation A of the DFT matrix F."""
    n = F.shape[0]
    D = np.abs(A - F)
    eps = np.pi * float(np.sum(D * D))
    mape = 100.0 * float(np.sum(D / np.abs(F))) / n ** 3
    G = A @ A.conj().T
    phi = 1.0 - np.linalg.norm(np.diagonal(G)) / np.linalg.norm(G)
    return eps, mape, float(phi)


def response_error_db(A: np.ndarray, F: np.ndarray, grid: int = 8192, chunk: int = 128) -> float:
    """Worst non-DC row of 20 log10(max_w |H - Hhat| / max_w |H|)."""
    worst = 0.0
    for lo in range(1, F.shape[0], chunk):
        H = np.fft.fft(F[lo:lo + chunk], grid, axis=1)
        Ha = np.fft.fft(A[lo:lo + chunk], grid, axis=1)
        err = np.max(np.abs(Ha - H), axis=1) / np.max(np.abs(H), axis=1)
        worst = max(worst, float(np.max(err)))
    return 20.0 * np.log10(max(worst, 1e-15))


def pareto(points):
    """Indices of the points no other point dominates (all <=, one <)."""
    def dominates(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))
    return [i for i, p in enumerate(points)
            if not any(dominates(q, p) for j, q in enumerate(points) if j != i)]
