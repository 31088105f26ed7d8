"""Expansion-factor search for low-complexity DFT approximations.

Candidates are T = g(alpha * F) for the round-to-half quantizer g, swept
over a closed interval of expansion factors. Each run of contiguous alpha
values producing the same matrix is one candidate; candidates are ranked by
three error figures (total error energy, mean relative entry error,
deviation from orthogonality) and the optimizer returns the Pareto set.
Each candidate carries its row-normalizing scale as an ``AssembledScale``,
the one scale type that composed plans use as well: a plan's radicands come
from the residue rule in ``pfadft.pfa``, one per output. A scale evaluates
each distinct radicand or CSD code once, when it is built. ``apply_scale``
applies it out of place; ``execute`` and ``dense_matrix`` multiply their
own fresh arrays by ``values()`` in place.

The sweep is deliberately performed in binary64 on a binary64 root-of-unity
matrix: the reference candidate counts this code reproduces are a property
of that arithmetic (an exactly-representable grid point can land between
the rounding thresholds of two mirrored entries whose computed magnitudes
differ in the last ulp, which splits one candidate in two for n = 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dyadic import MULTIPLIER_MAX, MULTIPLIER_SET, CsdCode, csd_encode, csd_eval
from .exactdft import MAX_DEFINITION_LENGTH, dft_matrix
from .schedule import OpCount

#: closed expansion-factor interval used by every sweep
SWEEP_INTERVAL = (0.26, 1.25)
#: most grid points one sweep evaluates
MAX_SWEEP_POINTS = 10 ** 7


def quantize_half(a: np.ndarray) -> np.ndarray:
    """Round to the nearest multiple of 1/2, ties away from zero: nearest-even
    would change kernel entries wherever alpha * F lands on a quarter multiple."""
    y = 2.0 * a
    return 0.5 * (np.sign(y) * np.floor(np.abs(y) + 0.5))


def alpha_interval(p_max: float = float(MULTIPLIER_MAX)):
    """Analytic admissible range of the expansion factor.

    Returns (alpha_min, alpha_max) with alpha_min the infimum of factors
    quantizing the largest matrix entry to something nonzero and alpha_max
    the supremum of factors keeping it at p_max. For unit-modulus transform
    entries and the half-step quantizer this is (0.25, 1.25); the sweep
    below uses the slightly tighter working interval ``SWEEP_INTERVAL``.
    """
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    gamma_max = 1.0
    alpha_min = 0.25 / gamma_max
    alpha_max = (p_max + 0.25) / gamma_max
    return alpha_min, alpha_max


def candidate_matrix(n: int, alpha: float) -> np.ndarray:
    """Entrywise-quantized alpha-expanded transform matrix.

    Raises when alpha lies outside the working interval or when the result
    leaves the multiplier set (which happens only at the extreme upper
    boundary, where the quantizer overshoots to 3/2).
    """
    lo, hi = SWEEP_INTERVAL
    if not (lo <= alpha <= hi):
        raise ValueError(f"alpha={alpha} outside working interval [{lo}, {hi}]")
    F = dft_matrix(n)
    T = quantize_half(alpha * F.real) + 1j * quantize_half(alpha * F.imag)
    if not _entries_in_set(T):
        raise ValueError(f"alpha={alpha} produces entries outside the multiplier set")
    return T


def _entries_in_set(T: np.ndarray) -> bool:
    allowed = np.array([float(p) for p in MULTIPLIER_SET])
    return bool(np.all(np.isin(T.real, allowed)) and np.all(np.isin(T.imag, allowed)))


_SCALE_MODES = ("none", "exact", "csd")


@dataclass(frozen=True)
class AssembledScale:
    """Positive output scale, exact: surd radicands plus optional CSD codes.

    Output i is scaled by sqrt(radicands[i]), an exact rational, so no
    precision is lost before application time; in csd mode the applied
    value is instead the code's exact dyadic value. At construction the
    distinct radicands are found once, and each one's CSD code and float
    value are evaluated once; ``values()`` returns the stored read-only
    array. The operation count is folded then too: in exact mode 2 mults
    per non-unit entry, in csd mode 2(k-1) adds and 2(k-1) shifts per entry
    whose code has k nonzero digits.
    """

    radicands: tuple
    mode: str                      # "none" | "exact" | "csd"
    csd_codes: tuple = field(init=False, default=None)  # per-entry CsdCode, None on unit entries
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _count: OpCount = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in _SCALE_MODES:
            raise ValueError(f"unknown scale mode {self.mode!r}")
        count = OpCount()
        if self.mode == "none":
            vals = np.ones(len(self.radicands))
        else:
            slot = {}  # distinct radicand -> its position among the distinct ones
            index = [slot.setdefault(r, len(slot)) for r in self.radicands]
            if self.mode == "exact":
                distinct = [np.sqrt(float(r)) for r in slot]
                extra = [int(v != 1.0) for v in distinct]
            else:
                codes = [None if r == 1 else _csd_for_radicand(r) for r in slot]
                distinct = [1.0 if c is None else float(csd_eval(c)) for c in codes]
                extra = [0 if c is None else c.nonzero_count - 1 for c in codes]
                object.__setattr__(self, "csd_codes", tuple(codes[j] for j in index))
            vals = np.array(distinct, dtype=np.float64)[index]
            k = 2 * sum(extra[j] for j in index)
            count = OpCount(k, 0, 0) if self.mode == "exact" else OpCount(0, k, k)
        vals.flags.writeable = False
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_count", count)

    def __len__(self):
        return len(self.radicands)

    def values(self) -> np.ndarray:
        return self._values

    def op_count(self) -> OpCount:
        return self._count


@lru_cache(maxsize=None)
def _csd_for_radicand(radicand: Fraction) -> CsdCode:
    return csd_encode(float(np.sqrt(float(radicand))))


def make_scale(radicands, mode: str) -> AssembledScale:
    """Attach the requested application mode to exact radicands."""
    return AssembledScale(tuple(r if isinstance(r, Fraction) else Fraction(r)
                                for r in radicands), mode)


def apply_scale(scale: AssembledScale, x) -> np.ndarray:
    """Scale entry (or row) i of a spectrum (or matrix) by the scale's value i."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] != len(scale):
        raise ValueError("scale and vector lengths differ")
    vals = scale.values()
    return vals[:, None] * x if x.ndim > 1 else vals * x


def scale_vector(t: np.ndarray) -> AssembledScale:
    """Row-normalizing scale for a low-complexity matrix, in exact mode.

    Entry i is sqrt(n / sum_k |t_ik|^2), the diagonal that restores each
    row to the row norm of the exact transform.
    """
    n = t.shape[0]
    rads = []
    for i in range(n):
        # entries are multiples of 1/2, so 4*|t|^2 is integral
        s4 = int(round(4.0 * float(np.sum(np.abs(t[i]) ** 2))))
        if s4 == 0:
            raise ValueError(f"row {i} is zero; scale undefined")
        rads.append(Fraction(4 * n, s4))
    return AssembledScale(tuple(rads), "exact")


def error_energy(approx: np.ndarray, exact: np.ndarray) -> float:
    """pi times the squared Frobenius norm of the difference."""
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    if approx.shape != exact.shape:
        raise ValueError("shape mismatch")
    return float(np.pi * np.linalg.norm(approx - exact, "fro") ** 2)


def mape(approx: np.ndarray, exact: np.ndarray) -> float:
    """Mean absolute relative entry error, in percent.

    The deviation of each entry is taken relative to the transform's full
    dynamic range n (not the unit entry modulus); this is the normalization
    under which the reference error figures for all block lengths are
    reported.
    """
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    if approx.shape != exact.shape:
        raise ValueError("shape mismatch")
    if np.any(exact == 0):
        raise ValueError("exact matrix has zero entries")
    n = exact.shape[0]
    return float(100.0 * np.sum(np.abs(exact - approx) / np.abs(exact)) / n ** 3)


def orth_deviation(approx: np.ndarray) -> float:
    """1 - ||diag(T T^H)|| / ||T T^H|| (zero for orthogonal rows)."""
    approx = np.asarray(approx)
    if not np.any(approx):
        raise ValueError("zero matrix")
    G = approx @ approx.conj().T
    return float(1.0 - np.linalg.norm(np.diag(G)) / np.linalg.norm(G, "fro"))


@dataclass(frozen=True)
class ErrorReport:
    epsilon: float
    mape_percent: float
    phi: float

    def as_tuple(self):
        return (self.epsilon, self.mape_percent, self.phi)


@dataclass(frozen=True)
class CandidateApproximation:
    """One sweep candidate: the alpha run, its matrix, scale, and errors."""

    alpha_lo: float
    alpha_hi: float
    t_matrix: np.ndarray
    scale: AssembledScale
    metrics: ErrorReport

    @property
    def alpha_interval(self):
        return (self.alpha_lo, self.alpha_hi)

    def contains_alpha(self, alpha: float) -> bool:
        return self.alpha_lo - 5e-6 <= alpha <= self.alpha_hi + 5e-6


def sweep_alpha(n: int, step: float = 1e-5, interval=SWEEP_INTERVAL):
    """Scan the expansion factor and return the distinct valid candidates.

    Contiguous grid points yielding the same quantized matrix coalesce into
    one candidate carrying the closed alpha interval of the run. Runs whose
    matrix leaves the multiplier set (the quantizer overshoot at the very
    top of the interval) are dropped. Lengths above
    ``MAX_DEFINITION_LENGTH`` and grids above ``MAX_SWEEP_POINTS`` points
    are rejected before anything is allocated.
    """
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if n > MAX_DEFINITION_LENGTH:
        raise ValueError(f"sweeps are limited to n <= {MAX_DEFINITION_LENGTH}, got {n}")
    lo, hi = interval
    count = np.rint((hi - lo) / step)  # an infinite or NaN quotient fails the bound too
    if not count < MAX_SWEEP_POINTS:
        raise ValueError(f"step {step} gives more than {MAX_SWEEP_POINTS} grid points")
    count = int(count)
    alphas = lo + step * np.arange(count + 1)
    F = dft_matrix(n)

    # The quantizer is odd and the sign/zero pattern of F is fixed, so the
    # matrix changes exactly where some distinct entry magnitude u crosses a
    # quantizer threshold. Candidate runs are located from those analytic
    # breakpoints, then every boundary is confirmed by evaluating the
    # quantizer at the actual grid points (a full linear scan gives the
    # identical grouping; the tests keep one as an oracle). Magnitudes that
    # differ only in the last ulp stay distinct here, which is essential to
    # the reference run counts.
    mags = np.unique(np.concatenate([np.abs(F.real.ravel()), np.abs(F.imag.ravel())]))
    mags = mags[mags > 0]
    starts = _run_starts(mags, alphas, step)

    out = []
    for k, s0 in enumerate(starts):
        s1 = (starts[k + 1] - 1) if k + 1 < len(starts) else len(alphas) - 1
        a_rep = alphas[s0]
        T = quantize_half(a_rep * F.real) + 1j * quantize_half(a_rep * F.imag)
        if not _entries_in_set(T):
            continue
        sc = scale_vector(T)
        A = apply_scale(sc, T)
        rep = ErrorReport(error_energy(A, F), mape(A, F), orth_deviation(A))
        out.append(CandidateApproximation(float(alphas[s0]), float(alphas[s1]), T, sc, rep))
    return out


def _q_steps(x: float) -> int:
    """Quantizer level of a positive value: floor(2x + 1/2)."""
    return int(np.floor(2.0 * x + 0.5))


def _run_starts(mags, alphas, step):
    """Grid indices where some entry magnitude changes quantizer level.

    For magnitude u the level of g(alpha*u) steps where 2*alpha*u crosses
    m + 1/2; each analytic crossing is refined to the true grid boundary by
    direct evaluation in a small window (floating-point evaluation can move
    a boundary by one grid point, never more, since the level is monotone
    in alpha).
    """
    starts = {0}
    lo = alphas[0]
    for u in mags:
        m = 0
        while True:
            a_star = (m + 0.5) / (2.0 * u)
            m += 1
            if a_star > alphas[-1] + step:
                break
            if a_star < lo - step:
                continue
            i0 = max(1, int(np.floor((a_star - lo) / step)) - 3)
            for i in range(i0, min(i0 + 8, len(alphas))):
                if _q_steps(alphas[i] * u) != _q_steps(alphas[i - 1] * u):
                    starts.add(i)
                    break
    return sorted(starts)


def select_optimal(candidates):
    """Pareto-minimal candidates under (epsilon, mape, phi)."""
    if not candidates:
        raise ValueError("empty candidate list")

    def dominates(a, b):
        at, bt = a.metrics.as_tuple(), b.metrics.as_tuple()
        return all(x <= y for x, y in zip(at, bt)) and any(x < y for x, y in zip(at, bt))

    return [c for c in candidates
            if not any(dominates(d, c) for d in candidates if d is not c)]
