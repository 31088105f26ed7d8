"""Expansion-factor search for low-complexity DFT approximations.

Candidates are T = g(alpha * F) for the round-to-half quantizer g, swept
over a closed interval of expansion factors. Each run of contiguous alpha
values producing the same matrix is one candidate; candidates are ranked by
three error figures (total error energy, mean relative entry error,
deviation from orthogonality) and the optimizer returns the Pareto set.
Each candidate carries its row-normalizing scale as an ``AssembledScale``,
the one scale type that composed plans use as well: a plan's radicands come
from the residue rule in ``pfadft.pfa``, one per output. A scale evaluates
each distinct radicand or CSD code once, when it is built. ``sweep_alpha``
scales each candidate's rows by ``values()`` out of place; ``execute`` and
``pfadft.pfa.plan_rows`` multiply their own fresh arrays by it in place.

The sweep is deliberately performed in binary64 on a binary64 root-of-unity
matrix: the reference candidate counts this code reproduces are a property
of that arithmetic (an exactly-representable grid point can land between
the rounding thresholds of two mirrored entries whose computed magnitudes
differ in the last ulp, which splits one candidate in two for n = 3).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dyadic import MULTIPLIER_MAX, CsdCode, csd_encode, csd_eval
from .exactdft import MAX_DEFINITION_LENGTH, _is_integer, dft_matrix
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
    """Whether every real and imaginary part of T is in ``dyadic.MULTIPLIER_SET``,
    the halves k/2 with |k| <= 2: twice its magnitude is integral and at
    most 2. Both parts are tested in one pass, as the float64 view of T."""
    twice = 2 * np.abs(np.ascontiguousarray(T, dtype=np.complex128).view(np.float64))
    return bool(((twice <= 2) & (twice == np.rint(twice))).all())


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
            objs = {id(r): r for r in self.radicands}  # a plan shares a few objects
            slot = {}  # distinct radicand -> its position among the distinct ones
            pos = {i: slot.setdefault(r, len(slot)) for i, r in objs.items()}
            index = [pos[id(r)] for r in self.radicands]
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


def scale_vector(t: np.ndarray) -> AssembledScale:
    """Row-normalizing scale for a low-complexity matrix, in exact mode.

    Entry i is sqrt(n / sum_k |t_ik|^2), the diagonal that restores each
    row to the row norm of the exact transform. Rows with the same sum
    share one radicand object.
    """
    n = t.shape[0]
    # entries are multiples of 1/2, so each row's 4*sum |t|^2 is an exact integer
    s4 = np.rint(4.0 * (t.real ** 2 + t.imag ** 2).sum(axis=1)).astype(np.int64).tolist()
    if 0 in s4:
        raise ValueError(f"row {s4.index(0)} is zero; scale undefined")
    rads = {s: Fraction(4 * n, s) for s in set(s4)}
    return AssembledScale(tuple(rads[s] for s in s4), "exact")


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


def sweep_alpha(n: int, step: float = 1e-5):
    """Scan the expansion factor over ``SWEEP_INTERVAL`` and return the
    distinct valid candidates.

    Contiguous grid points yielding the same quantized matrix coalesce into
    one candidate carrying the closed alpha interval of the run. Runs whose
    matrix leaves the multiplier set (the quantizer overshoot at the very
    top of the interval) are dropped. Lengths above
    ``MAX_DEFINITION_LENGTH`` and grids above ``MAX_SWEEP_POINTS`` points
    are rejected before anything is allocated.
    """
    if not (isinstance(step, numbers.Real) and 0 < step < np.inf):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"transform length must be a positive integer, got {n!r}")
    if n > MAX_DEFINITION_LENGTH:
        raise ValueError(f"sweeps are limited to n <= {MAX_DEFINITION_LENGTH}, got {n}")
    lo, hi = SWEEP_INTERVAL
    count = np.rint((hi - lo) / step)  # an infinite or NaN quotient fails the bound too
    if not count < MAX_SWEEP_POINTS:
        raise ValueError(f"step {step} gives more than {MAX_SWEEP_POINTS} grid points")
    count = int(count)
    alphas = lo + step * np.arange(count + 1)
    F = dft_matrix(n)

    # The quantizer is odd and the sign/zero pattern of F is fixed, so the
    # matrix changes exactly where some distinct entry magnitude u crosses a
    # quantizer threshold. Candidate runs are located from those analytic
    # breakpoints, all of them at once, then every boundary is confirmed by
    # evaluating the quantizer at the actual grid points, in the same float
    # operations a per-magnitude loop makes (a full linear scan gives the
    # identical grouping, and the tests keep both as oracles). Magnitudes
    # that differ only in the last ulp stay distinct here, which is
    # essential to the reference run counts. Each candidate is then scaled
    # and scored on its own.
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
        A = sc.values()[:, None] * T
        rep = ErrorReport(error_energy(A, F), mape(A, F), orth_deviation(A))
        out.append(CandidateApproximation(float(alphas[s0]), float(alphas[s1]), T, sc, rep))
    return out


#: most window points one block of magnitudes evaluates in ``_run_starts``
_WINDOW_POINTS = 2 ** 15


def _run_starts(mags, alphas, step):
    """Grid indices where some entry magnitude changes quantizer level.

    For magnitude u the level floor(2*alpha*u + 1/2) of g(alpha*u) steps
    where alpha crosses (m + 1/2) / (2u). Every such crossing within a step
    of the grid is found at once, a block of magnitudes at a time, and
    refined to the true grid boundary by evaluating the level at the grid
    points around it: the first of the 8 points from max(1, floor((alpha* -
    lo) / step) - 3) whose level differs from its predecessor's
    (floating-point evaluation can move a boundary by one grid point, never
    more, since the level is monotone in alpha). A one-point grid has one
    run.
    """
    if len(alphas) < 2:
        return [0]
    starts = {0}
    lo, top = alphas[0], alphas[-1] + step
    levels = np.arange(int(2.0 * np.max(mags) * top) + 2) + 0.5  # m + 1/2
    window = np.arange(-1, 8)  # each crossing's 8 points and the predecessor of the first
    block = max(1, _WINDOW_POINTS // (len(window) * len(levels)))
    for k in range(0, len(mags), block):
        u = mags[k:k + block, None]
        a_star = levels / (2.0 * u)
        near = (a_star >= lo - step) & (a_star <= top)
        u, a_star = np.broadcast_to(u, a_star.shape)[near], a_star[near]
        i0 = np.maximum(1, np.floor((a_star - lo) / step).astype(np.intp) - 3)
        i = i0[:, None] + window
        q = np.floor(2.0 * (alphas[np.minimum(i, len(alphas) - 1)] * u[:, None]) + 0.5)
        hit = (q[:, 1:] != q[:, :-1]) & (i[:, 1:] < len(alphas))
        found, first = hit.any(axis=1), hit.argmax(axis=1)
        starts.update(i[found, first[found] + 1].tolist())
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
