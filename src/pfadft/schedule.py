"""Static add/shift/multiply schedules for transform kernels.

A kernel's fast algorithm is compiled once from its stage matrices into a
flat operation list. One table keyed by opcode gives each operation its
static cost, its vectorized numpy action and its counting action, so the
same list drives the numpy executor, the instrumented executor that threads
a counting scalar through the identical operation stream, and the static
operation count. The counting scalar meters its own arithmetic, which keeps
the instrumented count an independent check on the static one.

Cost conventions (used repo-wide):
  * multiplications by 0 or +-1 or +-j are free,
  * multiplication by +-1/2 (or +-j/2) is one bit-shift per real component,
  * a general real (or pure imaginary) constant times a complex value is
    2 real multiplications,
  * a general complex constant times a complex value is 3 real
    multiplications plus 3 real additions,
  * a complex addition is 2 real additions,
  * a constant with a k-nonzero-digit CSD code costs (k-1) additions and
    (k-1) bit-shifts per real component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

# opcodes
CP = 0      # dst = +-src                      (free)
ADD = 1     # dst = src1 + src2                (2 adds)
SUB = 2     # dst = src1 - src2                (2 adds)
HALF = 3    # dst = sign * src / 2             (2 shifts)
MULJ = 4    # dst = sign * j * src             (free)
JHALF = 5   # dst = sign * j * src / 2         (2 shifts)
LC = 6      # dst = (p + j q) * src, p,q in {+-1/2, +-1}, both nonzero
MULRE = 7   # dst = c * src, general real c    (2 mults)
MULIM = 8   # dst = j c * src, general real c  (2 mults)
MULCC = 9   # dst = (a + j b) * src, general   (3 mults + 3 adds)
CSDMUL = 10  # dst = v * src, v a CSD constant (2(k-1) adds + 2(k-1) shifts)


@dataclass(frozen=True)
class Op:
    code: int
    dst: int
    src1: int
    src2: int = -1
    p: float = 0.0
    q: float = 0.0


@dataclass(frozen=True)
class OpCount:
    """Real-operation triple used by every complexity report."""

    real_mults: int = 0
    real_adds: int = 0
    bit_shifts: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(self.real_mults + other.real_mults,
                       self.real_adds + other.real_adds,
                       self.bit_shifts + other.bit_shifts)

    def __rmul__(self, k: int) -> "OpCount":
        return OpCount(k * self.real_mults, k * self.real_adds, k * self.bit_shifts)

    def as_tuple(self):
        return (self.real_mults, self.real_adds, self.bit_shifts)


@dataclass(frozen=True)
class Schedule:
    """Flat operation list mapping n_in input slots to n_out output slots."""

    ops: tuple
    n_in: int
    n_out: int
    out_base: int
    n_slots: int
    _count: OpCount = field(init=False, default=None, repr=False, compare=False)

    def static_count(self) -> OpCount:
        """Total static cost of the list, folded on the first call only."""
        if self._count is None:
            object.__setattr__(self, "_count", sum(
                (_OPCODES[op.code].cost(op) for op in self.ops), OpCount()))
        return self._count


def _classify(z: complex):
    """Map a matrix entry onto an opcode plus parameters; None means zero."""
    re, im = z.real, z.imag
    if re == 0.0 and im == 0.0:
        return None
    trivial = {1.0: 1.0, -1.0: -1.0, 0.5: 0.5, -0.5: -0.5}
    if im == 0.0:
        if re in (1.0, -1.0):
            return (CP, re, 0.0)
        if re in (0.5, -0.5):
            return (HALF, 2 * re, 0.0)
        return (MULRE, re, 0.0)
    if re == 0.0:
        if im in (1.0, -1.0):
            return (MULJ, im, 0.0)
        if im in (0.5, -0.5):
            return (JHALF, 2 * im, 0.0)
        return (MULIM, im, 0.0)
    if re in trivial and im in trivial:
        return (LC, re, im)
    return (MULCC, re, im)


def compile_stages(stages, n: int) -> Schedule:
    """Compile a product of stage matrices into one operation list.

    ``stages`` are given in application order: the first matrix multiplies
    the input vector. Entries must be exactly classifiable (snap
    almost-dyadic constants before calling).
    """
    ops = []
    base = 0
    width = n
    scratch = n          # one shared temporary right after the input block
    n_slots = n + 1
    for M in stages:
        M = np.asarray(M)
        rows, cols = M.shape
        if cols != width:
            raise ValueError(f"stage expects {width} inputs, matrix has {cols} columns")
        out_base = n_slots
        n_slots += rows
        for r in range(rows):
            terms = []
            for j in range(cols):
                cls = _classify(M[r, j])
                if cls is not None:
                    terms.append((j, cls))
            if not terms:
                raise ValueError("schedule compiler does not support all-zero rows")
            dst = out_base + r
            first = True
            for j, (code, p, q) in terms:
                src = base + j
                if first:
                    ops.append(Op(code, dst, src, -1, p, q))
                    first = False
                elif code == CP:
                    ops.append(Op(ADD if p > 0 else SUB, dst, dst, src))
                else:
                    ops.append(Op(code, scratch, src, -1, p, q))
                    ops.append(Op(ADD, dst, dst, scratch))
        base = out_base
        width = rows
    return Schedule(tuple(ops), n, width, base, n_slots)


def scale_schedule(values, csd_info=None) -> Schedule:
    """Schedule applying a positive diagonal; unit entries are free.

    ``csd_info`` maps index -> (float value, nonzero digit count) to apply
    the constant as its signed shift-add expansion instead of a general
    multiplication.
    """
    n = len(values)
    ops = []
    for i, v in enumerate(values):
        if csd_info is not None and i in csd_info:
            val, k = csd_info[i]
            ops.append(Op(CSDMUL, i, i, -1, val, k))
        elif v != 1.0:
            ops.append(Op(MULRE, i, i, -1, float(v), 0.0))
    return Schedule(tuple(ops), n, n, 0, n)


# ---------------------------------------------------------------------------
# instrumented execution

class Tally:
    """Mutable counter shared by all scalars of one instrumented run."""

    __slots__ = ("real_mults", "real_adds", "bit_shifts")

    def __init__(self):
        self.real_mults = 0
        self.real_adds = 0
        self.bit_shifts = 0

    def as_opcount(self) -> OpCount:
        return OpCount(self.real_mults, self.real_adds, self.bit_shifts)


class CountingComplex:
    """Complex scalar that meters every real operation it performs.

    The instrumented executor threads these through the same operation
    stream the fast path runs, so the measured counts reflect the actual
    arithmetic, not a model of it.
    """

    __slots__ = ("re", "im", "tally")

    def __init__(self, re, im, tally):
        self.re = re
        self.im = im
        self.tally = tally

    def __add__(self, other):
        self.tally.real_adds += 2
        return CountingComplex(self.re + other.re, self.im + other.im, self.tally)

    def __sub__(self, other):
        self.tally.real_adds += 2
        return CountingComplex(self.re - other.re, self.im - other.im, self.tally)

    def __neg__(self):
        return CountingComplex(-self.re, -self.im, self.tally)

    def halve(self, sign2):
        self.tally.bit_shifts += 2
        s = 0.5 * sign2
        return CountingComplex(self.re * s, self.im * s, self.tally)

    def mulj(self, sign):
        return CountingComplex(-sign * self.im, sign * self.re, self.tally)

    def jhalve(self, sign2):
        self.tally.bit_shifts += 2
        s = 0.5 * sign2
        return CountingComplex(-s * self.im, s * self.re, self.tally)

    def mul_lc(self, p, q):
        self.tally.real_adds += 2
        self.tally.bit_shifts += (2 if abs(p) == 0.5 else 0) + (2 if abs(q) == 0.5 else 0)
        return CountingComplex(p * self.re - q * self.im, p * self.im + q * self.re, self.tally)

    def mul_re(self, c):
        self.tally.real_mults += 2
        return CountingComplex(c * self.re, c * self.im, self.tally)

    def mul_im(self, c):
        self.tally.real_mults += 2
        return CountingComplex(-c * self.im, c * self.re, self.tally)

    def mul_cc(self, a, b):
        self.tally.real_mults += 3
        self.tally.real_adds += 3
        return CountingComplex(a * self.re - b * self.im, a * self.im + b * self.re, self.tally)

    def mul_csd(self, value, k):
        self.tally.real_adds += 2 * (k - 1)
        self.tally.bit_shifts += 2 * (k - 1)
        return CountingComplex(value * self.re, value * self.im, self.tally)

    def to_complex(self):
        return complex(self.re, self.im)


# ---------------------------------------------------------------------------
# opcode table and executors

class _OpKind(NamedTuple):
    cost: Callable    # op -> static OpCount
    numpy: Callable   # (slots, op) -> None, writes slots[op.dst] through out=
    count: Callable   # (slots, op) -> row of metered scalars for slots[op.dst]


_FREE = OpCount()
_ADDS = OpCount(0, 2, 0)
_SHIFTS = OpCount(0, 0, 2)
_MULTS = OpCount(2, 0, 0)


def _lc_cost(op: Op) -> OpCount:
    return OpCount(0, 2, (2 if abs(op.p) == 0.5 else 0) + (2 if abs(op.q) == 0.5 else 0))


def _csd_cost(op: Op) -> OpCount:
    k = int(op.q)
    return OpCount(0, 2 * (k - 1), 2 * (k - 1))


def _np_mulcc(s, op):
    z = s[op.src1]
    # spelled out so the result does not depend on how the vectorized
    # complex multiply fuses its operations
    np.add(z.real * op.p - z.imag * op.q, 1j * (z.real * op.q + z.imag * op.p), out=s[op.dst])


_OPCODES = {
    CP: _OpKind(lambda op: _FREE,
                lambda s, op: (np.copyto(s[op.dst], s[op.src1]) if op.p > 0
                               else np.negative(s[op.src1], out=s[op.dst])),
                lambda s, op: s[op.src1] if op.p > 0 else [-v for v in s[op.src1]]),
    ADD: _OpKind(lambda op: _ADDS,
                 lambda s, op: np.add(s[op.src1], s[op.src2], out=s[op.dst]),
                 lambda s, op: [u + v for u, v in zip(s[op.src1], s[op.src2])]),
    SUB: _OpKind(lambda op: _ADDS,
                 lambda s, op: np.subtract(s[op.src1], s[op.src2], out=s[op.dst]),
                 lambda s, op: [u - v for u, v in zip(s[op.src1], s[op.src2])]),
    HALF: _OpKind(lambda op: _SHIFTS,
                  lambda s, op: np.multiply(s[op.src1], 0.5 * op.p, out=s[op.dst]),
                  lambda s, op: [v.halve(op.p) for v in s[op.src1]]),
    MULJ: _OpKind(lambda op: _FREE,
                  lambda s, op: np.multiply(s[op.src1], 1j * op.p, out=s[op.dst]),
                  lambda s, op: [v.mulj(op.p) for v in s[op.src1]]),
    JHALF: _OpKind(lambda op: _SHIFTS,
                   lambda s, op: np.multiply(s[op.src1], 0.5j * op.p, out=s[op.dst]),
                   lambda s, op: [v.jhalve(op.p) for v in s[op.src1]]),
    LC: _OpKind(_lc_cost,
                lambda s, op: np.multiply(s[op.src1], complex(op.p, op.q), out=s[op.dst]),
                lambda s, op: [v.mul_lc(op.p, op.q) for v in s[op.src1]]),
    MULRE: _OpKind(lambda op: _MULTS,
                   lambda s, op: np.multiply(s[op.src1], op.p, out=s[op.dst]),
                   lambda s, op: [v.mul_re(op.p) for v in s[op.src1]]),
    MULIM: _OpKind(lambda op: _MULTS,
                   lambda s, op: np.multiply(s[op.src1], 1j * op.p, out=s[op.dst]),
                   lambda s, op: [v.mul_im(op.p) for v in s[op.src1]]),
    MULCC: _OpKind(lambda op: OpCount(3, 3, 0),
                   _np_mulcc,
                   lambda s, op: [v.mul_cc(op.p, op.q) for v in s[op.src1]]),
    CSDMUL: _OpKind(_csd_cost,
                    lambda s, op: np.multiply(s[op.src1], op.p, out=s[op.dst]),
                    lambda s, op: [v.mul_csd(op.p, int(op.q)) for v in s[op.src1]]),
}


def run_numpy(sched: Schedule, x: np.ndarray) -> np.ndarray:
    """Vectorized executor over a (n_in, batch) complex block."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    slots = np.zeros((sched.n_slots, x.shape[1]), dtype=np.complex128)
    slots[: sched.n_in] = x
    for op in sched.ops:
        _OPCODES[op.code].numpy(slots, op)
    return slots[sched.out_base: sched.out_base + sched.n_out].copy()


def run_counting(sched: Schedule, x) -> np.ndarray:
    """Instrumented executor over a (n_in, batch) object array of scalars."""
    x = np.asarray(x, dtype=object)
    slots = np.empty((sched.n_slots, x.shape[1]), dtype=object)
    slots[: sched.n_in] = x
    for op in sched.ops:
        slots[op.dst] = _OPCODES[op.code].count(slots, op)
    return slots[sched.out_base: sched.out_base + sched.n_out].copy()
