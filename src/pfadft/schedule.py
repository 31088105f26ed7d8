"""Static add/shift/multiply schedules for transform kernels.

A kernel's fast algorithm is compiled once from its stage matrices into a
flat operation list. One table keyed by opcode gives each operation its
static cost, its vectorized numpy action and its counting action, so the
same list drives the numpy executor, the instrumented executor that threads
a counting scalar through the identical operation stream, and the static
operation count. The counting scalar meters its own arithmetic, which keeps
the instrumented count an independent check on the static one.

The numpy executor runs a list in one of two forms, chosen by the width of
the block. A narrow block runs as compiled waves: every write gets a fresh
row, each op sits one level above its operands, and the ops of one level
and opcode run as one numpy call, which cuts the 798 ops of the 31-point
approximate kernel to 42 calls (straight-line scheduling as in FFTW's
codelet generator, Frigo, PLDI 1999). A wide block runs the list op by op
over ``TILE`` (4096) column tiles of one reused slot array, which keeps the
rows each op touches in cache. Waves hold one row per op, so they lose once
those rows outgrow the cache. Measured on a 2-vCPU Xeon (best of 20), waves
against tiles take 0.24 against 1.24 ms for the 31-point approximate kernel
at 33 columns, 1.8 against 2.6 ms at 512 and 5.7 against 3.3 ms at 1024;
the 11-point kernel ties at 1024 columns (0.49 against 0.51 ms) and loses
at 1536 (0.77 against 0.58 ms). So blocks of at most ``WAVE_COLUMNS``
(1024) columns run as waves, unless the wave rows would outgrow one tile's
slot array; that bound moves the 31-point kernels' switch to 479-617
columns and keeps memory bounded for long by-definition leaves. Every
element goes through the same IEEE operations in both forms, so their
outputs are bit-identical.

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
    _waves: "CompiledWaves" = field(init=False, default=None, repr=False, compare=False)

    def static_count(self) -> OpCount:
        """Total static cost of the list, folded on the first call only."""
        if self._count is None:
            object.__setattr__(self, "_count", sum(
                (_OPCODES[op.code].cost(op) for op in self.ops), OpCount()))
        return self._count

    def waves(self) -> "CompiledWaves":
        """The list compiled into dependency waves, on the first call only."""
        if self._waves is None:
            object.__setattr__(self, "_waves", _compile_waves(self))
        return self._waves


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
    const: Callable   # op -> constant operand of the numpy action, or None
    numpy: Callable   # (out, src1, src2, const) -> None, writes out; rows or blocks of rows
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


def _np_cp(out, a, b, sign):
    if sign > 0:
        np.copyto(out, a)
    else:
        np.negative(a, out=out)


def _np_mul(out, a, b, c):
    np.multiply(a, c, out=out)


def _np_mulcc(out, z, b, pq):
    p, q = pq
    # spelled out so the result does not depend on how the vectorized
    # complex multiply fuses its operations
    np.add(z.real * p - z.imag * q, 1j * (z.real * q + z.imag * p), out=out)


_OPCODES = {
    CP: _OpKind(lambda op: _FREE, lambda op: op.p, _np_cp,
                lambda s, op: s[op.src1] if op.p > 0 else [-v for v in s[op.src1]]),
    ADD: _OpKind(lambda op: _ADDS, lambda op: None,
                 lambda out, a, b, c: np.add(a, b, out=out),
                 lambda s, op: [u + v for u, v in zip(s[op.src1], s[op.src2])]),
    SUB: _OpKind(lambda op: _ADDS, lambda op: None,
                 lambda out, a, b, c: np.subtract(a, b, out=out),
                 lambda s, op: [u - v for u, v in zip(s[op.src1], s[op.src2])]),
    HALF: _OpKind(lambda op: _SHIFTS, lambda op: 0.5 * op.p, _np_mul,
                  lambda s, op: [v.halve(op.p) for v in s[op.src1]]),
    MULJ: _OpKind(lambda op: _FREE, lambda op: 1j * op.p, _np_mul,
                  lambda s, op: [v.mulj(op.p) for v in s[op.src1]]),
    JHALF: _OpKind(lambda op: _SHIFTS, lambda op: 0.5j * op.p, _np_mul,
                   lambda s, op: [v.jhalve(op.p) for v in s[op.src1]]),
    LC: _OpKind(_lc_cost, lambda op: complex(op.p, op.q), _np_mul,
                lambda s, op: [v.mul_lc(op.p, op.q) for v in s[op.src1]]),
    MULRE: _OpKind(lambda op: _MULTS, lambda op: op.p, _np_mul,
                   lambda s, op: [v.mul_re(op.p) for v in s[op.src1]]),
    MULIM: _OpKind(lambda op: _MULTS, lambda op: 1j * op.p, _np_mul,
                   lambda s, op: [v.mul_im(op.p) for v in s[op.src1]]),
    MULCC: _OpKind(lambda op: OpCount(3, 3, 0), lambda op: (op.p, op.q), _np_mulcc,
                   lambda s, op: [v.mul_cc(op.p, op.q) for v in s[op.src1]]),
    CSDMUL: _OpKind(_csd_cost, lambda op: op.p, _np_mul,
                    lambda s, op: [v.mul_csd(op.p, int(op.q)) for v in s[op.src1]]),
}


#: widest block that runs as compiled waves; see the module docstring
WAVE_COLUMNS = 1024
#: columns per tile when a wider block runs op by op
TILE = 4096


class Wave(NamedTuple):
    """Ops of one opcode (and sign, for CP) at one dependency level, run as
    one numpy call over a block of rows of the wave slot array."""

    code: int
    ops: tuple     # positions in Schedule.ops, in row order
    dst: slice     # the fresh contiguous rows the wave writes
    src1: object   # rows read: a slice, or an index array
    src2: object   # the same for the second operand, or None
    const: object  # None, the CP sign, a complex column, or MULCC's (p, q) float columns


class CompiledWaves(NamedTuple):
    waves: tuple
    n_rows: int    # the n_in inputs, then each wave's rows in wave order
    out: np.ndarray  # rows holding the n_out outputs


def _rows(idx):
    """A slice for an arithmetic progression of rows, else an index array."""
    idx = np.asarray(idx, dtype=np.intp)
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if step > 0 and np.all(np.diff(idx) == step):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _compile_waves(sched: Schedule) -> CompiledWaves:
    """Rename every write to a fresh value, level each op at 1 + its
    operands' highest level, and group the ops by (level, opcode, CP sign)."""
    n_in = sched.n_in
    value = {i: i for i in range(n_in)}  # slot -> its latest value
    level = [0] * n_in                   # value -> level; value n_in + i is op i's
    args, groups = [], {}
    for i, op in enumerate(sched.ops):
        try:
            a = [value[op.src1]] + ([value[op.src2]] if op.src2 >= 0 else [])
        except KeyError:
            raise ValueError(f"op {i} reads a slot that neither the input nor an "
                             "earlier op writes") from None
        level.append(1 + max(level[v] for v in a))
        value[op.dst] = n_in + i
        args.append(a)
        groups.setdefault((level[-1], op.code, op.p if op.code == CP else 0.0), []).append(i)
    row = list(range(n_in)) + [0] * len(sched.ops)  # value -> row of the slot array
    waves, start = [], n_in
    for (_, code, sign), members in sorted(groups.items()):
        for r, i in enumerate(members, start):
            row[n_in + i] = r
        ops = [sched.ops[i] for i in members]
        consts = [_OPCODES[code].const(op) for op in ops]
        if code == CP:
            const = sign
        elif code == MULCC:
            pq = np.array(consts)
            const = (pq[:, :1], pq[:, 1:])
        elif consts[0] is None:
            const = None
        else:
            const = np.array(consts, dtype=np.complex128)[:, None]
        srcs = [_rows([row[args[i][k]] for i in members]) for k in range(len(args[members[0]]))]
        waves.append(Wave(code, tuple(members), slice(start, start + len(members)),
                          srcs[0], srcs[1] if len(srcs) > 1 else None, const))
        start += len(members)
    out = [row[value[s]] for s in range(sched.out_base, sched.out_base + sched.n_out)]
    return CompiledWaves(tuple(waves), n_in + len(sched.ops), np.array(out, dtype=np.intp))


def _read(S, idx):
    return S[idx] if isinstance(idx, slice) else S.take(idx, axis=0)


def _run_waves(cw: CompiledWaves, x: np.ndarray) -> np.ndarray:
    S = np.empty((cw.n_rows, x.shape[1]), dtype=np.complex128)
    S[: x.shape[0]] = x
    for w in cw.waves:
        _OPCODES[w.code].numpy(S[w.dst], _read(S, w.src1),
                               None if w.src2 is None else _read(S, w.src2), w.const)
    return S.take(cw.out, axis=0)


def _run_tiles(sched: Schedule, x: np.ndarray) -> np.ndarray:
    width = x.shape[1]
    out = np.empty((sched.n_out, width), dtype=np.complex128)
    tile = np.zeros((sched.n_slots, min(width, TILE)), dtype=np.complex128)
    for c in range(0, width, TILE):
        s = tile[:, : min(TILE, width - c)]
        s[: sched.n_in] = x[:, c: c + TILE]
        for op in sched.ops:
            kind = _OPCODES[op.code]
            kind.numpy(s[op.dst], s[op.src1], None if op.src2 < 0 else s[op.src2], kind.const(op))
        out[:, c: c + TILE] = s[sched.out_base: sched.out_base + sched.n_out]
    return out


def run_numpy(sched: Schedule, x: np.ndarray) -> np.ndarray:
    """Vectorized executor over a (n_in, batch) complex block.

    Blocks of at most ``WAVE_COLUMNS`` columns run as the schedule's
    compiled waves, unless the wave slot array would outgrow one tile of
    the op-by-op form; other blocks run op by op over ``TILE``-column tiles.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    width = x.shape[1]
    if width <= WAVE_COLUMNS and (sched.n_in + len(sched.ops)) * width <= sched.n_slots * TILE:
        return _run_waves(sched.waves(), x)
    return _run_tiles(sched, x)


def run_counting(sched: Schedule, x) -> np.ndarray:
    """Instrumented executor over a (n_in, batch) object array of scalars."""
    x = np.asarray(x, dtype=object)
    slots = np.empty((sched.n_slots, x.shape[1]), dtype=object)
    slots[: sched.n_in] = x
    for op in sched.ops:
        slots[op.dst] = _OPCODES[op.code].count(slots, op)
    return slots[sched.out_base: sched.out_base + sched.n_out].copy()
