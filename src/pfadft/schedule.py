"""Static add/shift/multiply schedules for transform kernels.

A kernel's fast algorithm is compiled once from its stage matrices into a
flat operation list. One table keyed by opcode gives each operation its
static cost and the numpy call that runs it, so the same list drives the
executor and the static operation count. The instrumented count runs the
same executor on a ``Metered`` array: an ndarray subclass that charges each
numpy call from the ufunc and the values of its constant operand, never
from the opcode table, so it is an independent check on the static count
that measures the code which actually runs.

There are five opcodes: CP (a copy or negation), ADD, SUB, MUL (a product
by a constant, priced from the constant) and MULCC (a product by a general
complex constant, spelled out). Each op carries one complex constant: CP its
sign, MUL and MULCC their multiplier. The compiler propagates copies and
negations into their consumers instead of running them (see
``compile_stages``), as FFTW's codelet generator does (Frigo, PLDI 1999):
the approximate 31-, 11- and 3-point kernels hold 721, 101 and 9 ops, not
798, 128 and 16. Only free ops go, so no count moves.

The numpy executor runs a list in one of two forms, chosen by the width of
the block. A narrow block runs as compiled waves: every write gets a fresh
row, each op sits one level above its operands, and the ops of one level
and opcode run as one numpy call. Operands whose rows form no arithmetic
progression are copied first, by one gather per level, so the 721 ops of
the 31-point approximate kernel run as 34 wave calls and 15 gathers. The
calls are laid out at compile time and bound to views of a slot array, each
as a numpy callable and its arguments with the output by position: a ufunc,
or the slot array's own ``take`` for a gather, with no Python frame between
(MULCC's spelled-out product excepted). Binding the 31-point kernel's 130
views costs about 20 us, against about 65 us for its bound calls at 33
columns, so calls bound to a slot array of at most ``_SPARE_ELEMENTS`` may
be kept: a plan keeps its pass as a program when every level has one, and
binds a plain and a metered set of calls to the same slot arrays
(``pfadft.pfa``). Plain calls on such a slot array multiply by each MUL
wave's constant column widened once into a C-contiguous block of the
wave's shape, shared by every such binding of the schedule at that width:
numpy multiplies a (270, 33) complex block by it in about 7 us, against
13-17 us by the column, to the same bits. Calls on a larger slot array,
and metered ones, kept or not, keep the column, so the meter sees one
constant per row.

A wide block runs the list op by op over ``TILE`` (4096) column tiles of
one reused slot array, which keeps the rows each op touches in cache; the
ops read the input rows in place, each op one call from the same opcode
table. Waves hold one row per op, so they lose once those rows outgrow the
cache. Measured on a 2-vCPU Xeon (best of 15), waves
against tiles take 0.27 against 1.33 ms for the 31-point approximate
kernel at 64 columns, 1.24 against 1.61 ms at 384 and 2.05 against 1.75 ms
at 512; the 11-point kernel ties at 512 to 768 columns (0.21 against 0.24
and 0.30 against 0.29 ms), and the 3-point kernel ties throughout. So
blocks of at most ``WAVE_COLUMNS`` (512) columns run as waves, unless the
wave slot array would outgrow both one tile's and 2**19 elements (8 MiB):
the 1861 rows of the 31-point by-definition leaf take 8.7 against 9.5 ms at
256 columns and 12.4 against 9.9 at 384 (best of 25): waves up to 281 columns.
Every element goes through the same IEEE operations in both forms, so their
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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

# opcodes
CP = 0      # dst = c * src, c = +-1 (a float)   (free)
ADD = 1     # dst = src1 + src2                  (2 adds)
SUB = 2     # dst = src1 - src2                  (2 adds)
MUL = 3     # dst = c * src, c real or imaginary, or p + jq with p, q in {+-1/2, +-1}
            # (priced from c by ``_mul_cost``)
MULCC = 4   # dst = c * src, c general complex   (3 mults + 3 adds)
# A real entry r becomes c = complex(r, +0.0) and an imaginary one 1j * im;
# a folded negation is -c, zero signs included.


@dataclass(frozen=True)
class Op:
    code: int
    dst: int
    src1: int
    src2: int = -1
    c: complex = 0j


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
    """Flat operation list mapping n_in input slots to n_out output slots.

    Construction raises ``ValueError`` unless every op reads only slots
    written before it and writes no input slot.
    """

    ops: tuple
    n_in: int
    n_out: int
    out_base: int
    n_slots: int

    def __post_init__(self):
        # the wave form renames each read to its latest write, and the tile
        # form reads the input rows in place and never zeroes its slots
        written = set(range(self.n_in))
        for i, op in enumerate(self.ops):
            if op.dst < self.n_in or not {op.src1, op.src2} - {-1} <= written:
                raise ValueError(f"op {i} overwrites an input or reads an unwritten slot")
            written.add(op.dst)

    @cached_property
    def static_count(self) -> OpCount:
        """Total static cost of the list."""
        return sum((_OPCODES[op.code].cost(op.c) for op in self.ops), OpCount())

    @cached_property
    def waves(self) -> "CompiledWaves":
        """The list compiled into dependency waves."""
        return _compile_waves(self)

    @cached_property
    def steps(self) -> tuple:
        """The list as (call builder, dst, src1, src2, constant) steps of the
        op-by-op tile form."""
        return tuple((_OPCODES[op.code].call, op.dst, op.src1, op.src2, op.c)
                     for op in self.ops)


def _classify(z: complex):
    """Map a matrix entry onto (opcode, constant); None means zero."""
    re, im = z.real, z.imag
    if re == 0.0 and im == 0.0:
        return None
    if im == 0.0:
        return (CP, re) if re in (1.0, -1.0) else (MUL, complex(re, 0.0))
    if re == 0.0:
        return (MUL, 1j * im)
    short = (0.5, 1.0, -0.5, -1.0)
    return (MUL if re in short and im in short else MULCC, complex(re, im))


def compile_stages(stages, n: int) -> Schedule:
    """Compile a product of stage matrices into one operation list.

    ``stages`` are given in application order: the first matrix multiplies
    the input vector. Entries must be exactly classifiable (snap
    almost-dyadic constants before calling).

    Row r of a stage sums its terms left to right into a fresh slot; a
    later term that is not +-1 goes through one shared scratch slot. A row
    that starts with a +-1 term becomes an alias (slot, sign) of its source,
    not a copy, and its consumers read the source with the sign folded in:
    -a + b becomes b - a, a + -b becomes a - b, a - -b becomes a + b, and a
    constant product of -a negates both parts of its constant. IEEE
    subtraction adds the negation, addition commutes and a product's sign
    is the XOR of its factors', so every bit stays, zero signs included.
    An alias is made real (a CP op) only for -a - b, which no single op
    folds, and as an output of the last stage. Its source is never
    overwritten: each stage writes fresh slots, and no alias points at the
    scratch slot.
    """
    ops = []
    alias = {}           # slot -> (source slot, sign) of a copy not made real
    base = 0
    width = n
    scratch = n          # one shared temporary right after the input block
    n_slots = n + 1
    for s, M in enumerate(stages):
        M = np.asarray(M)
        rows, cols = M.shape
        if cols != width:
            raise ValueError(f"stage expects {width} inputs, matrix has {cols} columns")
        out_base = n_slots
        n_slots += rows
        for r in range(rows):
            cols_nz = np.flatnonzero(M[r])  # only the nonzero terms, left to right
            terms = [(j, _classify(z)) for j, z in zip(cols_nz.tolist(), M[r, cols_nz].tolist())]
            if not terms:
                raise ValueError("schedule compiler does not support all-zero rows")
            dst = out_base + r
            for k, (j, (code, c)) in enumerate(terms):
                src, sign = alias.get(base + j, (base + j, 1.0))
                if code == CP:
                    sign *= c
                else:
                    term = dst if k == 0 else scratch
                    # a product of -a takes the negated constant
                    ops.append(Op(code, term, src, -1, -c if sign < 0 else c))
                    src, sign = term, 1.0
                if k == 0:
                    if code == CP:
                        alias[dst] = (src, sign)
                    continue
                acc, acc_sign = alias.pop(dst, (dst, 1.0))
                if acc_sign < 0 and sign < 0:  # -a - b: make -a real
                    ops.append(Op(CP, dst, acc, -1, -1.0))
                    acc, acc_sign = dst, 1.0
                if acc_sign > 0:
                    ops.append(Op(ADD if sign > 0 else SUB, dst, acc, src))
                else:
                    ops.append(Op(SUB, dst, src, acc))
            if s == len(stages) - 1 and dst in alias:
                src, sign = alias.pop(dst)
                ops.append(Op(CP, dst, src, -1, sign))
        base = out_base
        width = rows
    return Schedule(tuple(ops), n, width, base, n_slots)


# ---------------------------------------------------------------------------
# metered execution

class Metered(np.ndarray):
    """Complex array whose numpy arithmetic is charged to a shared tally.

    ``tally`` is a [mults, adds, shifts] list. Views, copies and arrays
    allocated ``*_like`` a metered array share it, so a metered signal runs
    through the unchanged executors. Each ufunc call is charged per output
    element from the ufunc and the values of its constant operand:

      * add or subtract: 2 adds;
      * multiply by 0, +-1 or +-j: free; by +-1/2 or +-j/2: 2 shifts;
      * multiply by p + jq with p, q in {+-1/2, +-1}: 2 adds, plus 2 shifts
        for each part that is 1/2;
      * multiply by a real c with 128 c an integer (a CSD value): 2(k-1)
        adds and 2(k-1) shifts, k the nonzero digits of the non-adjacent
        form of 128 |c|;
      * multiply by any other real or pure imaginary constant: 2 mults, and
        by a general complex constant 3 mults + 3 adds;
      * every other ufunc (negation, comparisons, reductions): free.

    A product's charge is still computed from its constant's values by
    ``_mul_charge``. It is memoized under the exact bytes of the constant,
    for constants of at most ``_MEMO_VALUES`` values, in an LRU of
    ``_MEMO_CONSTANTS``: a wave schedule multiplies by the same constant
    column at every run.
    """

    def __array_finalize__(self, obj):
        self.tally = getattr(obj, "tally", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        args = [a.view(np.ndarray) if type(a) is Metered else a for a in inputs]
        if out is not None:
            kwargs["out"] = tuple([o.view(np.ndarray) if type(o) is Metered else o for o in out])
        if method != "__call__":
            return getattr(ufunc, method)(*args, **kwargs)
        result = ufunc(*args, **kwargs)
        if out is not None:
            target = out[0]  # the caller's own object, metered or not
        elif isinstance(result, np.ndarray):
            target = result.view(Metered)
            target.tally = self.tally
        else:
            target = result
        if ufunc is np.add or ufunc is np.subtract:
            _charge(self.tally, (0, 2, 0), target.size)
        elif ufunc is np.multiply:
            consts = [a for a in inputs if type(a) is not Metered]
            if len(consts) != 1:
                raise TypeError("a metered product needs one constant operand")
            c = np.asarray(consts[0], dtype=np.complex128)
            per = _values_charge(c) if c.size > _MEMO_VALUES else _memo_charge(c.tobytes())
            _charge(self.tally, per, target.size // c.size)
        return target

    def op_count(self) -> OpCount:
        return OpCount(*self.tally)


def metered(x) -> Metered:
    """A complex128 copy of x that meters its arithmetic from a zero tally."""
    m = np.array(x, dtype=np.complex128).view(Metered)
    m.tally = [0, 0, 0]
    return m


def _charge(tally, charge, elements):
    """Add each part of charge times the element count to a tally, if any."""
    if tally is not None:
        mults, adds, shifts = charge
        tally[0] += mults * elements
        tally[1] += adds * elements
        tally[2] += shifts * elements


def _naf_weight(m: int) -> int:
    """Nonzero digits in the non-adjacent form of m >= 0 (Reitwiesner 1960):
    they sit where the bits of 3m and m differ, the lowest bit excepted."""
    return ((3 * m ^ m) >> 1).bit_count()


def _values_charge(c: np.ndarray) -> tuple:
    """(mults, adds, shifts) of multiplying one complex value by each value of c, summed."""
    values, reps = np.unique(c, return_counts=True)
    return tuple((np.array([_mul_charge(v) for v in values.tolist()]).T @ reps).tolist())


#: most values of a product constant whose charge is memoized, and most constants memoized
_MEMO_VALUES = 1024
_MEMO_CONSTANTS = 64


@lru_cache(maxsize=_MEMO_CONSTANTS)
def _memo_charge(key: bytes) -> tuple:
    """``_values_charge`` of the complex128 constant whose bytes are key."""
    return _values_charge(np.frombuffer(key, dtype=np.complex128))


def _mul_charge(c: complex) -> tuple:
    """(mults, adds, shifts) of multiplying one complex value by c."""
    re, im = abs(c.real), abs(c.imag)
    if re == 0.0 or im == 0.0:
        v = re + im
        if v in (0.0, 1.0):
            return (0, 0, 0)
        if v == 0.5:
            return (0, 0, 2)
        if im == 0.0 and (128 * v).is_integer():
            k = _naf_weight(int(128 * v))
            return (0, 2 * (k - 1), 2 * (k - 1))
        return (2, 0, 0)
    if re in (0.5, 1.0) and im in (0.5, 1.0):
        return (0, 2, 2 * (re == 0.5) + 2 * (im == 0.5))
    return (3, 3, 0)


# ---------------------------------------------------------------------------
# opcode table and executors

class _OpKind(NamedTuple):
    cost: Callable    # op constant -> static OpCount
    call: Callable    # (out, src1, src2, constant) -> (numpy callable, its arguments), a call
                      # that writes out; on rows or blocks of rows


_FREE = OpCount()
_ADDS = OpCount(0, 2, 0)


def _mul_cost(c: complex) -> OpCount:
    """Static cost of a product by c: per nonzero part of c, 2 shifts for
    +-1/2, 2 mults for anything but +-1, and 2 adds to join two parts."""
    parts = [abs(v) for v in (c.real, c.imag) if v]
    halves = parts.count(0.5)
    mults = len(parts) - halves - parts.count(1.0)
    return OpCount(2 * mults, 2 * (len(parts) - 1), 2 * halves)


def _np_mulcc(out, z, b, c):
    """c z for c = p + jq, spelled out so the result does not depend on how
    the vectorized complex multiply fuses its operations.

    It runs on plain views and charges a metered ``z`` as one unit at the
    cost convention's 3 mults + 3 adds. That is a known gap: the spelled-out
    form performs 4 mults and 2 adds. The 3-mult form would close it, but
    would move the last bits of every by-definition leaf's output.
    """
    p, q = c.real, c.imag
    _charge(getattr(z, "tally", None), (3, 3, 0), out.size)
    z = z.view(np.ndarray)
    np.add(z.real * p - z.imag * q, 1j * (z.real * q + z.imag * p), out=out.view(np.ndarray))


def _take(out, a, b, rows):
    # the rows are in range and apart from out, so "clip" writes straight to
    # out; the default mode copies through a buffer first
    return a.take, (rows, 0, out, "clip")


# every call but MULCC's is one numpy ufunc, its output passed by position
_OPCODES = {
    CP: _OpKind(lambda c: _FREE, lambda out, a, b, c: (
        np.positive if c > 0 else np.negative, (a, out))),
    ADD: _OpKind(lambda c: _ADDS, lambda out, a, b, c: (np.add, (a, b, out))),
    SUB: _OpKind(lambda c: _ADDS, lambda out, a, b, c: (np.subtract, (a, b, out))),
    MUL: _OpKind(_mul_cost, lambda out, a, b, c: (np.multiply, (a, c, out))),
    MULCC: _OpKind(lambda c: OpCount(3, 3, 0), lambda out, a, b, c: (_np_mulcc, (out, a, b, c))),
}


#: widest block that runs as compiled waves; see the module docstring
WAVE_COLUMNS = 512
#: most elements (rows times columns) of a wave slot array; see the module docstring
_WAVE_ELEMENTS = 2 ** 19
#: columns per tile when a wider block runs op by op
TILE = 4096
#: most elements (512 KiB) of a slot array whose calls are kept: enough for the approximate
#: and exact leaves of a batch-1 1023-point plan, not the 31-point by-definition leaf
_SPARE_ELEMENTS = 2 ** 15


class Wave(NamedTuple):
    """Ops of one opcode (and sign, for CP) at one dependency level, run as
    one numpy call over a block of rows of the wave slot array."""

    code: int
    ops: tuple     # positions in Schedule.ops, in row order
    dst: slice     # the fresh contiguous rows the wave writes
    src1: object   # rows read: a slice (any nonzero step), or an index array
    src2: object   # the same for the second operand, or None
    const: object  # None, the CP sign, or the ops' constants as a complex column


class CompiledWaves(NamedTuple):
    """A schedule's waves, and the numpy calls that run them level by level
    over one slot array: one ``take`` per level gathers the operands it
    reads by index array into rows only later levels write, then each wave
    is one call on row slices, made views of a slot array by ``_bind``."""

    waves: tuple
    n_rows: int    # the n_in inputs, then each wave's rows in wave order
    out: np.ndarray  # rows holding the n_out outputs
    layout: tuple  # (call builder, out, src1, src2, constant) calls on slot row slices
    n_stage: int   # staging rows needed past n_rows
    wide: dict     # width -> {layout position: MUL constants widened} of the last kept binding


def _rows(idx):
    """A slice for a nonzero-step arithmetic progression of rows, else an index array."""
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if step and all(b - a == step for a, b in zip(idx, idx[1:])):
        stop = idx[-1] + (1 if step > 0 else -1)
        return slice(idx[0], stop if stop >= 0 else None, step)
    return np.array(idx, dtype=np.intp)


def _compile_waves(sched: Schedule) -> CompiledWaves:
    """Rename every write to a fresh value, level each op at 1 + its
    operands' highest level, group the ops by (level, opcode, CP sign) and
    lay the groups out as calls, one gather per level first."""
    n_in = sched.n_in
    value = {i: i for i in range(n_in)}  # slot -> its latest value
    level = [0] * n_in                   # value -> level; value n_in + i is op i's
    args, groups = [], {}
    for i, op in enumerate(sched.ops):
        a = [value[op.src1]] + ([value[op.src2]] if op.src2 >= 0 else [])
        level.append(1 + max(level[v] for v in a))
        value[op.dst] = n_in + i
        args.append(a)
        groups.setdefault((level[-1], op.code, op.c.real if op.code == CP else 0.0),
                          []).append(i)
    row = list(range(n_in)) + [0] * len(sched.ops)  # value -> row of the slot array
    n_rows = n_in + len(sched.ops)
    waves, start, layout, n_stage = [], n_in, [], 0
    for _, level_groups in groupby(sorted(groups.items()), key=lambda g: g[0][0]):
        level_groups = list(level_groups)
        # the level reads rows before `first`, writes rows up to `stage` and
        # stages its gathered operands from `stage` on
        first, gathered, calls = start, [], []
        stage = start + sum(len(members) for _, members in level_groups)
        for (_, code, sign), members in level_groups:
            for r, i in enumerate(members, start):
                row[n_in + i] = r
            if code == CP:
                const = sign
            elif code in (ADD, SUB):
                const = None
            else:
                const = np.array([sched.ops[i].c for i in members], dtype=np.complex128)[:, None]
            srcs = [_rows([row[args[i][k]] for i in members]) for k in range(len(args[members[0]]))]
            srcs += [None] * (2 - len(srcs))
            waves.append(Wave(code, tuple(members), slice(start, start + len(members)),
                              *srcs, const))
            start += len(members)
            for k, src in enumerate(srcs):
                if isinstance(src, np.ndarray):  # read from the level's staging rows
                    at = stage + sum(map(len, gathered))
                    gathered.append(src)
                    srcs[k] = slice(at, at + len(src))
            calls.append((_OPCODES[code].call, waves[-1].dst, *srcs, const))
        if gathered:
            rows = np.concatenate(gathered)
            n_stage = max(n_stage, stage + len(rows) - n_rows)
            layout.append((_take, slice(stage, stage + len(rows)), slice(0, first), None, rows))
        layout += calls
    out = [row[value[s]] for s in range(sched.out_base, sched.out_base + sched.n_out)]
    return CompiledWaves(tuple(waves), n_rows, np.array(out, dtype=np.intp), tuple(layout),
                         n_stage, {})


def _kept(shape: tuple) -> bool:
    """Whether calls bound to a slot array of this shape are kept for later
    runs: it holds at most ``_SPARE_ELEMENTS``."""
    return shape[0] * shape[1] <= _SPARE_ELEMENTS


def _widened(cw: CompiledWaves, width: int) -> dict:
    """Each MUL wave's constant column widened to a C-contiguous, read-only
    (rows, width) block, by layout position. Every kept binding of cw at
    that width shares them; cw keeps the blocks of the last width asked."""
    wide = cw.wide.get(width)
    if wide is None:
        wide = {}
        for k, (call, _, _, _, c) in enumerate(cw.layout):
            if call is _OPCODES[MUL].call:
                wide[k] = np.ascontiguousarray(np.broadcast_to(c, (len(c), width)))
                wide[k].flags.writeable = False
        cw.wide.clear()
        cw.wide[width] = wide
    return wide


def _bind(cw: CompiledWaves, S: np.ndarray) -> list:
    """The layout's calls on views of the slot array S, as (numpy callable,
    arguments) pairs. Only src1, the data a metered product needs, is a view
    of S itself; the others are views of S's plain ndarray, which keeps a
    metered run cheap. Plain calls on a slot array that ``_kept`` takes
    multiply by ``_widened`` constants, which numpy multiplies about twice
    as fast as the column, to the same bits; metered calls keep the column."""
    P = S.view(np.ndarray)
    wide = _widened(cw, S.shape[1]) if type(S) is np.ndarray and _kept(S.shape) else {}
    return [call(P[o], S[a], b if b is None else P[b], wide.get(k, c))
            for k, (call, o, a, b, c) in enumerate(cw.layout)]


def _run_waves(cw: CompiledWaves, x: np.ndarray) -> np.ndarray:
    """Run the calls bound to a fresh slot array whose first rows hold x;
    a metered block's slot array, and so its views, carry x's tally."""
    S = np.empty_like(x, shape=(cw.n_rows + cw.n_stage, x.shape[1]))
    S[: x.shape[0]] = x
    _call(_bind(cw, S))
    return S.take(cw.out, axis=0)


def _call(calls) -> None:
    """Make each bound (numpy callable, arguments) call in turn."""
    for fn, args in calls:
        fn(*args)


def _run_tiles(sched: Schedule, x: np.ndarray, write) -> None:
    """Run an (n_in, rows, B) block op by op over tiles of at most ``TILE``
    columns: whole batch rows, or a part of one row when B exceeds ``TILE``.
    Each tile's outputs go to ``write(r, b, y)``, y an (n_out, len(r), len(b))
    array the callee may overwrite, for the tile's batch rows and columns r, b.

    Ops read the input rows in place and write only the other slots, each
    written before it is read (``Schedule`` checks both), so the slot array
    needs no input rows and no initial value.
    """
    n_in, rows, B = x.shape
    k, w = max(1, TILE // B), min(B, TILE)  # batch rows and columns per tile
    tile = np.empty_like(x, shape=(sched.n_slots - n_in, min(k, rows), w))
    for r0 in range(0, rows, k):
        for b0 in range(0, B, w):
            r, b = slice(r0, min(r0 + k, rows)), slice(b0, min(b0 + w, B))
            s = tile[:, : r.stop - r0, : b.stop - b0]
            v = [*x[:, r, b], *s, None]  # slot -> its rows; slot -1 (no operand) -> None
            for call, dst, a, c, const in sched.steps:
                fn, args = call(v[dst], v[a], v[c], const)
                fn(*args)
            write(r, b, s[sched.out_base - n_in: sched.out_base - n_in + sched.n_out])


def as_waves(sched: Schedule, width: int) -> bool:
    """Whether a block of this many columns runs as the schedule's compiled
    waves: at most ``WAVE_COLUMNS``, on a slot array no larger than one
    tile's or ``_WAVE_ELEMENTS``, whichever is more. Other blocks run op by
    op over tiles."""
    return width <= WAVE_COLUMNS and (sched.n_in + len(sched.ops)) * width <= max(
        sched.n_slots * TILE, _WAVE_ELEMENTS)


def run_numpy(sched: Schedule, x: np.ndarray) -> np.ndarray:
    """Vectorized executor over an (n_in, batch) block, in the form that
    ``as_waves`` picks; the outputs come back as a fresh (n_out, batch)
    array. A ``Metered`` block stays metered through either form."""
    x = np.asanyarray(x, dtype=np.complex128, order="C")
    if as_waves(sched, x.shape[1]):
        return _run_waves(sched.waves, x)
    out = np.empty_like(x, shape=(sched.n_out, x.shape[1]))

    def write(r, b, y):
        out[:, b] = y[:, 0]
    _run_tiles(sched, x[:, None], write)
    return out
