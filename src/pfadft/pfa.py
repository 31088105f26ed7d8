"""Coprime-factor (Good-Thomas) composition of transform kernels.

An execution plan is a binary tree of pairwise-coprime factors with a
kernel choice at each leaf and a scale mode applied once at the top. Index
permutations come from the Chinese remainder theorem, so no intermediate
root-of-unity multipliers appear anywhere in the composition; an all-leaf
approximate plan therefore runs on additions and bit-shifts alone.

The nested CRT maps of any tree collapse into one map over the leaf
lengths n_1, ..., n_L (Burrus & Eschenbacher, IEEE TASSP 1981): input m
goes to grid cell (m mod n_l)_l, and cell (i_l) goes to output
sum_l i_l * (n / n_l) mod n. A plan runs as one pass over that grid, an
in-order prime-factor pass (Temperton, JCP 1985) in a rotating layout:

  * the input is gathered once into the grid with the leaf axes in
    reverse order and the batch innermost;
  * each leaf level, the last leaf first, reads its input as the leading
    axis of a contiguous (n_l, n / n_l, batch) block and writes its output
    rotated, that axis moved behind the others, into the block that is the
    next level's contiguous input;
  * the first leaf's level, which runs last, writes its output in output
    order, multiplied by the scale.

A wave level (``schedule.as_waves``) reads its block as the first rows of
its slot array and writes by one ``take`` by a flat index, then on the last
level multiplies by the scale in place; a tile level writes each tile
rotated, or on the last level scales it and scatters it to the output. So
each grid value is written by the gather, the leaf arithmetic and one write
per level, with no transposed copy. Where a block runs every level as
waves on slot arrays small enough to keep (n = 1023 at batch 1), the pass
is made once as the tree's program for that width, its slot arrays and
indices, and each kind of run, plain or metered, binds its calls to those
slot arrays at its first run; later runs replay them (one codelet per
plan, as in FFTW: Frigo & Johnson, Proc. IEEE 2005). The leaf calls always
run right to left over the leaf sequence, so every element goes through
the same IEEE operations in any layout or form. The same leaf calls count
operations: ``instrumented_count`` runs ``execute`` on a metered array
against a plain run, and at batch 1 both replay the tree's one program.

What a plan computes depends on its leaf set, not on the tree's shape.
Entry (K, k) of the composed matrix is the product over the leaves of
entry (K * u mod n_leaf, k mod n_leaf) of the leaf's matrix, where u is
the inverse of n / n_leaf modulo n_leaf, and each leaf runs n / n_leaf
times. So a leaf's DC row lands exactly on the outputs K with
K mod n_leaf = 0. An approximate kernel's scale is
diag(1, sqrt(eta), ..., sqrt(eta)), so the radicand of output K is the
product of eta over the approximate leaves whose length does not divide K
(the residue rule). The leaf order sets the order of the leaf calls; the
tree shape only sets the association of that product in ``plan_rows``,
which builds any rows of a plan's matrix (and of the exact DFT) from the
leaf matrices for ``dense_matrix`` and ``pfadft.analysis``; for exact
leaves the association can move the last bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import schedule
from .design import _SCALE_MODES, AssembledScale
from .exactdft import (KERNEL_LENGTHS, MAX_DEFINITION_LENGTH, _is_integer, a_stage_matrix,
                       derive_core, dft_matrix)
from .kernels import factorization, kernel, kernel_eta
from .schedule import Metered, OpCount, Schedule, compile_stages, metered

#: rows of a plan's matrix built at a time by ``dense_matrix`` and the row
#: tables of ``pfadft.analysis``, which bounds their memory
ROW_BLOCK = 64

HYBRID_LEGS = {
    "I": frozenset({3}),
    "II": frozenset({11}),
    "III": frozenset({31}),
    "IV": frozenset({3, 11}),
    "V": frozenset({3, 31}),
    "VI": frozenset({11, 31}),
}


@dataclass(frozen=True)
class IndexMap:
    """Forward/inverse CRT permutations for one sequence of coprime lengths."""

    forward: np.ndarray   # row-major grid cell c reads x[forward[c]]
    inverse: np.ndarray   # row-major grid cell c lands at X[inverse[c]]


@lru_cache(maxsize=None)
def build_index_maps(*lengths: int) -> IndexMap:
    """Input and output index permutations for the grid of these lengths.

    Cell (i_l) reads input sum_l i_l * e_l mod n, where the CRT idempotent
    e_l = (n / n_l) * ((n / n_l)^-1 mod n_l) is 1 modulo n_l and 0 modulo
    the other lengths, and lands at output sum_l i_l * (n / n_l) mod n.
    """
    if not lengths or not all(_is_integer(m) and m >= 1 for m in lengths):
        raise ValueError(f"lengths must be one or more positive integers, got {lengths}")
    if any(math.gcd(a, b) != 1 for a, b in itertools.combinations(lengths, 2)):
        raise ValueError(f"lengths {lengths} are not pairwise coprime")
    n = math.prod(lengths)
    cells = np.indices(lengths).reshape(len(lengths), -1)
    strides = [n // m for m in lengths]
    idempotents = [q * pow(q, -1, m) for q, m in zip(strides, lengths)]
    forward = np.tensordot(idempotents, cells, 1) % n
    inverse = np.tensordot(strides, cells, 1) % n
    for perm in (forward, inverse):
        if not np.all(np.bincount(perm, minlength=n) == 1):
            raise AssertionError("index map is not a bijection")
    return IndexMap(forward, inverse)


# ---------------------------------------------------------------------------
# plan trees

@dataclass(frozen=True)
class Leaf:
    n: int
    kind: str  # "approx" | "exact" | "definition"

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 1:
            raise ValueError(f"leaf length must be a positive integer, got {self.n!r}")
        if self.kind not in ("approx", "exact", "definition"):
            raise ValueError(f"unknown leaf kind {self.kind!r}")
        if self.kind == "approx" and self.n not in KERNEL_LENGTHS:
            raise ValueError(f"no approximate kernel for n={self.n}")
        if self.n > MAX_DEFINITION_LENGTH:
            raise ValueError(f"leaf of length {self.n} would compile {self.n}^2 operations by "
                             f"definition; leaves are limited to {MAX_DEFINITION_LENGTH} points")


@dataclass(frozen=True)
class Node:
    left: object   # transform of length n1 (outer/row factor)
    right: object  # transform of length n2 (inner/column factor)

    def __post_init__(self):
        n1, n2 = tree_length(self.left), tree_length(self.right)
        if 1 in (n1, n2):
            raise ValueError("node factors must be longer than 1")
        if math.gcd(n1, n2) != 1:
            raise ValueError("node factors must be coprime")


def tree_length(t) -> int:
    return t.n if isinstance(t, Leaf) else tree_length(t.left) * tree_length(t.right)


def tree_leaves(t) -> tuple:
    """The leaves of a plan tree, left to right."""
    return (t,) if isinstance(t, Leaf) else tree_leaves(t.left) + tree_leaves(t.right)


@dataclass(frozen=True)
class ExecutionPlan:
    tree: object
    scale_mode: str            # "none" | "exact" | "csd"

    def __post_init__(self):
        if self.scale_mode not in _SCALE_MODES:
            raise ValueError(f"unknown scale mode {self.scale_mode!r}")

    @property
    def n(self) -> int:
        return tree_length(self.tree)


def _prime_power_factors(n: int):
    """Prime-power factors of n, largest first.

    No leaf may exceed ``MAX_DEFINITION_LENGTH``, so trial division stops
    there: a cofactor left above it cannot be split into short enough
    coprime leaves, and n is rejected at once, however large it is.
    """
    out = []
    m = n
    p = 2
    while p <= MAX_DEFINITION_LENGTH and p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append(q)
        p += 1
    if m > MAX_DEFINITION_LENGTH:
        raise ValueError(f"n={n} has a prime-power factor above {MAX_DEFINITION_LENGTH}; "
                         f"leaves are limited to {MAX_DEFINITION_LENGTH} points")
    if m > 1 or not out:
        out.append(m)
    return sorted(out, reverse=True)


def _build_tree(factors, kinds):
    if len(factors) == 1:
        n = factors[0]
        return Leaf(n, kinds[n])
    return Node(Leaf(factors[0], kinds[factors[0]]), _build_tree(factors[1:], kinds))


def plan(n: int, variant: str) -> ExecutionPlan:
    """Build the execution plan for a named variant of the n-point DFT.

    Variants: ``exact``, ``exact-definition``, ``unscaled``, ``scaled``,
    ``csd``, and for n = 1023 the hybrids ``hybrid-I-scaled`` ...
    ``hybrid-VI-csd`` in which the listed leg lengths stay exact.
    """
    if not _is_integer(n) or n < 1:
        raise ValueError(f"transform length must be a positive integer, got {n!r}")
    factors = _prime_power_factors(n)
    kinds = {}
    scale_mode = "none"
    if variant == "exact":
        kinds = {f: "exact" for f in factors}
    elif variant == "exact-definition":
        kinds = {f: "definition" for f in factors}
    elif variant in ("unscaled", "scaled", "csd"):
        missing = [f for f in factors if f not in KERNEL_LENGTHS]
        if missing:
            raise ValueError(f"no approximate kernel for factor(s) {missing} of n={n}")
        kinds = {f: "approx" for f in factors}
        scale_mode = {"unscaled": "none", "scaled": "exact", "csd": "csd"}[variant]
    elif isinstance(variant, str) and variant.startswith("hybrid-"):
        parts = variant.split("-")
        if len(parts) != 3 or parts[1] not in HYBRID_LEGS or parts[2] not in ("scaled", "csd"):
            raise ValueError(f"unknown variant {variant!r}")
        legs = HYBRID_LEGS[parts[1]]
        if set(factors) != {3, 11, 31}:
            raise ValueError("hybrid variants are defined for n = 1023")
        kinds = {f: ("approx" if f in legs else "exact") for f in factors}
        scale_mode = "exact" if parts[2] == "scaled" else "csd"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ExecutionPlan(_build_tree(factors, kinds), scale_mode)


# ---------------------------------------------------------------------------
# scale assembly

@lru_cache(maxsize=None)
def _assembled_scale(tree, mode: str) -> AssembledScale:
    """Scale of a tree by the residue rule (see the module docstring)."""
    approx = [leaf.n for leaf in tree_leaves(tree) if leaf.kind == "approx"]
    k = np.arange(tree_length(tree))
    # bit j of mask[K] is set when approx[j] does not divide K
    mask = sum(((k % m != 0) << j for j, m in enumerate(approx)), np.zeros_like(k))
    radicand = [math.prod((kernel_eta(m) for j, m in enumerate(approx) if bits >> j & 1),
                          start=Fraction(1)) for bits in range(2 ** len(approx))]
    return AssembledScale(tuple(radicand[bits] for bits in mask.tolist()), mode)


def assemble_scale(plan_: ExecutionPlan) -> AssembledScale:
    """Composed per-output scale of a plan, in the plan's scale mode.

    Built once per tree and scale mode; later calls return the same object.
    """
    return _assembled_scale(plan_.tree, plan_.scale_mode)


# ---------------------------------------------------------------------------
# execution

def leaf_schedule(leaf: Leaf) -> Schedule:
    """A leaf's compiled schedule, built once per length and form.

    Approximate leaves and exact 3-, 11- and 31-point leaves take the
    butterfly form [A, C, A^T], with C from ``factorization(n)`` or
    ``derive_core`` of the exact DFT. Every other leaf takes the definition
    form [dft_matrix(n)], so an exact and a definition leaf of such a length
    share one schedule.
    """
    fast = leaf.kind == "approx" or (leaf.kind == "exact" and leaf.n in KERNEL_LENGTHS)
    return _compiled_leaf(leaf.n, leaf.kind if fast else "definition")


@lru_cache(maxsize=None)
def _compiled_leaf(n: int, form: str) -> Schedule:
    if form == "definition":
        return compile_stages([dft_matrix(n)], n)
    core = factorization(n).core if form == "approx" else derive_core(dft_matrix(n))
    A = a_stage_matrix(n)
    return compile_stages([A, core, A.T], n)


def _run_leaf(leaf: Leaf, x) -> np.ndarray:
    """Run a leaf's schedule on a signal or a batch of column signals."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0 or x.shape[0] != leaf.n:
        raise ValueError(f"input of shape {x.shape} does not have length n={leaf.n}")
    return _run_tree(leaf, "none", x.reshape(leaf.n, x.size // leaf.n)).reshape(x.shape)


def apply_kernel_fast(n: int, x) -> np.ndarray:
    """Multiply by the dense kernel using only additions and shifts."""
    return _run_leaf(Leaf(n, "approx"), x)


def fast_exact(n: int, x) -> np.ndarray:
    """Factorized exact transform for n in {3, 11, 31}."""
    if n not in KERNEL_LENGTHS:
        raise ValueError(f"no fast exact factorization for n={n}")
    return _run_leaf(Leaf(n, "exact"), x)


class _Program(NamedTuple):
    """A tree's pass at one width whose every level runs as waves on a slot
    array that ``schedule._kept`` takes: the slot arrays and indices, made
    once, and the calls bound to them for each kind of run, plain or
    metered, at its first run. The metered calls charge ``tally``."""

    forward: np.ndarray  # the CRT map that gathers the input into head
    head: np.ndarray     # the first level's input rows
    steps: tuple         # (compiled waves, slot array, hand-off call or None) per level
    last: np.ndarray     # the last level's slot array, flat
    order: np.ndarray    # the flat indices in last of the outputs, in output order
    calls: dict          # np.ndarray or Metered -> the calls of that kind of run
    tally: list          # [mults, adds, shifts] charged by one metered run's calls


#: tree -> {batch: program} of the last width the tree ran at as a program
_PROGRAMS = {}
#: levels -> {batch: {level: wave output index}} of the last width a pass of
#: these levels ran at outside a program, where an index holds n * batch
#: entries, at most ``schedule._SPARE_ELEMENTS``
_INDICES = {}


def _grid_maps(levels):
    """The forward map that gathers the input into the first level's grid,
    the leaf axes in level order, and the inverse map of the last level's
    grid, which holds the first leaf's axis, then the others reversed."""
    forward = build_index_maps(*(leaf.n for leaf in levels)).forward
    inverse = build_index_maps(levels[-1].n, *(leaf.n for leaf in levels[:-1])).inverse
    return forward, inverse


def _slot_shape(leaf: Leaf, width: int):
    """The shape of a level's slot array at this many columns, or None if
    its block runs as tiles."""
    sched = leaf_schedule(leaf)
    if not schedule.as_waves(sched, width):
        return None
    return sched.waves.n_rows + sched.waves.n_stage, width


def _level(leaf: Leaf, x: np.ndarray):
    """A level's slot array if its block runs as waves, else None, and its
    input rows as a C-contiguous (n, B) block like x."""
    n, B = x.shape
    shape = _slot_shape(leaf, n // leaf.n * B)
    if shape is None:
        return None, np.empty_like(x, order="C")
    S = np.empty_like(x, shape=shape, order="C")
    return S, S[: leaf.n].reshape(n, B)


def _columns(at: np.ndarray, B: int) -> np.ndarray:
    """The flat indices of the B columns that start at each flat index in at."""
    return at.reshape(-1) if B == 1 else np.add.outer(at, np.arange(B)).reshape(-1)


def _wave_index(leaf: Leaf, width: int, B: int, inverse, last: bool) -> np.ndarray:
    """The flat indices of a wave level's outputs in its slot array of this
    many columns: in the next level's input row order, output (i, r, b)
    going to row (r, i, b), or on the last level in output order, output
    (i, r, b) landing at inverse[i * R + r]."""
    R = len(inverse) // leaf.n
    # at[i, r]: the flat index in the slot array of output row i, batch row r, column 0
    at = leaf_schedule(leaf).waves.out[:, None] * width + np.arange(R) * B
    if not last:
        return _columns(at.T, B)
    order = np.empty(len(inverse), dtype=np.intp)
    order[inverse] = at.reshape(-1)
    return _columns(order, B)


def _program(levels, n: int, B: int):
    """The pass of these levels over (n, B) blocks as a program with no
    calls bound yet, or None unless every level runs as waves on a slot
    array that ``schedule._kept`` takes."""
    shapes = [_slot_shape(leaf, n // leaf.n * B) for leaf in levels]
    if not all(shape is not None and schedule._kept(shape) for shape in shapes):
        return None
    forward, inverse = _grid_maps(levels)
    slots = [np.empty(shape, dtype=np.complex128) for shape in shapes]
    rows = [S[: leaf.n].reshape(n, B) for leaf, S in zip(levels, slots)]
    index = [_wave_index(leaf, S.shape[1], B, inverse, k == len(levels) - 1)
             for k, (leaf, S) in enumerate(zip(levels, slots))]
    hand_offs = [schedule._take(nxt.reshape(-1), S.reshape(-1), None, at)
                 for S, nxt, at in zip(slots, rows[1:], index)]
    steps = tuple(zip([leaf_schedule(leaf).waves for leaf in levels], slots, hand_offs + [None]))
    return _Program(forward, rows[0], steps, slots[-1].reshape(-1), index[-1], {}, [0, 0, 0])


def _program_calls(program: _Program, kind) -> list:
    """The program's calls for a run of this kind, np.ndarray or Metered,
    bound at its first such run: a metered run's to ``Metered`` views of
    the same slot arrays, which charge the program's tally."""
    calls = program.calls.get(kind)
    if calls is None:
        calls = []
        for cw, S, hand_off in program.steps:
            if kind is Metered:
                S = S.view(Metered)
                S.tally = program.tally
            calls += schedule._bind(cw, S)
            if hand_off is not None:
                calls.append(hand_off)
        program.calls[kind] = calls
    return calls


def _run_tree(tree, mode: str, x):
    """Apply the tree transform, scaled in ``mode``, to an (n, B) block in
    one pass of the rotating layout (see the module docstring). A plain or
    metered block pops the tree's program of its width, or makes one if
    ``_program`` can, so runs never share one, replays it and keeps it as
    the tree's program. A metered replay zeroes the program's tally, runs
    the metered calls and adds the tally into the block's own, which the
    output carries. Other blocks run ``_run_levels``."""
    n, B = x.shape
    levels = tree_leaves(tree)[::-1]  # the last leaf's level runs first
    scale = None if mode == "none" else _assembled_scale(tree, mode).values()
    kind = type(x)
    program = None
    if kind is np.ndarray or kind is Metered:
        program = _PROGRAMS.get(tree, {}).pop(B, None) or _program(levels, n, B)
    if program is None:
        return _run_levels(levels, x, scale)
    calls = _program_calls(program, kind)
    if kind is Metered:
        program.tally[:] = (0, 0, 0)
    x.take(program.forward, 0, program.head, "clip")
    schedule._call(calls)
    out = program.last.take(program.order).reshape(n, B)
    if kind is Metered:
        schedule._charge(x.tally, program.tally, 1)
        out = out.view(Metered)
        out.tally = x.tally
    if scale is not None:
        np.multiply(out, scale[:, None], out=out)
    _PROGRAMS[tree] = {B: program}
    return out


def _run_levels(levels, x, scale):
    """The pass level by level: a level of an m-point leaf reads an
    (m, R, B) block and writes an (R, m, B) one, a wave level by calls
    bound to its own slot array and dropped once they ran. Only the wave
    levels' output indices are kept, in ``_INDICES``, where they hold at
    most ``schedule._SPARE_ELEMENTS`` entries. A metered block stays metered
    throughout. A one-leaf tree's tiles read x in place and write the output
    rows by slice."""
    n, B = x.shape
    forward, inverse = _grid_maps(levels)
    indices = _INDICES.get(levels, {}).get(B, {})
    if len(levels) == 1 and _slot_shape(levels[0], B) is None:
        S, rows = None, np.asanyarray(x, order="C")  # a one-leaf grid is x itself
    else:
        S, rows = _level(levels[0], x)
        x.take(forward, 0, rows, "clip")
    last = None
    for k, leaf in enumerate(levels):
        m, R = leaf.n, n // leaf.n
        S_next, nxt = _level(levels[k + 1], x) if k + 1 < len(levels) else (None, None)
        if S is None:  # tiles, whose outputs rotate into nxt, or scale and scatter
            if nxt is not None:
                def write(r, b, y, dest=nxt.reshape(R, m, B)):
                    dest[r, :, b] = y.transpose(1, 0, 2)
            else:
                out, positions = np.empty_like(x, order="C"), inverse.reshape(m, R)
                tile_scale = None if scale is None else scale[positions, None]

                def write(r, b, y):
                    if tile_scale is not None:
                        np.multiply(y, tile_scale[:, r], out=y)
                    if len(levels) == 1:
                        out[:, b] = y[:, 0]
                    else:
                        out[positions[:, r], b] = y
            schedule._run_tiles(leaf_schedule(leaf), rows.reshape(m, R, B), write)
        else:
            ran = schedule._bind(leaf_schedule(leaf).waves, S)
            if k not in indices:
                indices[k] = _wave_index(leaf, S.shape[1], B, inverse, nxt is None)
            if nxt is not None:  # output (i, r, b) is the next level's input (r, i, b)
                ran.append(schedule._take(nxt.reshape(-1), S.reshape(-1), None, indices[k]))
            else:
                last, order = S.reshape(-1), indices[k]
            schedule._call(ran)
            del ran  # no view of this S past its level
        S, rows = S_next, nxt
    if n * B <= schedule._SPARE_ELEMENTS:
        _INDICES[levels] = {B: indices}
    if last is not None:  # the last level ran as waves
        out = last.take(order).reshape(n, B)
        if scale is not None:
            np.multiply(out, scale[:, None], out=out)
    return out


def execute(plan_: ExecutionPlan, x) -> np.ndarray:
    """Run a plan on a signal (or a batch of column signals)."""
    x = np.asanyarray(x, dtype=np.complex128)  # a metered signal stays metered
    if isinstance(x, np.matrix):  # whose * is a matrix product
        x = x.A
    if x.ndim not in (1, 2):
        raise ValueError("input must be a 1-D signal or a 2-D batch of column signals, "
                         f"got a {x.ndim}-D array")
    single = x.ndim == 1
    if single:
        x = x[:, None]
    if x.shape[0] != plan_.n:
        raise ValueError(f"input length {x.shape[0]} does not match plan n={plan_.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    y = _run_tree(plan_.tree, plan_.scale_mode, x)
    return y[:, 0] if single else y


@lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    """The fixed seed-0 complex signal of length n that ``instrumented_count``
    runs, made once and read-only."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x.flags.writeable = False
    return x


def instrumented_count(plan_: ExecutionPlan) -> OpCount:
    """Run ``execute`` once on a metered signal and return what it charged.

    The metered array (see ``pfadft.schedule.Metered``) runs the same pass
    as a plain one: gather, waves or tiles, rotated writes and the scale. Its
    output must equal the plain run's bit for bit.
    """
    x = _probe(plan_.n)
    m = metered(x)
    if not np.array_equal(execute(plan_, m), execute(plan_, x)):
        raise AssertionError("metered run disagrees with the plain run")
    return m.op_count()


# ---------------------------------------------------------------------------
# dense assembly (analysis paths)

def leaf_matrix(leaf: Leaf) -> np.ndarray:
    """Dense matrix a leaf computes: its kernel, or the exact DFT."""
    return kernel(leaf.n) if leaf.kind == "approx" else dft_matrix(leaf.n)


def plan_rows(plan_: ExecutionPlan, rows, exact: bool = False) -> np.ndarray:
    """Rows ``rows`` of the plan's matrix, scale included, as a fresh
    (len(rows), n) array; with ``exact`` the same rows of the exact DFT.

    Row K is the elementwise product over the leaves of the gathered leaf
    row M_l[K u_l mod n_l, m mod n_l] (see the module docstring), taken in
    the tree's own association and then multiplied by the scale s_K. With
    ``exact`` every leaf contributes its ``dft_matrix`` and no scale.
    """
    rows = np.asarray(rows)
    n = plan_.n
    cols = np.arange(n)

    def product(t):
        if isinstance(t, Node):
            return product(t.left) * product(t.right)
        M = dft_matrix(t.n) if exact else leaf_matrix(t)
        return M[rows * pow(n // t.n, -1, t.n) % t.n].take(cols % t.n, axis=1)

    out = product(plan_.tree)
    if plan_.scale_mode != "none" and not exact:
        out *= assemble_scale(plan_).values()[rows, None]
    return out


def dense_matrix(plan_: ExecutionPlan) -> np.ndarray:
    """Full matrix of the plan, scale included (binary64), built
    ``ROW_BLOCK`` rows at a time."""
    rows, M = np.arange(plan_.n), None
    for lo in range(0, plan_.n, ROW_BLOCK):
        block = plan_rows(plan_, rows[lo:lo + ROW_BLOCK])
        # allocated after the first block, so the later blocks' scratch
        # reuses that block's freed memory instead of splitting a freed n x n
        # array of an earlier call; in a loop of calls such splits grew the
        # glibc heap, and the peak RSS, by a whole matrix
        if M is None:
            M = np.empty((plan_.n, plan_.n), dtype=block.dtype)
        M[lo:lo + ROW_BLOCK] = block
    return M


# ---------------------------------------------------------------------------
# serialization

def _tree_to_obj(tree):
    if isinstance(tree, Leaf):
        return tree.n
    return [_tree_to_obj(tree.left), _tree_to_obj(tree.right)]


def plan_to_json(plan_: ExecutionPlan) -> str:
    return json.dumps({
        "n": plan_.n,
        "tree": _tree_to_obj(plan_.tree),
        "kernels": {str(leaf.n): leaf.kind for leaf in tree_leaves(plan_.tree)},
        "scale": plan_.scale_mode,
    })


def plan_from_json(text: str) -> ExecutionPlan:
    try:
        return _plan_from_obj(json.loads(text))
    except RecursionError:  # from json or from the tree, nested too deeply
        raise ValueError("plan nests too deeply") from None


def _plan_from_obj(obj) -> ExecutionPlan:
    if not isinstance(obj, dict):
        raise ValueError("plan must be a JSON object")
    missing = [k for k in ("n", "tree", "kernels") if k not in obj]
    if missing:
        raise ValueError(f"plan lacks {', '.join(missing)}")
    if not _is_integer(obj["n"]):
        raise ValueError(f"n must be an integer, got {obj['n']!r}")
    if not isinstance(obj["kernels"], dict):
        raise ValueError("kernels must be an object mapping leaf lengths to kinds")
    kinds = {int(k): v for k, v in obj["kernels"].items()}
    if {str(k) for k in kinds} != set(obj["kernels"]):
        raise ValueError("kernels keys must be distinct leaf lengths in plain decimal")

    def build(node):
        if _is_integer(node):
            if node not in kinds:
                raise ValueError(f"no kernel kind given for leaf {node}")
            return Leaf(node, kinds[node])
        if not isinstance(node, list) or len(node) != 2:
            raise ValueError("tree nodes must be integer leaf lengths or [left, right]")
        return Node(build(node[0]), build(node[1]))

    tree = build(obj["tree"])
    unused = set(kinds) - {leaf.n for leaf in tree_leaves(tree)}
    if unused:
        raise ValueError(f"kernel kinds given for lengths the tree does not use: {sorted(unused)}")
    p = ExecutionPlan(tree, obj.get("scale", "none"))
    if p.n != obj["n"]:
        raise ValueError("tree product disagrees with declared n")
    return p
