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
    axis of a contiguous (n_l, n / n_l, batch) block, and writes each tile
    of its output rotated, that axis moved behind the others, into the
    block that is the next level's contiguous input;
  * the first leaf's level, which runs last, multiplies each output tile
    by the scale, taken in its grid order, and scatters it straight to
    the output positions.

So each grid value is written by the gather, by the leaf arithmetic and by
one rotated or scattered write per level, with no transposed copy and no
separate scale pass. Where every level runs as waves on a small slot array
(n = 1023 at batch 1), a plain input runs the pass as one program per tree
and width, its numpy calls bound once (one codelet per plan, as in FFTW:
Frigo & Johnson, Proc. IEEE 2005): each rotated write is one ``take`` into
the next level's wave input rows, and the scatter one ``take`` into output
order, then scaled. The leaf calls always run right to left over the leaf
sequence, so every element goes through the same IEEE operations in any
layout or form. The same leaf calls count operations:
``instrumented_count`` runs ``execute`` on a metered array, which takes the
per-level pass, against a plain run.

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

import numpy as np

from . import schedule
from .design import _SCALE_MODES, AssembledScale
from .exactdft import (KERNEL_LENGTHS, MAX_DEFINITION_LENGTH, _is_integer, a_stage_matrix,
                       derive_core, dft_matrix)
from .kernels import factorization, kernel, kernel_eta
from .schedule import OpCount, Schedule, compile_stages, metered, run_numpy

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
    return run_numpy(leaf_schedule(leaf), x.reshape(leaf.n, x.size // leaf.n)).reshape(x.shape)


def apply_kernel_fast(n: int, x) -> np.ndarray:
    """Multiply by the dense kernel using only additions and shifts."""
    return _run_leaf(Leaf(n, "approx"), x)


def fast_exact(n: int, x) -> np.ndarray:
    """Factorized exact transform for n in {3, 11, 31}."""
    if n not in KERNEL_LENGTHS:
        raise ValueError(f"no fast exact factorization for n={n}")
    return _run_leaf(Leaf(n, "exact"), x)


def _run_tree(tree, mode: str, arr):
    """Apply the tree transform, scaled in ``mode``, to an (n, B) block in
    one pass of the rotating layout (see the module docstring). A level of
    an m-point leaf reads an (m, R, B) block and writes an (R, m, B) one; a
    metered block stays metered throughout."""
    leaves = tree_leaves(tree)
    n, B = arr.shape
    y = arr[build_index_maps(*(leaf.n for leaf in reversed(leaves))).forward]
    for leaf in reversed(leaves[1:]):
        dest = np.empty_like(arr, shape=(n // leaf.n, leaf.n, B))

        def rotate(r, b, rows, dest=dest):
            dest[r, :, b] = rows.transpose(1, 0, 2)
        run_numpy(leaf_schedule(leaf), y.reshape(leaf.n, n // leaf.n, B), rotate)
        y = dest
    # the last level's grid holds the first leaf's axis, then the others reversed
    inverse = build_index_maps(leaves[0].n, *(leaf.n for leaf in leaves[:0:-1])).inverse
    positions = inverse.reshape(leaves[0].n, -1)
    scale = None if mode == "none" else _assembled_scale(tree, mode).values()[positions, None]
    out = np.empty_like(arr)

    def scatter(r, b, rows):
        if scale is not None:
            np.multiply(rows, scale[:, r], out=rows)
        out[positions[:, r], b] = rows
    run_numpy(leaf_schedule(leaves[0]), y.reshape(leaves[0].n, n // leaves[0].n, B), scatter)
    return out


#: tree -> {batch: program} of the tree's last run as a program
_PROGRAMS = {}


def _run_program(tree, mode: str, x: np.ndarray) -> np.ndarray:
    """``_run_tree`` on a plain (n, B) block, bit for bit, as one program if
    every level runs as waves on a slot array of at most ``_SPARE_ELEMENTS``
    (see the module docstring). A run pops the tree's program of its width,
    so runs never share one, and keeps its own for the tree's next run."""
    n, B = x.shape
    program = _PROGRAMS.get(tree, {}).pop(B, None)
    if program is None:
        leaves, calls, slots = tree_leaves(tree), [], []
        # a schedule's waves are compiled only if its input and op rows fit
        limit = schedule._SPARE_ELEMENTS
        if any(cols > schedule.WAVE_COLUMNS or (s.n_in + len(s.ops)) * cols > limit
               or (s.waves.n_rows + s.waves.n_stage) * cols > limit
               for cols, s in ((n // leaf.n * B, leaf_schedule(leaf)) for leaf in leaves)):
            return _run_tree(tree, mode, x)  # a tile level, or a slot array too large to keep
        for leaf in reversed(leaves):  # bind each level's calls to a slot array of its own
            cw = leaf_schedule(leaf).waves
            S = np.empty((cw.n_rows + cw.n_stage, n // leaf.n * B), dtype=np.complex128)
            if slots:  # output (i, r, b) of the level before is input (r, i, b) of this one
                calls.append(schedule._take(S[: leaf.n].reshape(-1), slots[-1].reshape(-1),
                                            None, (at.T.reshape(-1, 1) + np.arange(B)).reshape(-1)))
            slots.append(S)
            calls += schedule._bind(cw, S)
            # at[i, r]: the flat index in S of output row i, batch row r, column 0
            at = cw.out[:, None] * S.shape[1] + np.arange(n // leaf.n) * B
        inverse = build_index_maps(leaves[0].n, *(leaf.n for leaf in leaves[:0:-1])).inverse
        program = (build_index_maps(*(leaf.n for leaf in reversed(leaves))).forward,
                   slots[0][: leaves[-1].n].reshape(n, B), calls, S.reshape(-1),
                   (at.ravel()[np.argsort(inverse)][:, None] + np.arange(B)).reshape(-1))
    forward, head, calls, last, order = program
    x.take(forward, 0, head, "clip")
    for fn, args in calls:
        fn(*args)
    y = last.take(order).reshape(n, B)
    if mode != "none":
        np.multiply(y, _assembled_scale(tree, mode).values()[:, None], out=y)
    _PROGRAMS[tree] = {B: program}
    return y


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
    y = (_run_program if type(x) is np.ndarray else _run_tree)(plan_.tree, plan_.scale_mode, x)
    return y[:, 0] if single else y


def instrumented_count(plan_: ExecutionPlan) -> OpCount:
    """Run ``execute`` once on a metered signal and return what it charged.

    The metered array (see ``pfadft.schedule.Metered``) takes the per-level
    pass: gather, waves or tiles, scatter and in-place scale. Its output must
    equal the plain run's, at batch 1 the program's, bit for bit.
    """
    rng = np.random.default_rng(0)
    n = plan_.n
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
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
