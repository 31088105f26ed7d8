"""Coprime-factor (Good-Thomas) composition of transform kernels.

An execution plan is a binary tree of pairwise-coprime factors with a
kernel choice at each leaf and a scale mode applied once at the top. Index
permutations come from the Chinese remainder theorem, so no intermediate
root-of-unity multipliers appear anywhere in the composition; an all-leaf
approximate plan therefore runs on additions and bit-shifts alone.

The nested CRT maps of any tree collapse into one map over the leaf
lengths n_1, ..., n_L (Burrus & Eschenbacher, IEEE TASSP 1981): input m
goes to grid cell (m mod n_l)_l, and cell (i_l) goes to output
sum_l i_l * (n / n_l) mod n. A plan runs as one pass over that grid: one
gather, each leaf's schedule along its own axis, one scatter. The leaf
calls always run right to left over the leaf sequence. The same pass
counts operations: ``instrumented_count`` runs ``execute`` on a metered
array, with no second executor.

What a plan computes depends on its leaf set, not on the tree's shape.
Entry (K, k) of the composed matrix is the product over the leaves of
entry (K * u mod n_leaf, k mod n_leaf) of the leaf's matrix, where u is
the inverse of n / n_leaf modulo n_leaf, and each leaf runs n / n_leaf
times. So a leaf's DC row lands exactly on the outputs K with
K mod n_leaf = 0. An approximate kernel's scale is
diag(1, sqrt(eta), ..., sqrt(eta)), so the radicand of output K is the
product of eta over the approximate leaves whose length does not divide K
(the residue rule). The leaf order sets the order of the leaf calls; the
tree shape only sets the association of the Kronecker product in
``dense_matrix``, which for exact leaves can move the last bit.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .design import _SCALE_MODES, AssembledScale, make_scale
from .exactdft import (FAST_LENGTHS, MAX_DEFINITION_LENGTH, dft_matrix,
                       exact_definition_schedule, exact_fast_schedule)
from .kernels import KERNEL_LENGTHS, approx_fast_schedule, kernel, kernel_eta
from .schedule import OpCount, metered, run_numpy

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

    lengths: tuple
    forward: np.ndarray   # row-major grid cell c reads x[forward[c]]
    inverse: np.ndarray   # row-major grid cell c lands at X[inverse[c]]


@lru_cache(maxsize=None)
def build_index_maps(*lengths: int) -> IndexMap:
    """Input and output index permutations for the grid of these lengths.

    Cell (i_l) reads input sum_l i_l * e_l mod n, where the CRT idempotent
    e_l = (n / n_l) * ((n / n_l)^-1 mod n_l) is 1 modulo n_l and 0 modulo
    the other lengths, and lands at output sum_l i_l * (n / n_l) mod n.
    """
    if any(math.gcd(a, b) != 1 for a, b in itertools.combinations(lengths, 2)):
        raise ValueError(f"lengths {lengths} are not pairwise coprime")
    n = math.prod(lengths)
    cells = np.indices(lengths).reshape(len(lengths), -1)
    strides = [n // m for m in lengths]
    idempotents = [q * pow(q, -1, m) for q, m in zip(strides, lengths)]
    forward = np.tensordot(idempotents, cells, 1) % n
    inverse = np.tensordot(strides, cells, 1) % n
    for perm in (forward, inverse):
        if len(np.unique(perm)) != n:
            raise AssertionError("index map is not a bijection")
    return IndexMap(lengths, forward, inverse)


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
        if math.gcd(tree_length(self.left), tree_length(self.right)) != 1:
            raise ValueError("node factors must be coprime")


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def tree_length(t) -> int:
    return t.n if isinstance(t, Leaf) else tree_length(t.left) * tree_length(t.right)


def tree_leaves(t) -> tuple:
    """The leaves of a plan tree, left to right."""
    return (t,) if isinstance(t, Leaf) else tree_leaves(t.left) + tree_leaves(t.right)


@dataclass(frozen=True)
class ExecutionPlan:
    tree: object
    scale_mode: str            # "none" | "exact" | "csd"
    variant_label: str = ""

    def __post_init__(self):
        if self.scale_mode not in _SCALE_MODES:
            raise ValueError(f"unknown scale mode {self.scale_mode!r}")

    @property
    def n(self) -> int:
        return tree_length(self.tree)


def leaf_schedule(leaf: Leaf):
    if leaf.kind == "approx":
        return approx_fast_schedule(leaf.n)
    if leaf.kind == "definition" or leaf.n not in FAST_LENGTHS:
        return exact_definition_schedule(leaf.n)
    return exact_fast_schedule(leaf.n)


def _prime_power_factors(n: int):
    if n == 1:
        return [1]
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append(q)
        p += 1
    if m > 1:
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
    if n < 1:
        raise ValueError("transform length must be positive")
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
    elif variant.startswith("hybrid-"):
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
    return ExecutionPlan(_build_tree(factors, kinds), scale_mode, variant)


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
    return make_scale([radicand[bits] for bits in mask.tolist()], mode)


def assemble_scale(plan_: ExecutionPlan) -> AssembledScale:
    """Composed per-output scale of a plan, in the plan's scale mode.

    Built once per tree and scale mode; later calls return the same object.
    """
    return _assembled_scale(plan_.tree, plan_.scale_mode)


# ---------------------------------------------------------------------------
# execution

def _run_tree(tree, arr):
    """Apply the tree transform to an (n, batch) block in one pass over the
    CRT grid; a metered block stays metered throughout."""
    leaves = tree_leaves(tree)
    imap = build_index_maps(*(leaf.n for leaf in leaves))
    y = arr[imap.forward].reshape(*imap.lengths, arr.shape[1])
    for axis in reversed(range(len(leaves))):
        fibres = y.swapaxes(0, axis)
        out = run_numpy(leaf_schedule(leaves[axis]), fibres.reshape(leaves[axis].n, -1))
        y = out.reshape(fibres.shape).swapaxes(0, axis)
    out = np.empty_like(arr)
    out[imap.inverse] = y.reshape(arr.shape)
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
    y = _run_tree(plan_.tree, x)
    if plan_.scale_mode != "none":
        y *= assemble_scale(plan_).values()[:, None]  # y is the pass's own fresh array
    return y[:, 0] if single else y


def unscaled(plan_: ExecutionPlan, x) -> np.ndarray:
    """Run the plan's kernel composition without any output scale."""
    return execute(ExecutionPlan(plan_.tree, "none", plan_.variant_label), x)


def instrumented_count(plan_: ExecutionPlan, rng=None) -> OpCount:
    """Run ``execute`` once on a metered signal and return what it charged.

    The metered array (see ``pfadft.schedule.Metered``) takes the same
    gather, waves or tiles, scatter and in-place scale as any other input,
    and its output must equal the plain run's bit for bit.
    """
    rng = rng or np.random.default_rng(0)
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


def _kron_tree(tree) -> np.ndarray:
    """Kronecker product of the leaf matrices in the tree's own association."""
    if isinstance(tree, Leaf):
        return leaf_matrix(tree)
    return np.kron(_kron_tree(tree.left), _kron_tree(tree.right))


def dense_matrix(plan_: ExecutionPlan) -> np.ndarray:
    """Full matrix of the plan, scale included (binary64)."""
    imap = build_index_maps(*(leaf.n for leaf in tree_leaves(plan_.tree)))
    M = np.empty((plan_.n, plan_.n), dtype=np.complex128)
    M[np.ix_(imap.inverse, imap.forward)] = _kron_tree(plan_.tree)
    if plan_.scale_mode != "none":
        M *= assemble_scale(plan_).values()[:, None]  # M is its own fresh array
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
    obj = json.loads(text)
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
    p = ExecutionPlan(tree, obj.get("scale", "none"), "custom")
    if p.n != obj["n"]:
        raise ValueError("tree product disagrees with declared n")
    return p
