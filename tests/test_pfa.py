import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import coprime_plans, random_complex, zero_sign_blocks
from pfadft.complexity import count_plan
from pfadft.exactdft import dft_matrix
from pfadft import pfa, schedule
from pfadft.cli import cli_main
from pfadft.pfa import (ExecutionPlan, Leaf, Node, apply_kernel_fast, assemble_scale,
                        build_index_maps, dense_matrix, execute, fast_exact,
                        instrumented_count, leaf_schedule, plan, plan_from_json,
                        plan_to_json, tree_leaves)
from pfadft.schedule import TILE, WAVE_COLUMNS, Metered, metered, run_numpy

COPRIME_PAIRS = [(2, 3), (3, 5), (5, 13), (11, 3), (31, 33), (2, 1023)]


class TestCrt:
    """The forward map's unit cells are the CRT idempotents e_l, which are
    1 modulo their own length and 0 modulo the other."""

    @staticmethod
    def idempotents(n1, n2):
        grid = build_index_maps(n1, n2).forward.reshape(n1, n2)
        return int(grid[1, 0]), int(grid[0, 1])

    @pytest.mark.parametrize("n1,n2", COPRIME_PAIRS)
    def test_congruence(self, n1, n2):
        e1, e2 = self.idempotents(n1, n2)
        assert (e1 + e2) % (n1 * n2) == 1
        assert (e1 % n1, e1 % n2, e2 % n1, e2 % n2) == (1, 0, 0, 1)

    def test_example_2_3(self):
        assert self.idempotents(2, 3) == (3, 4)

    def test_example_31_33(self):
        e1, e2 = self.idempotents(31, 33)
        assert e2 == 16 * 31
        assert (e1 + e2) % 1023 == 1

    def test_example_3_5(self):
        # brute-force oracle over all residues
        sols = [(a, b) for a in range(15) for b in range(15)
                if (a % 3, a % 5, b % 3, b % 5) == (1, 0, 0, 1)]
        assert sols == [self.idempotents(3, 5)]

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            build_index_maps(6, 9)


GRIDS = COPRIME_PAIRS + [(31, 11, 3), (4, 9, 5, 7)]


class TestIndexMaps:
    @pytest.mark.parametrize("n1,n2", COPRIME_PAIRS)
    def test_bijectivity(self, n1, n2):
        imap = build_index_maps(n1, n2)
        n = n1 * n2
        assert sorted(imap.forward) == list(range(n))
        assert sorted(imap.inverse) == list(range(n))

    def test_forward_rows_2x3(self):
        imap = build_index_maps(2, 3)
        assert imap.forward.reshape(2, 3).tolist() == [[0, 4, 2], [3, 1, 5]]

    def test_inverse_rows_2x3(self):
        imap = build_index_maps(2, 3)
        assert imap.inverse.reshape(2, 3).tolist() == [[0, 2, 4], [3, 5, 1]]

    def test_n1_equal_1_is_identity(self):
        imap = build_index_maps(1, 5)
        assert imap.forward.tolist() == list(range(5))
        assert imap.inverse.tolist() == list(range(5))

    @pytest.mark.parametrize("lengths", GRIDS, ids=lambda ls: "-".join(map(str, ls)))
    def test_forward_cells_carry_crt_coordinates(self, lengths):
        imap = build_index_maps(*lengths)
        n = math.prod(lengths)
        cells = list(itertools.product(*(range(m) for m in lengths)))  # row-major
        for c, cell in enumerate(cells):
            assert [imap.forward[c] % m for m in lengths] == list(cell)
            assert imap.inverse[c] == sum(i * (n // m) for i, m in zip(cell, lengths)) % n
        assert sorted(imap.forward) == sorted(imap.inverse) == list(range(n))

    def test_lengths_must_be_pairwise_coprime(self):
        with pytest.raises(ValueError):
            build_index_maps(3, 5, 9)

    @pytest.mark.parametrize("lengths", [(0,), (), (2.5, 3), (True, 3)], ids=repr)
    def test_lengths_must_be_positive_integers(self, lengths):
        with pytest.raises(ValueError, match="positive integers"):
            build_index_maps(*lengths)


class TestExactComposition:
    @pytest.mark.parametrize("n", [6, 15, 33, 93, 1023])
    def test_matches_direct_definition(self, n, rng):
        p = plan(n, "exact")
        x = random_complex(rng, n, 20)
        got = execute(p, x)
        want = dft_matrix(n) @ x
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 1e-9

    def test_impulse_through_33(self):
        x = np.zeros(33); x[0] = 1.0
        assert np.allclose(execute(plan(33, "exact"), x), np.ones(33), atol=1e-12)

    def test_generic_coprime_length_65(self, rng):
        x = random_complex(rng, 65)
        got = execute(plan(65, "exact"), x)
        want = dft_matrix(len(x)) @ x
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_definition_variant_matches(self, rng):
        x = random_complex(rng, 33)
        got = execute(plan(33, "exact-definition"), x)
        assert np.allclose(got, dft_matrix(len(x)) @ x, atol=1e-10)


class TestPlans:
    def test_1023_tree_shape(self):
        p = plan(1023, "csd")
        assert isinstance(p.tree, Node)
        assert isinstance(p.tree.left, Leaf) and p.tree.left.n == 31
        inner = p.tree.right
        assert isinstance(inner, Node)
        assert inner.left.n == 11 and inner.right.n == 3
        assert all(l.kind == "approx" for l in (p.tree.left, inner.left, inner.right))
        assert p.scale_mode == "csd"

    def test_hybrid_leaf_kinds(self):
        p = plan(1023, "hybrid-I-scaled")
        kinds = {p.tree.left.n: p.tree.left.kind,
                 p.tree.right.left.n: p.tree.right.left.kind,
                 p.tree.right.right.n: p.tree.right.right.kind}
        assert kinds == {31: "exact", 11: "exact", 3: "approx"}

    def test_6_exact_leaves(self):
        p = plan(6, "exact")
        assert {p.tree.left.n, p.tree.right.n} == {2, 3}

    def test_unsupported_approx_length_rejected(self):
        with pytest.raises(ValueError):
            plan(15, "csd")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            plan(1023, "hybrid-VII-csd")
        with pytest.raises(ValueError):
            plan(33, "hybrid-I-csd")
        for bad in (None, 5, ["csd"]):
            with pytest.raises(ValueError, match="unknown variant"):
                plan(1023, bad)

    def test_non_coprime_node_rejected(self):
        with pytest.raises(ValueError):
            Node(Leaf(3, "exact"), Leaf(3, "exact"))

    def test_json_roundtrip(self):
        p = plan(1023, "csd")
        obj = json.loads(plan_to_json(p))
        assert obj == {"n": 1023, "tree": [31, [11, 3]],
                       "kernels": {"31": "approx", "11": "approx", "3": "approx"},
                       "scale": "csd"}
        q = plan_from_json(plan_to_json(p))
        assert q.n == 1023 and q.scale_mode == "csd"
        x = np.zeros(1023); x[1] = 1.0
        assert np.array_equal(execute(q, x), execute(p, x))

    def test_json_rejects_bad_product(self):
        with pytest.raises(ValueError):
            plan_from_json('{"n": 10, "tree": [3, 2], "kernels": {"3": "exact", "2": "exact"}, "scale": "none"}')


class TestInputValidation:
    @pytest.mark.parametrize("x", [5.0, np.zeros((33, 2, 2))], ids=["0-D", "3-D"])
    def test_execute_rejects_other_ranks(self, x):
        with pytest.raises(ValueError, match="1-D signal or a 2-D batch"):
            execute(plan(33, "exact"), x)

    def test_plan_rejects_unknown_scale_mode(self):
        with pytest.raises(ValueError):
            ExecutionPlan(Leaf(3, "approx"), "bogus")

    def test_json_rejects_unknown_scale_mode(self):
        with pytest.raises(ValueError):
            plan_from_json('{"n": 3, "tree": 3, "kernels": {"3": "approx"}, "scale": "bogus"}')

    @pytest.mark.parametrize("key", ["n", "tree", "kernels"])
    def test_json_missing_key_rejected(self, key):
        obj = {"n": 33, "tree": [11, 3], "kernels": {"11": "exact", "3": "approx"}}
        del obj[key]
        with pytest.raises(ValueError):
            plan_from_json(json.dumps(obj))

    def test_json_leaf_without_kind_rejected(self):
        with pytest.raises(ValueError):
            plan_from_json('{"n": 33, "tree": [11, 3], "kernels": {"11": "exact"}}')

    @pytest.mark.parametrize("text", [
        '{"n": 3, "tree": 3, "kernels": ["approx"]}',
        '{"n": 3, "tree": 3, "kernels": "approx"}',
        '{"n": 33, "tree": [11, 3], "kernels": {"11": "exact", "3": "approx", "5": "exact"}}',
        '{"n": 3, "tree": 3, "kernels": {"3": "approx", "03": "exact"}}',
        '{"n": 3, "tree": 3, "kernels": {" 3": "exact"}}',
        '{"n": 33.0, "tree": [11, 3], "kernels": {"11": "exact", "3": "approx"}}',
        '{"n": true, "tree": 1, "kernels": {"1": "exact"}}',
        '{"n": 1, "tree": true, "kernels": {"1": "exact"}}',
        '{"n": 11, "tree": [11, true], "kernels": {"11": "exact", "1": "exact"}}',
        '{"n": 0, "tree": 0, "kernels": {"0": "exact"}}',
        '{"n": -3, "tree": -3, "kernels": {"-3": "exact"}}',
        # length 1 is coprime to everything; 63 such levels would overflow
        # numpy's 64 dimensions in execute
        '{"n": 1, "tree": %s, "kernels": {"1": "exact"}}' % ("[1, " * 63 + "1" + "]" * 63),
    ], ids=["kernels-list", "kernels-string", "unused-kind", "duplicate-key", "padded-key",
            "float-n", "bool-n", "bool-tree", "bool-leaf", "zero-leaf", "negative-leaf",
            "length-1-factor"])
    def test_json_malformed_plan_rejected(self, text):
        with pytest.raises(ValueError):
            plan_from_json(text)

    def test_json_deep_nesting_rejected(self):
        text = '{"n": 3, "tree": %s, "kernels": {"3": "exact"}}' % ("[" * 5000 + "3" + "]" * 5000)
        with pytest.raises(ValueError, match="nests too deeply"):
            plan_from_json(text)

    @pytest.mark.parametrize("n", [0, -3, 3.0, True, None, "1023"],
                             ids=["zero", "negative", "float", "bool", "none", "string"])
    def test_leaf_length_must_be_positive_integer(self, n):
        with pytest.raises(ValueError, match="positive integer"):
            Leaf(n, "exact")
        with pytest.raises(ValueError, match="positive integer"):
            plan(n, "csd")


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-40, 1100) | st.floats()
    | st.sampled_from(["approx", "exact", "definition", "none", "csd", "3", "11", "31"])
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "tree", "kernels", "scale", "1", "3", "11", "31", "03"])
        | st.text(max_size=3), kids, max_size=4),
    max_leaves=12)


@st.composite
def _plan_like(draw):
    """Objects shaped like plans: leaf lengths and kinds, each key well typed
    or not, and an n that mostly agrees with the tree."""
    lengths = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 11, 31, 512, 513]), max_size=3))
    tree = draw(st.recursive(st.sampled_from(lengths or [3]),
                             lambda t: st.lists(t, min_size=2, max_size=2), max_leaves=3))
    kinds = {str(m): draw(st.sampled_from(["approx", "exact", "definition", "x"]))
             for m in lengths}

    def flat(t):
        return [t] if isinstance(t, int) else flat(t[0]) + flat(t[1])
    obj = {"n": math.prod(flat(tree)), "tree": tree, "kernels": kinds,
           "scale": draw(st.sampled_from(["none", "exact", "csd", "bogus"]))}
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_JSON_VALUE)
    return obj


@settings(deadline=None, max_examples=300)
@given(_JSON_VALUE.map(json.dumps) | _plan_like().map(json.dumps) | st.text(max_size=30))
def test_plan_from_json_fuzz(text):
    # no leaf is compiled here, so even 512-point definition leaves are cheap
    try:
        p = plan_from_json(text)
    except ValueError:
        return
    assert isinstance(p, ExecutionPlan)
    assert p.n == json.loads(text)["n"]


class TestSizeBound:
    """Leaves that could only run by definition stop at 512 points, before
    any schedule is compiled."""

    @pytest.fixture(autouse=True)
    def no_compile(self, monkeypatch):
        def refuse(stages, n):
            raise AssertionError(f"compiled a {n}-point leaf schedule")
        monkeypatch.setattr(pfa, "compile_stages", refuse)

    @pytest.mark.parametrize("n,variant", [(4096, "exact"), (1024, "exact-definition")])
    def test_plan_rejects_long_leaf(self, n, variant):
        with pytest.raises(ValueError, match="limited to 512 points"):
            plan(n, variant)

    def test_json_rejects_long_leaf(self):
        with pytest.raises(ValueError, match="limited to 512 points"):
            plan_from_json('{"n": 1021, "tree": 1021, "kernels": {"1021": "exact"}}')

    def test_cli_rejects_long_leaf(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("1.0,0.0\n" * 4096)
        rc = cli_main(["transform", "--n", "4096", "--variant", "exact",
                       "--input", str(src), "--output", str(tmp_path / "X.csv")])
        assert rc == 1
        assert not (tmp_path / "X.csv").exists()

    def test_512_points_still_plan(self):
        assert plan(512, "exact-definition").tree == Leaf(512, "definition")

    @staticmethod
    def _best_seconds(fn):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    @pytest.mark.parametrize("n", [10 ** 12 + 39, 10 ** 14 + 31])
    @pytest.mark.parametrize("variant", ["exact", "csd"])
    def test_large_prime_rejected_quickly(self, n, variant):
        # trial division stops at 512 points instead of sqrt(n)
        def attempt():
            with pytest.raises(ValueError, match="limited to 512 points"):
                plan(n, variant)
        assert self._best_seconds(attempt) < 0.01

    @pytest.mark.parametrize("n", [10 ** 12 + 39, 10 ** 14 + 31])
    def test_cli_rejects_large_prime_quickly(self, n, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("1.0,0.0\n" * 4)
        argv = ["transform", "--n", str(n), "--variant", "exact",
                "--input", str(src), "--output", str(tmp_path / "X.csv")]
        assert self._best_seconds(lambda: cli_main(argv)) < 0.01
        assert cli_main(argv) == 1
        assert not (tmp_path / "X.csv").exists()

    def test_large_composite_with_small_factors_plans(self):
        assert [leaf.n for leaf in tree_leaves(plan(2 ** 9 * 3 ** 5 * 5, "exact").tree)] == \
            [512, 243, 5]
        with pytest.raises(ValueError, match="limited to 512 points"):
            plan(3 * 521, "exact")


class TestAssembledScale:
    def test_1023_piecewise_formula(self):
        rads = assemble_scale(plan(1023, "scaled")).radicands
        cases = {
            (True, True, True): Fraction(1),
            (True, True, False): Fraction(6, 7),
            (True, False, True): Fraction(11, 13),
            (True, False, False): Fraction(66, 91),
            (False, True, True): Fraction(31, 38),
            (False, True, False): Fraction(93, 133),
            (False, False, True): Fraction(341, 494),
            (False, False, False): Fraction(1023, 1729),
        }
        for i in range(1023):
            key = (i % 31 == 0, i % 11 == 0, i % 3 == 0)
            assert rads[i] == cases[key], i
        assert rads[0] == 1
        assert rads[31] == Fraction(66, 91)
        assert rads[33] == Fraction(31, 38)

    def test_symmetry_under_index_reflection(self):
        rads = assemble_scale(plan(1023, "scaled")).radicands
        for i in range(1, 1023):
            assert rads[i] == rads[1023 - i]

    def test_hybrid_scale_support(self):
        rads = assemble_scale(plan(1023, "hybrid-I-scaled")).radicands
        for i in range(1023):
            want = Fraction(1) if i % 3 == 0 else Fraction(6, 7)
            assert rads[i] == want

    def test_built_once_per_plan(self):
        sc = assemble_scale(plan(1023, "csd"))
        assert assemble_scale(plan(1023, "csd")) is sc
        assert sc.values() is sc.values()
        assert not sc.values().flags.writeable

    def test_csd_codes_cover_every_nonunit_entry(self):
        sc = assemble_scale(plan(1023, "csd"))
        for i, r in enumerate(sc.radicands):
            if r == 1:
                assert sc.csd_codes[i] is None
            else:
                assert sc.csd_codes[i].nonzero_count <= 3


class TestVariantExecution:
    @pytest.mark.parametrize("variant", ["unscaled", "scaled", "csd",
                                         "hybrid-III-csd", "hybrid-V-scaled"])
    def test_scaled_equals_scale_times_unscaled(self, variant, rng):
        p = plan(1023, variant)
        x = random_complex(rng, 1023)
        xt = execute(ExecutionPlan(p.tree, "none"), x)
        xs = execute(p, x)
        vals = assemble_scale(p).values()
        if p.scale_mode == "none":
            assert np.array_equal(xs, xt)
        else:
            assert np.array_equal(xs, vals * xt)

    @pytest.mark.parametrize("n", [3, 11, 31, 33, 1023])
    def test_dc_bin_is_plain_sum(self, n, rng):
        x = random_complex(rng, n)
        # equal up to floating summation order
        tol = n * np.finfo(float).eps * np.abs(x).sum()
        for variant in ("csd", "scaled", "unscaled"):
            X = execute(plan(n, variant), x)
            assert abs(X[0] - np.sum(x)) <= tol

    @pytest.mark.parametrize("variant", ["unscaled", "scaled", "csd",
                                         "hybrid-I-csd", "hybrid-VI-scaled"])
    def test_conjugate_symmetry_on_real_input(self, variant, rng):
        p = plan(1023, variant)
        x = rng.standard_normal(1023)
        X = execute(p, x)
        err = np.abs(X[1:] - np.conj(X[1:][::-1])).max()
        assert err <= 1e-12 * np.abs(X).max()

    @pytest.mark.parametrize("n,variant", [(33, "csd"), (33, "scaled"), (6, "exact"), (15, "exact")])
    def test_dense_equivalence_small_lengths(self, n, variant, rng):
        p = plan(n, variant)
        M = dense_matrix(p)
        X = execute(p, np.eye(n, dtype=complex))
        assert np.abs(X - M).max() <= 1e-12
        x = random_complex(rng, n)
        assert np.abs(execute(p, x) - M @ x).max() <= 1e-12 * max(1.0, np.abs(M @ x).max())

    def test_linearity(self, rng):
        p = plan(1023, "csd")
        x, y = random_complex(rng, 1023), random_complex(rng, 1023)
        a, b = 0.7 - 1.1j, -2.2 + 0.4j
        lhs = execute(p, a * x + b * y)
        rhs = a * execute(p, x) + b * execute(p, y)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
    def test_matrix_input_is_a_plain_batch(self, rng):
        p = plan(33, "csd")
        x = random_complex(rng, 33, 2)
        assert np.array_equal(execute(p, np.matrix(x)), execute(p, x))
        assert type(execute(p, np.matrix(x))) is np.ndarray

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            execute(plan(33, "exact"), random_complex(rng, 32))

    def test_nan_input_rejected(self):
        x = np.zeros(33, dtype=complex)
        x[4] = np.nan
        with pytest.raises(ValueError):
            execute(plan(33, "exact"), x)

    @pytest.mark.parametrize("variant", ["csd", "exact", "exact-definition", "hybrid-VI-csd"])
    def test_empty_batch(self, variant):
        x = np.zeros((1023, 0))
        got = execute(plan(1023, variant), x)
        want = np.fft.fft(x, axis=0)
        assert got.shape == want.shape == (1023, 0) and got.dtype == want.dtype

    def test_instrumented_count_smoke(self):
        got = instrumented_count(plan(33, "csd"))
        # 3 calls of the 11-point kernel, 11 of the 3-point, plus 32 scaled bins
        assert got.as_tuple() == (0, 3 * 130 + 11 * 12 + 32 * 4, 3 * 40 + 11 * 2 + 32 * 4)
        assert json.loads(json.dumps(got.as_tuple())) == list(got.as_tuple())


class TestLeafSchedules:
    def test_one_schedule_per_length_and_form(self):
        assert leaf_schedule(Leaf(5, "exact")) is leaf_schedule(Leaf(5, "definition"))
        for kind in ("approx", "exact", "definition"):
            assert leaf_schedule(Leaf(31, kind)) is leaf_schedule(Leaf(31, kind))
        assert leaf_schedule(Leaf(31, "exact")) is not leaf_schedule(Leaf(31, "definition"))
        assert leaf_schedule(Leaf(31, "exact")) is not leaf_schedule(Leaf(31, "approx"))


class TestLeafWrappers:
    """The one-leaf transforms are ``execute`` on a one-leaf plan, byte for
    byte and shape for shape."""

    @pytest.mark.parametrize("width", [None, 1, 7, 5000])
    @pytest.mark.parametrize("n", [3, 11, 31])
    @pytest.mark.parametrize("wrapper,variant", [(apply_kernel_fast, "unscaled"),
                                                 (fast_exact, "exact")])
    def test_wrapper_is_execute_on_one_leaf(self, wrapper, variant, n, width, rng):
        z = rng.standard_normal((n, width or 1)) + 1j * rng.standard_normal((n, width or 1))
        x = z[:, 0] if width is None else z
        got, want = wrapper(n, x), execute(plan(n, variant), x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _kron_oracle(p):
    """The plan's matrix as the Kronecker product of its leaf matrices in
    the tree's association, scattered by the CRT maps and then scaled."""
    def kron(t):
        if isinstance(t, Leaf):
            return pfa.leaf_matrix(t)
        return np.kron(kron(t.left), kron(t.right))
    imap = build_index_maps(*(leaf.n for leaf in tree_leaves(p.tree)))
    M = np.empty((p.n, p.n), dtype=np.complex128)
    M[np.ix_(imap.inverse, imap.forward)] = kron(p.tree)
    if p.scale_mode != "none":
        M *= assemble_scale(p).values()[:, None]
    return M


@lru_cache(maxsize=1)
def _csd_plan_and_dense():
    p = plan(1023, "csd")
    return p, dense_matrix(p)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 1022))
def test_impulse_columns_match_dense(k):
    p, M = _csd_plan_and_dense()
    x = np.zeros(1023)
    x[k] = 1.0
    assert np.abs(execute(p, x) - M[:, k]).max() <= 1e-12


@settings(deadline=None, max_examples=30)
@given(coprime_plans(), st.integers(0, 2 ** 32 - 1))
def test_random_trees_match_dense_and_counts(text, seed):
    p = plan_from_json(text)
    x = random_complex(np.random.default_rng(seed), p.n, 3)
    M = dense_matrix(p)
    assert M.tobytes() == _kron_oracle(p).tobytes()
    want = M @ x
    got = execute(p, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    if all(leaf.kind != "approx" for leaf in tree_leaves(p.tree)):
        assert np.abs(got - np.fft.fft(x, axis=0)).max() <= 1e-9 * p.n
    assert count_plan(p) == instrumented_count(p)
    # scale oracle: the scale restores every row of the unscaled composition
    # to the exact transform's row norm sqrt(n)
    vals = assemble_scale(p).values()
    rows = np.linalg.norm(dense_matrix(ExecutionPlan(p.tree, "none")), axis=1)
    oracle = np.sqrt(p.n) / rows
    if p.scale_mode == "exact":
        assert np.all(np.abs(vals - oracle) <= 1e-12 * oracle)
    elif p.scale_mode == "csd":
        assert np.array_equal(128 * vals, np.round(128 * vals))
        assert np.abs(vals - oracle).max() <= 0.02


@settings(deadline=None, max_examples=30)
@given(coprime_plans(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_random_trees_are_linear(text, seed, batch):
    p = plan_from_json(text)
    rng = np.random.default_rng(seed)
    x, y = random_complex(rng, p.n, batch), random_complex(rng, p.n, batch)
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    want = a * execute(p, x) + b * execute(p, y)
    got = execute(p, a * x + b * y)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_threads_running_execute_at_once_match_the_serial_run():
    # csd and scaled, csd and unscaled share their approximate leaf schedules,
    # so the threads run the same compiled waves at once, at their own
    # block widths: the 31-point plans run waves at every batch, the
    # 1023-point ones their 31-point level. Each run needs its own slot array.
    # hybrid-VI-csd shares the 31- and 11-point approximate schedules with
    # csd, and exact runs beside them: at batch 1 each tree runs its own program.
    rng = np.random.default_rng(11)
    jobs = [[(plan(31, "csd"), 1), (plan(31, "csd"), 7), (plan(31, "csd"), 64),
             (plan(1023, "csd"), 1), (plan(1023, "csd"), 7), (plan(1023, "hybrid-VI-csd"), 1)],
            [(plan(31, "scaled"), 64), (plan(31, "scaled"), 1), (plan(31, "scaled"), 7),
             (plan(1023, "unscaled"), 7), (plan(1023, "unscaled"), 1), (plan(1023, "exact"), 1)]]
    inputs = [[random_complex(rng, p.n, b).reshape(p.n, b) for p, b in job] for job in jobs]
    want = [[execute(p, x).tobytes() for (p, _), x in zip(job, xs)]
            for job, xs in zip(jobs, inputs)]
    mismatches = []

    def run(k):
        for _ in range(40):
            for (p, _), x, w in zip(jobs[k], inputs[k], want[k]):
                if execute(p, x).tobytes() != w:
                    mismatches.append((k, p.n, x.shape[1]))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # two threads per job list, so runs at the same width meet too
        threads = [threading.Thread(target=run, args=(k % 2,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


NAMED_1023 = ("exact", "exact-definition", "unscaled", "scaled", "csd") + tuple(
    f"hybrid-{leg}-{mode}" for leg in ("I", "II", "III", "IV", "V", "VI")
    for mode in ("scaled", "csd"))


def _per_level_pass(p, x):
    """``execute`` by a reference pass over the CRT grid in leaf order:
    gather by the forward map, run each leaf's schedule along its axis with
    ``run_numpy``, the last leaf first, scatter by the inverse map and scale.
    Every element goes through the same IEEE operations as in ``execute``,
    so the two agree bit for bit."""
    lengths = [leaf.n for leaf in tree_leaves(p.tree)]
    imap = build_index_maps(*lengths)
    grid = x.reshape(p.n, -1)[imap.forward].reshape(*lengths, -1)
    for axis in reversed(range(len(lengths))):
        rows = np.moveaxis(grid, axis, 0)
        y = run_numpy(leaf_schedule(tree_leaves(p.tree)[axis]), rows.reshape(lengths[axis], -1))
        grid = np.moveaxis(y.reshape(rows.shape), 0, axis)
    out = np.empty((p.n, grid.shape[-1]), dtype=np.complex128)
    out[imap.inverse] = grid.reshape(p.n, -1)
    if p.scale_mode != "none":
        out *= assemble_scale(p).values()[:, None]
    return out.reshape(x.shape)


def _assert_program_matches_pass(p, rng, width=1):
    blocks = [random_complex(rng, p.n, width).reshape(p.n, width),
              *zero_sign_blocks(rng, p.n, width).values()]
    for x in blocks + blocks[:1]:  # the last run reuses the kept program on stale rows
        for z in (x, x[:, 0]) if width == 1 else (x,):
            got, want = execute(p, z), _per_level_pass(p, z)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [f"1023/{v}" for v in NAMED_1023] + [
    f"{n}/{v}" for n in (3, 11, 31) for v in NAMED_1023[:5]])
def test_batch_1_program_matches_the_per_level_pass(name):
    n, variant = name.split("/")
    p = plan(int(n), variant)
    _assert_program_matches_pass(p, np.random.default_rng(int(n)))
    # every batch-1 plan keeps a program but the 1023-point exact-definition
    # one, whose 31-point by-definition level's slot array is too large to keep
    assert (1 in pfa._PROGRAMS.get(p.tree, {})) == (name != "1023/exact-definition")


@pytest.mark.parametrize("kind", ["approx", "exact"])
def test_programs_are_kept_only_within_the_spare_bound(kind):
    # the widest block whose slot array, staging rows included, holds at
    # most _SPARE_ELEMENTS keeps its calls as a program; at one column
    # more the pass keeps none
    p = ExecutionPlan(Leaf(31, kind), "csd")
    cw = leaf_schedule(Leaf(31, kind)).waves
    widest = schedule._SPARE_ELEMENTS // (cw.n_rows + cw.n_stage)
    rng = np.random.default_rng(widest)
    for width in (widest, widest + 1):
        pfa._PROGRAMS.pop(p.tree, None)
        _assert_program_matches_pass(p, rng, width)
        assert (width in pfa._PROGRAMS.get(p.tree, {})) == (width == widest)


@pytest.mark.parametrize("width", [1, 2])
def test_passes_outside_a_program_keep_only_small_output_indices(monkeypatch, width):
    # with the bound at one 1023-point column no csd pass keeps a program;
    # the pass at batch 1 keeps its wave levels' output indices, which the
    # later runs reuse, and the pass at batch 2 keeps none
    monkeypatch.setattr(schedule, "_SPARE_ELEMENTS", 1023)
    monkeypatch.setattr(pfa, "_PROGRAMS", {})
    monkeypatch.setattr(pfa, "_INDICES", {})
    p = plan(1023, "csd")
    _assert_program_matches_pass(p, np.random.default_rng(width), width)
    assert pfa._PROGRAMS == {}
    levels = tree_leaves(p.tree)[::-1]
    assert list(pfa._INDICES) == ([levels] if width == 1 else [])
    if width == 1:  # every level runs as waves
        assert {B: sorted(index) for B, index in pfa._INDICES[levels].items()} == {1: [0, 1, 2]}


@settings(deadline=None, max_examples=25)
@given(coprime_plans(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_random_tree_programs_match_the_per_level_pass(text, seed, width):
    _assert_program_matches_pass(plan_from_json(text), np.random.default_rng(seed), width)


@pytest.mark.parametrize("width", [2, 7])
@pytest.mark.parametrize("variant", ["csd", "exact", "hybrid-VI-csd"])
def test_wave_and_tile_levels_match_the_per_level_pass(variant, width):
    # the named plan runs its 3-point level first, as tiles, then the 11-point
    # one (waves at batch 2 only) and the 31-point one as waves; the same
    # leaves in the other order run waves first and tiles last. Such runs
    # keep no program, and a metered block takes the same pass
    p = plan(1023, variant)
    leaves = tree_leaves(p.tree)
    q = ExecutionPlan(Node(leaves[2], Node(leaves[1], leaves[0])), p.scale_mode)
    rng = np.random.default_rng(width)
    for r, forms in ((p, [False, width == 2, True]), (q, [True, width == 2, False])):
        assert forms == [schedule.as_waves(leaf_schedule(leaf), r.n // leaf.n * width)
                         for leaf in reversed(tree_leaves(r.tree))]
        for x in [random_complex(rng, r.n, width).reshape(r.n, width),
                  *zero_sign_blocks(rng, r.n, width).values()]:
            want = _per_level_pass(r, x).tobytes()
            assert execute(r, x).tobytes() == want
            assert execute(r, np.asfortranarray(x)).tobytes() == want
            assert width not in pfa._PROGRAMS.get(r.tree, {})
            m = metered(x)
            assert execute(r, m).view(np.ndarray).tobytes() == want
            assert m.op_count() == width * count_plan(r)


def test_plans_sharing_a_leaf_at_two_widths_bind_once(monkeypatch):
    # plan(31, "csd") runs the 31-point approximate schedule at 1 column and
    # plan(1023, "csd") at 33: each tree keeps its own program, so taking
    # turns rebinds neither
    rng = np.random.default_rng(5)
    runs = [(plan(31, "csd"), random_complex(rng, 31)),
            (plan(1023, "csd"), random_complex(rng, 1023))]
    want = [_per_level_pass(p, x).tobytes() for p, x in runs]
    binds = []
    real = schedule._bind
    monkeypatch.setattr(schedule, "_bind", lambda cw, S: (binds.append(cw), real(cw, S))[1])
    monkeypatch.setattr(pfa, "_PROGRAMS", {})
    for k in range(6):
        for (p, x), w in zip(runs, want):
            assert execute(p, x).tobytes() == w
        if k == 0:
            assert len(binds) == 1 + 3  # one bind per level on the first call of each
    assert len(binds) == 4


_FRESH_RUN = """
import hashlib
import numpy as np
import pfadft
rng = np.random.default_rng(9)
x = rng.standard_normal(1023) + 1j * rng.standard_normal(1023)
print(hashlib.sha256(pfadft.execute(pfadft.plan(1023, "csd"), x).tobytes()).hexdigest())
"""


def test_non_finite_batch_1_input_is_rejected_before_any_run(monkeypatch):
    p = plan(1023, "csd")
    rng = np.random.default_rng(9)
    x = rng.standard_normal(1023) + 1j * rng.standard_normal(1023)
    execute(p, x)  # keep a program for the rejected calls to leave alone
    with monkeypatch.context() as m:
        m.setattr(pfa, "_run_tree", lambda *a: pytest.fail("a pass ran on non-finite input"))
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            for width in (None, 1):
                z = x.copy()
                z[500] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    execute(p, z if width is None else z[:, None])
    src = os.path.dirname(os.path.dirname(pfa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _FRESH_RUN], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(execute(p, x).tobytes()).hexdigest() == run.stdout.strip()


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_imaginary_part_is_rejected(bad, batch):
    p = plan(1023, "csd")
    x = random_complex(np.random.default_rng(13), 1023, batch).reshape(1023, batch)
    x[700, batch - 1] = complex(x[700, batch - 1].real, bad)
    for z in (x, metered(x)):
        with pytest.raises(ValueError, match="non-finite"):
            execute(p, z)


def test_finite_metered_and_strided_inputs_are_accepted():
    p = plan(1023, "csd")
    x = random_complex(np.random.default_rng(14), 1023, 8)
    want = execute(p, x[:, ::2].copy())
    # a strided batch, whose float64 view numpy would refuse, and its metered copy
    assert execute(p, x[:, ::2]).tobytes() == want.tobytes()
    m = metered(x[:, ::2])
    assert execute(p, m).tobytes() == want.tobytes()
    assert m.op_count() == 4 * count_plan(p)


@pytest.mark.parametrize("variant", ["csd", "unscaled", "exact"])
def test_batch_1_outputs_are_fresh_arrays(variant):
    p = plan(1023, variant)
    rng = np.random.default_rng(12)
    x, z = random_complex(rng, 1023), random_complex(rng, 1023)
    first = execute(p, x)
    kept = first.tobytes()
    second = execute(p, z)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept  # the later call did not write into it
    program = pfa._PROGRAMS[p.tree][1]
    for slots in (program.head, program.last):  # views of the first and last levels' slot arrays
        assert not np.shares_memory(second, slots)


@settings(deadline=None, max_examples=8)
@given(coprime_plans(), st.integers(0, 2 ** 32 - 1))
def test_random_trees_match_dense_in_tiles(text, seed):
    # a batch that makes the shortest leaf's block wider than WAVE_COLUMNS,
    # so that leaf runs op by op in tiles while longer ones may run as waves
    p = plan_from_json(text)
    shortest = min(leaf.n for leaf in tree_leaves(p.tree))
    batch = WAVE_COLUMNS * shortest // p.n + 1
    x = random_complex(np.random.default_rng(seed), p.n, batch).reshape(p.n, batch)
    assert p.n // shortest * batch > WAVE_COLUMNS
    assert np.abs(execute(p, x) - dense_matrix(p) @ x).max() <= 1e-9 * p.n


@settings(deadline=None, max_examples=6)
@given(st.data())
@pytest.mark.parametrize("width", [3, 1023, TILE + 1, 5000])
def test_random_trees_match_one_column_runs(width, data):
    # wide batches put tile boundaries inside batch rows, and past TILE
    # columns a batch row itself is split
    p = plan_from_json(data.draw(coprime_plans(max_n=1023 if width < TILE else 341)))
    rng = np.random.default_rng(width)
    x = random_complex(rng, p.n, width)
    for i, z in enumerate(zero_sign_blocks(rng, p.n, width).values(), 1):
        x[:, i::5] = z[:, i::5]
    got = execute(p, x)
    cols = {0, 1, width // 2, width - 1} | {c for c in (TILE - 1, TILE) if c < width}
    for c in sorted(cols):
        assert got[:, c].tobytes() == execute(p, x[:, c]).tobytes(), c


@pytest.mark.parametrize("n,variant,width", [
    (1023, "csd", 1), (1023, "csd", 40), (1023, "scaled", 3), (93, "csd", TILE + 4),
    (33, "exact-definition", 700),
])
def test_metered_block_through_rotation_and_fused_scale(n, variant, width):
    p = plan(n, variant)
    x = random_complex(np.random.default_rng(width), n, width).reshape(n, width)
    m = metered(x)
    out = execute(p, m)
    assert type(out) is Metered
    assert m.op_count() == width * count_plan(p)
    assert out.tobytes() == execute(p, x).tobytes()


def test_pass_holds_two_grids_and_one_tile():
    # a level holds its input block, its output block and one tile slot
    # array: no transposed copy and no full-size scale temporary
    p = plan(1023, "csd")
    x = np.ones((1023, 256), dtype=np.complex128)
    execute(p, x)
    tracemalloc.start()
    try:
        execute(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = max((leaf_schedule(leaf).n_slots - leaf.n) * TILE * 16 for leaf in tree_leaves(p.tree))
    assert peak <= 2 * x.nbytes + tile + x.nbytes // 4


def test_wave_runs_hold_no_slot_array_after_they_return():
    # a 512-point by-definition leaf runs as waves over 523,265 rows at
    # batch 8, a 67 MB slot array that must go when execute returns
    p = plan(512, "exact-definition")
    x = np.ones((512, 8), dtype=np.complex128)
    execute(p, x[:, :1])  # warm the plan and its compiled waves at another width
    tracemalloc.start()
    try:
        y = execute(p, x)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = leaf_schedule(tree_leaves(p.tree)[0]).waves.n_rows
    assert peak >= rows * x.shape[1] * 16  # it ran as waves
    assert current <= y.nbytes + x.nbytes


def test_dense_matrix_holds_one_n_point_matrix():
    # the rows are built ROW_BLOCK at a time, with no n x n temporary
    p = plan(1023, "csd")
    dense_matrix(p)  # warm the plan, scale and kernel caches
    tracemalloc.start()
    try:
        dense_matrix(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * p.n ** 2 * 16


#: plans and a first execute after import load no numpy module (numpy.ma,
#: for one, costs 10-18 ms); the snapshot keeps numpy's own eager imports
_COLD_PATH = """
import sys
import numpy as np
x = np.arange(1023) + 0j
import pfadft
before = set(sys.modules)
for v in ("csd", "hybrid-VI-csd", "scaled", "unscaled", "exact", "exact-definition"):
    pfadft.execute(pfadft.plan(1023, v), x)
print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"))
"""


def test_cold_path_loads_no_numpy_module():
    src = os.path.dirname(os.path.dirname(pfa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _COLD_PATH], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _ordered_trees(leaves):
    """Every binary tree with the leaves in this order."""
    if len(leaves) == 1:
        yield leaves[0]
        return
    for k in range(1, len(leaves)):
        for left in _ordered_trees(leaves[:k]):
            for right in _ordered_trees(leaves[k:]):
                yield Node(left, right)


@pytest.mark.parametrize("kinds", [
    {31: "approx", 11: "approx", 3: "approx"},
    {31: "exact", 11: "approx", 3: "approx"},
    {31: "approx", 11: "definition", 3: "exact"},
], ids=["all-approx", "exact-31", "definition-11-exact-3"])
def test_tree_shape_invariance(kinds):
    leaves = [Leaf(m, kind) for m, kind in kinds.items()]
    orders = [list(_ordered_trees(perm)) for perm in itertools.permutations(leaves)]
    trees = [t for order in orders for t in order]
    assert len(trees) == 12
    ref = ExecutionPlan(trees[0], "csd")
    M0 = dense_matrix(ref)
    assert M0.tobytes() == _kron_oracle(ref).tobytes()
    for tree in trees[1:]:
        p = ExecutionPlan(tree, "csd")
        assert count_plan(p) == count_plan(ref)
        assert assemble_scale(p).radicands == assemble_scale(ref).radicands
        M = dense_matrix(p)
        assert M.tobytes() == _kron_oracle(p).tobytes()
        if all(leaf.kind == "approx" for leaf in leaves):
            assert np.array_equal(M, M0)
        else:
            assert np.abs(M - M0).max() <= 1e-12
    # the leaf calls follow the leaf order alone, so trees sharing one
    # left-to-right order run bit for bit alike
    x = random_complex(np.random.default_rng(7), 1023, 2)
    for order in orders:
        first = execute(ExecutionPlan(order[0], "csd"), x)
        for tree in order[1:]:
            assert np.array_equal(execute(ExecutionPlan(tree, "csd"), x), first)
