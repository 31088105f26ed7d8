import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_complex
from pfadft.design import AssembledScale
from pfadft.dyadic import csd_eval
from pfadft.kernels import (KERNEL_LENGTHS, approx_dense_schedule,
                            factorization, kernel, kernel_eta, kernel_to_json)
from pfadft.pfa import ExecutionPlan, Leaf, apply_kernel_fast, assemble_scale, leaf_schedule

H = 0.5

# Reference factorization blocks, frozen for cross-checking the derivation.
# The 11-point core: a 6x6 real block acting on (x0, sums) and a 5x5 pure
# imaginary block acting on the mirrored differences.
C11_REAL = np.array([
    [1, 1, 1, 1, 1, 1],
    [1, 1, H, 0, -H, -1],
    [1, H, -H, -1, 0, 1],
    [1, 0, -1, H, 1, -H],
    [1, -H, 0, 1, -1, H],
    [1, -1, 1, -H, H, 0],
])
C11_IMAG = np.array([
    [-1, 1, -1, H, -H],
    [1, -H, -H, 1, -1],
    [-1, -H, 1, H, -1],
    [H, 1, H, -1, -1],
    [-H, -1, -1, -1, -H],
])
E1_31 = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, H, H, 0, 0, -H, -H, -H, -1, -1, -1, -1],
    [1, 1, 1, H, 0, -H, -1, -1, -1, -1, -H, -H, 0, H, 1, 1],
    [1, 1, H, -H, -1, -1, -1, -H, 0, 1, 1, 1, H, 0, -H, -1],
    [1, 1, 0, -1, -1, -H, 0, 1, 1, H, -H, -1, -1, -H, H, 1],
    [1, H, -H, -1, -H, H, 1, 1, -H, -1, -1, 0, 1, 1, 0, -1],
    [1, H, -1, -1, 0, 1, H, -H, -1, 0, 1, 1, -H, -1, -H, 1],
    [1, 0, -1, -H, 1, 1, -H, -1, H, 1, 0, -1, -H, 1, H, -1],
    [1, 0, -1, 0, 1, -H, -1, H, 1, -H, -1, H, 1, -H, -1, 1],
    [1, -H, -1, 1, H, -1, 0, 1, -H, -1, 1, H, -1, 0, 1, -H],
    [1, -H, -H, 1, -H, -1, 1, 0, -1, 1, 0, -1, 1, H, -1, H],
    [1, -H, -H, 1, -1, 0, 1, -1, H, H, -1, 1, 0, -1, 1, -H],
    [1, -1, 0, H, -1, 1, -H, -H, 1, -1, 1, 0, -H, 1, -1, H],
    [1, -1, H, 0, -H, 1, -1, 1, -H, 0, H, -1, 1, -1, 1, -H],
    [1, -1, 1, -H, H, 0, -H, H, -1, 1, -1, 1, -1, 1, -H, 0],
    [1, -1, 1, -1, 1, -1, 1, -1, 1, -H, H, -H, H, -H, 0, 0],
])
E2_31 = np.array([
    [-1, 1, -1, 1, -1, 1, -1, 1, -H, H, -H, H, -H, 0, 0],
    [1, -1, 1, -H, 0, 0, -H, H, -1, 1, -1, 1, -1, H, -H],
    [-1, 1, -H, 0, H, -1, 1, -1, H, 0, -H, 1, -1, 1, -H],
    [1, -H, 0, 1, -1, 1, 0, -H, 1, -1, H, H, -1, 1, -H],
    [-1, 0, H, -1, H, H, -1, 1, 0, -1, 1, -H, -H, 1, -1],
    [1, 0, -1, 1, H, -1, H, H, -1, H, H, -1, 0, 1, -1],
    [-1, -H, 1, 0, -1, H, H, -1, 0, 1, -H, -1, 1, H, -1],
    [1, H, -1, -H, 1, H, -1, -H, 1, H, -1, 0, 1, 0, -1],
    [-H, -1, H, 1, 0, -1, 0, 1, H, -1, -1, H, 1, -H, -1],
    [H, 1, 0, -1, -1, H, 1, H, -1, -1, 0, 1, H, -H, -1],
    [-H, -1, -H, H, 1, H, -H, -1, -1, 0, 1, 1, 0, -1, -1],
    [H, 1, 1, H, -H, -1, -1, 0, H, 1, 1, 0, -H, -1, -1],
    [-H, -1, -1, -1, -H, 0, 1, 1, 1, H, 0, -H, -1, -1, -H],
    [0, H, 1, 1, 1, 1, H, 0, -H, -H, -1, -1, -1, -1, -H],
    [0, -H, -H, -H, -1, -1, -1, -1, -1, -1, -1, -1, -H, -H, 0],
])


class TestKernelMatrices:
    def test_kernel_3_explicit(self):
        want = np.array([
            [1, 1, 1],
            [1, -0.5 - 1j, -0.5 + 1j],
            [1, -0.5 + 1j, -0.5 - 1j],
        ])
        assert np.array_equal(kernel(3), want)

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_row0_is_ones(self, n):
        assert np.array_equal(kernel(n)[0], np.ones(n))

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_entries_in_multiplier_set(self, n):
        T = kernel(n)
        vals = set(np.abs(T.real).ravel()) | set(np.abs(T.imag).ravel())
        assert vals <= {0.0, 0.5, 1.0}

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_mirrored_rows_are_conjugates(self, n):
        # the response error transforms only rows 1 .. n // 2 on this symmetry
        T = kernel(n)
        mirror, conj = T[n - np.arange(1, n)], np.conj(T[1:])
        # exact equality, which is bit for bit up to the sign of a zero: the
        # kernel's zero entries do not mirror their signs
        assert np.array_equal(mirror, conj)

    def test_unsupported_length_rejected(self):
        with pytest.raises(ValueError):
            kernel(5)


class TestFactorization:
    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_dense_equivalence_is_exact(self, n):
        f = factorization(n)
        assert np.abs(f.dense() - kernel(n)).max() == 0.0

    def test_core_blocks_match_reference_11(self):
        core = factorization(11).core
        assert np.array_equal(core[:6, :6].real, C11_REAL)
        assert np.array_equal(core[6:, 6:].imag, C11_IMAG)

    def test_core_blocks_match_reference_31(self):
        core = factorization(31).core
        assert np.array_equal(core[:16, :16].real, E1_31)
        assert np.array_equal(core[16:, 16:].imag, E2_31)

    def test_core_3(self):
        core = factorization(3).core
        assert np.array_equal(core[:2, :2].real, [[1, 1], [1, -0.5]])
        assert core[2, 2] == -1j

    @pytest.mark.parametrize("n,count", [(3, (0, 12, 2)), (11, (0, 130, 40)), (31, (0, 900, 300))])
    def test_factorized_counts(self, n, count):
        assert leaf_schedule(Leaf(n, "approx")).static_count.as_tuple() == count

    @pytest.mark.parametrize("n,count", [(3, (0, 20, 8)), (11, (0, 380, 160)), (31, (0, 3180, 1200))])
    def test_dense_schedule_counts(self, n, count):
        assert approx_dense_schedule(n).static_count.as_tuple() == count


class TestApplyKernel:
    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_fast_equals_dense_product(self, n, rng):
        x = random_complex(rng, n, 100)
        want = kernel(n) @ x
        got = apply_kernel_fast(n, x)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_fast_is_exact_on_dyadic_input(self, n):
        x = np.arange(n) - 2.0 + 1j * (np.arange(n) % 5) / 2
        assert np.abs(apply_kernel_fast(n, x) - kernel(n) @ x).max() == 0.0

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_kernel_fast(3, random_complex(rng, 4))

    @pytest.mark.parametrize("n,x", [(3, 1.0), (3, np.complex128(1j)), (None, [1, 2, 3]),
                                     ("3", [1, 2, 3])])
    def test_wrong_typed_arguments_rejected(self, n, x):
        with pytest.raises(ValueError):
            apply_kernel_fast(n, x)


def ground_scale(n, mode):
    """Output scale of the one-leaf plan of the approximate n-point kernel."""
    return assemble_scale(ExecutionPlan(Leaf(n, "approx"), mode))


class TestKernelScale:
    def test_eta_values(self):
        assert kernel_eta(3) == Fraction(6, 7)
        assert kernel_eta(11) == Fraction(11, 13)
        assert kernel_eta(31) == Fraction(31, 38)

    def test_exact_values(self):
        sc = ground_scale(31, "exact")
        vals = sc.values()
        assert vals[0] == 1.0
        assert np.allclose(vals[1:], np.sqrt(31 / 38))
        assert abs(vals[1] - 0.90321) < 5e-6

    def test_csd_values(self):
        sc = ground_scale(31, "csd")
        assert sc.values()[0] == 1.0
        assert np.allclose(sc.values()[1:], 29 / 32)
        assert csd_eval(sc.csd_codes[1]) == Fraction(29, 32)

    @pytest.mark.parametrize("n,mode,count", [
        (3, "exact", (4, 0, 0)), (3, "csd", (0, 8, 8)),
        (11, "exact", (20, 0, 0)), (11, "csd", (0, 40, 40)),
        (31, "exact", (60, 0, 0)), (31, "csd", (0, 120, 120)),
    ])
    def test_scale_costs(self, n, mode, count):
        assert ground_scale(n, mode).op_count().as_tuple() == count

    def test_apply_scale(self, rng):
        x = random_complex(rng, 11)
        sc = ground_scale(11, "exact")
        got = sc.values() * x
        assert got[0] == x[0]
        assert np.allclose(got[1:], np.sqrt(11 / 13) * x[1:])

    def test_unit_scale_is_identity(self, rng):
        x = random_complex(rng, 4)
        sc = AssembledScale((Fraction(1),) * 4, "exact")
        assert np.array_equal(sc.values() * x, x)
        assert sc.op_count().as_tuple() == (0, 0, 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            AssembledScale((Fraction(1),) * 2, "fancy")


def test_kernel_json_export_roundtrip():
    obj = json.loads(kernel_to_json(3))
    assert obj["n"] == 3
    got = np.array([complex(r, i) / 2 ** k for r, i, k in obj["entries"]]).reshape(3, 3)
    assert np.array_equal(got, kernel(3))
    # integers over 2, reduced to integers over 1 when both parts are integers
    for n in KERNEL_LENGTHS:
        entries = json.loads(kernel_to_json(n))["entries"]
        assert all(k == 0 or (k == 1 and (r % 2 or i % 2)) for r, i, k in entries)
