import numpy as np
import pytest

from conftest import random_complex
from pfadft.exactdft import a_stage_matrix, dft_matrix
from pfadft.pfa import Leaf, fast_exact, leaf_schedule


class TestDftMatrix:
    def test_trivial_lengths(self):
        assert np.array_equal(dft_matrix(1), [[1]])
        assert np.allclose(dft_matrix(2), [[1, 1], [1, -1]])
        assert np.allclose(dft_matrix(4)[1, 1], -1j)

    def test_structure(self):
        F = dft_matrix(16)
        assert np.allclose(np.abs(F), 1.0, atol=1e-14)
        assert np.allclose(F[0], 1.0) and np.allclose(F[:, 0], 1.0)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            dft_matrix(0)

    def test_non_integer_length_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            dft_matrix(2.5)


class TestDftDirect:
    def test_impulse(self):
        x = np.zeros(8); x[0] = 1
        assert np.allclose(dft_matrix(len(x)) @ x, np.ones(8), atol=1e-14)

    def test_constant(self):
        X = dft_matrix(8) @ np.ones(8)
        assert np.allclose(X, [8] + [0] * 7, atol=1e-12)

    def test_against_literal_double_loop(self):
        x = np.array([1.0, 2.0, 3.0])
        n = 3
        want = np.zeros(n, dtype=complex)
        for k in range(n):
            for m in range(n):
                want[k] += x[m] * np.exp(-2j * np.pi * m * k / n)
        assert np.allclose(dft_matrix(len(x)) @ x, want, atol=1e-13)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            x = np.array([])
            dft_matrix(len(x)) @ x

    def test_parseval(self, rng):
        for n in (5, 8, 31):
            x = random_complex(rng, n)
            X = dft_matrix(len(x)) @ x
            lhs = np.linalg.norm(X) ** 2
            rhs = n * np.linalg.norm(x) ** 2
            assert abs(lhs - rhs) <= 1e-9 * rhs


class TestFastExact:
    @pytest.mark.parametrize("n", [3, 11, 31])
    def test_matches_direct_on_random_vectors(self, n, rng):
        x = random_complex(rng, n, 100)
        X = fast_exact(n, x)
        want = dft_matrix(n) @ x
        err = np.linalg.norm(X - want) / np.linalg.norm(want)
        assert err <= 1e-10

    def test_impulse_n3(self):
        x = np.zeros(3); x[0] = 1
        assert np.allclose(fast_exact(3, x), np.ones(3), atol=1e-14)

    @pytest.mark.parametrize("n,count", [(3, (2, 12, 2)), (11, (100, 140, 0)), (31, (900, 1020, 0))])
    def test_operation_counts(self, n, count):
        assert leaf_schedule(Leaf(n, "exact")).static_count.as_tuple() == count

    @pytest.mark.parametrize("n,count", [(3, (12, 24, 0)), (11, (300, 520, 0)), (31, (2700, 4560, 0))])
    def test_definition_counts(self, n, count):
        assert leaf_schedule(Leaf(n, "definition")).static_count.as_tuple() == count

    def test_unsupported_length_rejected(self, rng):
        with pytest.raises(ValueError):
            fast_exact(5, random_complex(rng, 5))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            fast_exact(3, random_complex(rng, 4))

    @pytest.mark.parametrize("n,x", [(3, 1.0), (3, np.complex128(1j)), (None, [1, 2, 3]),
                                     ("3", [1, 2, 3])])
    def test_wrong_typed_arguments_rejected(self, n, x):
        with pytest.raises(ValueError):
            fast_exact(n, x)

    @pytest.mark.parametrize("n", [3, 11, 31])
    def test_linearity(self, n, rng):
        x, y = random_complex(rng, n), random_complex(rng, n)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        lhs = fast_exact(n, a * x + b * y)
        rhs = a * fast_exact(n, x) + b * fast_exact(n, y)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_butterfly_is_scaled_orthogonal():
    for m in (2, 10, 30):
        B = a_stage_matrix(m + 1)[1:, 1:]
        assert np.array_equal(B.T @ B, 2 * np.eye(m, dtype=np.int64))


def test_butterfly_odd_order_rejected():
    with pytest.raises(ValueError):
        a_stage_matrix(4)
