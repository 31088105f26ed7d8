import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings

import pfadft
import pfadft.analysis
import pfadft.exactdft
import pfadft.pfa
from conftest import coprime_plans
from pfadft.analysis import (DB_FLOOR, composed_error_table, cosine_probe, filter_response,
                             ground_error_table, plan_error_figures, response_error_curve,
                             response_error_max_db, row_error_energies, row_error_table,
                             worst_rows)
from pfadft.complexity import COMPOSED_VARIANTS
from pfadft.design import error_energy, mape, orth_deviation
from pfadft.exactdft import dft_matrix
from pfadft.pfa import dense_matrix, plan, plan_from_json, tree_leaves


def _quadrature_row_energy(approx_row, exact_row, npts=200_001):
    """Brute trapezoid integration of |H - Hhat|^2 over [0, pi]."""
    n = len(exact_row)
    w = np.linspace(0.0, np.pi, npts)
    ph = np.exp(-1j * np.outer(w, np.arange(n)))
    err = ph @ (np.asarray(approx_row) - np.asarray(exact_row))
    return np.trapezoid(np.abs(err) ** 2, w)


class TestRowErrorEnergies:
    @pytest.mark.parametrize("n", [3, 11])
    def test_closed_form_matches_quadrature(self, n):
        A = dense_matrix(plan(n, "csd"))
        E = dft_matrix(n)
        got = row_error_energies(A, E)
        for r in range(n):
            want = _quadrature_row_energy(A[r], E[r])
            assert abs(got[r] - want) < 1e-6

    @pytest.mark.parametrize("r", [1, 11, 23, 30])
    def test_closed_form_matches_quadrature_31(self, r):
        # includes rows where the closed form disagrees with the reference
        # per-row table; brute integration confirms the closed form
        A = dense_matrix(plan(31, "csd"))
        E = dft_matrix(31)
        got = row_error_energies(A, E)[r]
        want = _quadrature_row_energy(A[r], E[r])
        assert abs(got - want) < 1e-6

    @pytest.mark.parametrize("n", [3, 11, 31])
    def test_rows_sum_to_matrix_error_energy(self, n):
        A = dense_matrix(plan(n, "csd"))
        E = dft_matrix(n)
        got = row_error_energies(A, E)
        assert abs(got.sum() - error_energy(A, E)) < 1e-10

    def test_conjugate_row_pairs_sum_to_full_circle(self):
        A = dense_matrix(plan(11, "csd"))
        E = dft_matrix(11)
        e = row_error_energies(A, E)
        D = A - E
        for k in range(1, 11):
            want = 2 * np.pi * np.sum(np.abs(D[k]) ** 2)
            assert abs(e[k] + e[11 - k] - want) < 1e-10

    @pytest.mark.parametrize("variant", ["csd", "scaled"])
    def test_conjugate_row_pairs_31_share_one_sum(self, variant):
        # Every non-DC row of a quantized prime-length DFT is a permutation
        # of row 1, so all 15 conjugate pairs sum to the same energy.
        A = dense_matrix(plan(31, variant))
        E = dft_matrix(31)
        e = row_error_energies(A, E)
        D = A - E
        for k in range(1, 31):
            want = 2 * np.pi * np.sum(np.abs(D[k]) ** 2)
            assert abs(e[k] + e[31 - k] - want) < 1e-10
        sums = [e[k] + e[31 - k] for k in range(1, 16)]
        assert max(sums) - min(sums) < 1e-10

    def test_dc_row_is_exact(self):
        table = row_error_table("csd", 31)
        assert table[0].row == 0 and table[0].energy == 0.0

    def test_worst_rows_ordering(self):
        w = worst_rows("csd", 31, k=4)
        assert all(w[i].energy >= w[i + 1].energy for i in range(3))

    @pytest.mark.parametrize("fn", [row_error_table, worst_rows, response_error_max_db],
                             ids=lambda fn: fn.__name__)
    def test_variant_without_length_rejected(self, fn):
        with pytest.raises(ValueError, match="needs a transform length"):
            fn("csd")


class TestFilterResponse:
    def test_all_ones_row_is_dirichlet(self):
        n, grid = 8, 4096
        curve = filter_response(np.ones(n), grid)
        w = curve.omega
        with np.errstate(divide="ignore", invalid="ignore"):
            dirichlet = np.abs(np.sin(n * w / 2) / np.sin(w / 2))
        dirichlet[np.isnan(dirichlet)] = n
        want = 20 * np.log10(np.maximum(dirichlet / n, 1e-15))
        assert np.abs(curve.magnitude_db - want).max() < 1e-6
        assert curve.magnitude_db.max() == 0.0
        assert abs(w[np.argmax(curve.magnitude_db)]) < 2 * np.pi / grid + 1e-12

    def test_single_tap_row_is_flat(self):
        curve = filter_response(np.array([1.0 + 0j]), 16)
        assert np.allclose(curve.magnitude_db, 0.0)

    def test_peak_normalization_is_scale_invariant(self, rng):
        row = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        a = filter_response(row, 1024)
        b = filter_response(3.7 * row, 1024)
        assert np.allclose(a.magnitude_db, b.magnitude_db, atol=1e-9)
        assert a.magnitude_db.max() == 0.0

    def test_grid_covers_half_open_interval(self):
        curve = filter_response(np.ones(4), 64)
        assert curve.omega[0] == -np.pi
        assert curve.omega[-1] < np.pi
        assert np.allclose(np.diff(curve.omega), 2 * np.pi / 64)

    def test_undersampled_grid_rejected(self):
        with pytest.raises(ValueError):
            filter_response(np.ones(100), 128)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            filter_response(np.zeros(4), 64)


class TestResponseErrorCurve:
    def test_identical_rows_hit_floor(self):
        row = np.ones(5)
        curve = response_error_curve(row, row, 64)
        assert np.allclose(curve.magnitude_db, -300.0)

    def test_known_bound_for_ground_csd_variants(self):
        for n, bound in ((3, -22.0), (11, -17.0), (31, -19.0)):
            level = response_error_max_db("csd", n)
            assert level <= -17.0
            assert level <= bound + 0.5

    def test_matches_manual_evaluation(self, rng):
        exact = dft_matrix(11)[4]
        approx = dense_matrix(plan(11, "csd"))[4]
        curve = response_error_curve(approx, exact, 256)
        w = curve.omega
        H = np.exp(-1j * np.outer(w, np.arange(11))) @ exact
        Ha = np.exp(-1j * np.outer(w, np.arange(11))) @ approx
        want = 20 * np.log10(np.abs(Ha - H) / np.abs(H).max())
        assert np.abs(curve.magnitude_db - want).max() < 1e-8


@lru_cache(maxsize=None)
def _exact(n):
    return dft_matrix(n)


def _assert_figures_match_dense(p):
    """plan_error_figures against the dense oracle of pfadft.design."""
    A = dense_matrix(p)
    F = _exact(p.n)
    want = (error_energy(A, F), mape(A, F), orth_deviation(A))
    got = plan_error_figures(p).as_tuple()
    if all(leaf.kind != "approx" for leaf in tree_leaves(p.tree)):
        # every figure is rounding noise around 0
        assert abs(got[0] - want[0]) <= 1e-9 * p.n ** 2
        assert abs(got[1] - want[1]) <= 1e-9 and abs(got[2] - want[2]) <= 1e-9
    else:
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * abs(w)


class TestStructuredErrorFigures:
    @pytest.mark.parametrize("variant", [v for v, _ in COMPOSED_VARIANTS])
    def test_composed_variants_match_dense(self, variant):
        _assert_figures_match_dense(plan(1023, variant))

    @pytest.mark.parametrize("variant", ["exact-definition", "exact", "unscaled", "scaled", "csd"])
    @pytest.mark.parametrize("n", [3, 11, 31])
    def test_ground_plans_match_dense(self, n, variant):
        _assert_figures_match_dense(plan(n, variant))

    @settings(deadline=None, max_examples=30)
    @given(coprime_plans())
    def test_random_trees_match_dense(self, text):
        _assert_figures_match_dense(plan_from_json(text))

    def test_tables_are_the_structured_figures(self):
        for n, label, *figs in ground_error_table():
            variant = "scaled" if label.startswith("F*") else "csd"
            assert tuple(figs) == plan_error_figures(plan(n, variant)).as_tuple()


def _two_fft_response_db(plans, grid):
    """The full-row formula for plans of one length: both responses of every
    non-DC row by FFT, each row normalized by its own grid peak. The exact
    rows' FFT, 128 rows at a time, is shared by the plans."""
    n = plans[0].n
    dense = [dense_matrix(p) for p in plans]
    worst = np.zeros(len(plans))
    for lo in range(1, n, 128):
        H = np.fft.fft(_exact(n)[lo:lo + 128], grid, axis=1)
        peaks = np.abs(H).max(axis=1)
        for j, A in enumerate(dense):
            Ha = np.fft.fft(A[lo:lo + 128], grid, axis=1)
            worst[j] = max(worst[j], np.max(np.abs(Ha - H).max(axis=1) / peaks))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(worst)


def _assert_response_matches_two_fft(*plans):
    grid = 8192 if plans[0].n > 64 else 4096
    for p, want in zip(plans, _two_fft_response_db(plans, grid)):
        got = response_error_max_db(p)
        if all(leaf.kind != "approx" for leaf in tree_leaves(p.tree)):
            assert got == DB_FLOOR and want <= -200.0  # the formula reads rounding noise
        else:
            assert abs(got - want) <= 1e-9


# even n: row n / 2 pairs with itself
EVEN_PLANS = [
    {"n": 6, "tree": [3, 2], "kernels": {"3": "approx", "2": "exact"}, "scale": "none"},
    {"n": 62, "tree": [2, 31], "kernels": {"2": "exact", "31": "approx"}, "scale": "csd"},
    {"n": 132, "tree": [[4, 3], 11], "kernels": {"4": "definition", "3": "approx", "11": "approx"},
     "scale": "exact"},
]


class TestResponseErrorMax:
    @pytest.mark.parametrize("variant", ["csd", "scaled"])
    @pytest.mark.parametrize("n", [3, 11, 31, 1023])
    def test_matches_two_fft_formula(self, n, variant):
        grid = 8192 if n > 64 else 4096
        want, = _two_fft_response_db([plan(n, variant)], grid)
        assert abs(response_error_max_db(variant, n) - want) <= 1e-9

    @pytest.mark.parametrize("variants", [
        (f"hybrid-{leg}-scaled", f"hybrid-{leg}-csd") for leg in ("I", "II", "III", "IV", "V", "VI")
    ] + [("unscaled",)], ids=lambda variants: variants[0].rsplit("-", 1)[0])
    def test_composed_variants_match_two_fft_formula(self, variants):
        _assert_response_matches_two_fft(*(plan(1023, v) for v in variants))

    @pytest.mark.parametrize("obj", EVEN_PLANS, ids=lambda obj: f"n{obj['n']}")
    def test_even_lengths_match_two_fft_formula(self, obj):
        _assert_response_matches_two_fft(plan_from_json(json.dumps(obj)))

    @settings(deadline=None, max_examples=20)
    @given(coprime_plans(max_n=420))
    def test_random_trees_match_two_fft_formula(self, text):
        _assert_response_matches_two_fft(plan_from_json(text))

    def test_undersampled_grid_rejected(self):
        # 4199 = 13 * 17 * 19 needs more than the 8192-point default grid
        with pytest.raises(ValueError):
            response_error_max_db("exact", 4199)


class TestExactPlans:
    """A plan with no approximate leaf computes the DFT: its figures are
    exactly zero, not the rounding noise of an n-point DFT matrix."""

    @pytest.mark.parametrize("variant", ["exact", "exact-definition"])
    @pytest.mark.parametrize("n", [3, 11, 31, 1023])
    def test_figures_are_zero(self, n, variant):
        p = plan(n, variant)
        assert plan_error_figures(p).as_tuple() == (0.0, 0.0, 0.0)
        assert response_error_max_db(p) == DB_FLOOR

    @pytest.mark.parametrize("variant", ["exact", "exact-definition"])
    def test_row_energies_are_zero(self, variant):
        assert all(r.energy == 0.0 for r in row_error_table(variant, 1023))


class TestRowTables:
    @settings(deadline=None, max_examples=20)
    @given(coprime_plans(max_n=420))
    def test_random_trees_match_dense_difference(self, text):
        p = plan_from_json(text)
        want = row_error_energies(dense_matrix(p), _exact(p.n))
        got = np.array([r.energy for r in row_error_table(p)])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-9)

    def test_hybrid_matches_dense_difference(self):
        p = plan(1023, "hybrid-V-csd")
        want = row_error_energies(dense_matrix(p), _exact(1023))
        got = np.array([r.energy for r in row_error_table(p)])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-9)


class TestTableMemory:
    """The paper tables build no n-point matrix and stay small in memory.
    The peak bounds are a quarter and a half of what the dense construction
    takes, 24.0 and 47.9 MiB."""

    def test_no_n_point_matrices(self, monkeypatch):
        sizes = []
        real = pfadft.exactdft.dft_matrix

        def spy(n):
            sizes.append(n)
            return real(n)

        def forbidden(*args):
            raise AssertionError("dense_matrix called")
        for module in (pfadft.exactdft, pfadft.pfa, pfadft.analysis):
            monkeypatch.setattr(module, "dft_matrix", spy)
        for module in (pfadft, pfadft.pfa, pfadft.analysis):
            monkeypatch.setattr(module, "dense_matrix", forbidden, raising=False)
        composed_error_table()
        response_error_max_db("csd", 1023)
        assert sizes and max(sizes) <= 31

    @pytest.mark.parametrize("call, bound_mib", [
        ((composed_error_table,), 6.0),
        ((response_error_max_db, "csd", 1023), 24.0),
    ], ids=["composed_error_table", "response_error_max_db"])
    def test_tracemalloc_peak(self, call, bound_mib):
        fn, *args = call
        fn(*args)  # warm the plan, scale and kernel caches
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20


class TestReferenceTables:
    def test_ground_error_table_values(self):
        rows = {label: (e, m, p) for _, label, e, m, p in ground_error_table()}
        e, m, p = rows["F*_3"]
        assert abs(e - 0.0968) < 5e-5 and abs(m - 1.59) < 5e-3 and abs(p * 1e3 - 6.73) < 5e-3
        e, m, p = rows["F'_11"]
        assert abs(e - 8.905) < 5e-3 and abs(m - 1.20) < 5e-3 and abs(p * 1e3 - 14.11) < 5e-3


class TestCosineProbe:
    def test_exact_integer_bin_has_no_leakage(self):
        probe = cosine_probe(33, 5, "exact")
        assert probe.dominant_bins == (5, 28)
        assert np.allclose(probe.dominant_peak, 33 / 2, atol=1e-9)
        assert probe.leakage_ratio < 1e-9

    def test_csd_1023_leakage_level(self):
        probe = cosine_probe(1023, 100, "csd")
        assert probe.dominant_bins == (100, 923)
        assert abs(probe.leakage_ratio - 0.09) < 0.02

    def test_bin_bounds_rejected(self):
        for bad in (0, 17, 20, 2.5):
            with pytest.raises(ValueError):
                cosine_probe(33, bad, "exact")

    @pytest.mark.parametrize("n", [None, "33", 33.0])
    def test_wrong_typed_length_rejected(self, n):
        with pytest.raises(ValueError, match="positive integer"):
            cosine_probe(n, 2, "csd")
