import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pfadft import design
from pfadft.design import (CandidateApproximation, alpha_interval,
                           apply_scale, candidate_matrix, error_energy, mape,
                           orth_deviation, quantize_half, scale_vector,
                           select_optimal, sweep_alpha)
from pfadft.exactdft import MAX_DEFINITION_LENGTH, dft_matrix


class TestAlphaInterval:
    def test_analytic_bounds(self):
        lo, hi = alpha_interval(1.0)
        assert lo == 0.25 and hi == 1.25

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alpha_interval(0.0)


class TestCandidateMatrix:
    def test_kernel_at_nine_eighths(self):
        T = candidate_matrix(3, 9 / 8)
        want = np.array([
            [1, 1, 1],
            [1, -0.5 - 1j, -0.5 + 1j],
            [1, -0.5 + 1j, -0.5 - 1j],
        ])
        assert np.array_equal(T, want)

    def test_row0_all_ones_at_nine_eighths(self):
        for n in (3, 11, 31):
            assert np.array_equal(candidate_matrix(n, 9 / 8)[0], np.ones(n))

    def test_low_alpha_row0_halves(self):
        T = candidate_matrix(3, 0.26)
        assert np.array_equal(T[0], 0.5 * np.ones(3))

    def test_out_of_interval_rejected(self):
        for alpha in (0.2, 1.3):
            with pytest.raises(ValueError):
                candidate_matrix(3, alpha)

    def test_overshoot_at_exact_endpoint_rejected(self):
        with pytest.raises(ValueError):
            candidate_matrix(3, 1.25)

    def test_conjugation_symmetry(self):
        # quantization commutes with conjugation, so candidate matrices keep
        # the transform's mirrored-row structure
        for n in (3, 11, 31):
            for alpha in (0.3, 0.77, 9 / 8):
                T = candidate_matrix(n, alpha)
                assert np.array_equal(T[1:], np.conj(T[1:][::-1]))
                assert np.array_equal(T[:, 1:], np.conj(T[:, 1:][:, ::-1]))


class TestScaleVector:
    def test_ground_radicands(self):
        assert scale_vector(candidate_matrix(3, 9 / 8)).radicands == \
            (Fraction(1),) + (Fraction(6, 7),) * 2
        assert scale_vector(candidate_matrix(11, 9 / 8)).radicands == \
            (Fraction(1),) + (Fraction(11, 13),) * 10
        assert scale_vector(candidate_matrix(31, 9 / 8)).radicands == \
            (Fraction(1),) + (Fraction(31, 38),) * 30

    def test_identity_matrix(self):
        sv = scale_vector(np.eye(4, dtype=complex))
        assert sv.radicands == (Fraction(4),) * 4
        assert np.allclose(sv.values(), 2.0)

    def test_zero_row_rejected(self):
        M = np.eye(3, dtype=complex)
        M[1] = 0
        with pytest.raises(ValueError):
            scale_vector(M)


class TestMetrics:
    def test_identical_matrices(self):
        F = dft_matrix(5)
        assert error_energy(F, F) == 0.0
        assert mape(F, F) == 0.0

    def test_exact_dft_has_null_orth_deviation(self):
        for n in (3, 8, 11):
            assert abs(orth_deviation(dft_matrix(n))) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_energy(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            mape(np.eye(2), np.eye(3))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            orth_deviation(np.zeros((2, 2)))

    def test_ground_3_point_values(self):
        F = dft_matrix(3)
        T = candidate_matrix(3, 9 / 8)
        A = apply_scale(scale_vector(T), T)
        assert abs(error_energy(A, F) - 0.0968) < 5e-5
        assert abs(mape(A, F) - 1.59) < 5e-3
        assert abs(orth_deviation(A) * 1e3 - 6.73) < 5e-3

    def test_error_energy_is_pi_frobenius(self, rng):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        want = np.pi * np.sum(np.abs(A - B) ** 2)
        assert abs(error_energy(A, B) - want) < 1e-10 * want


def _scan_oracle(n, step, lo, hi):
    """Literal linear scan of the grid; the slow but obvious grouping."""
    count = int(round((hi - lo) / step))
    alphas = lo + step * np.arange(count + 1)
    F = dft_matrix(n)
    runs = []
    prev = None
    for a in alphas:
        T = quantize_half(a * F.real) + 1j * quantize_half(a * F.imag)
        key = T.tobytes()
        if key != prev:
            runs.append([a, a, key])
            prev = key
        else:
            runs[-1][1] = a
    return runs


class TestSweep:
    @pytest.mark.parametrize("n,count", [(3, 6), (11, 16), (31, 42)])
    def test_candidate_counts(self, n, count):
        assert len(sweep_alpha(n)) == count

    def test_single_sample_when_step_exceeds_interval(self):
        cands = sweep_alpha(3, step=2.0)
        assert len(cands) == 1

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            sweep_alpha(3, step=0.0)

    @pytest.mark.parametrize("n,step", [
        (MAX_DEFINITION_LENGTH + 1, 1e-5), (10 ** 9, 1e-5),
        (3, 5e-8), (3, 1e-9), (3, 1e-320), (3, float("nan")), (3, float("inf")),
    ])
    def test_unbounded_sweeps_rejected_before_allocating(self, n, step):
        # unbounded, (3, 5e-8) would allocate a 160 MB grid and (513, 1e-5)
        # a 4 MB matrix; the 1 MiB bound catches both
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limited to n|grid points|positive"):
                sweep_alpha(n, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_bound_counts_points(self, monkeypatch):
        monkeypatch.setattr(design, "MAX_SWEEP_POINTS", 100)
        lo, hi = design.SWEEP_INTERVAL
        assert sweep_alpha(3, step=(hi - lo) / 99)  # 100 points
        with pytest.raises(ValueError, match="more than 100 grid points"):
            sweep_alpha(3, step=(hi - lo) / 100)

    @pytest.mark.parametrize("n", [3, 11])
    def test_matches_literal_scan(self, n):
        # verify the breakpoint search against the obvious linear scan on a
        # coarser grid (same grouping rule, same arithmetic)
        step = 1e-3
        got = sweep_alpha(n, step=step)
        oracle = _scan_oracle(n, step, 0.26, 1.25)
        kept = []
        for alo, ahi, key in oracle:
            flat = np.frombuffer(key, dtype=np.complex128).reshape(n, n)
            vals = set(np.abs(flat.real.ravel())) | set(np.abs(flat.imag.ravel()))
            if vals <= {0.0, 0.5, 1.0}:
                kept.append((alo, ahi, key))
        assert len(got) == len(kept)
        for c, (alo, ahi, key) in zip(got, kept):
            assert c.alpha_lo == alo and c.alpha_hi == ahi
            assert c.t_matrix.tobytes() == key

    def test_fine_window_matches_scan_around_half(self):
        # the one-grid-point candidate at alpha = 0.5 for n = 3 comes from
        # mirrored entries whose computed magnitudes differ in the last ulp
        cands = sweep_alpha(3)
        singleton = [c for c in cands if c.alpha_lo == c.alpha_hi]
        assert len(singleton) == 1
        assert abs(singleton[0].alpha_lo - 0.5) < 1e-12
        T = singleton[0].t_matrix
        assert not np.array_equal(T[1:], np.conj(T[1:][::-1]))

    def test_step_refinement_keeps_candidate_set(self):
        for n in (3, 11, 31):
            coarse = {c.t_matrix.tobytes() for c in sweep_alpha(n, 1e-5)}
            fine = {c.t_matrix.tobytes() for c in sweep_alpha(n, 1e-6)}
            assert coarse == fine

    def test_metrics_are_nonnegative_and_nonzero(self):
        for c in sweep_alpha(11):
            assert c.metrics.epsilon > 0
            assert c.metrics.mape_percent > 0
            assert c.metrics.phi >= 0


class TestSelectOptimal:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_optimal([])

    def test_single_candidate_is_optimal(self):
        cands = sweep_alpha(3, step=2.0)
        assert select_optimal(cands) == cands

    @pytest.mark.parametrize("n,interval", [(11, (0.99240, 1.14528)),
                                            (31, (1.08859, 1.15141))])
    def test_reference_optimal_intervals(self, n, interval):
        pareto = select_optimal(sweep_alpha(n))
        match = [c for c in pareto
                 if abs(c.alpha_lo - interval[0]) < 1e-9 and abs(c.alpha_hi - interval[1]) < 1e-9]
        assert match, [c.alpha_interval for c in pareto]
        assert match[0].contains_alpha(9 / 8)

    def test_nine_eighths_is_pareto_for_all_kernel_lengths(self):
        for n in (3, 11, 31):
            pareto = select_optimal(sweep_alpha(n))
            assert any(c.contains_alpha(9 / 8) for c in pareto)

    def test_no_candidate_dominates_a_pareto_member(self):
        cands = sweep_alpha(31)
        pareto = select_optimal(cands)
        for p in pareto:
            pt = p.metrics.as_tuple()
            for c in cands:
                ct = c.metrics.as_tuple()
                assert not (all(a <= b for a, b in zip(ct, pt)) and ct != pt)
