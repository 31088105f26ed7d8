import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pfadft import design
from pfadft.design import (CandidateApproximation, alpha_interval,
                           candidate_matrix, error_energy, mape,
                           orth_deviation, quantize_half, scale_vector,
                           select_optimal, sweep_alpha)
from pfadft.dyadic import MULTIPLIER_SET
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

    @pytest.mark.parametrize("seed", range(8))
    def test_set_membership_matches_isin(self, seed):
        # random half-integer matrices, some entries swapped for +-0, NaN,
        # +-3/2 or +-inf, against np.isin over the multiplier set
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        odd = np.array([0.0, -0.0, np.nan, 1.5, -1.5, np.inf, -np.inf, 0.25])
        for p in (0.0, 0.002, 0.05):
            parts = rng.integers(-2, 3, (2, *shape)) / 2
            hit = rng.random(parts.shape) < p
            parts[hit] = rng.choice(odd, hit.sum())
            T = np.empty(shape, dtype=np.complex128)
            T.real, T.imag = parts
            allowed = [float(v) for v in MULTIPLIER_SET]
            want = bool(np.isin(T.real, allowed).all() and np.isin(T.imag, allowed).all())
            assert design._entries_in_set(T) is want
            assert design._entries_in_set(T.T) is want  # not C-contiguous
            assert design._entries_in_set(parts[0]) is bool(np.isin(parts[0], allowed).all())

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

    def test_first_zero_row_named(self):
        M = np.eye(4, dtype=complex)
        M[1:3] = 0
        with pytest.raises(ValueError, match="row 1 is zero"):
            scale_vector(M)

    def test_rows_with_one_sum_share_a_radicand(self):
        rads = scale_vector(candidate_matrix(31, 9 / 8)).radicands
        assert len({id(r) for r in rads}) == 2


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
        A = scale_vector(T).values()[:, None] * T
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


def _run_starts_loop(mags, alphas, step):
    """The breakpoint search one magnitude and one level at a time, the
    scalar form of ``design._run_starts``: its oracle."""
    def q_steps(x):
        return int(np.floor(2.0 * x + 0.5))

    starts = {0}
    lo = alphas[0]
    for u in mags:
        m = 0
        while True:
            a_star = (m + 0.5) / (2.0 * u)
            m += 1
            if a_star > alphas[-1] + step:
                break
            if a_star < lo - step:
                continue
            i0 = max(1, int(np.floor((a_star - lo) / step)) - 3)
            for i in range(i0, min(i0 + 8, len(alphas))):
                if q_steps(alphas[i] * u) != q_steps(alphas[i - 1] * u):
                    starts.add(i)
                    break
    return sorted(starts)


def _sweep_inputs(n, step):
    """The distinct nonzero entry magnitudes and the grid ``sweep_alpha`` uses."""
    F = dft_matrix(n)
    mags = np.unique(np.concatenate([np.abs(F.real.ravel()), np.abs(F.imag.ravel())]))
    lo, hi = design.SWEEP_INTERVAL
    return mags[mags > 0], lo + step * np.arange(int(np.rint((hi - lo) / step)) + 1)


class TestRunStarts:
    @pytest.mark.parametrize("n", [3, 11, 31, 127])
    @pytest.mark.parametrize("step", [1e-5, 1e-3, (1.25 - 0.26) / 99, 2.0])
    def test_matches_the_scalar_loop(self, n, step):
        mags, alphas = _sweep_inputs(n, step)
        assert design._run_starts(mags, alphas, step) == _run_starts_loop(mags, alphas, step)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 40), st.floats(1e-5, 0.5))
    def test_matches_the_scalar_loop_anywhere(self, n, step):
        mags, alphas = _sweep_inputs(n, step)
        assert design._run_starts(mags, alphas, step) == _run_starts_loop(mags, alphas, step)

    def test_memory_is_bounded_by_blocks(self):
        # n = 509 has 106 570 distinct magnitudes; confirming all their
        # crossings at once would hold several times that many window points
        mags, alphas = _sweep_inputs(509, 1e-5)
        tracemalloc.start()
        try:
            starts = design._run_starts(mags, alphas, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(starts) > 1 and peak < 8 << 20


class TestSweep:
    @pytest.mark.parametrize("n,count", [(3, 6), (11, 16), (31, 42)])
    def test_candidate_counts(self, n, count):
        assert len(sweep_alpha(n)) == count

    def test_single_sample_when_step_exceeds_interval(self):
        cands = sweep_alpha(3, step=2.0)
        assert len(cands) == 1

    def test_step_far_beyond_the_interval_gives_one_sample(self):
        # one grid point has one run, however far its crossings lie
        cands = sweep_alpha(3, step=1e300)
        assert len(cands) == 1 and cands[0].alpha_lo == cands[0].alpha_hi == 0.26

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            sweep_alpha(3, step=0.0)

    def test_non_integer_length_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            sweep_alpha(3.5)

    @pytest.mark.parametrize("n,step", [(None, 1e-5), ("3", 1e-5), (3, None), (3, "1e-5")])
    def test_wrong_typed_arguments_rejected(self, n, step):
        with pytest.raises(ValueError, match="positive"):
            sweep_alpha(n, step)

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

    @pytest.mark.parametrize("n", [3, 11, 31])
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
