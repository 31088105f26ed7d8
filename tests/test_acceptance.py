"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Reference figures that a criterion
checks against are frozen here. Where a reference figure has been shown
to belong to another construction than the one its label names, it is
checked, at its stated tolerance, against the construction it describes;
the evidence is recorded next to the check. A reference figure that no
construction has been shown to give is still asserted at its stated
tolerance against the construction its label names, and its test fails
until the discrepancy is settled (see README, "Tests and acceptance
suite").
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from pfadft.analysis import (cosine_probe, ground_error_table,
                             response_error_max_db, row_error_energies,
                             worst_rows)
from pfadft.complexity import count_plan
from pfadft.design import (error_energy, mape, orth_deviation, select_optimal,
                           sweep_alpha)
from pfadft.dyadic import csd_encode, csd_eval
from pfadft.exactdft import dft_matrix
from pfadft.kernels import factorization, kernel
from pfadft.pfa import (ExecutionPlan, assemble_scale, build_index_maps,
                        dense_matrix, execute, instrumented_count, plan)


def _report(num, ok, detail=""):
    print(f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=1)
def _exact_1023():
    return dft_matrix(1023)


@lru_cache(maxsize=None)
def _dense(variant, n=1023):
    return dense_matrix(plan(n, variant))


def test_criterion_01_exact_path_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (6, 15, 33, 93, 1023):
        p = plan(n, "exact")
        x = rng.standard_normal((n, 20)) + 1j * rng.standard_normal((n, 20))
        got = execute(p, x)
        want = dft_matrix(n) @ x
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    _report(1, worst <= 1e-9, f"max relative error {worst:.2e}")


TABLE_KERNEL_COUNTS = [
    (3, "unscaled", (0, 12, 2)),     # T*_3
    (3, "scaled", (4, 12, 2)),       # F*_3
    (3, "csd", (0, 20, 10)),         # F'_3
    (11, "unscaled", (0, 130, 40)),  # T*_11
    (11, "csd", (0, 170, 80)),       # F'_11
    (31, "unscaled", (0, 900, 300)),  # T*_31
    (31, "csd", (0, 1020, 420)),     # F'_31
]


def test_criterion_02_kernel_operation_counts():
    bad = []
    for n, variant, want in TABLE_KERNEL_COUNTS:
        static = count_plan(plan(n, variant)).as_tuple()
        measured = instrumented_count(plan(n, variant)).as_tuple()
        if static != want or measured != want:
            bad.append((n, variant, static, measured, want))
    _report(2, not bad, f"mismatches: {bad}" if bad else "7 rows, static and instrumented")


TABLE_PLAN_COUNTS = {
    "exact": (39682, 50772, 682),
    "hybrid-I-scaled": (40364, 50772, 682),
    "hybrid-I-csd": (39000, 53500, 3410),
    "hybrid-II-scaled": (32242, 49842, 4402),
    "hybrid-II-csd": (30382, 53562, 8122),
    "hybrid-III-scaled": (11962, 46812, 10582),
    "hybrid-III-csd": (9982, 50772, 14542),
    "hybrid-IV-scaled": (31684, 49842, 4402),
    "hybrid-IV-csd": (29700, 53810, 8370),
    "hybrid-V-scaled": (11324, 46812, 10582),
    "hybrid-V-csd": (9300, 50860, 14630),
    "hybrid-VI-scaled": (2722, 45882, 14302),
    "hybrid-VI-csd": (682, 49962, 18382),
    "unscaled": (0, 45882, 14302),
    "scaled": (2044, 45882, 14302),
    "csd": (0, 49970, 18390),
}


def test_criterion_03_composed_operation_counts():
    bad = []
    for variant, want in TABLE_PLAN_COUNTS.items():
        p = plan(1023, variant)
        static = count_plan(p).as_tuple()
        measured = instrumented_count(p).as_tuple()
        if static != want or measured != want:
            bad.append((variant, static, measured, want))
    _report(3, not bad, f"mismatches: {bad}" if bad else "16 rows, static and instrumented")


# (label, eps, tol_eps, M%, phi*1e3); the 31-point reference energies carry
# one-decimal resolution (padded trailing zero), hence the wider bound there
GROUND_ERROR_REFERENCE = [
    ("F*_3", 0.0968, 0.0001, 1.59, 6.73),
    ("F'_3", 0.0975, 0.0001, 1.60, 6.77),
    ("F*_11", 8.88, 0.01, 1.19, 14.12),
    ("F'_11", 8.90, 0.01, 1.20, 14.11),
    ("F*_31", 76.60, 0.05, 0.45, 19.83),
    ("F'_31", 76.90, 0.05, 0.45, 19.84),
]


def test_criterion_04_ground_error_measures():
    rows = {label: (e, m, p) for _, label, e, m, p in ground_error_table()}
    bad = []
    for label, eps, tol_eps, m_ref, phi_ref in GROUND_ERROR_REFERENCE:
        e, m, p = rows[label]
        if abs(e - eps) > tol_eps or abs(m - m_ref) > 0.01 or abs(p * 1e3 - phi_ref) > 0.01:
            bad.append((label, e, m, p * 1e3))
    _report(4, not bad, f"out of tolerance: {bad}" if bad else "6 rows")


# (variant, eps*1e-4, M*1e3, phi*1e3)
COMPOSED_ERROR_REFERENCE = [
    ("hybrid-I-scaled", 1.13, 4.67, 6.73),
    ("hybrid-I-csd", 1.13, 4.69, 6.77),
    ("hybrid-II-scaled", 7.68, 12.83, 14.12),
    ("hybrid-II-csd", 7.70, 12.86, 14.11),
    ("hybrid-III-scaled", 8.35, 13.68, 19.83),
    ("hybrid-III-csd", 8.38, 13.70, 19.84),
    ("hybrid-IV-scaled", 8.80, 14.12, 20.76),
    ("hybrid-IV-csd", 8.88, 14.18, 20.79),
    ("hybrid-V-scaled", 9.46, 14.77, 26.43),
    ("hybrid-V-csd", 9.55, 14.82, 26.49),
    ("hybrid-VI-scaled", 15.93, 18.67, 33.68),
    ("hybrid-VI-csd", 16.66, 19.86, 33.78),  # not reproduced, see README
    ("scaled", 17.03, 19.41, 40.18),
    ("csd", 17.10, 19.45, 40.06),
]


def test_criterion_05_composed_error_measures():
    exact = _exact_1023()
    bad = []
    for variant, eps_ref, m_ref, phi_ref in COMPOSED_ERROR_REFERENCE:
        A = _dense(variant)
        got = (error_energy(A, exact) * 1e-4, mape(A, exact) * 1e3,
               orth_deviation(A) * 1e3)
        devs = [abs(g - r) / r for g, r in zip(got, (eps_ref, m_ref, phi_ref))]
        if max(devs) > 0.01:
            bad.append((variant, tuple(round(g, 3) for g in got),
                        (eps_ref, m_ref, phi_ref), round(max(devs) * 100, 2)))
    _report(5, not bad,
            f"rows beyond 1%: {bad}" if bad else "14 rows within 1%")


CSD_REFERENCE = [
    (Fraction(66, 91), Fraction(55, 64), 0.00774),
    (Fraction(11, 13), Fraction(59, 64), 0.00201),
    (Fraction(6, 7), Fraction(119, 128), 0.00387),
    (Fraction(341, 494), Fraction(27, 32), 0.01292),
    (Fraction(93, 133), Fraction(27, 32), 0.00754),
    (Fraction(31, 38), Fraction(29, 32), 0.00304),
    (Fraction(1023, 1729), Fraction(49, 64), 0.00358),
]


def test_criterion_06_csd_constants():
    bad = []
    for radicand, frac, err_ref in CSD_REFERENCE:
        v = math.sqrt(float(radicand))
        code = csd_encode(v)
        err = round(abs(v - float(csd_eval(code))), 5)
        if csd_eval(code) != frac or err != err_ref:
            bad.append((radicand, csd_eval(code), err))
    _report(6, not bad, f"mismatches: {bad}" if bad else "7 constants")


def test_hybrid_vi_csd_applies_criterion_6_constants():
    # Each scaled row of hybrid VI is its unscaled composition row times the
    # published CSD code of that row's radicand, bit for bit.
    p = plan(1023, "hybrid-VI-csd")
    published = {radicand: frac for radicand, frac, _ in CSD_REFERENCE}
    radicands = assemble_scale(p).radicands
    assert set(radicands) == {1, Fraction(341, 494), Fraction(31, 38),
                              Fraction(11, 13)}
    s = np.array([1.0 if r == 1 else float(published[r]) for r in radicands])
    unscaled_rows = dense_matrix(ExecutionPlan(p.tree, "none"))
    assert np.array_equal(_dense("hybrid-VI-csd"), s[:, None] * unscaled_rows)


ROW_ENERGY_REFERENCE = {
    3: [0.00, 0.08, 0.01],
    11: [0.00, 0.44, 1.01, 0.93, 1.09, 1.33, 0.46, 0.69, 0.85, 0.77, 1.34],
    31: [0.00, 2.08, 2.91, 1.56, 3.66, 1.97, 3.69, 3.26, 0.82, 3.36, 1.56,
         3.38, 2.54, 1.60, 2.73, 1.91, 3.20, 2.38, 3.51, 2.57, 1.73, 3.56,
         1.77, 4.29, 1.87, 1.45, 3.16, 1.47, 3.55, 2.22, 3.04],
}


@pytest.mark.parametrize("n", [3, 11, 31])
def test_criterion_07_row_error_energies(n):
    A = _dense("csd", n)
    exact = dft_matrix(n)
    energies = row_error_energies(A, exact)
    total = error_energy(A, exact)
    sum_ok = abs(energies.sum() - total) <= 1e-6
    checked = energies
    if n == 31:
        # The published n = 31 list, labelled F'_31 (csd), joins two
        # columns: rows 0-10 are csd energies and rows 11-30 are F*_31
        # (scaled) energies, each to two decimals. Rows 1, 2, 4-7, 9 and 10
        # match only csd; rows 11-16, 18, 21, 23-25, 28 and 30 match only
        # scaled. No single matrix of the F'_31 form gives the list: every
        # conjugate pair E_k + E_{31-k} of one matrix sums to the same value
        # (5.129 csd, 5.110 scaled; see tests/test_analysis.py), while the
        # published pair sums spread from 5.11 to 5.14.
        scaled = row_error_energies(_dense("scaled", n), exact)
        checked = np.concatenate([energies[:11], scaled[11:]])
    ref = ROW_ENERGY_REFERENCE[n]
    devs = [(i, round(e, 4), r) for i, (e, r) in enumerate(zip(checked, ref))
            if abs(e - r) > 0.01]
    _report(7, sum_ok and not devs,
            f"n={n}: " + (f"rows beyond 0.01: {devs}" if devs else
                          f"{n} rows, sum ties to {total:.6f}"))


def test_criterion_08_sweep_candidates():
    counts = {n: len(sweep_alpha(n)) for n in (3, 11, 31)}
    ok = counts == {3: 6, 11: 16, 31: 42}
    detail = f"counts {counts}"
    for n in (11, 31):
        pareto = select_optimal(sweep_alpha(n))
        if not any(c.contains_alpha(9 / 8) for c in pareto):
            ok = False
            detail += f"; 9/8 not optimal for n={n}"
    _report(8, ok, detail)


def test_criterion_09_factorization_identity():
    bad = []
    for n in (3, 11, 31):
        diff = np.abs(factorization(n).dense() - kernel(n)).max()
        if diff != 0.0:
            bad.append((n, diff))
    _report(9, not bad, f"nonzero residue: {bad}" if bad else "entrywise exact for 3, 11, 31")


def test_criterion_10_response_error_bound_and_worst_rows():
    levels = {n: response_error_max_db("csd", n) for n in (3, 11, 31, 1023)}
    ok = all(v <= -17.0 for v in levels.values())
    detail = "max dB " + str({k: round(v, 2) for k, v in levels.items()})
    w = worst_rows("csd", 1023, k=3)
    # reference labels count rows from 1 (DC row = row 1); ours are 0-based
    labels = sorted(r.row + 1 for r in w)
    if labels != [86, 699, 854]:
        ok = False
        detail += f"; worst rows {labels}"
    # energy association follows the source's own per-row figures:
    # row 854 is the worst (306.08), then 699 (287.1), then 86 (286.29)
    ref = {854: 306.08, 699: 287.1, 86: 286.29}
    for r in w:
        if abs(r.energy - ref[r.row + 1]) > 0.5:
            ok = False
            detail += f"; row {r.row} energy {r.energy:.2f}"
    mean = np.mean([r.energy for r in row_energies_1023()])
    if abs(mean - 167.15) > 0.5:
        ok = False
        detail += f"; mean {mean:.2f}"
    _report(10, ok, detail)


@lru_cache(maxsize=1)
def row_energies_1023():
    from pfadft.analysis import row_error_table
    return row_error_table("csd", 1023)


def test_criterion_11_property_suite():
    rng = np.random.default_rng(111)
    ok, detail = True, []

    for n1, n2 in ((2, 3), (3, 5), (5, 13), (11, 3), (31, 33), (2, 1023)):
        m = build_index_maps(n1, n2)
        if sorted(m.forward) != list(range(n1 * n2)) or sorted(m.inverse) != list(range(n1 * n2)):
            ok, detail = False, detail + [f"bijectivity {n1}x{n2}"]

    x_real = rng.standard_normal(1023)
    for variant in TABLE_PLAN_COUNTS:
        p = plan(1023, variant)
        X = execute(p, x_real)
        sym = np.abs(X[1:] - np.conj(X[1:][::-1])).max()
        if sym > 1e-12 * np.abs(X).max():
            ok, detail = False, detail + [f"conjugate symmetry {variant}: {sym:.1e}"]
        dc = abs(X[0] - np.sum(x_real))
        if dc > 1023 * np.finfo(float).eps * np.abs(x_real).sum():
            ok, detail = False, detail + [f"DC exactness {variant}"]
        if p.scale_mode != "none":
            xt = execute(ExecutionPlan(p.tree, "none"), x_real)
            if not np.array_equal(execute(p, x_real), assemble_scale(p).values() * xt):
                ok, detail = False, detail + [f"scale relationship {variant}"]

    x, y = (rng.standard_normal(1023) + 1j * rng.standard_normal(1023) for _ in range(2))
    a, b = 1.3 - 0.2j, -0.4 + 0.9j
    for variant in ("csd", "exact", "hybrid-IV-csd"):
        p = plan(1023, variant)
        lhs = execute(p, a * x + b * y)
        rhs = a * execute(p, x) + b * execute(p, y)
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        if rel > 1e-10:
            ok, detail = False, detail + [f"linearity {variant}: {rel:.1e}"]

    _report(11, ok, "; ".join(detail) if detail else "maps, symmetry, DC, scale, linearity")


def test_criterion_12_cosine_probe():
    exact = cosine_probe(1023, 100, "exact")
    approx = cosine_probe(1023, 100, "csd")
    ok = exact.leakage_ratio < 1e-9 and abs(approx.leakage_ratio - 0.09) <= 0.02
    _report(12, ok, f"exact leakage {exact.leakage_ratio:.1e}, "
                    f"approx leakage {approx.leakage_ratio:.4f}")
