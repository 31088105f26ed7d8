import numpy as np
import pytest

from pfadft.schedule import (CountingComplex, OpCount, Tally, compile_stages,
                             run_counting, run_numpy, scale_schedule)


def _random_stages(rng):
    """Two stages mixing every entry class the compiler knows."""
    s1 = np.array([
        [1, 0.5, 0],
        [0, -1, 1j],
        [-0.5, 0, 0.5j],
    ])
    s2 = np.array([
        [1, -0.5 - 1j, 0],
        [0.25 + 0.3j, 0, 1],
        [0, 0.7, -1.2j],
    ])
    return [s1, s2]


def test_compiled_schedule_matches_matrix_product(rng):
    stages = _random_stages(rng)
    sched = compile_stages(stages, 3)
    x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    want = stages[1] @ (stages[0] @ x)
    got = run_numpy(sched, x)
    assert np.allclose(got, want, atol=1e-14)


def test_static_count_conventions(rng):
    # one row of each class: costs add up per the documented conventions
    M = np.array([
        [1, 1, 0],          # 1 complex add           -> 2 adds
        [0.5, 0, -1],       # shift + complex add     -> 2 adds, 2 shifts
        [0.3, 1j, 0],       # general real mult + add -> 2 mults, 2 adds
    ])
    sched = compile_stages([M], 3)
    assert sched.static_count() == OpCount(2, 6, 2)


def test_low_complexity_entry_cost():
    M = np.array([[-0.5 - 1j]])
    sched = compile_stages([M], 1)
    assert sched.static_count() == OpCount(0, 2, 2)
    out = run_numpy(sched, np.array([[1.0 + 2.0j]]))
    assert out[0, 0] == (1 + 2j) * (-0.5 - 1j)


def test_general_complex_entry_cost():
    M = np.array([[0.8 - 0.6j]])
    sched = compile_stages([M], 1)
    assert sched.static_count() == OpCount(3, 3, 0)


def test_counting_executor_matches_static(rng):
    stages = _random_stages(rng)
    sched = compile_stages(stages, 3)
    tally = Tally()
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    arr = np.empty((3, 1), dtype=object)
    for i in range(3):
        arr[i, 0] = CountingComplex(x[i].real, x[i].imag, tally)
    out = run_counting(sched, arr)
    assert tally.as_opcount() == sched.static_count()
    want = stages[1] @ (stages[0] @ x)
    got = np.array([v.to_complex() for v in out[:, 0]])
    assert np.allclose(got, want, atol=1e-14)


def test_scale_schedule_costs():
    plain = scale_schedule([1.0, 0.9, 0.9])
    assert plain.static_count() == OpCount(4, 0, 0)
    csd = scale_schedule([1.0, 0.921875, 0.921875],
                         {1: (0.921875, 3), 2: (0.921875, 3)})
    assert csd.static_count() == OpCount(0, 8, 8)
    x = np.array([[1.0], [2.0], [1.0 + 1.0j]])
    out = run_numpy(csd, x)
    assert np.allclose(out[:, 0], [1.0, 2 * 0.921875, (1 + 1j) * 0.921875])


def test_zero_row_rejected():
    with pytest.raises(ValueError):
        compile_stages([np.array([[1, 0], [0, 0]])], 2)


def test_opcount_algebra():
    a = OpCount(1, 2, 3)
    assert a + OpCount(10, 0, 1) == OpCount(11, 2, 4)
    assert 3 * a == OpCount(3, 6, 9)
    assert a.as_tuple() == (1, 2, 3)

