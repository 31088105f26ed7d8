from fractions import Fraction

import numpy as np
import pytest

from pfadft import schedule
from pfadft.design import make_scale
from pfadft.dyadic import _all_codes
from pfadft.pfa import Leaf, leaf_schedule
from pfadft.schedule import (ADD, CP, HALF, JHALF, LC, MULCC, MULIM, MULJ, MULRE,
                             SUB, TILE, WAVE_COLUMNS, Metered, Op, OpCount, Schedule,
                             _naf_weight, compile_stages, metered, run_numpy)


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
    # the counting run is the executor itself on a metered block
    stages = _random_stages(rng)
    sched = compile_stages(stages, 3)
    x = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    m = metered(x)
    out = run_numpy(sched, m)
    assert type(out) is Metered
    assert m.op_count() == sched.static_count()
    assert out.tobytes() == run_numpy(sched, x).tobytes()
    assert np.allclose(out, stages[1] @ (stages[0] @ x), atol=1e-14)


def test_scale_schedule_costs():
    # sqrt(6/7) has the 3-digit code 119/128 = 1 - 1/16 - 1/128
    assert make_scale([1, 0.81, 0.81], "exact").op_count() == OpCount(4, 0, 0)
    csd = make_scale([1, Fraction(6, 7), Fraction(6, 7)], "csd")
    assert csd.values().tolist() == [1.0, 119 / 128, 119 / 128]
    assert csd.op_count() == OpCount(0, 8, 8)
    assert make_scale([1, 1], "csd").op_count() == OpCount()
    # the meter charges the in-place scale by its values what the scale folds
    for sc in (csd, make_scale([1, Fraction(6, 7), Fraction(6, 7)], "exact")):
        m = metered(np.ones((3, 2)))
        m *= sc.values()[:, None]
        assert m.op_count() == 2 * sc.op_count()


def test_zero_row_rejected():
    with pytest.raises(ValueError):
        compile_stages([np.array([[1, 0], [0, 0]])], 2)


def test_opcount_algebra():
    a = OpCount(1, 2, 3)
    assert a + OpCount(10, 0, 1) == OpCount(11, 2, 4)
    assert 3 * a == OpCount(3, 6, 9)
    assert a.as_tuple() == (1, 2, 3)


# ---------------------------------------------------------------------------
# the wave and tile forms against the plain per-op loop

def _per_op_oracle(sched, x):
    """One numpy call per op on a zeroed slot array of the full block."""
    slots = np.zeros((sched.n_slots, x.shape[1]), dtype=np.complex128)
    slots[: sched.n_in] = x
    for op in sched.ops:
        a, out = slots[op.src1], slots[op.dst]
        if op.code == CP:
            np.copyto(out, a) if op.p > 0 else np.negative(a, out=out)
        elif op.code in (ADD, SUB):
            (np.add if op.code == ADD else np.subtract)(a, slots[op.src2], out=out)
        elif op.code == MULCC:
            np.add(a.real * op.p - a.imag * op.q, 1j * (a.real * op.q + a.imag * op.p), out=out)
        else:
            c = {HALF: 0.5 * op.p, MULJ: 1j * op.p, JHALF: 0.5j * op.p, LC: complex(op.p, op.q),
                 MULRE: op.p, MULIM: 1j * op.p}[op.code]
            np.multiply(a, c, out=out)
    return slots[sched.out_base: sched.out_base + sched.n_out].copy()


SCHEDULES = {f"{n}-{kind}": (lambda n=n, kind=kind: leaf_schedule(Leaf(n, kind)))
             for n in (3, 11, 31) for kind in ("approx", "exact", "definition")}


def _awkward_block(rng, n, width):
    """Random complex block with signed zeros in either part and real columns."""
    x = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    x.imag[:, 1::4] = 0.0
    x[::2, 2::5] = complex(0.0, -0.0)
    x[1::2, 2::5] = complex(-0.0, 0.0)
    x[::3, 3::7] = complex(-0.0, -0.0)
    x.real[1::3, 4::7] = 0.0
    x.real[2::3, 4::7] = -0.0
    return x


@pytest.mark.parametrize("width", [1, 33, WAVE_COLUMNS, WAVE_COLUMNS + 1, TILE + 7])
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_executor_is_bit_identical_to_per_op_loop(name, width):
    sched = SCHEDULES[name]()
    x = _awkward_block(np.random.default_rng(width), sched.n_in, width)
    assert run_numpy(sched, x).tobytes() == _per_op_oracle(sched, x).tobytes()
    # a real block keeps its signed zeros when cast to complex128
    real = np.ascontiguousarray(x.real)
    want = _per_op_oracle(sched, real.astype(np.complex128))
    assert run_numpy(sched, real).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_compiled_waves_cover_ops_in_dependency_order(name):
    sched = SCHEDULES[name]()
    cw = sched.waves()
    assert sorted(i for w in cw.waves for i in w.ops) == list(range(len(sched.ops)))
    rows = np.arange(cw.n_rows)
    start = sched.n_in
    for w in cw.waves:
        # one opcode per wave, written to the next block of fresh rows
        assert {sched.ops[i].code for i in w.ops} == {w.code}
        assert (w.dst.start, w.dst.stop) == (start, start + len(w.ops))
        start = w.dst.stop
        # every row read was written by the input or an earlier wave
        for src in (w.src1, w.src2):
            if src is not None:
                assert len(rows[src]) == len(w.ops)
                assert rows[src].max() < w.dst.start
    assert start == cw.n_rows
    assert sorted(cw.out) == sorted(set(cw.out.tolist()))


def test_executor_form_follows_block_width(monkeypatch):
    calls = []
    for form in ("_run_waves", "_run_tiles"):
        real = getattr(schedule, form)
        monkeypatch.setattr(schedule, form, lambda *a, real=real, form=form: (
            calls.append(form), real(*a))[1])
    approx3 = leaf_schedule(Leaf(3, "approx"))
    definition31 = leaf_schedule(Leaf(31, "definition"))
    for sched, width in ((approx3, WAVE_COLUMNS), (approx3, WAVE_COLUMNS + 1),
                         (definition31, 33), (definition31, WAVE_COLUMNS)):
        run_numpy(sched, np.ones((sched.n_in, width), dtype=np.complex128))
    # a wave slot array never outgrows one tile of the op-by-op form
    assert calls == ["_run_waves", "_run_tiles", "_run_waves", "_run_tiles"]


def test_wave_compile_rejects_reads_before_writes():
    sched = Schedule((Op(ADD, 3, 0, 2),), 2, 1, 3, 4)
    with pytest.raises(ValueError, match="reads a slot"):
        sched.waves()


# ---------------------------------------------------------------------------
# the meter: one charge rule per one-op schedule

@pytest.mark.parametrize("entry,charge", [
    (1, (0, 0, 0)), (-1, (0, 0, 0)), (1j, (0, 0, 0)), (-1j, (0, 0, 0)),
    (0.5, (0, 0, 2)), (-0.5, (0, 0, 2)), (0.5j, (0, 0, 2)), (-0.5j, (0, 0, 2)),
    (1 - 1j, (0, 2, 0)), (-0.5 + 1j, (0, 2, 2)), (1 + 0.5j, (0, 2, 2)),
    (-0.5 - 0.5j, (0, 2, 4)),
    (0.3, (2, 0, 0)), (-0.3j, (2, 0, 0)), (0.75j, (2, 0, 0)),
    (0.8 - 0.6j, (3, 3, 0)),
], ids=["CP+1", "CP-1", "MULJ+j", "MULJ-j", "HALF+", "HALF-", "JHALF+", "JHALF-",
        "LC-1-1", "LC-half-1", "LC-1-half", "LC-half-half", "MULRE", "MULIM", "MULIM-dyadic",
        "MULCC"])
def test_meter_charges_each_opcode_as_its_static_cost(entry, charge):
    sched = compile_stages([np.array([[entry]])], 1)
    assert len(sched.ops) == 1
    m = metered(np.array([[1.5 - 2.0j, 0.25j, -3.0]]))
    out = run_numpy(sched, m)
    assert m.op_count() == 3 * OpCount(*charge) == 3 * sched.static_count()
    assert out.tobytes() == run_numpy(sched, np.asarray(m)).tobytes()


@pytest.mark.parametrize("row,code", [([1, 1], ADD), ([1, -1], SUB)], ids=["ADD", "SUB"])
def test_meter_charges_complex_add_and_subtract(row, code):
    sched = compile_stages([np.array([row])], 2)
    assert [op.code for op in sched.ops] == [CP, code]
    m = metered(np.ones((2, 5)))
    run_numpy(sched, m)
    assert m.op_count() == OpCount(0, 10, 0)


@pytest.mark.parametrize("c,digits", [(0.921875, 3), (0.75, 2), (-0.75, 2), (1.5, 2), (0.25, 1)])
def test_meter_charges_csd_constants_by_their_digits(c, digits):
    # 0.921875 = 118/128 = 1 - 1/16 - 1/64; the opcode table prices a real
    # constant as 2 mults, the meter prices a dyadic one as its CSD expansion
    sched = compile_stages([np.array([[c]])], 1)
    assert sched.static_count() == OpCount(2, 0, 0)
    m = metered(np.ones((1, 4)))
    run_numpy(sched, m)
    k = digits - 1
    assert m.op_count() == 4 * OpCount(0, 2 * k, 2 * k)


def test_naf_weight_is_the_csd_digit_count():
    for m, k, code in _all_codes(8, 7):
        assert _naf_weight(abs(m)) == k == code.nonzero_count


def test_meter_leaves_other_ufuncs_free():
    m = metered(np.arange(6.0).reshape(3, 2) - 2j)
    assert np.all(np.isfinite(m))
    np.negative(m, out=m)
    assert type(m[::2].take([0, 1], axis=0) * 0.3) is Metered
    assert m.op_count() == OpCount(2 * 4, 0, 0)  # only the product of 4 elements by 0.3
    with pytest.raises(TypeError, match="one constant operand"):
        m * m


@pytest.mark.parametrize("name", ["31-approx", "11-exact", "3-definition"])
def test_meter_counts_the_tiled_form(name, monkeypatch):
    sched = SCHEDULES[name]()
    width = WAVE_COLUMNS + 3
    calls = []
    real = schedule._run_tiles
    monkeypatch.setattr(schedule, "_run_tiles", lambda *a: (calls.append(1), real(*a))[1])
    x = _awkward_block(np.random.default_rng(7), sched.n_in, width)
    m = metered(x)
    out = run_numpy(sched, m)
    assert calls == [1] and type(out) is Metered
    assert m.op_count() == width * sched.static_count()
    assert out.tobytes() == run_numpy(sched, x).tobytes()
