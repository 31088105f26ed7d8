import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import zero_sign_blocks
from pfadft import schedule
from pfadft.complexity import COMPOSED_VARIANTS
from pfadft.design import AssembledScale
from pfadft.dyadic import _all_codes
from pfadft.exactdft import a_stage_matrix, derive_core, dft_matrix
from pfadft.kernels import approx_dense_schedule, factorization, kernel
from pfadft.pfa import Leaf, assemble_scale, leaf_schedule, plan
from pfadft.schedule import (ADD, CP, MUL, MULCC, SUB, TILE, WAVE_COLUMNS, Metered, Op,
                             OpCount, Schedule, _classify, _naf_weight, _np_mulcc,
                             compile_stages, metered, run_numpy)


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
    assert sched.static_count == OpCount(2, 6, 2)


def test_low_complexity_entry_cost():
    M = np.array([[-0.5 - 1j]])
    sched = compile_stages([M], 1)
    assert sched.static_count == OpCount(0, 2, 2)
    out = run_numpy(sched, np.array([[1.0 + 2.0j]]))
    assert out[0, 0] == (1 + 2j) * (-0.5 - 1j)


def test_general_complex_entry_cost():
    M = np.array([[0.8 - 0.6j]])
    sched = compile_stages([M], 1)
    assert sched.static_count == OpCount(3, 3, 0)


def test_counting_executor_matches_static(rng):
    # the counting run is the executor itself on a metered block
    stages = _random_stages(rng)
    sched = compile_stages(stages, 3)
    x = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    m = metered(x)
    out = run_numpy(sched, m)
    assert type(out) is Metered
    assert m.op_count() == sched.static_count
    assert out.tobytes() == run_numpy(sched, x).tobytes()
    assert np.allclose(out, stages[1] @ (stages[0] @ x), atol=1e-14)


def test_scale_schedule_costs():
    # sqrt(6/7) has the 3-digit code 119/128 = 1 - 1/16 - 1/128
    eta = Fraction(6, 7)
    assert (AssembledScale((Fraction(1), Fraction(81, 100), Fraction(81, 100)), "exact")
            .op_count() == OpCount(4, 0, 0))
    csd = AssembledScale((Fraction(1), eta, eta), "csd")
    assert csd.values().tolist() == [1.0, 119 / 128, 119 / 128]
    assert csd.op_count() == OpCount(0, 8, 8)
    assert AssembledScale((Fraction(1),) * 2, "csd").op_count() == OpCount()
    # the meter charges the in-place scale by its values what the scale folds
    for sc in (csd, AssembledScale((Fraction(1), eta, eta), "exact")):
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
        p, q = op.c.real, op.c.imag
        if op.code == CP:
            np.copyto(out, a) if p > 0 else np.negative(a, out=out)
        elif op.code in (ADD, SUB):
            (np.add if op.code == ADD else np.subtract)(a, slots[op.src2], out=out)
        elif op.code == MULCC:
            np.add(a.real * p - a.imag * q, 1j * (a.real * q + a.imag * p), out=out)
        else:
            np.multiply(a, op.c, out=out)
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


@pytest.mark.parametrize("width", sorted({1, 33, WAVE_COLUMNS, WAVE_COLUMNS + 1,
                                            1024, 1025, TILE + 7}))
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_executor_is_bit_identical_to_per_op_loop(name, width):
    sched = SCHEDULES[name]()
    x = _awkward_block(np.random.default_rng(width), sched.n_in, width)
    assert run_numpy(sched, x).tobytes() == _per_op_oracle(sched, x).tobytes()
    # a real block keeps its signed zeros when cast to complex128
    real = np.ascontiguousarray(x.real)
    want = _per_op_oracle(sched, real.astype(np.complex128))
    assert run_numpy(sched, real).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# copy propagation: the forms against the stage sums, zero signs included

def _stages(name):
    """The stage matrices a named leaf schedule is compiled from: an
    approximate leaf's core C as the real core C' = C.real + C.imag and
    J = diag(1, ..., 1, j, ..., j), so C = J C'."""
    n, kind = name.split("-")
    n = int(n)
    if kind == "definition":
        return [dft_matrix(n)]
    A = a_stage_matrix(n)
    if kind == "exact":
        return [A, derive_core(dft_matrix(n)), A.T]
    core, h = factorization(n).core, (n - 1) // 2
    return [A, core.real + core.imag, np.diag([1.0] * (h + 1) + [1j] * h), A.T]


def _stage_sums(stages, x):
    """Each stage row summed left to right, one numpy call per term: +-1
    terms as copies, negations, adds and subtracts, other terms as products
    with the entry's constant: complex(r, +0.0) for a real entry r, 1j * im
    for an imaginary one. These are the operations a schedule ran before
    copies were propagated, so a propagated schedule must match them bit for
    bit."""
    def const(z):
        if z.imag == 0:
            return complex(z.real, 0.0)
        return 1j * z.imag if z.real == 0 else complex(z)

    for M in stages:
        rows = []
        for r in range(M.shape[0]):
            acc = None
            for j in np.flatnonzero(M[r]):
                z = complex(M[r, j])
                if z in (1, -1):
                    if acc is None:
                        acc = x[j].copy() if z == 1 else np.negative(x[j])
                    else:
                        acc = acc + x[j] if z == 1 else acc - x[j]
                    continue
                t = np.empty_like(x[j])
                if _classify(z)[0] == MULCC:
                    _np_mulcc(t, x[j], None, z)
                else:
                    np.multiply(x[j], const(z), out=t)
                acc = t if acc is None else acc + t
            rows.append(acc)
        x = np.array(rows)
    return x


def _tiled(sched, x3):
    """The op-by-op tile form's output for an (n_in, rows, B) block."""
    out = np.empty((sched.n_out,) + x3.shape[1:], dtype=np.complex128)

    def write(r, b, y):
        out[:, r, b] = y
    schedule._run_tiles(sched, x3, write)
    return out.reshape(sched.n_out, -1)


@pytest.mark.parametrize("rows,B,tiles", [
    (3, 1500, [(0, 2, 0, 1500), (2, 3, 0, 1500)]),
    (2, TILE + 5, [(0, 1, 0, TILE), (0, 1, TILE, TILE + 5), (1, 2, 0, TILE),
                   (1, 2, TILE, TILE + 5)]),
], ids=["whole-rows", "split-rows"])
def test_tiles_take_whole_batch_rows_or_split_long_ones(rows, B, tiles):
    sched = SCHEDULES["3-approx"]()
    x = _awkward_block(np.random.default_rng(B), 3, rows * B).reshape(3, rows, B)
    seen = []

    def write(r, b, y):
        assert y.shape == (sched.n_out, r.stop - r.start, b.stop - b.start)
        seen.append((r.start, r.stop, b.start, b.stop))
    schedule._run_tiles(sched, x, write)
    assert seen == tiles
    assert _tiled(sched, x).tobytes() == _per_op_oracle(sched, x.reshape(3, -1)).tobytes()


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_forms_match_stage_sums_on_zero_signs(name):
    sched = SCHEDULES[name]()
    for kind, x in zero_sign_blocks(np.random.default_rng(3), sched.n_in, 24).items():
        want = _stage_sums(_stages(name), x).tobytes()
        assert schedule._run_waves(sched.waves, x).tobytes() == want, kind
        assert _tiled(sched, x.reshape(sched.n_in, 4, 6)).tobytes() == want, kind
        assert _per_op_oracle(sched, x).tobytes() == want, kind


#: (ops, waves) of each leaf schedule, with copies propagated
PROPAGATED = {
    "3-approx": (9, 8), "11-approx": (91, 20), "31-approx": (616, 36),
    "3-exact": (9, 8), "11-exact": (121, 12), "31-exact": (961, 22),
    "3-definition": (10, 4), "11-definition": (210, 12), "31-definition": (1830, 32),
}

STATIC = {
    "3-approx": (0, 12, 2), "11-approx": (0, 130, 40), "31-approx": (0, 900, 300),
    "3-exact": (2, 12, 2), "11-exact": (100, 140, 0), "31-exact": (900, 1020, 0),
    "3-definition": (12, 24, 0), "11-definition": (300, 520, 0),
    "31-definition": (2700, 4560, 0),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_propagated_op_and_wave_counts(name):
    sched = SCHEDULES[name]()
    assert (len(sched.ops), len(sched.waves.waves)) == PROPAGATED[name]
    assert sched.static_count.as_tuple() == STATIC[name]
    m = metered(np.ones((sched.n_in, 1)))
    run_numpy(sched, m)
    assert m.op_count() == sched.static_count


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_only_materialized_copies_remain(name):
    sched = SCHEDULES[name]()
    outputs = range(sched.out_base, sched.out_base + sched.n_out)
    for op, after in zip(sched.ops, sched.ops[1:] + (None,)):
        if op.code == CP:
            # an output, or the -a of -a - b, which the next op subtracts from
            assert op.dst in outputs or (
                op.c.real < 0 and (after.code, after.dst, after.src1) == (SUB, op.dst, op.dst))


def test_negations_fold_into_their_consumers():
    # stage 1 negates x0 and x1 and copies x2; stage 2 consumes the aliases
    s1 = np.diag([-1, -1, 1])
    s2 = np.array([
        [0.5, 0, 0], [0, 0.3, 0], [1j, 0, 0], [0, -0.5 + 1j, 0], [0.8 - 0.6j, 0, 0],
        [0, -0.5j, 0], [0, 0.7j, 0],
        [1, 1, 0],      # -x0 + -x1: -x0 made real, then a subtract
        [1, -1, 0],     # -x0 - -x1 = x1 - x0
        [-1, 0, 1],     # x0 + x2
        [0, 1, 1],      # -x1 + x2 = x2 - x1
        [0, 0, -1],     # an output alias -x2, made real
        [0.5, 1, 0], [0, 1, 0.5],
    ])
    sched = compile_stages([s1, s2], 3)
    assert [op.code for op in sched.ops] == [
        MUL, MUL, MUL, MUL, MULCC, MUL, MUL, CP, SUB, SUB, ADD, SUB, CP, MUL, SUB, MUL, SUB]
    # a constant product of a negation flips both parts of its constant
    assert [(op.c.real, math.copysign(1, op.c.imag)) for op in sched.ops[:2]] == [
        (-0.5, -1), (-0.3, -1)]
    assert sched.ops[4].c == complex(-0.8, 0.6)
    assert sched.static_count == OpCount(7, 17, 10)
    for kind, x in zero_sign_blocks(np.random.default_rng(5), 3, 40).items():
        x[:, ::3] = _awkward_block(np.random.default_rng(6), 3, 40)[:, ::3]
        want = _stage_sums([s1, s2], x).tobytes()
        assert run_numpy(sched, x).tobytes() == want, kind
        assert _per_op_oracle(sched, x).tobytes() == want, kind
        assert _tiled(sched, x[:, None, :]).tobytes() == want, kind


def _per_entry_compile(stages, n):
    """``compile_stages`` with every entry of every stage classified one by
    one, zeros included, by a scalar loop over its row."""
    ops, alias, base, width, scratch, n_slots = [], {}, 0, n, n, n + 1
    for s, M in enumerate(stages):
        M = np.asarray(M)
        rows, cols = M.shape
        out_base = n_slots
        n_slots += rows
        for r in range(rows):
            terms = []
            for j in range(cols):
                cls = _classify(M[r, j])
                if cls is not None:
                    terms.append((j, cls))
            dst = out_base + r
            for k, (j, (code, c)) in enumerate(terms):
                src, sign = alias.get(base + j, (base + j, 1.0))
                if code == CP:
                    sign *= c
                else:
                    term = dst if k == 0 else scratch
                    ops.append(Op(code, term, src, -1, -c if sign < 0 else c))
                    src, sign = term, 1.0
                if k == 0:
                    if code == CP:
                        alias[dst] = (src, sign)
                    continue
                acc, acc_sign = alias.pop(dst, (dst, 1.0))
                if acc_sign < 0 and sign < 0:
                    ops.append(Op(CP, dst, acc, -1, -1.0))
                    acc, acc_sign = dst, 1.0
                if acc_sign > 0:
                    ops.append(Op(ADD if sign > 0 else SUB, dst, acc, src))
                else:
                    ops.append(Op(SUB, dst, src, acc))
            if s == len(stages) - 1 and dst in alias:
                src, sign = alias.pop(dst)
                ops.append(Op(CP, dst, src, -1, sign))
        base = out_base
        width = rows
    return Schedule(tuple(ops), n, width, base, n_slots)


def _op_stream(sched):
    """Each op as (code, dst, src1, src2, constant bytes), zero signs included."""
    return [(op.code, op.dst, op.src1, op.src2, np.complex128(op.c).tobytes())
            for op in sched.ops]


#: the stage matrices of every leaf schedule and dense approximate kernel
COMPILED_STAGES = {**{name: (lambda name=name: _stages(name)) for name in SCHEDULES},
                   **{f"{n}-dense": (lambda n=n: [kernel(n)]) for n in (3, 11, 31)},
                   "random": lambda: _random_stages(None),
                   "negations": lambda: [np.diag([-1, -1, 1]), np.array([
                       [1, 1, 0], [1, -1, 0], [-1, 0, 1], [0, 1, 1], [0, 0, -1],
                       [0.5, 1, 0], [0, -0.5j, 0], [0.8 - 0.6j, 0, 0]])]}


@pytest.mark.parametrize("name", sorted(COMPILED_STAGES))
def test_compiler_emits_the_per_entry_ops(name):
    stages = COMPILED_STAGES[name]()
    n = np.asarray(stages[0]).shape[1]
    sched, want = compile_stages(stages, n), _per_entry_compile(stages, n)
    assert _op_stream(sched) == _op_stream(want)
    assert ((sched.n_in, sched.n_out, sched.out_base, sched.n_slots)
            == (want.n_in, want.n_out, want.out_base, want.n_slots))
    if name in SCHEDULES:
        assert _op_stream(SCHEDULES[name]()) == _op_stream(want)
    elif name.endswith("-dense"):
        assert _op_stream(approx_dense_schedule(n)) == _op_stream(want)


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_compiled_waves_cover_ops_in_dependency_order(name):
    sched = SCHEDULES[name]()
    cw = sched.waves
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
                         (definition31, 33), (definition31, 256),
                         (definition31, WAVE_COLUMNS)):
        run_numpy(sched, np.ones((sched.n_in, width), dtype=np.complex128))
    # the 1861 wave rows of the 31-point definition leaf run as waves up to
    # the measured crossover, about 281 columns, and as tiles beyond it
    assert calls == ["_run_waves", "_run_tiles", "_run_waves", "_run_waves", "_run_tiles"]
    # a 512-point definition leaf has 523 265 wave rows, each op a numpy call
    # per tile: its waves stay as wide as one tile's slot array, 8 columns,
    # where they take 0.14 s against 3.2 s as tiles (compiled uncached here,
    # and neither form run nor its waves compiled: the choice reads op counts)
    definition512 = compile_stages([dft_matrix(512)], 512)
    definition512.__dict__["waves"] = None
    monkeypatch.setattr(schedule, "_run_waves", lambda waves, x: (
        calls.append("_run_waves"), np.zeros_like(x))[1])
    monkeypatch.setattr(schedule, "_run_tiles", lambda *a: calls.append("_run_tiles"))
    for width in (8, 9):
        run_numpy(definition512, np.ones((512, width), dtype=np.complex128))
    assert calls[5:] == ["_run_waves", "_run_tiles"]


def test_wave_reads_take_descending_progressions_as_slices():
    rows = np.arange(40)
    for idx, want in (([30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16],
                       slice(30, 15, -1)),
                      ([10, 9, 8, 7, 6], slice(10, 5, -1)), ([3, 2, 1, 0], slice(3, None, -1)),
                      ([4, 7, 10], slice(4, 11, 3)), ([5], slice(5, 6, 1))):
        assert schedule._rows(idx) == want
        assert rows[want].tolist() == idx
    # a repeated row stays an index read, gathered with its level's others
    assert schedule._rows([4, 4, 4]).tolist() == [4, 4, 4]


#: most numpy calls of one bound wave program: one per wave, plus one
#: gather per dependency level that reads any operand by index array
CALL_BUDGET = {"31-approx": 51, "11-approx": 27, "3-approx": 8}


def _is_take(fn):
    """Whether a bound callable is an ndarray's own ``take``."""
    return getattr(fn, "__name__", None) == "take" and isinstance(
        getattr(fn, "__self__", None), np.ndarray)


@pytest.mark.parametrize("name", sorted(CALL_BUDGET))
def test_bound_wave_program_stays_within_its_call_budget(name):
    cw = SCHEDULES[name]().waves
    calls = schedule._bind(cw, np.empty((cw.n_rows + cw.n_stage, 33), dtype=np.complex128))
    assert len(calls) <= CALL_BUDGET[name]
    gathers = sum(_is_take(fn) for fn, _ in calls)
    assert len(calls) - gathers == len(cw.waves) == PROPAGATED[name][1]


#: rows the gathers of one bound wave program copy, which the call budget
#: alone would not bound
GATHERED_ROWS = {"31-approx": 1005, "11-approx": 120, "3-approx": 0}


@pytest.mark.parametrize("name", sorted(GATHERED_ROWS))
def test_bound_wave_program_gathers_its_pinned_rows(name):
    cw = SCHEDULES[name]().waves
    calls = schedule._bind(cw, np.empty((cw.n_rows + cw.n_stage, 33), dtype=np.complex128))
    gathers = [args for fn, args in calls if _is_take(fn)]
    assert all(out.shape == (len(rows), 33) for rows, _, out, _ in gathers)
    assert sum(len(rows) for rows, *_ in gathers) == GATHERED_ROWS[name]


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_bound_calls_are_direct_numpy_calls(name):
    # every bound call is a ufunc or an ndarray's take, called on its
    # arguments with the output by position; MULCC's spelled-out product is
    # the one Python-level function. A kept binding (plain, at most
    # _SPARE_ELEMENTS) multiplies by each MUL wave's constants widened to a
    # C-contiguous, read-only block, which kept bindings at one width share;
    # a metered binding keeps the constant column
    cw = SCHEDULES[name]().waves
    width = 3
    kept = [[args[1] for fn, args in schedule._bind(cw, np.empty(
        (cw.n_rows + cw.n_stage, width), dtype=np.complex128)) if fn is np.multiply]
        for _ in range(2)]
    assert all(a is b for a, b in zip(*kept))
    for S, widened in ((np.empty((cw.n_rows + cw.n_stage, width), dtype=np.complex128), True),
                       (metered(np.empty((cw.n_rows + cw.n_stage, width))), False)):
        calls = schedule._bind(cw, S)
        for fn, args in calls:
            assert isinstance(fn, np.ufunc) or _is_take(fn) or fn is _np_mulcc, fn
        products = [args for fn, args in calls if fn is np.multiply]
        assert len(products) == sum(w.code == MUL for w in cw.waves)
        for (a, c, out), w in zip(products, [w for w in cw.waves if w.code == MUL]):
            assert c.shape == ((len(w.ops), width) if widened else (len(w.ops), 1))
            assert c.flags.c_contiguous and (c == w.const).all()
            assert c.flags.writeable != widened
            assert out.shape == (len(w.ops), width)


def test_wave_runs_at_every_width_match_the_per_op_loop():
    # every width binds its own slot array; a metered block too, whose views
    # carry its tally
    sched = SCHEDULES["31-approx"]()
    rng = np.random.default_rng(8)
    for width in range(1, 41):
        x = _awkward_block(rng, sched.n_in, width)
        assert run_numpy(sched, x).tobytes() == _per_op_oracle(sched, x).tobytes(), width
    for width in (7, 40):
        x = _awkward_block(rng, sched.n_in, width)
        assert run_numpy(sched, metered(x)).tobytes() == _per_op_oracle(sched, x).tobytes()


def test_wave_compile_rejects_reads_before_writes():
    # slot 2 is written, but only after the op that reads it; the waves rename
    # each read to its latest write, so the schedule is refused when built
    with pytest.raises(ValueError, match="op 0 overwrites an input or reads an unwritten slot"):
        Schedule((Op(ADD, 3, 0, 2), Op(ADD, 2, 0, 1)), 2, 1, 4, 4)


@pytest.mark.parametrize("op", [Op(ADD, 3, 0, 2), Op(CP, 1, 0, -1, 1.0)],
                         ids=["unwritten-read", "input-write"])
def test_tile_form_rejects_unsafe_schedules(op):
    # the tile form reads input rows in place and never zeroes its slots, so
    # such a schedule is refused when built and never reaches run_numpy
    with pytest.raises(ValueError, match="overwrites an input or reads an unwritten slot"):
        Schedule((op,), 2, 1, 3, 4)


@pytest.mark.parametrize("name", ["3-approx", "11-approx", "31-approx"])
def test_approximate_mul_constants_are_halves_or_j(name):
    # the real core's products are by +-1/2, and J's by +-j, once per
    # imaginary row: no product by +-j/2 or a general constant remains
    sched = SCHEDULES[name]()
    products = [op.c for op in sched.ops if op.code in (MUL, MULCC)]
    assert products and all(c in (0.5, -0.5, 1j, -1j) for c in products), products
    assert {op.code for op in sched.ops} <= {CP, ADD, SUB, MUL}
    for w in sched.waves.waves:
        if w.code == MUL:
            want = np.array([sched.ops[i].c for i in w.ops], dtype=np.complex128)[:, None]
            assert w.const.tobytes() == want.tobytes()  # zero signs included


def _oracle_blocks(rng, n, width):
    """Random, real, imaginary, impulse, +-0, mixed, small-integer and
    10^+-300 blocks."""
    x = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    ints = rng.integers(-8, 9, (2, n, width))
    return {"random": x, **zero_sign_blocks(rng, n, width),
            "mixed": _awkward_block(rng, n, width), "integers": ints[0] + 1j * ints[1],
            "huge": x * 1e300, "tiny": x * 1e-300}


@pytest.mark.parametrize("width", [1, 2, 33, 341, 600])  # waves up to 512 columns, then tiles
@pytest.mark.parametrize("n", [3, 11, 31])
def test_approximate_leaves_equal_the_complex_core_form(n, width):
    # [A, C', J, A^T] against [A, C, A^T], which multiplied every term of the
    # imaginary block by its own +-j or +-j/2: j commutes with the row sums.
    # Only zero signs can tell them apart, where every term of a row is a
    # zero: -(a + b) is -0 for a = +0, b = -0, and (-a) + (-b) is +0. So a
    # block of random +-0 alone is compared by value; the 11-point leaf gives
    # some of its zero outputs the other sign, about 1 column in 450
    A = a_stage_matrix(n)
    complex_core = compile_stages([A, factorization(n).core, A.T], n)
    sched = leaf_schedule(Leaf(n, "approx"))
    assert schedule.as_waves(sched, width) == (width <= WAVE_COLUMNS)
    for kind, x in _oracle_blocks(np.random.default_rng(n * width), n, width).items():
        got, want = run_numpy(sched, x), run_numpy(complex_core, x)
        if kind == "zeros":
            assert np.array_equal(got, want) and not got.any()
        else:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), kind


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
    assert m.op_count() == 3 * OpCount(*charge) == 3 * sched.static_count
    assert out.tobytes() == run_numpy(sched, np.asarray(m)).tobytes()


@pytest.mark.parametrize("row,code", [([1, 1], ADD), ([1, -1], SUB)], ids=["ADD", "SUB"])
def test_meter_charges_complex_add_and_subtract(row, code):
    sched = compile_stages([np.array([row])], 2)
    assert [op.code for op in sched.ops] == [code]  # the leading copy is propagated
    m = metered(np.ones((2, 5)))
    run_numpy(sched, m)
    assert m.op_count() == OpCount(0, 10, 0)


@pytest.mark.parametrize("c,digits", [(0.921875, 3), (0.75, 2), (-0.75, 2), (1.5, 2), (0.25, 1)])
def test_meter_charges_csd_constants_by_their_digits(c, digits):
    # 0.921875 = 118/128 = 1 - 1/16 - 1/64; the opcode table prices a real
    # constant as 2 mults, the meter prices a dyadic one as its CSD expansion
    sched = compile_stages([np.array([[c]])], 1)
    assert sched.static_count == OpCount(2, 0, 0)
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


def test_in_place_metered_arithmetic_returns_the_operand():
    # the hook returns the caller's own out object, so m keeps its meter
    m = metered(np.ones((3, 2)))
    same = m
    m *= np.array([[0.5], [1.0], [0.25]])
    assert m is same and type(m) is Metered
    assert np.add(m, m, out=m) is m
    # 2 shifts for each of the two products by 1/2, 2 adds for each of the six sums
    assert m.op_count() == OpCount(0, 2 * 6, 2 * 2)


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
    assert m.op_count() == width * sched.static_count
    assert out.tobytes() == run_numpy(sched, x).tobytes()


# ---------------------------------------------------------------------------
# the meter's memoized product charges

def _unmemoized_charge(c):
    """The charge of one product by each value of c, summed over np.unique's counts."""
    values, reps = np.unique(np.asarray(c, dtype=np.complex128), return_counts=True)
    return OpCount(*(np.array([schedule._mul_charge(v) for v in values.tolist()]).T @ reps))


def _metered_product(c, width):
    """What the meter charges for one product of a (len(c), width) block by c."""
    m = metered(np.ones((np.size(c), width)))
    m * np.reshape(c, (-1, 1))
    return m.op_count()


def _mixed_constants(rng, size):
    """Random constants from every price class, zeros of both signs in either part."""
    classes = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               1, -1, 1j, -1j, complex(-0.0, 1), complex(1, -0.0), complex(-1, 0.0),
               0.5, -0.5, 0.5j, -0.5j, complex(-0.0, -0.5), complex(0.5, -0.0),
               *(p + 1j * q for p in (0.5, 1, -0.5, -1) for q in (0.5, 1, -0.5, -1)),
               119 / 128, -27 / 32, 0.75, 1.5, 0.3, -0.3j, 0.75j, 0.8 - 0.6j, -0.25 + 0.1j]
    return np.array(classes, dtype=np.complex128)[rng.integers(0, len(classes), size)]


def _memo_constants():
    """Every leaf schedule's MUL-wave constants, every 1023-point plan's
    scale and random constants mixing every price class."""
    consts = {f"{name}/wave{k}": w.const for name in sorted(SCHEDULES)
              for k, w in enumerate(SCHEDULES[name]().waves.waves) if w.code == MUL}
    for v, _ in COMPOSED_VARIANTS:
        p = plan(1023, v)
        if p.scale_mode != "none":
            consts[f"1023/{v}/scale"] = assemble_scale(p).values()
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 64, 1024):
        consts[f"random/{size}"] = _mixed_constants(rng, size)
    return consts


def test_memoized_charges_equal_the_unmemoized_formula():
    consts = _memo_constants()
    assert sum(k.endswith("/scale") for k in consts) == 14  # every 1023-point plan with a scale
    assert all(c.size <= schedule._MEMO_VALUES for c in consts.values())
    schedule._memo_charge.cache_clear()
    for width in (1, 5, 1, 5):  # cold, then from the memo
        for name, c in consts.items():
            assert _metered_product(c, width) == width * _unmemoized_charge(c), name
    assert schedule._memo_charge.cache_info().hits > 0
    # equal values held in different arrays, contiguous or strided, with any
    # zero signs, charge the same
    c = consts["random/64"]
    flipped = np.where(c == 0, np.copysign(0.0, -c.real) + 1j * np.copysign(0.0, -c.imag), c)
    for other in (c.copy(), np.repeat(c, 2)[::2], np.asfortranarray(c[:, None]), flipped):
        assert other is not c and (other.ravel() == c).all()
        assert _metered_product(other, 3) == _metered_product(c, 3) == 3 * _unmemoized_charge(c)


def test_memoized_charges_stay_within_their_bound():
    rng = np.random.default_rng(12)
    for k in range(3 * schedule._MEMO_CONSTANTS):
        c = _mixed_constants(rng, 1 + k % 40)
        assert _metered_product(c, 2) == 2 * _unmemoized_charge(c)
        assert schedule._memo_charge.cache_info().currsize <= schedule._MEMO_CONSTANTS
    assert schedule._memo_charge.cache_info().maxsize == schedule._MEMO_CONSTANTS
    # a constant of more values is charged from its values and never memoized
    large = _mixed_constants(rng, schedule._MEMO_VALUES + 1)
    before = schedule._memo_charge.cache_info()
    assert _metered_product(large, 2) == 2 * _unmemoized_charge(large)
    assert schedule._memo_charge.cache_info()[:2] == before[:2]


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_metered_runs_after_a_warm_memo_charge_the_static_count(name):
    sched = SCHEDULES[name]()
    rng = np.random.default_rng(13)
    for width in (1, 7, 33):  # the first run fills the memo for the others
        x = _awkward_block(rng, sched.n_in, width)
        m = metered(x)
        out = run_numpy(sched, m)
        assert m.op_count() == width * sched.static_count, width
        assert out.tobytes() == run_numpy(sched, x).tobytes()
