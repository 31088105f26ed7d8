import sys
import threading

import numpy as np
import pytest

from pfadft import pfa, schedule
from pfadft.complexity import (COMPOSED_VARIANTS, REFERENCE_ROWS,
                               complexity_report, count_plan, ground_report)
from pfadft.pfa import Leaf, execute, instrumented_count, plan
from pfadft.schedule import Metered, OpCount, metered

GROUND_EXPECTED = {
    (3, "approx", "none"): (0, 12, 2),
    (3, "approx", "exact"): (4, 12, 2),
    (3, "approx", "csd"): (0, 20, 10),
    (11, "approx", "none"): (0, 130, 40),
    (11, "approx", "exact"): (20, 130, 40),
    (11, "approx", "csd"): (0, 170, 80),
    (31, "approx", "none"): (0, 900, 300),
    (31, "approx", "exact"): (60, 900, 300),
    (31, "approx", "csd"): (0, 1020, 420),
    (3, "exact", "none"): (2, 12, 2),
    (11, "exact", "none"): (100, 140, 0),
    (31, "exact", "none"): (900, 1020, 0),
    (3, "definition", "none"): (12, 24, 0),
    (11, "definition", "none"): (300, 520, 0),
    (31, "definition", "none"): (2700, 4560, 0),
}

# one-leaf plan variant of each ground (kernel kind, scale mode)
GROUND_VARIANT = {
    ("approx", "none"): "unscaled",
    ("approx", "exact"): "scaled",
    ("approx", "csd"): "csd",
    ("exact", "none"): "exact",
    ("definition", "none"): "exact-definition",
}

COMPOSED_EXPECTED = {
    "exact-definition": (121092, 207024, 0),
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


class TestKernelCounts:
    @pytest.mark.parametrize("key", sorted(GROUND_EXPECTED, key=str))
    def test_static(self, key):
        n, kind, scale = key
        assert count_plan(plan(n, GROUND_VARIANT[kind, scale])).as_tuple() == GROUND_EXPECTED[key]

    @pytest.mark.parametrize("key", sorted(GROUND_EXPECTED, key=str))
    def test_instrumented_equals_static(self, key):
        n, kind, scale = key
        got = instrumented_count(plan(n, GROUND_VARIANT[kind, scale]))
        assert got.as_tuple() == GROUND_EXPECTED[key]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Leaf(3, "mystery")


class TestPlanCounts:
    @pytest.mark.parametrize("variant", sorted(COMPOSED_EXPECTED))
    def test_static(self, variant):
        assert count_plan(plan(1023, variant)).as_tuple() == COMPOSED_EXPECTED[variant]

    def test_composition_is_additive(self):
        # leaf calls: 33 x 31-point, 93 x 11-point, 341 x 3-point, plus scale
        total = (33 * count_plan(plan(31, "unscaled")) + 93 * count_plan(plan(11, "unscaled"))
                 + 341 * count_plan(plan(3, "unscaled")))
        assert count_plan(plan(1023, "unscaled")) == total

    def test_trivial_length(self):
        assert count_plan(plan(1, "exact")).as_tuple() == (0, 0, 0)


class TestReports:
    def test_ground_report_rows(self):
        rows = {r.label: r.count.as_tuple() for r in ground_report()}
        assert rows["T*_3"] == (0, 12, 2)
        assert rows["F'_31"] == (0, 1020, 420)
        assert rows["F_11 (fast)"] == (100, 140, 0)

    def test_composed_report_covers_all_variants(self):
        from pfadft.complexity import composed_report
        rows = composed_report()
        assert len(rows) == len(COMPOSED_VARIANTS)
        by_label = {r.label: r.count.as_tuple() for r in rows}
        assert by_label["F'_1023"] == (0, 49970, 18390)
        assert by_label["T*_1023"] == (0, 45882, 14302)

    def test_reference_rows_are_flagged(self):
        report = complexity_report()
        refs = [r for r in report if r.source == "reference"]
        assert {r.label for r in refs} == {r.label for r in REFERENCE_ROWS}
        by_label = {r.label: r.count for r in refs}
        assert by_label["F_1024 (radix-2)"] == OpCount(10248, 30728, 0)
        computed = [r for r in report if r.source == "computed"]
        assert len(computed) == 15 + len(COMPOSED_VARIANTS)


# ---------------------------------------------------------------------------
# metered runs replay the tree's kept program

REPLAY_PLANS = [f"1023/{v}" for v, _ in COMPOSED_VARIANTS] + [
    f"{n}/{v}" for n in (3, 11, 31)
    for v in ("exact-definition", "exact", "unscaled", "scaled", "csd")]


def _plan(name):
    n, variant = name.split("/")
    return plan(int(n), variant)


def _signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("name", REPLAY_PLANS)
def test_repeated_instrumented_counts_between_plain_runs(name):
    # every call after the first replays the metered calls a program keeps,
    # and each must charge one run, not what earlier runs charged
    p = _plan(name)
    x = _signal(p.n, 3)
    for _ in range(3):
        execute(p, x)
        assert instrumented_count(p) == count_plan(p)
        execute(p, x[:, None])


def _counting_binds(monkeypatch):
    """Record the slot array of every ``schedule._bind`` call, from an empty program store."""
    binds = []
    real = schedule._bind
    monkeypatch.setattr(schedule, "_bind", lambda cw, S: (binds.append(S), real(cw, S))[1])
    monkeypatch.setattr(pfa, "_PROGRAMS", {})
    return binds


@pytest.mark.parametrize("metered_first", [False, True], ids=["plain-first", "metered-first"])
def test_replays_of_either_kind_bind_nothing(metered_first, monkeypatch):
    p = plan(1023, "hybrid-VI-csd")
    x = _signal(p.n, 4)
    binds = _counting_binds(monkeypatch)
    runs = [lambda: execute(p, metered(x)), lambda: execute(p, x)]
    for run in runs if metered_first else runs[::-1]:
        run()
    assert len(binds) == 2 * 3  # each kind binds the three levels once
    del binds[:]
    for _ in range(3):
        for run in runs:
            run()
        assert instrumented_count(p) == count_plan(p)
    assert binds == []


def _root(a):
    while a.base is not None:
        a = a.base
    return a


def test_plain_and_metered_runs_share_the_slot_arrays(monkeypatch):
    # one program per (tree, width) serves both kinds of run: the metered
    # calls are bound to Metered views of the plain run's slot arrays
    p = plan(1023, "csd")
    x = _signal(p.n, 5)
    binds = _counting_binds(monkeypatch)
    execute(p, x)
    execute(p, metered(x))
    plain, meter = binds[:3], binds[3:]
    assert [type(S) for S in binds] == [np.ndarray] * 3 + [Metered] * 3
    assert all(_root(m) is S for S, m in zip(plain, meter))
    assert pfa._PROGRAMS[p.tree][1].steps[0][1] is plain[0]


def test_metered_output_charges_the_callers_tally():
    p = plan(1023, "csd")
    x = _signal(p.n, 6)
    instrumented_count(p)  # the tree's program holds metered calls
    m = metered(x)
    out = execute(p, m)
    assert type(out) is Metered and out.tally is m.tally
    assert m.op_count() == count_plan(p)
    before = m.op_count()
    out * 0.5
    out + out
    assert m.op_count() == before + OpCount(0, 2 * p.n, 2 * p.n)
    # a later run on another signal leaves the first caller's tally alone
    assert execute(p, metered(x)).tally is not m.tally
    assert m.op_count() == before + OpCount(0, 2 * p.n, 2 * p.n)


def test_threads_running_instrumented_count_at_once():
    # a run pops its tree's program, so threads never share its tally
    plans = [plan(1023, v) for v in ("csd", "hybrid-VI-csd", "exact")] + [plan(31, "csd")]
    want = [count_plan(p) for p in plans]
    wrong = []

    def run(k):
        for _ in range(15):
            for p, w in zip(plans[k:] + plans[:k], want[k:] + want[:k]):
                got = instrumented_count(p)
                if got != w:
                    wrong.append((k, p.n, got))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k % 2,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
