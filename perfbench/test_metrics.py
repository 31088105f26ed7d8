"""Self-tests of the benchmark's metric arithmetic.

Run with: python -m pytest perfbench/test_metrics.py
"""

import pytest

import calibrate
from metrics import percentile, ratio, samples_needed, self_times
import workloads
from workloads import bytes_moved, run_rounds, tree_shapes


def test_samples_needed_for_p90_with_ten_beyond():
    assert samples_needed(90) == 100
    assert samples_needed(50) == 20


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile(list(reversed(values)), 90) == 90


def test_percentile_requires_ten_samples_beyond():
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(99)), 90)
    assert percentile(list(range(99)), 90, min_beyond=0) == 89


def test_percentile_rejects_empty_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 100, min_beyond=0)


def test_ratio_keeps_its_base():
    r = ratio(3, 200)
    assert r == {"value": 0.015, "numerator": 3, "base": 200}
    assert ratio(0, 31)["value"] == 0.0
    with pytest.raises(ValueError):
        ratio(1, 0)


def test_self_time_subtracts_attributed_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},   # execute
        {"id": 1, "parent": 0, "start": 11.0, "end": 14.0},     # leaf, timed apart
        {"id": 2, "parent": 0, "start": 15.0, "end": 16.5},     # scale
        {"id": 3, "parent": None, "start": 20.0, "end": 21.0},  # unrelated probe
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert own[1] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_leaf_shapes_follow_the_plan_tree():
    assert tree_shapes([31, [11, 3]], 1) == [(3, 341), (11, 93), (31, 33)]
    assert tree_shapes([31, [11, 3]], 1024) == [(3, 341 * 1024), (11, 93 * 1024), (31, 33 * 1024)]


def test_bytes_moved_counts_four_passes_per_node():
    # one node of 1023 points and one of 33 points at batch 31: each moves
    # 1023 complex values per pass, read and written, plus two index arrays
    per_node_1023 = 4 * 2 * 1023 * 16 + 2 * 1023 * 8
    per_node_33 = 4 * 2 * 33 * 31 * 16 + 2 * 33 * 8
    assert bytes_moved([31, [11, 3]], 1) == per_node_1023 + per_node_33
    assert bytes_moved(31, 1) == 0


def test_run_rounds_spreads_side_calls_over_the_loop(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: clock[0])
    log = []

    def one_round():
        clock[0] += 1.0
        log.append("r")

    run_rounds(one_round, 9.0, lambda: True, lambda: log.append("s"), 3)
    assert "".join(log) == "srrrsrrrsrrr"


def test_run_rounds_runs_every_side_call_and_enough_rounds(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: clock[0])
    log = []

    def one_round():
        clock[0] += 1.0
        log.append("r")

    run_rounds(one_round, 0.0, lambda: log.count("r") >= 4, lambda: log.append("s"), 2)
    assert log.count("r") == 4 and log.count("s") == 2


def test_calibrated_time_uses_the_runs_before_and_after(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: clock[0])
    loop_times = iter([9.0, 0.002, 9.0, 0.004, 9.0, 0.001])   # untimed, timed pass pairs

    def loop(_):
        clock[0] += next(loop_times)

    def call():
        clock[0] += 0.5
        return "y"

    monkeypatch.setitem(calibrate.LOOPS, "interp", (loop, 0.003))
    timer = calibrate.CalibratedClock(["interp"])
    assert timer.time("interp", call) == ("y", pytest.approx(0.5), pytest.approx(0.5))
    # the run after the first call is the run before the second
    assert timer.time("interp", call) == ("y", pytest.approx(0.5), pytest.approx(0.6))
    assert timer.cals["interp"].loop_s == pytest.approx([0.002, 0.004, 0.001])
