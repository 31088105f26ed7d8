"""Metric arithmetic of the benchmark: percentiles, self time and ratios.

Kept free of any pfadft import so the self-tests in ``test_metrics.py``
exercise it alone.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie above a reported percentile (choosing-metrics rule)
MIN_BEYOND = 10


def samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose nearest-rank q-th percentile has at least
    ``min_beyond`` samples ranked above it."""
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    n = 1
    while n - math.ceil(q * n / 100) < min_beyond:
        n += 1
    return n


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-th percentile of ``values``.

    Raises ValueError when fewer than ``min_beyond`` samples rank above it,
    so a run too short to support the percentile fails instead of
    reporting a maximum under another name.
    """
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    rank = max(1, math.ceil(q * len(data) / 100))
    beyond = len(data) - rank
    if beyond < min_beyond:
        raise ValueError(f"p{q:g} of {len(data)} samples has {beyond} beyond it, "
                         f"need {min_beyond}")
    return data[rank - 1]


def median(values) -> float:
    data = list(values)
    if not data:
        raise ValueError("no samples")
    return statistics.median(data)


def ratio(numerator: float, base: float) -> dict:
    """A ratio reported together with its base."""
    if base == 0:
        raise ValueError("ratio with a zero base")
    return {"value": numerator / base, "numerator": numerator, "base": base}


def self_times(spans) -> dict:
    """Self time of every span: its duration minus its children's durations.

    ``spans`` are mappings with ``id``, ``parent``, ``start`` and ``end``.
    A child is any span naming the parent's id; the benchmark attributes
    separately timed calls (leaf kernels, scale assembly) to the
    ``execute`` span they decompose, so children are subtracted by
    duration rather than by interval overlap.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (s["end"] - s["start"])
    return {s["id"]: (s["end"] - s["start"]) - child_time.get(s["id"], 0.0) for s in spans}
