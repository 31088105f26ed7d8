"""Host-speed calibration of the end-to-end timings.

Shared hosts change speed under the benchmark. On the 2-vCPU KVM Intel
Xeon the benchmark was written on, interpreter-bound work ran up to 1.7x
slower for tens of seconds at a time, in CPU time as in wall time, and
array work up to 1.4x. Each vCPU drifts on its own, and pinning does not
help. A median over a whole run then follows the host rather than the
program.

A fixed calibration loop of the same kind of work, timed right before and
right after each measured call, follows the host instead. Over minutes in
which either time alone moved by 40-70 %, the ratio of a call's time to the
calibration time next to it moved by 1-5 %. So each end-to-end time is
reported as

    wall time x REFERENCE_S / calibration time,

the call's time on a host whose calibration loop takes ``REFERENCE_S``.
That is about what the loop took on the machine above when it ran fast.
The raw wall-clock figures go into the run's record line next to them.

The loops run only the interpreter and numpy's own FFT, never pfadft, so
no change to pfadft can move them.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

#: the array loop's blocks: 1023-point columns, as the workloads use
FFT_SHAPE = (1023, 128)
GATHER_SHAPE = (1023, 256)


def interp_loop(_=None):
    """Interpreter-bound work: integer arithmetic, calls and dict stores."""
    table = {}
    s = 0
    for i in range(1, 12000):
        s = (s * 31 + i) % 1000003
        table[i & 255] = s
    return s


def array_loop(a):
    """Array-bound work of two kinds a block execute does, about half of
    the time each: FFT arithmetic on columns, and a permuting row gather
    plus a transpose. Outputs are preallocated, so no page faults are
    timed. Either half alone tracked block execute() about half as well as
    both. Adds of long (33 x 1024) rows were left out: their time depended
    on where the process's arrays landed in memory, by up to 35 %."""
    np.fft.fft(a["block"], axis=0, out=a["spectrum"])
    np.take(a["source"], a["perm"], axis=0, out=a["gathered"])
    a["transposed"][...] = a["gathered"].T


def array_data() -> dict:
    rng = np.random.default_rng(0)

    def cplx(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    block, source = cplx(FFT_SHAPE), cplx(GATHER_SHAPE)
    return {"block": block, "spectrum": np.empty_like(block),
            "source": source, "perm": rng.permutation(GATHER_SHAPE[0]),
            "gathered": np.empty_like(source), "transposed": np.empty(source.T.shape, complex)}


#: kind -> (loop, reference seconds of one loop)
LOOPS = {"interp": (interp_loop, 1.25e-3), "array": (array_loop, 5.0e-3)}


class Calibration:
    """One kind of calibration loop and the times it took."""

    def __init__(self, kind: str):
        self.kind = kind
        self._loop, self.reference_s = LOOPS[kind]
        self._arg = array_data() if kind == "array" else None
        self.loop_s = []               # every calibration time, for the record

    def measure(self) -> float:
        """Seconds of one timed pass. An untimed pass first refills the
        caches the measured call left behind, so that the timed pass
        depends on the host, not on what pfadft did to the caches."""
        self._loop(self._arg)
        t0 = time.perf_counter()
        self._loop(self._arg)
        dt = time.perf_counter() - t0
        self.loop_s.append(dt)
        return dt


class CalibratedClock:
    """Times calls between two calibration runs of a chosen kind.

    A call's calibrated time is ``wall x REFERENCE_S / mean(before, after)``
    with the calibration times measured just before and just after it. The
    run after one call is the run before the next call of the same kind.
    """

    def __init__(self, kinds):
        self.cals = {k: Calibration(k) for k in kinds}
        self._last = None              # (kind, seconds) of the latest calibration run

    def time(self, kind: str, fn, *args):
        """Run ``fn(*args)``; returns (result, wall seconds, calibrated seconds)."""
        cal = self.cals[kind]
        before = self._last[1] if self._last and self._last[0] == kind else cal.measure()
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        after = cal.measure()
        self._last = (kind, after)
        return out, wall, wall * cal.reference_s * 2 / (before + after)

    def record(self) -> dict:
        return {k: {"reference_ms": 1e3 * c.reference_s, "median_ms": 1e3 * median(c.loop_s),
                    "runs": len(c.loop_s)} for k, c in self.cals.items() if c.loop_s}
