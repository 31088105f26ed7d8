"""One fresh-interpreter sample, started by run.py as its own process.

Set-up mode times ``import pfadft`` through ``plan`` and the first
``execute`` of every variant the workload uses, on the workload's first
seeded input, as wall time and calibrated to the host's speed (see
``calibrate.py``). The outputs go back as digests; run.py verifies its own
outputs for the same inputs and checks that the digests match.

Cold mode (``--cold``) times first calls that fill pfadft's caches: the
exact leaf schedules (first ``fast_exact`` minus a second one), the kernel
factorizations and the CSD code table behind ``csd_encode``.

Usage: python3 perfbench/coldstart.py --root DIR --workload NAME --seed N [--cold]
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np  # imported before the clock, which starts at import pfadft

from api import Api, MissingHook
from calibrate import Calibration
from paperref import CSD_PROBE, N
from workloads import SPECS, Checks, digest, make_inputs

CAL_RUNS = 5   # calibration runs on each side of a set-up sample


def setup_sample(root, spec, seed):
    """Set-up wall time, and that time calibrated by the median of
    interpreter calibration runs just before and just after it (set-up is
    imports, planning and CSD encoding: interpreter-bound work)."""
    x0 = make_inputs(spec, seed, 1)[0]
    cal = Calibration("interp")
    loops = [cal.measure() for _ in range(CAL_RUNS)]
    t0 = time.perf_counter()
    api = Api(root)
    outputs = []
    for v in spec.variants:
        outputs.append(api.execute(api.plan(N, v), x0))
    setup_s = time.perf_counter() - t0
    loops += [cal.measure() for _ in range(CAL_RUNS)]
    return {"setup_s": setup_s * cal.reference_s / statistics.median(loops),
            "wall_setup_s": setup_s,
            "digests": {v: digest(y) for v, y in zip(spec.variants, outputs)},
            "attempted": 0, "failed": 0}


def cold_sample(root, seed):
    api = Api(root)
    checks = Checks()
    cold, unmeasured = {}, {}
    rng = np.random.default_rng(seed)

    def probe(metric, fn):
        try:
            cold[metric] = 1e3 * fn()
        except MissingHook as exc:
            unmeasured[metric] = str(exc)

    def exact_schedules():
        total = 0.0
        for n in (3, 11, 31):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            t0 = time.perf_counter()
            first = api.fast_exact(n, z)
            t1 = time.perf_counter()
            second = api.fast_exact(n, z)
            total += (t1 - t0) - (time.perf_counter() - t1)
            checks.close(first, np.fft.fft(z), f"fast_exact({n}) cold")
            checks.close(second, np.fft.fft(z), f"fast_exact({n}) warm")
        return total

    def factorizations():
        total = 0.0
        for n in (3, 11, 31):
            t0 = time.perf_counter()
            f = api.factorization(n)
            total += time.perf_counter() - t0
            checks.expect(np.array_equal(f.dense(), api.kernel(n)), f"factorization({n})")
        return total

    def csd_table():
        value, want = CSD_PROBE
        t0 = time.perf_counter()
        code = api.csd_encode(value)
        dt = time.perf_counter() - t0
        checks.expect(float(code) == want, f"csd_encode: {float(code)}")
        return dt

    probe("exactdft.schedule_cold_ms", exact_schedules)
    probe("kernels.factorization_cold_ms", factorizations)
    probe("dyadic.csd_encode_cold_ms", csd_table)
    return {"cold_ms": cold, "unmeasured": unmeasured, "attempted": checks.attempted,
            "failed": checks.failed, "failures": checks.failures}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cold", action="store_true")
    args = ap.parse_args()
    if args.cold:
        out = cold_sample(args.root, args.seed)
    else:
        out = setup_sample(args.root, SPECS[args.workload], args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
