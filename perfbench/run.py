"""pfadft benchmark: one workload, its end-to-end metrics or a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {stream-b1,block-b1024,paper-tables} \
        --seed N --seconds S --trace {0,1} [--smoke]

The package is imported from ``src/`` next to this directory, never from
an installed copy. With ``--trace 0`` the run prints every end-to-end
metric of BENCHMARK.json; with ``--trace 1`` every per-layer metric, and
it writes its spans to ``perfbench/out/trace-<workload>-seed<N>.json``.
``--smoke`` makes a few calls per workload, for a quick check that the
benchmark still runs; its figures are not comparable.

Output: a JSON record line (machine, seed, run length, sample counts,
exact op counts, checks), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``failed``/``attempted``
is the run's failed-check ratio with its base.

Timed loops run for ``--seconds`` and, where percentiles need it, until
they hold enough samples for ten beyond the p90 (100 calls).

End-to-end times are calibrated to the host's speed: each timed call runs
between two runs of a calibration loop of its kind of work, and its wall
time is scaled by the loop's reference time over the loop's measured time
(see ``calibrate.py``). Set-up samples are calibrated the same way. The
record line gives the same metrics in plain wall-clock time under
``wall_clock``, and the calibration times under ``calibration``. Per-layer
times of the traced run are plain wall-clock times.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, fixed before numpy loads; child processes inherit it. A
# second thread would run on another vCPU, whose speed drifts apart from the
# one the calibration loops measure, and would spin between calls.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from api import Api  # noqa: E402
from calibrate import CalibratedClock  # noqa: E402
from layers import exec_traced, paper_traced, per_layer_metrics  # noqa: E402
from metrics import MIN_BEYOND, median, ratio  # noqa: E402
from paperref import N  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (MIN_CALLS, SPECS, Checks, exec_loop, exec_setup,  # noqa: E402
                       loop_metrics, paper_loop, paper_setup)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9     # fresh interpreters per run for setup_s (median), spread over the loop
COLD_SAMPLES = 3      # fresh interpreters per traced run for the cold layers
PAPER_EXEC_SECONDS = 2.0  # paper-tables traced run: csd execute() decomposition


def child_samples(args, cold: bool, count: int):
    cmd = [sys.executable, os.path.join(HERE, "coldstart.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed)] + (["--cold"] if cold else [])
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"coldstart.py failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def machine_record(args) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = importlib.util.find_spec("numba") is not None
    disabled = os.environ.get("PFADFT_DISABLE_NUMBA", "0") not in ("0", "", "false", "False")
    return {
        "cpu": cpu, "nproc": NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "executor": "numba" if numba and not disabled else
                    "numpy (" + ("numba disabled" if numba else "numba absent") + ")",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
    }


def counts_record(st) -> dict:
    return {v: {"static": list(st.static[v]), "instrumented": list(st.instrumented[v])}
            for v in st.static if v in st.instrumented}


def end_to_end(api, args, checks, record) -> dict:
    """The timed loop, untraced, with the set-up samples in fresh
    interpreters spread over it."""
    spec = SPECS[args.workload]
    paper = args.workload == "paper-tables"
    t0 = time.perf_counter()
    st = paper_setup(api, args.seed, checks) if paper else exec_setup(api, spec, args.seed, checks)
    record["main_setup_s"] = time.perf_counter() - t0
    setups, wall_setups = [], []

    def setup_sample():
        s = child_samples(args, cold=False, count=1)[0]
        checks.expect(s["digests"] == st.digests, "set-up outputs equal verified outputs")
        setups.append(s["setup_s"])
        wall_setups.append(s["wall_setup_s"])

    seconds = 0.0 if args.smoke else args.seconds
    min_calls = 1 if args.smoke else MIN_CALLS
    min_beyond = 0 if args.smoke else MIN_BEYOND
    side_count = 1 if args.smoke else SETUP_SAMPLES
    record["inputs"] = {"shape": [N, spec.batch], "complex128_bytes_each": N * spec.batch * 16,
                        "distinct": spec.pool}
    clock = CalibratedClock(("interp", "array") if paper else (spec.calibration,))
    t0 = time.perf_counter()
    if paper:
        lat, rounds, wall, wall_rounds = paper_loop(api, st, seconds, min_calls, checks, clock,
                                                    setup_sample, side_count)
        per = len(lat)
        out = loop_metrics(lat, rounds, per, sum(rounds), min_beyond)
        wall_out = loop_metrics(wall, wall_rounds, per, sum(wall_rounds), min_beyond)
    else:
        lat, rounds, wall, wall_rounds = exec_loop(api, st, args.seed, seconds, min_calls,
                                                   checks, clock, setup_sample, side_count)
        per = spec.batch * len(lat)
        out = loop_metrics(lat, rounds, per, sum(lat), min_beyond)
        wall_out = loop_metrics(wall, wall_rounds, per, sum(wall), min_beyond)
    record["measured_s"] = time.perf_counter() - t0
    record["samples"] = {"latency_calls": len(lat), "rounds": len(rounds),
                         "setup_interpreters": len(setups)}
    record["calibration"] = clock.record()
    wall_out["setup_s"] = median(wall_setups)
    record["wall_clock"] = wall_out
    record["setup_s_samples"] = setups
    record["counts"] = counts_record(st)
    out["setup_s"] = median(setups)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def traced_run(api, args, checks, record) -> dict:
    """Cold-start samples, then the workload's calls and the remaining layer
    probes inside spans; returns the per-layer metrics."""
    spec = SPECS[args.workload]
    colds = child_samples(args, cold=True, count=1 if args.smoke else COLD_SAMPLES)
    unmeasured = {}
    cold = {}
    for c in colds:
        checks.add(c, "cold probe")
        unmeasured.update(c["unmeasured"])
    for name in colds[0]["cold_ms"]:
        cold[name] = median(c["cold_ms"][name] for c in colds)
    tracer = Tracer()
    seconds = 0.0 if args.smoke else args.seconds
    min_calls = 2 if args.smoke else 5
    matches = []
    if args.workload == "paper-tables":
        pst = paper_setup(api, args.seed, checks)
        deadline = time.perf_counter() + seconds
        while not matches or time.perf_counter() < deadline:
            matches.append(paper_traced(api, pst, checks, tracer, unmeasured))
        exec_spec = dataclasses.replace(spec, variants=("csd", "unscaled"))
        est = exec_setup(api, exec_spec, args.seed, checks)
        overhead = exec_traced(api, est, args.seed, 0.0 if args.smoke else PAPER_EXEC_SECONDS,
                               checks, tracer, unmeasured, min_calls)
    else:
        est = exec_setup(api, spec, args.seed, checks)
        overhead = exec_traced(api, est, args.seed, seconds, checks, tracer, unmeasured, min_calls)
        est.refs.clear()
        est.inputs.clear()
        pst = paper_setup(api, args.seed, checks)
        matches.append(paper_traced(api, pst, checks, tracer, unmeasured))
    record["counts"] = counts_record(pst)
    record["samples"] = {"traced_calls": len(overhead), "paper_rounds": len(matches),
                         "cold_interpreters": len(colds)}
    record["ratio_bases"] = {}
    out = per_layer_metrics(tracer, est, cold, overhead, min(matches), unmeasured,
                            record["ratio_bases"])
    record["unmeasured"] = unmeasured
    record["self_ms_median_by_layer"] = tracer.self_ms_by_layer()
    path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    record["trace_file"] = os.path.relpath(path, ROOT)
    tracer.write(path, record)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    api = Api(ROOT)
    checks = Checks()
    record = machine_record(args)
    record["pfadft"] = api.version
    values = (traced_run if args.trace else end_to_end)(api, args, checks, record)
    extra = set(values) - set(wanted)
    missing = set(wanted) - set(values) - set(record.get("unmeasured", {}))
    if extra or missing:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: extra {extra}, missing {missing}")
    record["failed_ratio"] = ratio(checks.failed, checks.attempted)
    record["failures"] = checks.failures
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
