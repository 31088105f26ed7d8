"""The three workloads: seeded inputs, set-up, timed loops and their checks.

All workloads are closed loops with one caller in one process.

* ``stream-b1``: single 1023-point signals. Per-call fixed costs dominate:
  one numpy call per schedule op and the CSD scale re-evaluated through
  ``Fraction`` on every scaled call.
* ``block-b1024``: 1023 x 1024 complex blocks (16.8 MB each). Dispatch is
  spread over 33k-350k columns per leaf call, so time goes to the slot
  arrays and the CRT gathers; a vectorizer that adds copies shows here.
* ``paper-tables``: warm rounds of the paper's tables. Drives the counting
  executor, the dense-matrix analysis and the scale assembly, and hardly
  touches the numpy fast path.

Every timed result is checked after its timer stops, against references
from ``paperref`` or built at set-up, and every check counts towards the
run's ``attempted``/``failed``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from metrics import median, percentile, samples_needed
from paperref import (COSINE_BIN, COSINE_LEAKAGE, COSINE_LEAKAGE_TOL, EXACT_VARIANTS,
                      N, OPTIMAL_ALPHA, PLAN_COUNTS, RESPONSE_BOUND_DB,
                      SWEEP_CANDIDATES_31, VARIANT_LABELS, VARIANTS, dft_reference,
                      error_figures, pareto, response_error_db)

#: absolute error allowed in any output element (inputs are unit normal)
TOL = 1e-9 * N
#: calls in a timed loop: enough for ten samples beyond the p90
MIN_CALLS = samples_needed(90)
LEAVES = (31, 11, 3)
KINDS = ("approx", "exact")
#: paper-tables calls that each run one 1023-point transform: the 17
#: instrumented counts and the cosine probe. Their times are the workload's
#: latency samples; its other calls are timed within the round only.
TRANSFORM_LAYERS = ("complexity.instrumented", "analysis.cosine_probe")
#: paper-tables calls that spend their time in dense BLAS and FFT array
#: passes, so are calibrated by the array loop; the others run the counting
#: executor, the sweep and the probe in the interpreter.
ARRAY_LAYERS = ("analysis.error_table", "analysis.response_error")


@dataclass(frozen=True)
class Spec:
    name: str
    batch: int
    variants: tuple   # planned and executed once in set-up, in this order
    pattern: tuple    # one cycle of the execute() mix, shuffled per cycle
    pool: int         # distinct seeded inputs; references built at set-up
    calibration: str  # calibrate.LOOPS kind that tracks the host's speed for its calls


# The stream mix puts the median inside the csd mode and the p90 inside the
# hybrid-VI-csd/csd cluster, not at a boundary between modes. The block mix
# weights csd 3:1 over unscaled for the same reason. Stream calls spend their
# time in the interpreter (Fraction scales, one numpy call per op), block
# calls in numpy array passes; each is calibrated by a loop of its own kind.
SPECS = {
    "stream-b1": Spec("stream-b1", 1, ("csd", "hybrid-VI-csd", "scaled", "unscaled", "exact"),
                      ("csd",) * 13 + ("hybrid-VI-csd",) * 4 + ("scaled", "unscaled", "exact"),
                      64, "interp"),
    "block-b1024": Spec("block-b1024", 1024, ("csd", "unscaled"),
                        ("csd",) * 3 + ("unscaled",), 2, "array"),
    # execute() loop only in the traced run: csd at batch 1, the probe's shape
    "paper-tables": Spec("paper-tables", 1, VARIANTS, ("csd",), 1, "interp"),
}


def seeded(seed: int):
    """(input generator, mix generator) streams of one seed."""
    a, b = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(a), np.random.default_rng(b)


def make_inputs(spec: Spec, seed: int, count=None):
    rng = seeded(seed)[0]
    shape = (N,) if spec.batch == 1 else (N, spec.batch)
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(count or spec.pool)]


def mix(pattern, rng):
    while True:
        for i in rng.permutation(len(pattern)):
            yield pattern[i]


def digest(y) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


def tree_shapes(tree, batch):
    """(leaf length, batch) of every leaf call a plan tree issues."""
    if isinstance(tree, int):
        return [(tree, batch)]
    left, right = tree
    return tree_shapes(right, batch * tree_length(left)) + tree_shapes(left, batch * tree_length(right))


def tree_length(tree) -> int:
    return tree if isinstance(tree, int) else tree_length(tree[0]) * tree_length(tree[1])


def bytes_moved(tree, batch) -> int:
    """Computed bytes that each node's CRT gather, two transposes and output
    scatter read and write per call: four passes over the node's block of
    complex128 values, plus the int64 gather and scatter indices. Derived
    from array sizes only; cache behaviour is not modelled."""
    if isinstance(tree, int):
        return 0
    left, right = tree
    n1, n2 = tree_length(left), tree_length(right)
    node = 4 * 2 * n1 * n2 * batch * 16 + 2 * n1 * n2 * 8
    return node + bytes_moved(right, batch * n1) + bytes_moved(left, batch * n2)


class Checks:
    """Counts verifications; keeps the first few failures for the record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)

    def close(self, got, want, what: str, tol: float = TOL) -> bool:
        got = np.asarray(got)
        ok = got.shape == np.shape(want) and float(np.max(np.abs(got - want))) <= tol
        return self.expect(ok, what)

    def rel(self, got, want, what: str, tol: float = 1e-8) -> bool:
        return self.expect(all(abs(g - w) <= tol * abs(w) for g, w in zip(got, want)), what)

    def add(self, result: dict, what: str):
        """Fold in the check counts a child process reported."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        if result["failed"]:
            self.failures.append(f"{what}: {result.get('failures')}")


# ---------------------------------------------------------------------------
# execute() workloads

@dataclass
class ExecState:
    spec: Spec
    plans: dict
    inputs: list
    refs: dict                    # variant -> reference output per input
    kinds: dict                   # variant -> {leaf length: leaf kind}
    tree: object                  # plan tree of the variants, as in plan_to_json
    static: dict                  # variant -> static count triple
    instrumented: dict            # variant -> instrumented count triple
    digests: dict = field(default_factory=dict)


def exec_setup(api, spec: Spec, seed: int, checks: Checks) -> ExecState:
    """Plan every variant, build its references and run its first execute."""
    inputs = make_inputs(spec, seed)
    plans, refs, kinds, static, instrumented, trees = {}, {}, {}, {}, {}, set()
    for v in spec.variants:
        p = plans[v] = api.plan(N, v)
        desc = json.loads(api.plan_to_json(p))
        kinds[v] = {int(k): kind for k, kind in desc["kernels"].items()}
        trees.add(json.dumps(desc["tree"]))
        if v in EXACT_VARIANTS:
            refs[v] = [np.fft.fft(x, axis=0) for x in inputs]
        else:
            A = api.dense_matrix(p)
            refs[v] = [A @ x for x in inputs]
            del A
        static[v] = api.count_plan(p).as_tuple()
        instrumented[v] = api.instrumented_count(p).as_tuple()
        checks.expect(static[v] == instrumented[v] == PLAN_COUNTS.get(v, static[v]),
                      f"counts {v}: static {static[v]}, instrumented {instrumented[v]}")
    if len(trees) != 1:
        raise ValueError("workload variants use different plan trees")
    st = ExecState(spec, plans, inputs, refs, kinds, json.loads(trees.pop()), static, instrumented)
    for v in spec.variants:
        y = api.execute(plans[v], inputs[0])
        checks.close(y, refs[v][0], f"first execute {v}")
        st.digests[v] = digest(y)
    return st


def run_rounds(one_round, seconds: float, enough, side=None, side_count: int = 0):
    """Call ``one_round()`` until its calls have taken ``seconds`` and
    ``enough()`` holds. ``side()`` runs ``side_count`` times, spread evenly
    over the rounds and outside their time, so that what it measures samples
    the whole run rather than its first seconds."""
    busy, sides = 0.0, 0
    while not enough() or busy < seconds:
        if sides < side_count and busy >= seconds * sides / side_count:
            side()
            sides += 1
        t0 = time.perf_counter()
        one_round()
        busy += time.perf_counter() - t0
    for _ in range(sides, side_count):
        side()


def exec_loop(api, st: ExecState, seed: int, seconds: float, min_calls: int, checks: Checks,
              clock, side=None, side_count: int = 0):
    """Closed loop of execute() calls, timed by the CalibratedClock
    ``clock``. Returns (calibrated per-call, calibrated per-cycle, wall
    per-call, wall per-cycle) seconds."""
    gen = mix(st.spec.pattern, seeded(seed)[1])
    cycle = len(st.spec.pattern)
    latencies, cycles, wall, wall_cycles = [], [], [], []

    def one_cycle():
        total = wall_total = 0.0
        for _ in range(cycle):
            v = next(gen)
            k = len(latencies) % len(st.inputs)
            y, dt, cal_dt = clock.time(st.spec.calibration, api.execute, st.plans[v], st.inputs[k])
            latencies.append(cal_dt)
            wall.append(dt)
            total += cal_dt
            wall_total += dt
            checks.close(y, st.refs[v][k], f"execute {v} input {k}")
        cycles.append(total)
        wall_cycles.append(wall_total)

    run_rounds(one_cycle, seconds, lambda: len(latencies) >= min_calls, side, side_count)
    return latencies, cycles, wall, wall_cycles


def loop_metrics(latencies, rounds, transforms: int, busy_s: float, min_beyond: int) -> dict:
    """Latency percentiles, transforms per busy second and the median round."""
    return {
        "latency_p50_ms": 1e3 * median(latencies),
        "latency_p90_ms": 1e3 * percentile(latencies, 90, min_beyond),
        "transforms_per_s": transforms / busy_s,
        "round_p50_s": median(rounds),
    }


# ---------------------------------------------------------------------------
# paper-tables workload

@dataclass
class PaperState:
    plans: dict
    static: dict
    errors: dict          # table label -> independent (eps, mape, phi)
    csd_dense: np.ndarray
    response_db: float
    cosine_mag: np.ndarray
    instrumented: dict = field(default_factory=dict)   # of the latest round
    digests: dict = field(default_factory=dict)


def paper_setup(api, seed: int, checks: Checks) -> PaperState:
    """Plan and first-execute all 17 variants; build independent references."""
    x0 = make_inputs(SPECS["paper-tables"], seed, 1)[0]
    F = dft_reference()
    plans, static, errors, first_refs = {}, {}, {}, {}
    csd_dense = None
    for v, label in VARIANT_LABELS:
        p = plans[v] = api.plan(N, v)
        static[v] = api.count_plan(p).as_tuple()
        if v in PLAN_COUNTS:
            checks.expect(static[v] == PLAN_COUNTS[v], f"static count {v}")
        if v in EXACT_VARIANTS:
            first_refs[v] = np.fft.fft(x0)
            continue
        A = api.dense_matrix(p)
        first_refs[v] = A @ x0
        errors[label] = error_figures(A, F)
        if v == "csd":
            csd_dense = A
    cos = np.cos(2.0 * np.pi * COSINE_BIN * np.arange(N) / N)
    st = PaperState(plans, static, errors, csd_dense, response_error_db(csd_dense, F),
                    np.abs(csd_dense @ cos))
    for v in VARIANTS:
        y = api.execute(plans[v], x0)
        checks.close(y, first_refs[v], f"first execute {v}")
        st.digests[v] = digest(y)
    return st


def paper_steps(api, st: PaperState):
    """The calls of one round, as (layer, function, args)."""
    return ([("complexity.report", api.complexity_report, ())]
            + [("complexity.instrumented", api.instrumented_count, (st.plans[v],)) for v in VARIANTS]
            + [("analysis.error_table", api.composed_error_table, ()),
               ("analysis.response_error", api.response_error_max_db, ("csd", N)),
               ("analysis.cosine_probe", api.cosine_probe, (N, COSINE_BIN, "csd")),
               ("design.sweep", api.sweep_alpha, (31,))])


def check_round(st: PaperState, results, checks: Checks) -> int:
    """Verify one round's results, given in paper_steps order; returns the
    number of variants whose instrumented count equals the static one."""
    report, *rest = results
    instrumented, (table, response, probe, sweep) = rest[:len(VARIANTS)], rest[len(VARIANTS):]
    label_of = dict(VARIANT_LABELS)
    matches = 0
    for v, count in zip(VARIANTS, instrumented):
        got = st.instrumented[v] = count.as_tuple()
        matches += got == st.static[v]
        checks.expect(got == st.static[v] and got == PLAN_COUNTS.get(v, got),
                      f"instrumented count {v}: {got}")
    composed = {r.label: r.count.as_tuple() for r in report if r.n == N and r.source == "computed"}
    checks.expect(composed == {label_of[v]: st.static[v] for v in VARIANTS},
                  "complexity_report composed rows")
    rows = {label: figs for _, label, *figs in table}
    checks.expect(rows.keys() == st.errors.keys(), "composed_error_table labels")
    for label, figs in rows.items():
        if label in st.errors:
            checks.rel(figs, st.errors[label], f"error figures {label}")
    checks.expect(abs(response - st.response_db) <= 1e-6 and response <= RESPONSE_BOUND_DB,
                  f"response error {response:.4f} dB")
    checks.close(probe.magnitudes, st.cosine_mag, "cosine probe magnitudes")
    checks.expect(tuple(probe.dominant_bins) == (COSINE_BIN, N - COSINE_BIN)
                  and abs(probe.leakage_ratio - COSINE_LEAKAGE) <= COSINE_LEAKAGE_TOL,
                  f"cosine leakage {probe.leakage_ratio:.4f}")
    best = [sweep[i] for i in pareto([c.metrics.as_tuple() for c in sweep])]
    checks.expect(len(sweep) == SWEEP_CANDIDATES_31
                  and any(c.alpha_lo - 5e-6 <= OPTIMAL_ALPHA <= c.alpha_hi + 5e-6 for c in best),
                  f"sweep_alpha(31): {len(sweep)} candidates")
    return matches


def paper_loop(api, st: PaperState, seconds: float, min_calls: int, checks: Checks,
               clock, side=None, side_count: int = 0):
    """Warm rounds until ``seconds`` have passed and ``min_calls`` transform
    calls were timed, each call timed by the CalibratedClock ``clock``.
    Returns (calibrated per-transform-call, calibrated per-round, wall
    per-transform-call, wall per-round) seconds."""
    steps = paper_steps(api, st)
    latencies, rounds, wall, wall_rounds = [], [], [], []

    def one_round():
        results, total, wall_total = [], 0.0, 0.0
        for layer, fn, args in steps:
            kind = "array" if layer in ARRAY_LAYERS else "interp"
            result, dt, cal_dt = clock.time(kind, fn, *args)
            results.append(result)
            if layer in TRANSFORM_LAYERS:
                latencies.append(cal_dt)
                wall.append(dt)
            total += cal_dt
            wall_total += dt
        rounds.append(total)
        wall_rounds.append(wall_total)
        check_round(st, results, checks)

    run_rounds(one_round, seconds, lambda: len(latencies) >= min_calls, side, side_count)
    return latencies, rounds, wall, wall_rounds
