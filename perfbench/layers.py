"""The traced run: per-layer spans and the per-layer metrics derived from them.

Layers are pfadft's modules. Each is timed from outside through its public
functions:

* ``pfa``: ``plan`` and ``execute``; ``pfa.self_ms`` is an execute span
  minus the leaf-kernel and scale spans attributed to it, which are
  separate calls at the shapes the plan tree issues;
* ``schedule``: the leaf add/shift executor, through ``apply_kernel_fast``
  (approximate kernel) and ``fast_exact`` (exact kernel);
* ``kernels``: ``assemble_scale(p).values()`` and a cold ``factorization``;
* ``dyadic`` and ``exactdft``: cold ``csd_encode`` and cold exact schedules
  (measured in fresh interpreters by ``coldstart.py``);
* ``complexity``, ``analysis`` and ``design``: the paper-table calls.

``accel`` cannot run without numba and ``cli`` only wraps the library, so
neither is measured. A hook that is missing is reported as unmeasured.
"""

from __future__ import annotations

import time

import numpy as np

from metrics import median, ratio
from paperref import N, VARIANTS
from workloads import (KINDS, LEAVES, bytes_moved, check_round, mix, paper_steps, seeded,
                       tree_shapes)

LEAF_HOOK = {"approx": "apply_kernel_fast", "exact": "fast_exact"}


def traced(tracer, unmeasured, layer, fn, *args, **span):
    """Run fn inside a span, or mark the layer unmeasured when fn is missing."""
    if fn is None:
        unmeasured.setdefault(f"{layer}_ms", "public hook missing")
        return None, None
    return tracer.run(layer, fn, *args, **span)


def leaf_fixtures(api, st, rng):
    """Random leaf inputs at the tree's shapes and their references."""
    out = {}
    kernel = api.maybe("kernel")
    for n, b in tree_shapes(st.tree, st.spec.batch):
        z = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
        out[n] = (b, z, {"approx": kernel(n) @ z if kernel else None,
                         "exact": np.fft.fft(z, axis=0)})
    return out


def exec_traced(api, st, seed, seconds, checks, tracer, unmeasured, min_calls):
    """Traced execute() loop: each call is planned, executed twice (untraced
    and traced, alternating which goes first) and decomposed into its leaf
    and scale calls. Returns paired (traced - untraced) execute seconds."""
    gen = mix(st.spec.pattern, seeded(seed)[1])
    leaves = leaf_fixtures(api, st, np.random.default_rng(seed + 1))
    scale = {}
    for v in set(st.spec.pattern):
        p = st.plans[v]
        if p.scale_mode != "none" and api.maybe("ExecutionPlan"):
            U = api.dense_matrix(api.ExecutionPlan(p.tree, "none"))
            scale[v] = np.sqrt(N) / np.linalg.norm(U, axis=1)
            del U
    batch = st.spec.batch
    overhead = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_calls or time.perf_counter() < deadline:
        v = next(gen)
        k = i % len(st.inputs)
        x = st.inputs[k]
        tracer.new_call()
        p, _ = tracer.run("pfa.plan", api.plan, N, v, variant=v)
        for first_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if first_traced:
                y, sid = tracer.run("pfa.execute", api.execute, p, x, n=N, batch=batch, variant=v)
                traced_s = tracer.duration(sid)
            else:
                t0 = time.perf_counter()
                y0 = api.execute(p, x)
                plain_s = time.perf_counter() - t0
        overhead.append(traced_s - plain_s)
        checks.close(y, st.refs[v][k], f"traced execute {v}")
        checks.close(y0, st.refs[v][k], f"untraced execute {v}")
        for n in LEAVES:
            b, z, refs = leaves[n]
            for kind in KINDS:
                out, _ = traced(tracer, unmeasured, f"schedule.leaf{n}_{kind}",
                                api.maybe(LEAF_HOOK[kind]), n, z, n=n, batch=b,
                                parent=sid if st.kinds[v][n] == kind else None)
                if out is not None and refs[kind] is not None:
                    checks.close(out, refs[kind], f"leaf {n} {kind}")
        if p.scale_mode != "none":
            assemble = api.maybe("assemble_scale")
            vals, _ = traced(tracer, unmeasured, "kernels.scale",
                             assemble and (lambda: assemble(p).values()),
                             n=N, parent=sid, variant=v)
            if vals is not None and v in scale:
                check_scale(vals, scale[v], p.scale_mode, checks, v)
        tracer.run("reference.np_fft", lambda: np.fft.fft(x, axis=0), n=N, batch=batch)
        i += 1
    return overhead


def check_scale(vals, exact, mode, checks, v):
    """Scale values against sqrt(N) / row norm of the unscaled composition;
    CSD values must also lie on the 1/128 grid of a 7-fraction-bit code."""
    vals = np.asarray(vals)
    if mode == "exact":
        checks.close(vals, exact, f"scale {v}", tol=1e-12)
    else:
        checks.expect(vals.shape == exact.shape and np.all(np.abs(vals - exact) <= 0.02)
                      and np.all(vals * 128 == np.round(vals * 128)), f"csd scale {v}")


def paper_traced(api, st, checks, tracer, unmeasured) -> int:
    """One traced paper-tables round plus the single-layer extras; returns
    the number of variants whose instrumented count equals the static one."""
    tracer.new_call()
    results = []
    rid = tracer.begin("paper.round")
    for layer, fn, args in paper_steps(api, st):
        results.append(tracer.run(layer, fn, *args, n=N, parent=rid)[0])
    tracer.end(rid)
    matches = check_round(st, results, checks)
    for v in VARIANTS:
        count, _ = traced(tracer, unmeasured, "complexity.count_plan", api.maybe("count_plan"),
                          st.plans[v], n=N, variant=v)
        if count is not None:
            checks.expect(count.as_tuple() == st.static[v], f"count_plan {v}")
    A, _ = traced(tracer, unmeasured, "analysis.dense_matrix", api.maybe("dense_matrix"),
                  st.plans["csd"], n=N, variant="csd")
    if A is not None:
        checks.expect(np.array_equal(A, st.csd_dense), "dense_matrix csd repeats")
    hooks = [api.maybe(h) for h in ("dft_matrix", "error_energy", "mape", "orth_deviation")]
    if all(hooks):
        dft, energy, mape, orth = hooks
        F = dft(N)
        figs, _ = tracer.run("design.error_figures",
                             lambda: (energy(st.csd_dense, F), mape(st.csd_dense, F), orth(st.csd_dense)),
                             n=N, variant="csd")
        checks.rel(figs, st.errors["F'_1023"], "error figures csd")
    else:
        unmeasured.setdefault("design.error_figures_ms", "public hook missing")
    return matches


def per_layer_metrics(tracer, st, cold, overhead, counts_match, unmeasured, bases) -> dict:
    """Per-layer metrics from the spans; absent layers go to ``unmeasured``
    and the base of every ratio to ``bases``."""
    ms = {}

    def put(name, compute):
        try:
            ms[name] = compute()
        except (ValueError, KeyError, ZeroDivisionError) as exc:
            unmeasured.setdefault(name, f"no samples ({exc})")

    def med_ms(layer, **where):
        return 1e3 * median(tracer.durations(layer, **where))

    def share(part, whole, name, base):
        r = ratio(part, whole)
        bases[name] = {**r, "base_is": base}
        return r["value"]

    def per_call_ms(layer):
        totals = {}
        for s in tracer.select(layer):
            totals[s["call_id"]] = totals.get(s["call_id"], 0.0) + s["end"] - s["start"]
        return 1e3 * median(totals.values())

    put("pfa.plan_ms", lambda: med_ms("pfa.plan"))
    put("pfa.execute_ms", lambda: med_ms("pfa.execute"))
    children = [m for m in unmeasured if m.startswith(("schedule.leaf", "kernels.scale"))]
    if children:
        unmeasured["pfa.self_ms"] = f"attributed child layers unmeasured: {children}"
    else:
        put("pfa.self_ms", lambda: 1e3 * median(tracer.self_seconds("pfa.execute")))
    ms["pfa.bytes_moved_computed"] = bytes_moved(st.tree, st.spec.batch)
    for n in LEAVES:
        for kind in KINDS:
            put(f"schedule.leaf{n}_{kind}_ms", lambda: med_ms(f"schedule.leaf{n}_{kind}"))
    real = st.static["unscaled"]  # the approximate tree of csd, without its scale
    ms["schedule.real_ops"] = real[0] + real[1]  # real mults + real adds
    put("schedule.real_ops_per_s", lambda: ms["schedule.real_ops"] * st.spec.batch / (
        1e-3 * sum(ms[f"schedule.leaf{n}_approx_ms"] for n in LEAVES)))
    put("kernels.scale_ms", lambda: med_ms("kernels.scale", variant="csd"))
    put("kernels.scale_share", lambda: share(ms["kernels.scale_ms"],
                                             med_ms("pfa.execute", variant="csd"),
                                             "kernels.scale_share", "median csd execute_ms"))
    for name, value in cold.items():
        ms[name] = value
    put("complexity.count_plan_ms", lambda: per_call_ms("complexity.count_plan"))
    put("complexity.instrumented_ms", lambda: per_call_ms("complexity.instrumented"))
    ms["complexity.counts_match"] = share(counts_match, len(VARIANTS), "complexity.counts_match",
                                          "composed variants")
    for layer in ("analysis.dense_matrix", "analysis.error_table", "analysis.response_error",
                  "analysis.cosine_probe", "design.error_figures", "design.sweep",
                  "reference.np_fft"):
        put(f"{layer}_ms", lambda: med_ms(layer))
    put("trace.overhead_ms", lambda: 1e3 * median(overhead))
    return ms
