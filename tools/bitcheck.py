"""Bit-for-bit comparison of pfadft outputs between two source trees.

    python tools/bitcheck.py dump <src-root> <out.npz>
    python tools/bitcheck.py compare <a.npz> <b.npz>

``dump`` imports pfadft from ``<src-root>`` (the directory that holds the
``pfadft`` package) and saves, for the 17 named 1023-point variants, the 15
ground plans (3, 11 and 31 points) and the 36 tree x kind plans over
{3, 11, 31}: ``execute`` on a 1-D signal and at batch 1 and 64,
``dense_matrix``, the scale values of scaled plans, and the
``count_plan``/``instrumented_count`` triples. A metered ``execute`` at
batch 1 follows a plain one (``metered-b1-replay``, its output and its
op-count triple), so where the tree keeps a program the metered run
replays it; then a metered ``execute`` at batch 7 and 33, so the meter's
memoized charges are read at new widths. ``execute`` also runs at
batch 1 and 64 on a real-valued input, a purely imaginary one, impulses
and a random mix of +0 and -0, so the byte comparison gates the sign of
every zero in the output, and then at batch 2, 7 and 33, so each leaf
schedule's waves run at new widths in the same process (at batch 2 the
named 1023-point plans run two wave levels after a tile level). Each
1023-point plan then runs at batch 1 once more, after the 31-point plan
of the same kind (``execute-b1-after-31``), so the program a batch-1 run
kept is replayed after another tree has run the 31-point leaf's schedule.
It also saves the op stream of 16 compiled schedules, the 3-, 11- and
31-point approximate, exact and definition leaves and dense approximate
kernels, and the 1-, 2- and 5-point exact leaves and the 5-point
definition leaf, which compile by definition: each op's code, dst, src1
and src2, and its constant's bytes. Last come the expansion-factor sweeps
of the 3-, 11- and 31-point transforms at the default step and of the
11-point one at step 1e-3 (``sweep/<n>/<step>/<k>``): each candidate's
alpha interval, matrix, radicand numerators and denominators, scale values
and error triple.
Arrays above 4096 entries are stored as the SHA-256 of their bytes.
``compare`` exits 1 on any missing item or bit difference.
"""

import hashlib
import itertools
import sys

import numpy as np

VARIANTS = ("exact", "exact-definition", "unscaled", "scaled", "csd") + tuple(
    f"hybrid-{leg}-{mode}" for leg in ("I", "II", "III", "IV", "V", "VI")
    for mode in ("scaled", "csd"))
SWEEPS = ((3, 1e-5), (11, 1e-5), (31, 1e-5), (11, 1e-3))
KIND_SETS = ({31: "approx", 11: "approx", 3: "approx"},
             {31: "exact", 11: "approx", 3: "approx"},
             {31: "approx", 11: "definition", 3: "exact"})


def plans(pfadft):
    Leaf, Node = pfadft.pfa.Leaf, pfadft.pfa.Node

    def trees(leaves):
        if len(leaves) == 1:
            yield leaves[0]
        for k in range(1, len(leaves)):
            for left, right in itertools.product(trees(leaves[:k]), trees(leaves[k:])):
                yield Node(left, right)

    for v in VARIANTS:
        yield f"1023/{v}", pfadft.plan(1023, v)
    for n, v in itertools.product((3, 11, 31), VARIANTS[:5]):
        yield f"{n}/{v}", pfadft.plan(n, v)
    for s, kinds in enumerate(KIND_SETS):
        leaves = [Leaf(m, kind) for m, kind in kinds.items()]
        for t, tree in enumerate(t for p in itertools.permutations(leaves) for t in trees(p)):
            yield f"tree{s}.{t}", pfadft.ExecutionPlan(tree, "csd")


def schedules(pfadft):
    for n, kind in itertools.product((3, 11, 31), ("approx", "exact", "definition")):
        yield f"{n}-{kind}", pfadft.pfa.leaf_schedule(pfadft.pfa.Leaf(n, kind))
    for n in (3, 11, 31):
        yield f"{n}-dense", pfadft.kernels.approx_dense_schedule(n)
    for n, kind in ((1, "exact"), (2, "exact"), (5, "exact"), (5, "definition")):
        yield f"{n}-{kind}", pfadft.pfa.leaf_schedule(pfadft.pfa.Leaf(n, kind))


def kind_of_31(pfadft, p):
    """The 31-point variant whose leaf and scale mode are p's 31-point leaf's."""
    kind = next(leaf.kind for leaf in pfadft.pfa.tree_leaves(p.tree) if leaf.n == 31)
    if kind == "approx":
        return {"none": "unscaled", "exact": "scaled", "csd": "csd"}[p.scale_mode]
    return {"exact": "exact", "definition": "exact-definition"}[kind]


def complex_parts(re, im):
    """Complex array with exactly these parts, zero signs included."""
    return np.stack(np.broadcast_arrays(re, im), axis=-1).view(np.complex128)[..., 0]


def zero_sign_inputs(x, rng):
    """Real, imaginary, impulse and signed-zero blocks shaped like x."""
    n, width = x.shape
    impulse = np.zeros((n, width))
    impulse[np.arange(width) % n, np.arange(width)] = 1.0
    zeros = np.copysign(0.0, rng.standard_normal((2, n, width)))
    return {"real": complex_parts(x.real, 0.0), "imag": complex_parts(0.0, x.imag),
            "impulse": complex_parts(impulse, 0.0), "zeros": complex_parts(*zeros)}


def dump(src_root, out):
    sys.path.insert(0, src_root)
    import pfadft
    items = {}

    def put(key, arr):
        arr = np.ascontiguousarray(arr)
        if arr.size > 4096:
            key, arr = key + "#sha256", np.frombuffer(hashlib.sha256(
                str((arr.dtype, arr.shape)).encode() + arr.tobytes()).digest(), np.uint8)
        items[key] = arr

    for name, p in plans(pfadft):
        rng = np.random.default_rng(p.n)
        x = rng.standard_normal((p.n, 64)) + 1j * rng.standard_normal((p.n, 64))
        put(f"{name}/execute-1d", pfadft.execute(p, x[:, 0]))
        put(f"{name}/execute-b1", pfadft.execute(p, x[:, :1]))
        put(f"{name}/execute-b64", pfadft.execute(p, x))
        for kind, z in zero_sign_inputs(x, rng).items():
            put(f"{name}/execute-{kind}-b1", pfadft.execute(p, z[:, :1]))
            put(f"{name}/execute-{kind}-b64", pfadft.execute(p, z))
        put(f"{name}/execute-b2", pfadft.execute(p, x[:, :2]))
        put(f"{name}/execute-b7", pfadft.execute(p, x[:, :7]))
        put(f"{name}/execute-b33", pfadft.execute(p, x[:, :33]))
        if p.n == 1023:
            pfadft.execute(pfadft.plan(31, kind_of_31(pfadft, p)), x[:31, :1])
            put(f"{name}/execute-b1-after-31", pfadft.execute(p, x[:, :1]))
        put(f"{name}/dense", pfadft.dense_matrix(p))
        if p.scale_mode != "none":
            put(f"{name}/scale", pfadft.assemble_scale(p).values())
        put(f"{name}/count", np.array(pfadft.count_plan(p).as_tuple()))
        put(f"{name}/instrumented", np.array(pfadft.instrumented_count(p).as_tuple()))
        pfadft.execute(p, x[:, :1])
        m = pfadft.schedule.metered(x[:, :1])
        put(f"{name}/metered-b1-replay", np.asarray(pfadft.execute(p, m)))
        put(f"{name}/metered-b1-replay/count", np.array(m.op_count().as_tuple()))
        for width in (7, 33):
            m = pfadft.schedule.metered(x[:, :width])
            put(f"{name}/metered-b{width}", np.asarray(pfadft.execute(p, m)))
            put(f"{name}/metered-b{width}/count", np.array(m.op_count().as_tuple()))
    for name, sched in schedules(pfadft):
        put(f"schedule/{name}/ops", np.array(
            [(op.code, op.dst, op.src1, op.src2) for op in sched.ops], dtype=np.int64))
        put(f"schedule/{name}/constants", np.array([op.c for op in sched.ops], np.complex128))
    for n, step in SWEEPS:
        for k, c in enumerate(pfadft.sweep_alpha(n, step)):
            key = f"sweep/{n}/{step:g}/{k}"
            put(f"{key}/alpha", np.array([c.alpha_lo, c.alpha_hi]))
            put(f"{key}/t_matrix", c.t_matrix)
            put(f"{key}/radicands", np.array(
                [(r.numerator, r.denominator) for r in c.scale.radicands], dtype=np.int64))
            put(f"{key}/scale", c.scale.values())
            put(f"{key}/metrics", np.array(c.metrics.as_tuple()))
    np.savez(out, **items)
    print(f"{len(items)} items written to {out}")


def compare(a_path, b_path):
    with np.load(a_path) as a, np.load(b_path) as b:
        bad = sorted(set(a.files) ^ set(b.files))
        for key in sorted(set(a.files) & set(b.files)):
            x, y = a[key], b[key]
            if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
                bad.append(key)
        for key in bad:
            print(f"DIFFERS: {key}")
        print(f"{len(set(a.files) | set(b.files)) - len(bad)} items bit-equal, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    cmd, *args = sys.argv[1:] or ["help"]
    if (cmd, len(args)) == ("dump", 2):
        dump(*args)
    elif (cmd, len(args)) == ("compare", 2):
        sys.exit(compare(*args))
    else:
        sys.exit(__doc__)
