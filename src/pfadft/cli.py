"""Command-line surface: transforms, sweeps, and report generation.

Signals travel as JSON ({"n": N, "data": [[re, im], ...]}) or as two-column
CSV (re,im per line); spectra mirror the input format unless overridden.
Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np


def _is_pair(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(v, (int, float)) for v in entry))


def _read_signal(path: str, fmt: str = None):
    fmt = fmt or ("json" if path.endswith(".json") else "csv")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        obj = json.loads(text)
        pairs = obj.get("data") if isinstance(obj, dict) else None
        if not isinstance(pairs, list) or not all(_is_pair(e) for e in pairs):
            raise ValueError('JSON signal needs "data": a list of [re, im] number pairs')
        data = np.array([complex(re, im) for re, im in pairs])
        if obj.get("n") is not None and obj["n"] != len(data):
            raise ValueError("declared n disagrees with data length")
    else:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        if any(len(r) < 2 for r in rows):
            raise ValueError("every CSV line needs two fields, re,im")
        data = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    return data, fmt


def _write_signal(path, data, fmt):
    if fmt == "json":
        payload = {"n": len(data), "data": [[float(z.real), float(z.imag)] for z in data]}
        text = json.dumps(payload, indent=None)
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for z in data:
            w.writerow([repr(float(z.real)), repr(float(z.imag))])
        text = buf.getvalue()
    if path == "-":
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_table(header, rows, fmt, out):
    """Write an iterable of rows; csv and json write each row as it comes,
    text lists them all first, since its column widths depend on every row."""
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    elif fmt == "json":
        out.write("[")
        out.writelines((", " if i else "") + json.dumps(dict(zip(header, r)))
                       for i, r in enumerate(rows))
        out.write("]\n")
    else:
        rows = list(rows)
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
                  for i, h in enumerate(header)]
        out.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _cmd_transform(args):
    from .pfa import execute, plan
    p = plan(args.n, args.variant)
    x, in_fmt = _read_signal(args.input, args.input_format)
    X = execute(p, x)
    _write_signal(args.output, X, args.output_format or in_fmt)
    return 0


def _cmd_sweep(args, out):
    from .design import select_optimal, sweep_alpha
    cands = sweep_alpha(args.n, args.step)
    optimal = set(id(c) for c in select_optimal(cands))
    rows = [(f"{c.alpha_lo:.5f}", f"{c.alpha_hi:.5f}",
             f"{c.metrics.epsilon:.6g}", f"{c.metrics.mape_percent:.6g}",
             f"{c.metrics.phi:.6g}", "yes" if id(c) in optimal else "no")
            for c in cands]
    _emit_table(["alpha_lo", "alpha_hi", "epsilon", "mape_percent", "phi", "pareto_optimal"],
                rows, args.format, out)
    return 0


def _cmd_complexity(args, out):
    from .complexity import complexity_report
    rows = [(r.n, r.label, r.count.real_mults, r.count.real_adds, r.count.bit_shifts, r.source)
            for r in complexity_report()]
    _emit_table(["n", "transform", "real_mults", "real_adds", "bit_shifts", "source"],
                rows, args.format, out)
    return 0


def _cmd_errors(args, out):
    from .analysis import composed_error_table, ground_error_table, row_error_table
    if args.which in ("ground", "composed"):
        data = ground_error_table() if args.which == "ground" else composed_error_table()
        rows = [(n, label, f"{e:.6g}", f"{m:.6g}", f"{p:.6g}") for n, label, e, m, p in data]
        header = ["n", "transform", "error_energy", "mape_percent", "orth_deviation"]
    else:
        table = row_error_table(args.variant, args.n)
        rows = [(r.row, f"{r.energy:.6g}") for r in table]
        header = ["row", "error_energy"]
    _emit_table(header, rows, args.format, out)
    return 0


def _cmd_freqresp(args, out):
    from .analysis import filter_response, response_error_curve
    from .pfa import plan, plan_rows
    if args.rows == "all":
        rows = range(args.n)
    else:
        rows = [int(r) for r in args.rows.split(",")]
        bad = [r for r in rows if not 0 <= r < args.n]
        if bad:
            raise ValueError(f"row {bad[0]} outside 0..{args.n - 1}")
    p = plan(args.n, args.variant)
    if args.grid < 2 * args.n:  # checked by the curves too, but before any output here
        raise ValueError("grid must oversample the row at least twice")
    approx = plan_rows(p, rows)
    exact = plan_rows(p, rows, exact=True) if args.error else None

    def lines():  # one curve at a time
        for i, r in enumerate(rows):
            curve = (response_error_curve(approx[i], exact[i], args.grid) if args.error
                     else filter_response(approx[i], args.grid))
            yield from ((r, f"{w:.8f}", f"{m:.6f}") for w, m in zip(curve.omega, curve.magnitude_db))
    _emit_table(["row", "omega", "magnitude_db"], lines(), args.format, out)
    return 0


def _cmd_probe_cosine(args, out):
    from .analysis import cosine_probe
    probe = cosine_probe(args.n, args.bin, args.variant)
    rows = [(args.n, args.bin, probe.dominant_bins[0], probe.dominant_bins[1],
             f"{probe.dominant_peak:.8g}", f"{probe.nondominant_max:.8g}",
             f"{probe.leakage_ratio:.8g}")]
    _emit_table(["n", "bin", "dominant_bin", "mirror_bin", "dominant_peak",
                 "nondominant_max", "leakage_ratio"], rows, args.format, out)
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(prog="pfadft",
                                 description="Multiplierless DFT approximations on the prime-factor algorithm")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["csv", "text", "json"], default="text")
        p.add_argument("--output", default="-")

    p = sub.add_parser("transform", help="run a variant on a signal file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--input-format", choices=["json", "csv"])
    p.add_argument("--output-format", choices=["json", "csv"])
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("sweep", help="expansion-factor sweep report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--step", type=float, default=1e-5)
    common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("complexity", help="operation-count report")
    common(p)
    p.set_defaults(fn=_cmd_complexity)

    p = sub.add_parser("errors", help="error-measure reports")
    p.add_argument("--which", choices=["ground", "composed", "rows"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--variant")
    common(p)
    p.set_defaults(fn=_cmd_errors)

    p = sub.add_parser("freqresp", help="filter-bank response curves to CSV/JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", required=True)
    p.add_argument("--rows", default="all")
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--error", action="store_true",
                   help="emit error curves against the exact rows instead of responses")
    common(p)
    p.set_defaults(fn=_cmd_freqresp)

    p = sub.add_parser("probe-cosine", help="integer-bin cosine leakage report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bin", type=int, required=True)
    p.add_argument("--variant", required=True)
    common(p)
    p.set_defaults(fn=_cmd_probe_cosine)
    return ap


def cli_main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "errors":
        if args.which == "rows" and (args.n is None or args.variant is None):
            print("errors --which rows requires --n and --variant", file=sys.stderr)
            return 2
    try:
        if args.command == "transform":
            return args.fn(args)
        if args.output and args.output != "-":
            with open(args.output, "w", encoding="utf-8") as out:
                return args.fn(args, out)
        return args.fn(args, sys.stdout)
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # console entry point
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
