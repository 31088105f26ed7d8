import contextlib
import csv
import io
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pfadft.analysis import composed_error_table
from pfadft.cli import cli_main
from pfadft.complexity import COMPOSED_VARIANTS
from pfadft.exactdft import dft_matrix


def _write_signal_json(path, x):
    payload = {"n": len(x), "data": [[float(z.real), float(z.imag)] for z in x]}
    path.write_text(json.dumps(payload))


class TestTransform:
    def test_exact_roundtrip_json(self, tmp_path, rng):
        x = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        src = tmp_path / "x.json"
        dst = tmp_path / "X.json"
        _write_signal_json(src, x)
        rc = cli_main(["transform", "--n", "33", "--variant", "exact",
                       "--input", str(src), "--output", str(dst)])
        assert rc == 0
        out = json.loads(dst.read_text())
        got = np.array([complex(a, b) for a, b in out["data"]])
        want = dft_matrix(len(x)) @ x
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_csv_in_json_out(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("1.0,0.0\n0.0,0.0\n0.0,0.0\n")
        dst = tmp_path / "X.json"
        rc = cli_main(["transform", "--n", "3", "--variant", "csd",
                       "--input", str(src), "--output", str(dst),
                       "--output-format", "json"])
        assert rc == 0
        out = json.loads(dst.read_text())
        assert out["n"] == 3
        got = np.array([complex(a, b) for a, b in out["data"]])
        # impulse spectrum: first kernel column, scaled per output
        assert np.allclose(got, [1.0, 119 / 128, 119 / 128])

    def test_csv_output_mirrors_csv_input(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("1.0,0.0\n2.0,0.0\n3.0,0.0\n")
        dst = tmp_path / "X.csv"
        rc = cli_main(["transform", "--n", "3", "--variant", "exact",
                       "--input", str(src), "--output", str(dst)])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(dst.read_text())))
        assert len(rows) == 3 and len(rows[0]) == 2
        assert abs(float(rows[0][0]) - 6.0) < 1e-12

    def test_bad_length_is_runtime_error(self, tmp_path):
        src = tmp_path / "x.json"
        _write_signal_json(src, np.ones(4))
        rc = cli_main(["transform", "--n", "33", "--variant", "exact",
                       "--input", str(src), "--output", str(tmp_path / "o.json")])
        assert rc == 1

    def test_json_entry_not_a_pair_is_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"n": 3, "data": [1.0, 0.0, 0.0]}))
        rc = cli_main(["transform", "--n", "3", "--variant", "exact",
                       "--input", str(src), "--output", str(tmp_path / "o.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_huge_json_integer_is_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "x.json"
        src.write_text('{"data": [[1, 0], [%d, 0], [0, 0]]}' % 10 ** 400)
        rc = cli_main(["transform", "--n", "3", "--variant", "exact", "--input", str(src)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_short_csv_line_is_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        src.write_text("1.0,0.0\n2.0\n3.0,0.0\n")
        rc = cli_main(["transform", "--n", "3", "--variant", "exact",
                       "--input", str(src), "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_variant_is_runtime_error(self, tmp_path):
        src = tmp_path / "x.json"
        _write_signal_json(src, np.ones(3))
        rc = cli_main(["transform", "--n", "3", "--variant", "nope",
                       "--input", str(src), "--output", str(tmp_path / "o.json")])
        assert rc == 1


class TestReports:
    def test_complexity_csv_contains_csd_1023_row(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = cli_main(["complexity", "--format", "csv", "--output", str(out)])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        line = [r for r in rows if r and r[1] == "F'_1023"]
        assert line and line[0][2:5] == ["0", "49970", "18390"]
        refs = [r for r in rows if r and r[-1] == "reference"]
        assert refs

    def test_errors_ground_json(self, tmp_path):
        out = tmp_path / "g.json"
        rc = cli_main(["errors", "--which", "ground", "--format", "json",
                       "--output", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        by_label = {r["transform"]: r for r in rows}
        assert abs(float(by_label["F*_3"]["error_energy"]) - 0.0968) < 5e-5

    def test_errors_composed_json(self, tmp_path):
        dst = tmp_path / "e.json"
        rc = cli_main(["errors", "--which", "composed", "--format", "json", "--output", str(dst)])
        assert rc == 0
        rows = json.loads(dst.read_text())
        assert [r["transform"] for r in rows] == [
            label for v, label in COMPOSED_VARIANTS if v not in ("exact", "exact-definition")]
        want = [{"n": n, "transform": label, "error_energy": f"{e:.6g}",
                 "mape_percent": f"{m:.6g}", "orth_deviation": f"{p:.6g}"}
                for n, label, e, m, p in composed_error_table()]
        assert rows == want

    def test_errors_rows_requires_n_and_variant(self):
        assert cli_main(["errors", "--which", "rows"]) == 2

    def test_errors_rows_output(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = cli_main(["errors", "--which", "rows", "--n", "11",
                       "--variant", "csd", "--format", "csv", "--output", str(out)])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["row", "error_energy"]
        assert len(rows) == 12
        assert float(rows[1][1]) == 0.0

    def test_sweep_text(self, capsys):
        rc = cli_main(["sweep", "--n", "3", "--step", "0.001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha_lo" in out and "pareto_optimal" in out

    def test_probe_cosine(self, tmp_path):
        out = tmp_path / "p.json"
        rc = cli_main(["probe-cosine", "--n", "33", "--bin", "5",
                       "--variant", "exact", "--format", "json", "--output", str(out)])
        assert rc == 0
        row = json.loads(out.read_text())[0]
        assert float(row["leakage_ratio"]) < 1e-9

    def test_freqresp_error_curves(self, tmp_path):
        out = tmp_path / "f.csv"
        rc = cli_main(["freqresp", "--n", "3", "--variant", "csd",
                       "--rows", "1", "--grid", "64", "--error",
                       "--format", "csv", "--output", str(out)])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["row", "omega", "magnitude_db"]
        assert len(rows) == 65
        assert max(float(r[2]) for r in rows[1:]) <= -17.0

    def test_freqresp_exact_error_curves_are_the_floor(self, tmp_path):
        # the plan's rows and the exact rows are the same leaf products, so
        # an exact variant's error is zero, not rounding noise
        out = tmp_path / "f.csv"
        rc = cli_main(["freqresp", "--n", "1023", "--variant", "exact",
                       "--rows", "1,100,511,1022", "--error", "--format", "csv",
                       "--output", str(out)])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        assert len(rows) == 4 * 4096
        assert {float(r[2]) for r in rows} == {-300.0}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_freqresp_streams_its_lines(self, fmt, tmp_path):
        # 93 rows x 1024 points is about 2.5 MB of output; held as formatted
        # tuples before writing, it took some 18 MiB (csv) and 35 MiB (json)
        out = tmp_path / f"f.{fmt}"
        argv = ["freqresp", "--n", "93", "--variant", "csd", "--grid", "1024",
                "--format", fmt, "--output", str(out)]
        tracemalloc.start()
        try:
            rc = cli_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 8 * 2 ** 20
        text = out.read_text()
        rows = list(csv.reader(io.StringIO(text)))[1:] if fmt == "csv" else json.loads(text)
        assert len(rows) == 93 * 1024

    @pytest.mark.parametrize("row", ["99", "-1"])
    def test_freqresp_row_outside_transform_rejected(self, row, capsys):
        rc = cli_main(["freqresp", "--n", "31", "--variant", "csd",
                       "--rows", row, "--grid", "64", "--format", "csv"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self):
        assert cli_main(["transform", "--n", "3"]) == 2

    def test_no_subcommand_exits_2(self):
        assert cli_main([]) == 2


# ---------------------------------------------------------------------------
# fuzzing: any argv and input file gives exit 0, 1 or 2, never a traceback.
# Every transform that runs has n <= 64; larger n and finer sweep steps are
# drawn only where they are rejected before any work.

_VARIANTS = st.sampled_from(["exact", "exact-definition", "unscaled", "scaled", "csd",
                             "hybrid-I-csd", "bogus", ""])
_SMALL_N = st.sampled_from([str(n) for n in range(-2, 65)] + ["x", "3.5"])
_NUMBER = (st.floats(allow_nan=True, allow_infinity=True) | st.integers(-5, 5)
           | st.sampled_from([2 ** 1024, -10 ** 400]))  # beyond binary64
_SIGNAL_JSON = st.fixed_dictionaries(
    {"data": st.lists(st.tuples(_NUMBER, _NUMBER).map(list), max_size=64)
     | st.lists(st.lists(_NUMBER, max_size=3) | st.text(max_size=3) | st.none(), max_size=64)},
    optional={"n": st.integers(-1, 65) | st.none() | st.text(max_size=2)})
_JUNK_JSON = st.recursive(st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
                          lambda kids: st.lists(kids, max_size=3)
                          | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                          max_leaves=8)
_CSV_LINE = st.lists(st.sampled_from(["1.0", "-0.5", "2", "nan", "inf", "1e400", "x", ""])
                     | st.text(max_size=3), max_size=3).map(",".join)


@st.composite
def _signal_file(draw):
    """(suffix, content): a JSON or CSV signal, well formed or not."""
    if draw(st.booleans()):
        return ".json", draw(st.one_of(_SIGNAL_JSON.map(json.dumps), _JUNK_JSON.map(json.dumps),
                                       st.text(max_size=20)))
    return ".csv", "\n".join(draw(st.lists(_CSV_LINE, max_size=64)))


@st.composite
def _cli_args(draw):
    """argv with {input} and {output} placeholders, and the input file."""
    fmt = ["--format", draw(st.sampled_from(["csv", "text", "json"] * 3 + ["xml"]))]
    out = ["--output", draw(st.sampled_from(["-", "{output}", "{missing}/out"]))]
    cmd = draw(st.sampled_from(["transform"] * 4 + ["sweep", "errors", "freqresp",
                                                    "probe-cosine", "frobnicate", "--help"]))
    if cmd == "transform":
        args = ["--n", draw(_SMALL_N), "--variant", draw(_VARIANTS), "--input", "{input}",
                "--output", draw(st.sampled_from(["-", "{output}"]))]
        for flag in ("--input-format", "--output-format"):
            if draw(st.booleans()):
                args += [flag, draw(st.sampled_from(["json", "csv"] * 4 + ["yaml"]))]
    elif cmd == "sweep":
        if draw(st.booleans()):
            n, step = draw(st.integers(-1, 64)), draw(st.sampled_from(["0.2", "0.05", "2"]))
        else:  # rejected before any grid or matrix is built
            n, step = draw(st.sampled_from([(513, "0.01"), (10 ** 9, "0.01"), (3, "1e-9"),
                                            (64, "5e-8"), (3, "1e-320"), (3, "nan"), (3, "inf"),
                                            (3, "0"), (3, "-1")]))
        args = ["--n", str(n), "--step", step] + fmt + out
    elif cmd == "errors":
        args = ["--which", draw(st.sampled_from(["ground", "rows", "all"]))]
        if draw(st.booleans()):
            args += ["--n", draw(_SMALL_N)]
        if draw(st.booleans()):
            args += ["--variant", draw(_VARIANTS)]
        args += fmt + out
    elif cmd == "freqresp":
        args = ["--n", draw(_SMALL_N), "--variant", draw(_VARIANTS),
                "--rows", draw(st.sampled_from(["all", "0", "1,2", "99", "-1", "x", ""])),
                "--grid", draw(st.sampled_from(["-4", "0", "16", "128", "256"]))]
        args += (["--error"] if draw(st.booleans()) else []) + fmt + out
    elif cmd == "probe-cosine":
        args = ["--n", draw(_SMALL_N), "--bin", str(draw(st.integers(-2, 40))),
                "--variant", draw(_VARIANTS)] + fmt + out
    else:
        args = []
    if draw(st.integers(0, 9)) == 0:  # a required flag dropped
        args = args[2:]
    return [cmd] + args, draw(_signal_file())


@settings(deadline=None, max_examples=200)
@given(_cli_args())
def test_cli_fuzz_exits_cleanly(case):
    argv, (suffix, content) = case
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "signal" + suffix)
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(content)
        paths = {"input": src, "output": os.path.join(tmp, "out" + suffix),
                 "missing": os.path.join(tmp, "no-such-dir")}
        argv = [a.format(**paths) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(argv)
    assert rc in (0, 1, 2)
