import io
import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from elvis import cli, solver
from elvis.cli import main

from conftest import SQUARE0_VERTICES, SQUARE1_VERTICES

ELLIPTIC = {
    "x0": [-1, -1],
    "x1": [1, 1],
    "F0": {"kind": "ellipse", "a": 1, "b": 0.5},
    "F1": {"kind": "ellipse", "a": 2, "b": 1},
}
SYMMETRIC = {
    "x0": [-1, -1],
    "x1": [1, 1],
    "F0": {"kind": "ball", "r": 1},
    "F1": {"kind": "ball", "r": 1},
}
SQUARES = {
    "x0": [0, -1],
    "x1": [0.5, 1],
    "F0": {"kind": "polygon", "vertices": [list(v) for v in SQUARE0_VERTICES]},
    "F1": {"kind": "polygon", "vertices": [list(v) for v in SQUARE1_VERTICES]},
}
# A UTF-16 byte-order mark followed by "{]": not UTF-8 text.
NOT_UTF8 = b"\xff\xfe{]"
# Malformed problem files, each with the exit code `solve` and `validate` must both give.
MALFORMED = {
    "missing_F1": ({k: v for k, v in ELLIPTIC.items() if k != "F1"}, 1),
    "max_iter_string": (dict(ELLIPTIC, max_iter="5"), 1),
    "max_iter_fraction": (dict(ELLIPTIC, max_iter=2.5), 1),
    "max_iter_bool": (dict(ELLIPTIC, max_iter=True), 1),
    "degenerate_ellipse": (dict(ELLIPTIC, F1={"kind": "ellipse", "a": 1, "b": 0}), 2),
    "x0_on_interface": (dict(ELLIPTIC, x0=[0, 0]), 2),
    "x0_bool": (dict(ELLIPTIC, x0=[True, -1]), 1),
    "r_string": (dict(ELLIPTIC, F0={"kind": "ball", "r": "2"}), 1),
    "r_bool": (dict(ELLIPTIC, F0={"kind": "ball", "r": True}), 1),
    "rot_nan": (dict(ELLIPTIC, F0={"kind": "ellipse", "a": 1, "b": 0.5, "rot": float("nan")}), 1),
    "epsilon_inf": (dict(ELLIPTIC, epsilon=float("inf")), 1),
    "not_utf8": (NOT_UTF8, 1),
    # A key given twice, at the top level and inside a set: json.loads alone keeps the last.
    "repeated_x0": (b'{"x0": [0, -1], "x1": [1, 1], "x0": [5, -1], "F0": {"kind": "ball", "r": 1}, '
                    b'"F1": {"kind": "ball", "r": 1}}', 1),
    "repeated_r": (b'{"x0": [0, -1], "x1": [1, 1], "F0": {"kind": "ball", "r": 1, "r": 2}, '
                   b'"F1": {"kind": "ball", "r": 1}}', 1),
}
BALL_SWEEP = {
    "x0": [0, -1],
    "F0": {"kind": "ball", "r": 1},
    "F1": {"kind": "ball", "r": 1},
    "x1_grid": {"xmin": -2, "xmax": 2, "ymin": 0.5, "ymax": 2, "nx": 5, "ny": 3},
}


def write(tmp_path, name, doc):
    """Write doc as JSON (raw bytes are written as they are); return the path."""
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_elliptic(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ELLIPTIC)
        code, out, _ = run_main(["solve", path], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["y"] == pytest.approx(-0.401, abs=5e-3)
        assert rec["status"] == "Converged"

    def test_symmetric(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", SYMMETRIC)
        code, out, _ = run_main(["solve", path], capsys)
        rec = json.loads(out)
        assert code == 0
        assert rec["y"] == 0.0
        assert rec["iterations"] <= 2

    def test_trace_csv(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ELLIPTIC)
        trace = tmp_path / "trace.csv"
        code, _, _ = run_main(["solve", path, "--trace", str(trace)], capsys)
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "k,l,r,y,d,delta_lo,delta_hi"
        ds = [float(line.split(",")[4]) for line in lines[1:]]
        for a, b in zip(ds, ds[1:]):
            assert b == a / 2.0  # exact halving
        ls = [float(line.split(",")[1]) for line in lines[1:]]
        rs = [float(line.split(",")[2]) for line in lines[1:]]
        ys = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(l <= y <= r for l, y, r in zip(ls, ys, rs))

    def test_validation_error_exit_2(self, tmp_path, capsys):
        doc = dict(SYMMETRIC, F0={"kind": "polygon", "vertices": [[1, 0], [2, 0], [1, 1]]})
        path = write(tmp_path, "p.json", doc)
        code, _, err = run_main(["solve", path], capsys)
        assert code == 2
        assert "OriginNotInterior" in err

    @pytest.mark.parametrize("x1, f1", [
        ([0.5, 1], {"kind": "ball", "r": 1e200}),
        ([0.5, 1], {"kind": "ellipse", "a": 1e-200, "b": 1e-201, "rot": 0.3}),
        ([0, 1e-300], {"kind": "ball", "r": 1e100}),
    ], ids=["ball_1e200", "ellipse_1e-200", "offset_gauge_underflow"])
    def test_out_of_range_exit_2(self, tmp_path, capsys, x1, f1):
        """A squared radius outside the normal floats, or an offset whose gauge underflows,
        printed zero or NaN multipliers with exit 0; now validation refuses them."""
        doc = {"x0": [0, -1], "x1": x1, "F0": {"kind": "ball", "r": 1}, "F1": f1}
        code, out, err = run_main(["solve", write(tmp_path, "p.json", doc)], capsys)
        assert (code, out) == (2, "")
        assert "2**-" in err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", dict(SYMMETRIC, eps=1e-9))
        code, _, err = run_main(["solve", path], capsys)
        assert code == 1
        assert "eps" in err

    def test_bracket_expansion_failed_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_BRACKET_DOUBLINGS", 0)
        doc = dict(SYMMETRIC, x0=[0, -1], x1=[0.1, 1],
                   F0={"kind": "ellipse", "a": 3.0, "b": 0.1, "rot": np.pi / 4})
        code, out, err = run_main(["solve", write(tmp_path, "p.json", doc)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("solver error: BracketExpansionFailed: ")

    def test_unwritable_trace_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ELLIPTIC)
        trace = tmp_path / "missing" / "trace.csv"
        code, out, err = run_main(["solve", path, "--trace", str(trace)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("i/o error: ")

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code, _, err = run_main(["solve", str(tmp_path / "missing.json")], capsys)
        assert code == 1
        assert err.startswith("i/o error: ")

    def test_epsilon_override(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ELLIPTIC)
        code, out, _ = run_main(["--epsilon", "1e-3", "solve", path], capsys)
        rec = json.loads(out)
        assert code == 0
        assert rec["iterations"] < 20


class TestDeltaCurve:
    def test_symmetric_root_contains_zero(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", SYMMETRIC)
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run_main(
            ["delta-curve", path, "--samples", "101", "--out", str(out_csv)], capsys)
        assert code == 0
        lo, hi = json.loads(out)["root_bracket"]
        assert lo <= 0.0 <= hi
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "y,delta_lo,delta_hi"
        assert len(lines) == 102
        # Curve is odd about y = 0 for the symmetric problem.
        vals = [tuple(map(float, line.split(","))) for line in lines[1:]]
        mid = dict((round(y, 12), lo) for y, lo, _ in vals)
        for y, lo_v, _ in vals:
            assert lo_v == pytest.approx(-mid[round(-y, 12)], abs=1e-12)

    def test_elliptic_root_contains_reference(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ELLIPTIC)
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run_main(
            ["delta-curve", path, "--samples", "1000", "--out", str(out_csv)], capsys)
        assert code == 0
        lo, hi = json.loads(out)["root_bracket"]
        assert lo <= -0.401 <= hi or (lo <= -0.396 and hi >= -0.406)

    def test_one_sample_exit_2(self, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        code, _, err = run_main(["delta-curve", write(tmp_path, "p.json", SYMMETRIC),
                                 "--samples", "1", "--out", str(out_csv)], capsys)
        assert code == 2
        assert "at least 2 samples" in err
        assert not out_csv.exists()

    def test_squares_have_interval_rows(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", SQUARES)
        out_csv = tmp_path / "curve.csv"
        code, _, _ = run_main(
            ["delta-curve", path, "--samples", "101", "--out", str(out_csv)], capsys)
        assert code == 0
        rows = [tuple(map(float, line.split(",")))
                for line in out_csv.read_text().splitlines()[1:]]
        assert any(lo < hi for _, lo, hi in rows)


class TestSweep:
    def test_ball_grid(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", BALL_SWEEP)
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_main(["sweep", path, "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x1x,x1y,y,time,status,iterations"
        assert len(lines) == 1 + 5 * 3
        for line in lines[1:]:
            x1x, x1y, y, t, status, its = line.split(",")
            x1x, y = float(x1x), float(y)
            lo, hi = min(0.0, x1x), max(0.0, x1x)
            assert lo - 1e-9 <= y <= hi + 1e-9

    def test_single_node_matches_solve(self, tmp_path, capsys):
        doc = dict(BALL_SWEEP,
                   x1_grid={"xmin": 1, "xmax": 1, "ymin": 1, "ymax": 1, "nx": 1, "ny": 1})
        path = write(tmp_path, "s.json", doc)
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_main(["sweep", path, "--out", str(out_csv)], capsys)
        assert code == 0
        row = out_csv.read_text().splitlines()[1].split(",")

        prob = write(tmp_path, "p.json", dict(SYMMETRIC, x0=[0, -1], x1=[1, 1]))
        code, out, _ = run_main(["solve", prob], capsys)
        rec = json.loads(out)
        assert float(row[2]) == rec["y"]
        assert float(row[3]) == rec["time"]
        assert row[4] == rec["status"]
        assert int(row[5]) == rec["iterations"]

    def test_not_utf8(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code, _, err = run_main(["sweep", write(tmp_path, "s.json", NOT_UTF8), "--out",
                                 str(out_csv)], capsys)
        assert code == 1
        assert err.startswith("parse error: file is not UTF-8 text")
        assert not out_csv.exists()

    def test_repeated_key(self, tmp_path, capsys):
        text = json.dumps(BALL_SWEEP)[:-1] + ', "x0": [5, -1]}'
        out_csv = tmp_path / "sweep.csv"
        code, _, err = run_main(["sweep", write(tmp_path, "s.json", text.encode()), "--out",
                                 str(out_csv)], capsys)
        assert code == 1
        assert err.startswith("parse error: repeated key 'x0'")
        assert not out_csv.exists()

    @pytest.mark.parametrize("key, value, expected", [
        ("ymax", -1, 2), ("xmax", float("nan"), 1), ("nx", True, 1),
        ("nx", 10**20, 1), ("ny", 10**7 + 1, 1),  # above 10**7 points, not a linspace traceback
        ("ymax", 1e-310, 2),  # the top row under the gauge floor fails before the CSV is opened
    ])
    def test_malformed_grid(self, tmp_path, capsys, key, value, expected):
        doc = dict(BALL_SWEEP, x1_grid=dict(BALL_SWEEP["x1_grid"], **{key: value}))
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_main(["sweep", write(tmp_path, "s.json", doc), "--out", str(out_csv)],
                              capsys)
        assert code == expected
        assert not out_csv.exists()

    def test_span_overflow_exit_2(self, tmp_path, capsys):
        """A grid whose xmax - xmin overflows fails validation before the CSV is opened,
        without a floating-point warning."""
        grid = dict(BALL_SWEEP["x1_grid"], xmin=-1.7e308, xmax=1.7e308, nx=3)
        doc = dict(BALL_SWEEP, x1_grid=grid)
        out_csv = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(["sweep", write(tmp_path, "s.json", doc), "--out",
                                       str(out_csv)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: Validation: x1_grid: ")
        assert not out_csv.exists()

    def test_memory_bounded(self, tmp_path, capsys, monkeypatch):
        """Nodes are built block by block: a 60x60 grid peaks little above a 4x4 one
        (the rest is the output file's buffers), far below its 3600 nodes' 57.6 kB."""
        monkeypatch.setattr(cli, "solve_batch", lambda spec, block: [None] * len(block))
        monkeypatch.setattr(cli, "BATCH_ROWS", 64)

        def peak(n):
            grid = dict(BALL_SWEEP["x1_grid"], nx=n, ny=n)
            path = write(tmp_path, "s.json", dict(BALL_SWEEP, x1_grid=grid))
            tracemalloc.start()
            try:
                run_main(["sweep", path, "--out", str(tmp_path / "sweep.csv")], capsys)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # first-call allocations (imports, caches) out of the way
        assert peak(60) - peak(4) < 60 * 60 * 2 * 8

    def test_determinism(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", BALL_SWEEP)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main(["sweep", path, "--out", str(a)], capsys)
        run_main(["sweep", path, "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestValidateCmd:
    def test_good_file(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", ELLIPTIC)
        code, out, _ = run_main(["validate", path], capsys)
        assert code == 0
        assert out == "all checks passed\n"

    def test_x0_on_interface(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", dict(ELLIPTIC, x0=[0, 0]))
        code, out, _ = run_main(["validate", path], capsys)
        assert code == 2
        assert "x0 must satisfy x0_y < 0" in out

    def test_degenerate_ellipse(self, tmp_path, capsys):
        path = write(tmp_path, "p.json",
                     dict(ELLIPTIC, F1={"kind": "ellipse", "a": 1, "b": 0}))
        code, out, _ = run_main(["validate", path], capsys)
        assert code == 2
        assert "fail: DegenerateDimensions: F1: " in out

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_code_matches_solve(self, tmp_path, capsys, case):
        doc, expected = MALFORMED[case]
        path = write(tmp_path, "p.json", doc)
        assert run_main(["validate", path], capsys)[0] == expected
        assert run_main(["solve", path], capsys)[0] == expected


class TestDeterminism:
    def test_all_commands_byte_identical(self, tmp_path, capsys):
        prob = write(tmp_path, "p.json", SQUARES)
        sweep = write(tmp_path, "s.json", BALL_SWEEP)
        outputs = []
        for tag in ("one", "two"):
            trace = tmp_path / f"trace_{tag}.csv"
            curve = tmp_path / f"curve_{tag}.csv"
            grid = tmp_path / f"grid_{tag}.csv"
            blobs = []
            for argv in (
                ["solve", prob, "--trace", str(trace)],
                ["delta-curve", prob, "--samples", "64", "--out", str(curve)],
                ["sweep", sweep, "--out", str(grid)],
                ["validate", prob],
            ):
                code, out, _ = run_main(argv, capsys)
                assert code == 0
                blobs.append(out)
            blobs += [trace.read_bytes(), curve.read_bytes(), grid.read_bytes()]
            outputs.append(blobs)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("doc, argv", [
        (SQUARES, ["delta-curve", "--samples", "64"]),
        (ELLIPTIC, ["delta-curve", "--samples", "50"]),
        (dict(BALL_SWEEP, F1=SQUARES["F1"]), ["sweep"]),
    ])
    def test_batch_blocks_do_not_change_output(self, tmp_path, capsys, monkeypatch, doc, argv):
        """Working a grid or a sample range off in small blocks gives the same bytes."""
        path = write(tmp_path, "in.json", doc)
        outputs = []
        for rows in (cli.BATCH_ROWS, 4):
            monkeypatch.setattr(cli, "BATCH_ROWS", rows)
            out_csv = tmp_path / f"out{rows}.csv"
            code, out, err = run_main(argv[:1] + [path] + argv[1:] + ["--out", str(out_csv)],
                                      capsys)
            outputs.append((code, out, err, out_csv.read_bytes()))
        assert outputs[0] == outputs[1]


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "p.json", SYMMETRIC)
    proc = subprocess.run(
        [sys.executable, "-m", "elvis", "solve", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["y"] == 0.0
