import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from elvis import (
    Ball,
    BracketExpansionFailedError,
    Ellipse,
    NotIsotropicError,
    Polygon,
    ValidationError,
    ZeroVectorError,
    classical_snell_angles,
    crossing_time,
    delta,
    expand_bracket,
    gauge,
    make_problem,
    minimize_objective,
    solve,
    solve_batch,
    support,
)
from elvis import solver
from elvis.cli import main
from elvis.solver import STATUS_CONVERGED, STATUS_RESIDUAL_ZERO_IN_FACE, delta_rows

from conftest import random_ball, random_ellipse, random_polygon, random_problem

MAKERS = [random_ball, random_ellipse, random_polygon]


def random_pair_problem(rng, f0, f1):
    """Problem with sets drawn by the makers f0 and f1 (redrawn until valid)."""
    while True:
        x0 = (rng.uniform(-3, 3), rng.uniform(-3, -0.1))
        x1 = (rng.uniform(-3, 3), rng.uniform(0.1, 3))
        try:
            return make_problem(x0, x1, f0(rng), f1(rng))
        except ValidationError:
            continue


class TestProblemValidation:
    def test_x0_on_interface(self):
        with pytest.raises(ValidationError):
            make_problem((0, 0), (1, 1), Ball(1), Ball(1))

    def test_x1_below_interface(self):
        with pytest.raises(ValidationError):
            make_problem((0, -1), (1, -1), Ball(1), Ball(1))

    def test_bad_epsilon(self):
        with pytest.raises(ValidationError):
            make_problem((0, -1), (1, 1), Ball(1), Ball(1), epsilon=0.0)

    @pytest.mark.parametrize("override", [
        {"x0": (math.nan, -1)},
        {"x1": (1, math.inf)},
        {"epsilon": math.inf},
        {"max_iter": 2.5},
        {"F0": Ball(math.inf)},
        {"F1": Ellipse(1, 2, rot=math.nan)},
        {"F0": Polygon([[1, 0], [math.inf, 1], [-1, 0], [0, -1]])},
    ], ids=["x0_nan", "x1_inf", "epsilon_inf", "max_iter_fraction", "ball_inf", "rot_nan",
            "polygon_inf_vertex"])
    def test_non_finite_or_fractional(self, override):
        args = dict(x0=(0, -1), x1=(1, 1), F0=Ball(1), F1=Ball(1))
        with pytest.raises(ValidationError):
            make_problem(**{**args, **override})


class TestDelta:
    def test_symmetric_zero(self, symmetric_ball_problem):
        iv = delta(symmetric_ball_problem, 0.0)
        assert iv.lo == pytest.approx(0.0, abs=1e-15)
        assert iv.hi == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_half(self, symmetric_ball_problem):
        # phi'(0.5) = 1.5/sqrt(3.25) - 0.5/sqrt(1.25), by elementary calculus.
        expected = 1.5 / math.sqrt(3.25) - 0.5 / math.sqrt(1.25)
        iv = delta(symmetric_ball_problem, 0.5)
        assert iv.lo == pytest.approx(expected, abs=1e-4)
        assert iv.hi == pytest.approx(expected, abs=1e-4)
        # The same number from central finite differences of the objective.
        h = 1e-7
        fd = (crossing_time(symmetric_ball_problem, 0.5 + h)
              - crossing_time(symmetric_ball_problem, 0.5 - h)) / (2 * h)
        assert iv.lo == pytest.approx(fd, abs=1e-6)

    def test_elliptic_reference_residual(self, elliptic_problem):
        iv = delta(elliptic_problem, -0.401)
        assert iv.lo == iv.hi
        assert abs(iv.lo) <= 5e-3

    def test_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = random_problem(rng, families=[random_ball, random_ellipse])
            l, r, _ = expand_bracket(p)
            for y in rng.uniform(l, r, 5):
                h = 1e-7 * max(1.0, abs(y))
                fd = (crossing_time(p, y + h) - crossing_time(p, y - h)) / (2 * h)
                iv = delta(p, y)
                assert iv.lo == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("f0", MAKERS)
    @pytest.mark.parametrize("f1", MAKERS)
    def test_delta_rows_bit_equal(self, f0, f1):
        rng = np.random.default_rng(16)
        for _ in range(4):
            p = random_pair_problem(rng, f0, f1)
            l, r, _ = expand_bracket(p)
            ys = np.linspace(l, r, 101)
            lo, hi = delta_rows(p, ys)
            ivs = [delta(p, y) for y in ys]
            assert lo.tobytes() == np.array([iv.lo for iv in ivs]).tobytes()
            assert hi.tobytes() == np.array([iv.hi for iv in ivs]).tobytes()

    def test_interval_monotone_over_bracket(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = random_problem(rng)
            l, r, _ = expand_bracket(p)
            ys = np.linspace(l, r, 100)
            ivs = [delta(p, y) for y in ys]
            for a, b in zip(ivs, ivs[1:]):
                assert b.lo >= a.lo - 1e-12
                assert b.hi >= a.hi - 1e-12


class TestSolve:
    def test_symmetric(self, symmetric_ball_problem):
        result, trace = solve(symmetric_ball_problem)
        assert abs(result.y) <= 1e-12
        assert result.status == STATUS_CONVERGED
        assert result.iterations <= 2
        assert len(trace) == result.iterations

    def test_elliptic_reference(self, elliptic_problem):
        result, _ = solve(elliptic_problem)
        assert -0.406 <= result.y <= -0.396

    def test_squares_match_oracle(self, square_problem):
        result, _ = solve(square_problem)
        y_star, _ = minimize_objective(square_problem)
        assert result.y == pytest.approx(y_star, abs=1e-9)

    def test_result_consistency(self, elliptic_problem):
        result, _ = solve(elliptic_problem)
        yv = np.array([result.y, 0.0])
        assert gauge(elliptic_problem.F0, result.v0) == pytest.approx(1.0, abs=1e-9)
        assert gauge(elliptic_problem.F1, result.v1) == pytest.approx(1.0, abs=1e-9)
        expect_time = (gauge(elliptic_problem.F0, yv - elliptic_problem.x0)
                       + gauge(elliptic_problem.F1, elliptic_problem.x1 - yv))
        assert result.time == pytest.approx(expect_time, rel=1e-12)

    def test_trace_invariants(self, elliptic_problem):
        _, trace = solve(elliptic_problem)
        rows = trace.rows
        d0 = rows[0].d
        for row in rows:
            assert row.l <= row.y <= row.r
            assert row.d == d0 / 2.0 ** row.k  # exact halving
        eps = elliptic_problem.epsilon
        for row in rows:
            assert delta(elliptic_problem, row.l).lo <= eps
            assert delta(elliptic_problem, row.r).hi >= -eps

    def test_trace_api(self, square_problem):
        """The rows solve records are TraceRows, built once and then the same objects."""
        result, trace = solve(square_problem)
        assert len(trace) == result.iterations > 10
        rows = trace.rows
        assert all(type(row) is solver.TraceRow for row in rows)
        assert [f.name for f in dataclasses.fields(rows[0])] == [
            "k", "l", "r", "y", "d", "delta_lo", "delta_hi"]
        assert [type(v) for v in dataclasses.astuple(rows[-1])] == [int] + [np.float64] * 6
        assert [row.k for row in rows] == list(range(result.iterations))
        assert trace.rows is rows and len(trace) == result.iterations
        first, second = list(trace), list(trace)
        assert all(a is b is c for a, b, c in zip(first, second, rows))
        assert trace.rows[3].d == rows[0].d / 8.0
        # A row appended after solve's own steps goes last; building the rows
        # leaves the trace equal to one built row by row.
        extra = solver.TraceRow(len(rows), 0.0, 1.0, 0.5, 1.0, -1.0, 1.0)
        _, fresh = solve(square_problem)
        fresh.append(extra)
        assert len(fresh) == result.iterations + 1 and fresh.rows[-1] is extra
        assert fresh == solver.BisectionTrace(rows + [extra])
        assert repr(fresh) == f"BisectionTrace(rows={rows + [extra]!r})"

    def test_degenerate_equal_projections(self):
        p = make_problem((0, -1), (0, 2), Ball(1), Ball(2))
        result, trace = solve(p)
        assert result.y == 0.0
        assert result.status == STATUS_CONVERGED
        assert len(trace) == 1

    def test_bracket_expansion(self):
        # Strongly tilted anisotropic medium pushes the optimum outside the
        # endpoint projections.
        p = make_problem((0, -1), (0.1, 1), Ellipse(3.0, 0.1, rot=np.pi / 4), Ball(1))
        result, _ = solve(p)
        assert result.status.startswith("BracketExpanded+")
        y_star, phi_star = minimize_objective(p)
        assert result.time == pytest.approx(phi_star, abs=1e-8)
        assert result.y == pytest.approx(y_star, abs=1e-7)

    @pytest.mark.parametrize("x1x, rot, side", [(0.1, np.pi / 4, "right"),
                                                (-0.1, -np.pi / 4, "left")], ids=["right", "left"])
    def test_bracket_expansion_failed(self, monkeypatch, x1x, rot, side):
        """A bracket end that must move but may not raises from that end's loop."""
        p = make_problem((0, -1), (x1x, 1), Ellipse(3.0, 0.1, rot=rot), Ball(1))
        assert expand_bracket(p)[2]
        monkeypatch.setattr(solver, "MAX_BRACKET_DOUBLINGS", 0)
        with pytest.raises(BracketExpansionFailedError, match=f"^{side} bracket end"):
            expand_bracket(p)

    def test_optimality_certificate(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = random_problem(rng)
            result, _ = solve(p)
            if "Converged" not in result.status:
                continue
            assert support(p.F0, result.zeta0) == pytest.approx(1.0, abs=1e-9)
            assert support(p.F1, -result.zeta1) == pytest.approx(1.0, abs=1e-9)
            assert abs(result.zeta0[0] + result.zeta1[0]) <= p.epsilon

    def test_objective_consistency(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = random_problem(rng)
            result, _ = solve(p)
            l, r, _ = expand_bracket(p)
            for y in np.linspace(l, r, 1000):
                assert result.time <= crossing_time(p, y) + 1e-7

    @pytest.mark.parametrize("f0", MAKERS)
    @pytest.mark.parametrize("f1", MAKERS)
    def test_crossing_time_array_bit_equal(self, f0, f1):
        """An array of y gives, bit for bit, the sums of per-vector gauges."""
        rng = np.random.default_rng(15)
        for _ in range(5):
            p = random_pair_problem(rng, f0, f1)
            l, r, _ = expand_bracket(p)
            ys = np.linspace(l, r, 257)
            expected = np.array([gauge(p.F0, (y - p.x0[0], -p.x0[1]))
                                 + gauge(p.F1, (p.x1[0] - y, p.x1[1])) for y in ys])
            assert crossing_time(p, ys).tobytes() == expected.tobytes()
            assert crossing_time(p, ys[:1]).tobytes() == expected[:1].tobytes()
            for y, t in zip(ys[::64], expected[::64]):
                assert type(crossing_time(p, y)) is float
                assert crossing_time(p, float(y)) == t

    @pytest.mark.parametrize("f0", [Ball(1.0), Ellipse(2.0, 0.5, 0.3)])
    def test_zero_direction_bypassing_make_problem(self, f0, square1):
        """x0 on the interface (only a hand-built problem has one): at y = x0_x the
        source row is zero, and the residual raises instead of dividing 0 by 0."""
        p = solver.ElvisProblem(np.array([0.5, 0.0]), np.array([1.0, 1.0]), f0, square1)
        for ys in ([0.5], [-1.0, 0.5, 2.0]):
            with pytest.raises(ZeroVectorError):
                delta_rows(p, ys)
        with pytest.raises(ZeroVectorError):
            delta(p, 0.5)
        lo, hi = delta_rows(p, [-1.0, 2.0])
        assert [lo[1], hi[1]] == [delta(p, 2.0).lo, delta(p, 2.0).hi]

    def test_convergence_bound(self, elliptic_problem):
        result, trace = solve(elliptic_problem)
        y_star, _ = minimize_objective(elliptic_problem)
        d0 = trace.rows[0].d
        for row in trace:
            assert abs(row.y - y_star) <= d0 / 2.0 ** row.k + 1e-12


def one_level_solve(problem):
    """solve as the plain loop: one _residual_faces call per bisection step."""
    eps = problem.epsilon
    l, r, expanded = expand_bracket(problem)
    d = r - l
    trace = solver.BisectionTrace()
    k = 0
    while True:
        y = 0.5 * (l + r)
        interval, face0, neg_face1 = solver._residual_faces(problem, y)
        trace.append(solver.TraceRow(k, l, r, y, d, interval.lo, interval.hi))
        if interval.lo <= eps and interval.hi >= -eps:
            if interval.lo < 0.0 < interval.hi:
                status = STATUS_RESIDUAL_ZERO_IN_FACE
            else:
                status = STATUS_CONVERGED
            break
        if k + 1 >= problem.max_iter or d <= 4.0 * math.ulp(abs(y)):
            status = solver.STATUS_MAX_ITERATIONS
            break
        if interval.lo > eps:
            r = y
        else:
            l = y
        d *= 0.5
        k += 1
    if expanded:
        status = solver.BRACKET_EXPANDED_PREFIX + status

    zeta0, zeta1 = solver._select_multipliers(interval, face0, neg_face1)
    yv = np.array([y, 0.0])
    w0 = yv - problem.x0
    w1 = problem.x1 - yv
    g0 = problem.F0.gauge(w0)
    g1 = problem.F1.gauge(w1)
    result = solver.SolveResult(y, float(g0 + g1), w0 / g0, w1 / g1, zeta0, zeta1, len(trace),
                                status)
    return result, trace


def field_bits(obj):
    """Every dataclass field of obj as (name, type, bytes or repr)."""
    return [(f.name, type(v), v.tobytes() if isinstance(v, (np.ndarray, np.generic)) else repr(v))
            for f in dataclasses.fields(obj) for v in [getattr(obj, f.name)]]


def assert_same_solve(got, want):
    """Two (SolveResult, BisectionTrace) pairs agree byte for byte, types included."""
    assert field_bits(got[0]) == field_bits(want[0])
    assert [field_bits(row) for row in got[1]] == [field_bits(row) for row in want[1]]


class TestLookahead:
    """solve walks lookahead trees and must equal the one-level loop byte for byte."""

    @pytest.mark.parametrize("f0", MAKERS)
    @pytest.mark.parametrize("f1", MAKERS)
    def test_equals_one_level_loop(self, f0, f1):
        rng = np.random.default_rng(37)
        statuses = set()
        for n in range(4):
            p = random_pair_problem(rng, f0, f1)
            if n % 2:  # a target almost above x0 pushes anisotropic minimizers outside
                p = dataclasses.replace(p, x1=np.array([p.x0[0] + rng.uniform(-0.05, 0.05), p.x1[1]]))
            for change in ({}, {"epsilon": 1e-300}, *({"max_iter": m} for m in (1, 4, 5, 6, 10, 11, 31))):
                q = dataclasses.replace(p, **change)
                got = solve(q)
                assert_same_solve(got, one_level_solve(q))
                statuses.add(got[0].status)
        assert any(st.endswith("MaxIterations") for st in statuses)
        if (f0, f1) != (random_ball, random_ball):  # two balls never expand
            assert any(st.startswith("BracketExpanded+") for st in statuses)

    def test_squares(self, square_problem):
        """The squares' sweep line of criterion 6, x1 = +-10/3 (full depth) included."""
        for x1x in np.linspace(-4.0, 4.0, 13):
            p = dataclasses.replace(square_problem, x1=np.array([x1x, 1.0]))
            got = solve(p)
            assert_same_solve(got, one_level_solve(p))
            if abs(abs(x1x) - 10 / 3) < 1e-9:
                assert got[0].iterations > 10

    @pytest.mark.parametrize("x0, x1, f0, f1, want", [
        ((0.0, -1.0), (1.7e308, 1.0), Ball(1.0), Ball(1.0), (8.5e307, 1.7e308, "Converged", 1)),
        ((1e307, -1.0), (1.6e308, 1.0), Ball(1.0), Ball(2.0),
         (1.0000000000000001e307, 7.5e307, "MaxIterations", 56)),
    ], ids=["unit-balls", "far-bracket"])
    def test_unvisited_overflow_is_silent(self, x0, x1, f0, f1, want):
        """Deep midpoints that overflow are left out of the tree, not evaluated."""
        p = make_problem(x0, x1, f0, f1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve(p)
            assert_same_solve(got, one_level_solve(p))
        assert (got[0].y, got[0].time, got[0].status, got[0].iterations) == want


def solve_each(problem, x1s):
    """Per-node solve results for the targets x1s; None where the bracket fails."""
    results = []
    for x1 in x1s:
        try:
            results.append(solve(dataclasses.replace(problem, x1=np.array(x1)))[0])
        except BracketExpansionFailedError:
            results.append(None)
    return results


def assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None or g is None:
            assert g is w
            continue
        for f in dataclasses.fields(w):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert type(a) is type(b), f.name
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name


def grid(x, y):
    """Row-major targets over the x and y values."""
    return np.column_stack((np.tile(x, len(y)), np.repeat(y, len(x))))


class TestSolveBatch:
    """solve_batch must give per-node solve's SolveResult, field by field."""

    @pytest.mark.parametrize("f0", MAKERS)
    @pytest.mark.parametrize("f1", MAKERS)
    def test_equals_solve_per_node(self, f0, f1):
        rng = np.random.default_rng(31)
        statuses = set()
        for _ in range(3):
            p = random_pair_problem(rng, f0, f1)
            # Targets almost above x0 push anisotropic minimizers out of the bracket.
            x1s = grid(p.x0[0] + np.array([-3, -1, -0.2, -0.01, 0, 0.01, 0.2, 1, 3]),
                       [0.1, 1.0, 3.0])
            results = solve_batch(p, x1s)
            assert_same_results(results, solve_each(p, x1s))
            statuses.update(res.status for res in results)
        if (f0, f1) != (random_ball, random_ball):  # two balls never expand
            assert any(st.startswith("BracketExpanded+") for st in statuses)

    def test_stop_spacing_equals_ulp(self):
        """The stop test's np.spacing(|y|) is math.ulp(|y|), per-node solve's rule.

        Checked on 0, every power of two, the subnormals' ends and 200 000
        magnitudes over 600 decades; the one float left out is the largest,
        where np.spacing overflows to inf and a midpoint 0.5*(l + r) has
        already overflowed.
        """
        rng = np.random.default_rng(36)
        powers = 2.0 ** np.arange(-1074, 1024)
        ys = np.concatenate((
            [0.0, 5e-324, 2.2250738585072009e-308],
            powers, np.nextafter(powers, 0.0), np.nextafter(powers[:-1], np.inf),
            10.0 ** rng.uniform(-310.0, 290.0, 200_000),
        ))
        assert np.array_equal(np.spacing(ys), [math.ulp(y) for y in ys])

    def test_max_iterations(self, elliptic_problem):
        p = dataclasses.replace(elliptic_problem, max_iter=3)
        x1s = grid(np.linspace(-2, 2, 7), [0.5, 1.0, 2.0])
        results = solve_batch(p, x1s)
        assert_same_results(results, solve_each(p, x1s))
        assert any(res.status == "MaxIterations" for res in results)

    def test_squares_stop_on_vertex_faces(self, square_problem):
        x1s = grid(np.arange(-4.0, 4.0 + 1e-9, 2.0 / 3.0), [1.0])
        results = solve_batch(square_problem, x1s)
        assert_same_results(results, solve_each(square_problem, x1s))
        assert sum(res.status == STATUS_RESIDUAL_ZERO_IN_FACE for res in results) >= 4

    def test_bracket_expansion_failed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_BRACKET_DOUBLINGS", 0)
        p = make_problem((0, -1), (0.1, 1), Ellipse(3.0, 0.1, rot=np.pi / 4), Ball(1))
        # Targets near x0 need an expanded bracket; the far right one does not.
        x1s = np.array([[0.1, 1.0], [0.0, 2.0], [3.0, 0.2]])
        results = solve_batch(p, x1s)
        assert_same_results(results, solve_each(p, x1s))
        assert [res is None for res in results] == [True, True, False]

        doc = {"x0": [0, -1], "F0": {"kind": "ellipse", "a": 3.0, "b": 0.1, "rot": np.pi / 4},
               "F1": {"kind": "ball", "r": 1},
               "x1_grid": {"xmin": 0.1, "xmax": 3.0, "ymin": 1, "ymax": 1, "nx": 2, "ny": 1}}
        spec, out_csv = tmp_path / "s.json", tmp_path / "s.csv"
        spec.write_text(json.dumps(doc))
        assert main(["sweep", str(spec), "--out", str(out_csv)]) == 0
        rows = out_csv.read_text().splitlines()
        assert rows[1] == "0.10000000000000001,1,nan,nan,BracketExpansionFailed,0"
        assert rows[2].startswith("3,1,")
        assert json.loads(capsys.readouterr().out) == {"nodes": 2, "solved": 1}

        doc["x1_grid"]["xmax"] = 0.1
        spec.write_text(json.dumps(doc))
        assert main(["sweep", str(spec), "--out", str(out_csv)]) == 3
        assert json.loads(capsys.readouterr().out) == {"nodes": 2, "solved": 0}
        assert out_csv.read_text().count(",nan,nan,BracketExpansionFailed,0\n") == 2

    def test_rejects_targets_on_or_below_interface(self, elliptic_problem):
        with pytest.raises(ValidationError):
            solve_batch(elliptic_problem, [[1.0, 1.0], [1.0, 0.0]])


class TestClassicalSnell:
    def test_symmetric_forty_five(self, symmetric_ball_problem):
        result, _ = solve(symmetric_ball_problem)
        th0, th1 = classical_snell_angles(result, symmetric_ball_problem)
        assert th0 == pytest.approx(np.pi / 4, abs=1e-9)
        assert th1 == pytest.approx(np.pi / 4, abs=1e-9)

    def test_two_media(self):
        p = make_problem((-1, -1), (1, 1), Ball(1), Ball(2))
        result, _ = solve(p)
        th0, th1 = classical_snell_angles(result, p)
        assert math.sin(th0) / 1.0 == pytest.approx(math.sin(th1) / 2.0, abs=1e-9)

    def test_equal_media_straight_line(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            r = float(rng.uniform(0.5, 3))
            p = random_problem(rng, families=[lambda _: Ball(r)])
            result, _ = solve(p)
            th0, th1 = classical_snell_angles(result, p)
            assert th0 == pytest.approx(th1, abs=1e-9)

    def test_not_isotropic(self, elliptic_problem):
        result, _ = solve(elliptic_problem)
        with pytest.raises(NotIsotropicError):
            classical_snell_angles(result, elliptic_problem)
