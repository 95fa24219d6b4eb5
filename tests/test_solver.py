import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elvis import (
    Ball,
    BracketExpansionFailedError,
    DegenerateDimensionsError,
    Ellipse,
    ElvisError,
    NotIsotropicError,
    OracleConfig,
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
    parse_problem,
    solve,
    solve_batch,
    support,
    validate,
)
from elvis import geometry, solver
from elvis.cli import main
from elvis.solver import STATUS_CONVERGED, STATUS_RESIDUAL_ZERO_IN_FACE, delta_rows

from conftest import (
    SQUARE0_VERTICES,
    egg_polygon,
    exact_polygon_pair_minimum,
    output_probe,
    pool_problems,
    random_ball,
    random_ellipse,
    random_polygon,
    random_problem,
)

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

    @pytest.mark.parametrize("point", [lambda y: ["a", y], lambda y: [None, y],
                                       lambda y: [[1, 2], y], lambda y: [10**400, y],
                                       lambda y: [0, y, 2], lambda y: [[0], [y]]],
                             ids=["string", "none", "nested", "huge_int", "three", "column"])
    def test_point_not_two_floats(self, point):
        """A point (point(y), y its y-component) that does not convert to two floats raises
        ValidationError, not numpy's bare ValueError or OverflowError, on either side."""
        with pytest.raises(ValidationError):
            make_problem(point(-1), (0, 1), Ball(1.0), Ball(1.0))
        with pytest.raises(ValidationError):
            make_problem((0, -1), point(1), Ball(1.0), Ball(1.0))

    @pytest.mark.parametrize("x0", [(0.5, -1.0), [0.5, -1], np.array([0.5, -1.0]),
                                    np.array([0.5, -1.0], dtype=np.float32), ["0.5", "-1"]],
                             ids=["tuple", "ints", "array", "float32", "strings"])
    def test_points_accepted(self, x0):
        """Every kind of point the float array conversion takes stays accepted, as that array."""
        p = make_problem(x0, (1, 1), Ball(1.0), Ball(1.0))
        assert p.x0.dtype == float and p.x0.tolist() == [0.5, -1.0]
        assert p.x1.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("f1", [Ball(1e200), Ellipse(1e-200, 1e-201, 0.3)],
                             ids=["ball_1e200", "ellipse_1e-200"])
    def test_squared_radius_out_of_range(self, f1):
        """A radius whose square is not a normal float solved to zero or NaN multipliers."""
        with pytest.raises(DegenerateDimensionsError):
            make_problem((0, -1), (0.5, 1), Ball(1), f1)

    def test_offset_gauge_underflow(self):
        """x1_y/circumradius = 1e-400 underflows the gauge: v1 = [nan, inf] before."""
        with pytest.raises(ValidationError, match="2\\*\\*-1020"):
            make_problem((0, -1), (0, 1e-300), Ball(1), Ball(1e100))
        with pytest.raises(ValidationError, match="2\\*\\*-1020"):
            make_problem((0, -1e-300), (0, 1), Ball(1e100), Ball(1))
        p = make_problem((0, -1), (0, 1), Ball(1), Ball(1e100))
        with pytest.raises(ValidationError, match="2\\*\\*-1020"):
            solve_batch(p, [[0.0, 1.0], [0.0, 1e-300]])


FAMILY_PAIRS = list(itertools.product(("ball", "ellipse", "polygon"), repeat=2))


@st.composite
def extreme_sets(draw, kind):
    """A ball, an ellipse or a polygon on an ellipse (maybe off-centre) at a scale 10**+-300."""
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    a, b = (scale * draw(st.floats(0.01, 3.0)) for _ in range(2))
    if kind == "ball":
        return Ball(a)
    rot = draw(st.floats(0.0, math.pi))
    if kind == "ellipse":
        return Ellipse(a, b, rot)
    n = draw(st.integers(3, 12))
    shift = draw(st.floats(-0.5, 0.5))
    t = rot + np.arange(n) * (2.0 * math.pi / n)
    return Polygon(np.column_stack((a * (np.cos(t) + shift), b * np.sin(t))))


@st.composite
def extreme_problems(draw):
    """A problem over any of the 9 family pairs with coordinates and sets at scales 10**+-300."""
    def coordinate(low, high):
        return draw(st.floats(low, high)) * 10.0 ** draw(st.floats(-300.0, 300.0))

    f0, f1 = (draw(extreme_sets(kind)) for kind in draw(st.sampled_from(FAMILY_PAIRS)))
    x0 = coordinate(-3.0, 3.0), -coordinate(0.01, 3.0)
    x1 = coordinate(-3.0, 3.0), coordinate(0.01, 3.0)
    return x0, x1, f0, f1


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(extreme_problems())
def test_extreme_scales_raise_or_stay_finite(problem):
    """Every problem either raises an ElvisError or solves to finite fields (a RuntimeWarning
    fails the test too)."""
    try:
        result, _ = solve(make_problem(*problem))
    except ElvisError:
        return
    for name in ("y", "time", "v0", "v1", "zeta0", "zeta1"):
        assert np.all(np.isfinite(getattr(result, name))), (name, result)


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

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    def test_non_finite_y_raises(self, y):
        """delta, delta_rows and crossing_time refuse a non-finite y with a ValidationError
        naming y, not a NaN with a RuntimeWarning."""
        p = make_problem((0.0, -1.0), (1.0, 1.0), Ball(1.0), Polygon(SQUARE0_VERTICES))
        for call in (lambda: delta(p, y), lambda: delta_rows(p, np.array([0.0, y])),
                     lambda: crossing_time(p, y), lambda: crossing_time(p, np.array([0.0, y]))):
            with pytest.raises(ValidationError, match="y must be finite"):
                call()

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
        # A trace made from the problem and the same (k, l, r, y, d) tuples counts
        # them before building any row, and then equals solve's and reads the same.
        fresh = solver.BisectionTrace(square_problem, (dataclasses.astuple(row)[:5] for row in rows))
        assert len(fresh) == result.iterations and "rows" not in vars(fresh)
        assert fresh == trace and fresh.rows is not rows
        assert repr(fresh) == repr(trace) == f"BisectionTrace(rows={rows!r})"

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

    @pytest.mark.parametrize("side", ["F0", "F1"])
    @pytest.mark.parametrize("s, status, iterations, time", [
        (1e200, STATUS_CONVERGED, 40, 1.0),
        (1e-200, STATUS_CONVERGED, 30, 1e200),
    ])
    def test_extreme_squares(self, side, s, status, iterations, time):
        """The squares (+-s, +-s) against Ball(1): a huge square takes no time, a tiny one
        all of it, flat over a range of y; no warning on the way.  The tiny square's solve
        ends at the square's kink where Ball(1)'s term is least, and there zero is an end
        of the residual interval ([-1e200, 0] or [0, 1e200]): Converged."""
        sets = {"F0": Ball(1.0), "F1": Ball(1.0), side: Polygon([(s, s), (-s, s), (-s, -s), (s, -s)])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _ = solve(make_problem((0.0, -1.0), (1.0, 1.0), sets["F0"], sets["F1"]))
        assert (result.status, result.iterations, result.time) == (status, iterations, time)

    def test_convergence_bound(self, elliptic_problem):
        result, trace = solve(elliptic_problem)
        y_star, _ = minimize_objective(elliptic_problem)
        d0 = trace.rows[0].d
        for row in trace:
            assert abs(row.y - y_star) <= d0 / 2.0 ** row.k + 1e-12


def reference_expand(problem):
    """expand_bracket as the loop that evaluates delta at the bracket ends, on np.float64."""
    def check_width(l, r):
        if not math.isfinite(float(r) - float(l)):
            raise BracketExpansionFailedError(
                f"bracket [{float(l)}, {float(r)}] is too wide for floats")

    l = min(problem.x0[0], problem.x1[0])
    r = max(problem.x0[0], problem.x1[0])
    check_width(l, r)
    eps = problem.epsilon
    expanded = False
    step = max(r - l, 1.0)
    tries = 0
    while delta(problem, l).lo > eps:
        if tries >= solver.MAX_BRACKET_DOUBLINGS:
            raise BracketExpansionFailedError("left bracket end never reached a nonpositive residual")
        l -= step
        step *= 2.0
        tries += 1
        expanded = True
    step = max(r - l, 1.0)
    tries = 0
    while delta(problem, r).hi < -eps:
        if tries >= solver.MAX_BRACKET_DOUBLINGS:
            raise BracketExpansionFailedError("right bracket end never reached a nonnegative residual")
        r += step
        step *= 2.0
        tries += 1
        expanded = True
    check_width(l, r)
    return l, r, expanded


def point_with_x(face, x):
    """Point of the NormalFace face whose x-component is x (clamped to the face), on arrays;
    the midpoint where both ends have the same x."""
    a, b = face.zeta_lo[0], face.zeta_hi[0]
    if a == b:
        return 0.5 * (face.zeta_lo + face.zeta_hi)
    t = (x - a) / (b - a)
    t = min(max(t, 0.0), 1.0)
    return (1.0 - t) * face.zeta_lo + t * face.zeta_hi


def residual_faces(problem, y):
    """delta at y plus the two NormalFaces it came from: face0 holds the admissible zeta0,
    neg_face1 the admissible -zeta1 (the face of F1 at its own boundary point)."""
    yv = np.array([y, 0.0])
    face0 = geometry.normal_face(problem.F0, yv - problem.x0)
    neg_face1 = geometry.normal_face(problem.F1, problem.x1 - yv)
    (a0, b0), (a1m, b1m) = face0.x_range, neg_face1.x_range
    return solver.DeltaInterval(a0 - b1m, b0 - a1m), face0, neg_face1


def select_multipliers(interval, face0, neg_face1):
    """zeta0, zeta1 from the faces with (zeta0 + zeta1)_x as close to 0 as possible, on
    NormalFaces and np.float64: the reference for solve's multipliers."""
    target = min(max(0.0, interval.lo), interval.hi)
    a0, b0 = face0.x_range
    a1m, b1m = neg_face1.x_range
    # zeta1 x-range is [-b1m, -a1m]; split the target between the two faces.
    z0x = min(max(target + a1m, a0), b0)
    z1x = target - z0x
    return point_with_x(face0, z0x), -point_with_x(neg_face1, -z1x)


def kink_finish(problem, l, r, y):
    """Where a bisection that stops at y in the bracket [l, r] with the kernels' decision 0
    ends: of every polygon kink in [l, r], nearest y first, the first whose kernel decision
    is 0, or y.  A kink is where the crossing direction points at a vertex V with V_y > 0:
    y = x0_x - x0_y V_x/V_y for F0 and y = x1_x - x1_y V_x/V_y for F1."""
    def ratios(vset):
        return [vx / vy for vx, vy in vset.vertices.tolist() if vy > 0] if isinstance(vset, Polygon) else []

    x0x, x0y = problem.x0.tolist()
    x1x, x1y = problem.x1.tolist()
    ys = [x0x - x0y * kink for kink in ratios(problem.F0)]
    ys += [x1x - x1y * kink for kink in ratios(problem.F1)]
    for t in sorted((t for t in ys if l <= t <= r), key=lambda t: (abs(t - y), t)):
        if kernel_decision(problem, t) == 0:
            return t
    return y


def one_level_solve(problem):
    """solve as the plain loop: one residual_faces call per bisection step.

    Returns the SolveResult and the list of TraceRows.
    """
    eps = problem.epsilon
    l, r, expanded = reference_expand(problem)
    d = r - l
    rows = []
    k = 0
    while True:
        y = 0.5 * (l + r)
        interval, face0, neg_face1 = residual_faces(problem, y)
        rows.append(solver.TraceRow(k, l, r, y, d, interval.lo, interval.hi))
        if interval.lo <= eps and interval.hi >= -eps:
            y = np.float64(kink_finish(problem, l, r, y))
            interval, face0, neg_face1 = residual_faces(problem, y)
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

    zeta0, zeta1 = select_multipliers(interval, face0, neg_face1)
    yv = np.array([y, 0.0])
    w0 = yv - problem.x0
    w1 = problem.x1 - yv
    g0 = problem.F0.gauge(w0)
    g1 = problem.F1.gauge(w1)
    result = solver.SolveResult(y, float(g0 + g1), w0 / g0, w1 / g1, zeta0, zeta1, len(rows),
                                status)
    return result, rows


def expand_outcome(expand, problem):
    """expand(problem)'s (l, r, expanded) as (type, bytes) pairs, or its error."""
    try:
        return [(type(v), np.asarray(v).tobytes()) for v in expand(problem)]
    except BracketExpansionFailedError as exc:
        return repr(exc)


def field_bits(obj):
    """Every dataclass field of obj as (name, type, bytes or repr)."""
    return [(f.name, type(v), v.tobytes() if isinstance(v, (np.ndarray, np.generic)) else repr(v))
            for f in dataclasses.fields(obj) for v in [getattr(obj, f.name)]]


def assert_same_solve(got, want):
    """Two (SolveResult, BisectionTrace) pairs agree byte for byte, types included."""
    assert field_bits(got[0]) == field_bits(want[0])
    assert [field_bits(row) for row in got[1]] == [field_bits(row) for row in want[1]]


def two_gauge_answer(problem, steps, y, expanded):
    """solve's SolveResult at the bisection's final y formed as before each side's gauge was
    taken once: one residual_faces call, then both gauges again for time, v0 and v1."""
    y = np.float64(y)
    interval, face0, neg_face1 = residual_faces(problem, y)
    status = solver._stop_status(interval.lo, interval.hi, problem.epsilon) or solver.STATUS_MAX_ITERATIONS
    if expanded:
        status = solver.BRACKET_EXPANDED_PREFIX + status
    zeta0, zeta1 = select_multipliers(interval, face0, neg_face1)
    yv = np.array([y, 0.0])
    w0 = yv - problem.x0
    w1 = problem.x1 - yv
    g0 = problem.F0.gauge(w0)
    g1 = problem.F1.gauge(w1)
    return solver.SolveResult(y, float(g0 + g1), w0 / g0, w1 / g1, zeta0, zeta1, len(steps), status)


class TestAnswer:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_two_gauge_answer(self, seed):
        """Every SolveResult field, bytes and type, on the benchmark's problem pools 1-3."""
        compared = 0
        for text in pool_problems(seed):
            p = parse_problem(text)
            try:
                got = solve(p)[0]
            except BracketExpansionFailedError:
                continue
            steps, y, expanded = solver._bisect(p, *solver._line_forms(p))
            assert field_bits(got) == field_bits(two_gauge_answer(p, steps, y, expanded))
            compared += 1
        assert compared > 250


class TestLookahead:
    """solve's screened steps and expand_bracket must equal the plain loops on delta byte
    for byte (the class keeps the name it had when solve looked ahead by bisection levels)."""

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
                assert expand_outcome(expand_bracket, q) == expand_outcome(reference_expand, q)
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
            assert expand_outcome(expand_bracket, p) == expand_outcome(reference_expand, p)
            if abs(abs(x1x) - 10 / 3) < 1e-9:
                assert got[0].iterations > 10

    @pytest.mark.parametrize("x1x, rot", [(0.1, np.pi / 4), (-0.1, -np.pi / 4)], ids=["right", "left"])
    def test_expansion_failure_equals_reference(self, monkeypatch, x1x, rot):
        """test_bracket_expansion_failed's problems: the same bracket, then with no
        doublings allowed the same error from the same end."""
        p = make_problem((0, -1), (x1x, 1), Ellipse(3.0, 0.1, rot=rot), Ball(1))
        assert expand_outcome(expand_bracket, p) == expand_outcome(reference_expand, p)
        monkeypatch.setattr(solver, "MAX_BRACKET_DOUBLINGS", 0)
        failed = expand_outcome(expand_bracket, p)
        assert failed == expand_outcome(reference_expand, p)
        assert failed.startswith("BracketExpansionFailedError(")

    @pytest.mark.parametrize("x0, x1, f0, f1, want", [
        ((0.0, -1.0), (1.7e308, 1.0), Ball(1.0), Ball(1.0), (8.5e307, 1.7e308, "Converged", 1)),
        ((1e307, -1.0), (1.6e308, 1.0), Ball(1.0), Ball(2.0),
         (1.0000000000000001e307, 7.5e307, "MaxIterations", 56)),
    ], ids=["unit-balls", "far-bracket"])
    def test_unvisited_overflow_is_silent(self, x0, x1, f0, f1, want):
        """Only the midpoints the bisection reaches are formed, so none overflows here."""
        p = make_problem(x0, x1, f0, f1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve(p)
            assert_same_solve(got, one_level_solve(p))
        assert (got[0].y, got[0].time, got[0].status, got[0].iterations) == want

    @pytest.mark.parametrize("x0, x1, f0, f1", [
        ((1.7e308, -1.0), (1.79e308, 2.0), Ball(1.0), Ball(2.0)),
        ((-1.7e308, -1.0), (1.7e308, 1.0), Ball(1.0), Ball(2.0)),
        ((0.0, -1.0), (1.7e308, 1.0), Ball(100.0), Ball(1.0)),
    ], ids=["first-midpoint", "bracket-width", "walked-midpoint"])
    def test_overflow_fails(self, x0, x1, f0, f1, tmp_path, capsys):
        """A bracket too wide for floats, or a midpoint the bisection reaches that overflows,
        fails as BracketExpansionFailedError everywhere, without a floating-point warning;
        the CLI leaves no trace or curve file behind."""
        p = make_problem(x0, x1, f0, f1)
        x1s = [x1, (1.0, 1.0)]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"x0": x0, "x1": x1, "F0": {"kind": "ball", "r": f0.r},
                                    "F1": {"kind": "ball", "r": f1.r}}))
        trace, curve = tmp_path / "t.csv", tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketExpansionFailedError):
                solve(p)
            results = assert_batch_equals_references(p, x1s)
            assert results[0] is None
            for argv in (["solve", str(path)], ["solve", str(path), "--trace", str(trace)],
                         ["delta-curve", str(path), "--samples", "50", "--out", str(curve)]):
                assert main(argv) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("solver error: BracketExpansionFailed: ")
        assert not trace.exists() and not curve.exists()

    def test_kernel_overflow_fails(self, tmp_path, capsys):
        """Offsets that would overflow a kernel (5e307 over F0's 0.1 semi-axis) fail as
        BracketExpansionFailedError before any residual, without a floating-point warning;
        1e306 stays in range and keeps its wide-bracket MaxIterations answer."""
        f0, f1 = Ellipse(3.0, 0.1, rot=np.pi / 4), Ball(1.0)
        p = make_problem((0.0, -1.0), (5e307, 1.0), f0, f1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"x0": [0.0, -1.0], "x1": [5e307, 1.0], "F1": {"kind": "ball", "r": 1.0},
                                    "F0": {"kind": "ellipse", "a": 3.0, "b": 0.1, "rot": np.pi / 4}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketExpansionFailedError, match="overflow the kernels"):
                solve(p)
            with pytest.raises(BracketExpansionFailedError):
                expand_bracket(p)
            assert solve_batch(p, [[5e307, 1.0], [1.0, 1.0]])[0] is None
            assert main(["solve", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("solver error: BracketExpansionFailed: ")

            q = dataclasses.replace(p, x1=np.array([1e306, 1.0]))
            got = solve(q)
            assert_same_solve(got, one_level_solve(q))
            assert_same_results(solve_batch(q, [q.x1]), [got[0]])
        assert (got[0].y, got[0].time, got[0].status, got[0].iterations) == (
            6.223015277861142e245, 1e306, "MaxIterations", 200)

    @staticmethod
    def count_fallbacks(monkeypatch):
        """Count solve's decisions and the ones `delta` settled, by wrapping both."""
        counts = {"decisions": 0, "fallbacks": 0}
        screen, kernels = solver._residual_side, solver.delta

        def counted_delta(problem, y):
            counts["fallbacks"] += 1
            return kernels(problem, y)

        def counted_side(problem, line0, line1):
            side = screen(problem, line0, line1)

            def counted(y):
                counts["decisions"] += 1
                return side(y)

            return counted

        monkeypatch.setattr(solver, "delta", counted_delta)
        monkeypatch.setattr(solver, "_residual_side", counted_side)
        return counts

    def test_bound_inf_decides_by_kernels(self, monkeypatch, square_problem):
        """With every bound inf each decision falls back to delta, and every bit is the same."""
        rng = np.random.default_rng(38)
        problems = [square_problem] + [random_pair_problem(rng, f0, f1)
                                       for f0 in MAKERS for f1 in MAKERS]
        want = [one_level_solve(p) for p in problems]
        monkeypatch.setattr(geometry, "LINE_FACE_REL", math.inf)
        for p in problems:  # every form gives up, so no threshold is located
            assert located_thresholds(p)[1] == (-math.inf, math.inf, -math.inf, math.inf)
        counts = self.count_fallbacks(monkeypatch)
        for p, w in zip(problems, want):
            assert_same_solve(solve(p), w)
        assert counts["fallbacks"] == counts["decisions"] > 20 * len(problems)

    def test_bound_zero_decides_wrongly(self, monkeypatch):
        """An eps between the line forms' residual and the kernels': with the bound at 0
        the screen decides against the kernels, and a threshold probe there puts b at y,
        against the kernels' 0; with the real bound the screen falls back and the probe
        places no b."""
        p = make_problem((-1.0, -1.0), (1.0, 1.0), Ellipse(1.0, 0.5, 0.3), Ellipse(2.0, 1.0, -1.1))
        face0 = p.F0.line_form(-p.x0[1]).face
        face1 = p.F1.line_form(p.x1[1]).face
        for y in np.linspace(-3.0, 3.0, 4001).tolist():
            a0, _ = face0(y - p.x0[0])
            _, b1m = face1(p.x1[0] - y)
            lo, lo_kernel = a0 - b1m, delta(p, y).lo
            if lo > lo_kernel > 0.0:
                break
        else:
            pytest.skip("the line forms round like the kernels on every sampled point here")
        # At eps = lo_kernel the kernels stop at y; the screen with no bound does not.
        q = dataclasses.replace(p, epsilon=lo_kernel)
        counts = self.count_fallbacks(monkeypatch)
        assert solver._residual_side(q, *solver._line_forms(q))(y) == 0
        assert counts == {"decisions": 1, "fallbacks": 1}
        # The window's left end is probed first, and its value ends the search here.
        assert solver._thresholds(q, y, y + 1.0, *solver._line_forms(q))[3] == math.inf
        monkeypatch.setattr(geometry, "LINE_FACE_REL", 0.0)
        assert solver._residual_side(q, *solver._line_forms(q))(y) == 1
        assert counts == {"decisions": 2, "fallbacks": 1}
        assert solver._thresholds(q, y, y + 1.0, *solver._line_forms(q))[3] == y

    @pytest.mark.parametrize("verts, degenerate", [
        # Square with its top-right vertex replaced by two vertices 1e-9 apart.
        ([(1.0, 1.0 - 0.7e-9), (1.0 - 0.7e-9, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)], True),
        # Square with a vertex 2e-12 outside the middle of its top edge.
        ([(1.0, 1.0), (0.0, 1.0 + 2e-12), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)], True),
        # Square with its top-right vertex replaced by two vertices 1.4e-11 apart: both kinks
        # lie in one snap band, and the crosses (2e-11) keep both vertices.
        ([(1.0, 1.0 - 1e-11), (1.0 - 1e-11, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)], True),
        (SQUARE0_VERTICES, False),
    ], ids=["split-vertex", "near-collinear", "split-within-band", "square"])
    def test_degenerate_polygons_fall_back(self, monkeypatch, verts, degenerate):
        """Solves that end at a vertex split in two about 1e-9 R or 1e-11 R apart, or at a
        vertex between near-collinear neighbours: the polygon's line form gives up there,
        delta decides, and solve equals the plain loop.  The plain square never falls back."""
        f1 = validate(Polygon(verts))
        assert len(f1.vertices) == len(verts)
        counts = self.count_fallbacks(monkeypatch)
        for x1x in np.linspace(-0.5, 2.5, 13):
            p = make_problem((0.0, -1.0), (x1x, 2.0), Ball(1.0), f1)
            assert_same_solve(solve(p), one_level_solve(p))
        assert (counts["fallbacks"] > 0) == degenerate


def kernel_decision(problem, y):
    """The bisection's decision at y by the 2-D kernels alone."""
    interval, eps = delta(problem, y), problem.epsilon
    return 1 if interval.lo > eps else -1 if interval.hi < -eps else 0


def located_thresholds(problem):
    """The expanded bracket (l, r) and the thresholds (a, c, d, b) _bisect locates in it."""
    line0, line1 = solver._line_forms(problem)
    l, r, _ = solver._expand(problem, solver._residual_side(problem, line0, line1))
    return (l, r), solver._thresholds(problem, l, r, line0, line1)


def reference_halve(problem, side, l, r, a, c, d, b):
    """`solver._halve` as the loop that checks every midpoint for overflow and every
    step for the 4-ulp stop."""
    max_iter, isfinite, ulp = problem.max_iter, math.isfinite, math.ulp
    d_k = r - l
    steps = []
    k = 0
    while True:
        y = 0.5 * (l + r)
        if not isfinite(y):
            raise BracketExpansionFailedError(f"midpoint of [{l}, {r}] overflows")
        steps.append((k, l, r, y, d_k))
        sign = -1 if y <= a else 1 if y >= b else 0 if c <= y <= d else side(y)
        if sign == 0:
            return steps, y, (l, r)
        if k + 1 >= max_iter or d_k <= 4.0 * ulp(abs(y)):
            return steps, y, None
        if sign > 0:
            r = y
        else:
            l = y
        d_k *= 0.5
        k += 1


def halve_outcome(halve, max_iter, l, r, root, thresholds=(-math.inf, math.inf, -math.inf, math.inf)):
    """repr of halve's (steps, y, last), or of its error, and of the midpoints it asked side
    for; side decides -1 below root, 1 above it and 0 at it."""
    asked = []

    def side(y):
        asked.append(y)
        return -1 if y < root else 1 if y > root else 0

    try:
        outcome = halve(types.SimpleNamespace(max_iter=max_iter), side, l, r, *thresholds)
    except BracketExpansionFailedError as exc:
        outcome = exc
    return repr(outcome), repr(asked)


class TestHalve:
    """_halve checks for overflow only where an end exceeds max/2 and forms 4 ulp(|y|) only
    near the 4-ulp stop; it must take the steps of the loop that checks both every step."""

    M = sys.float_info.max

    @pytest.mark.parametrize("l, r, root", [
        (-0.6 * M, 0.7 * M, 1.0),  # ends beyond +-max/2, no midpoint overflows
        (0.6 * M, 0.9 * M, 0.0),  # the first midpoint overflows
        (0.1 * M, 0.85 * M, M),  # the second midpoint overflows
        (-0.9 * M, -0.1 * M, -M),
        (-M, M, 3.0), (-math.inf, 1.0, 0.0), (-1.0, math.inf, 0.0),
        (-1e300, 1e300, 1.0), (-1e300, 1e300, -1e-300), (-1e300, 2e300, 0.0),  # huge ends around 0
        (-1e-300, 1e-300, 1e-310), (-5e-324, 1e-320, 0.0), (-1e-320, 1e-320, 7e-323),  # tiny ends
        (1.0, 1.0 + 3 * 2.0**-52, 2.0), (-1.0 - 3 * 2.0**-52, -1.0, -2.0),  # a few ulps wide
        (1e300, 1e300 * (1.0 + 5 * 2.0**-52), 0.0), (0.0, 2e-323, 1.0),
    ])
    @pytest.mark.parametrize("max_iter", [1, 200])
    def test_cases(self, l, r, root, max_iter):
        assert (halve_outcome(solver._halve, max_iter, l, r, root)
                == halve_outcome(reference_halve, max_iter, l, r, root))

    @pytest.mark.parametrize("max_iter", [1, 3, 200])
    def test_thresholds(self, max_iter):
        """Present thresholds decide their midpoints without side, absent ones never."""
        inf = math.inf
        for thresholds in [(-2.0, 0.5, 1.5, 3.0), (-inf, 0.5, 1.5, inf), (-2.0, inf, -inf, 3.0),
                           (0.75, 0.75, 0.75, 0.75)]:
            for root in (-7.0, 0.75, 1.0, 9.0):
                assert (halve_outcome(solver._halve, max_iter, -8.0, 10.0, root, thresholds)
                        == halve_outcome(reference_halve, max_iter, -8.0, 10.0, root, thresholds))

    def test_random_brackets(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            l, r = sorted((rng.choice((-1.0, 1.0), 2) * 10.0 ** rng.uniform(-320, 308.2, 2)).tolist())
            root = float(rng.uniform(l, r)) if rng.uniform() < 0.8 else float(rng.choice((l, r)))
            assert (halve_outcome(solver._halve, 200, l, r, root)
                    == halve_outcome(reference_halve, 200, l, r, root))


class TestThresholds:
    """Wherever the located thresholds decide a point of the bracket (-1 up to a, 1 from b,
    0 on [c, d]) they decide as the kernels do, and solve keeps every bit of the plain loop."""

    @staticmethod
    def check(problem, rng):
        """Compare the thresholds' decisions with the kernels' at random points, the plain
        loop's midpoints and points at and around each threshold; returns how many decided."""
        (l, r), (a, c, d, b) = located_thresholds(problem)
        want, rows = one_level_solve(problem)
        points = rng.uniform(l, r, 16).tolist() + [row.y for row in rows]
        for t in (a, c, d, b):
            if math.isfinite(t):
                points += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
                points += [t + o * max(abs(t), 1.0) for o in (-1e-9, -1e-13, 1e-13, 1e-9)]
        decided = 0
        for y in points:
            threshold = -1 if y <= a else 1 if y >= b else 0 if c <= y <= d else None
            if l <= y <= r and threshold is not None:
                assert kernel_decision(problem, y) == threshold, (y, (a, c, d, b))
                decided += 1
        assert_same_solve(solve(problem), (want, rows))
        return decided

    @pytest.mark.parametrize("f0", MAKERS)
    @pytest.mark.parametrize("f1", MAKERS)
    def test_random_pairs(self, f0, f1):
        rng = np.random.default_rng(41)
        decided = []
        for n in range(6):
            p = random_pair_problem(rng, f0, f1)
            if n % 2:
                p = dataclasses.replace(p, x1=np.array([p.x0[0] + rng.uniform(-0.05, 0.05), p.x1[1]]))
            for eps in (1e-12, 1e-6, 1e-300):
                decided.append(self.check(dataclasses.replace(p, epsilon=eps), rng))
        assert sum(n > 0 for n in decided) > len(decided) // 2

    @pytest.mark.parametrize("verts", [
        [(1.0, 1.0 - 0.7e-9), (1.0 - 0.7e-9, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
        [(1.0, 1.0), (0.0, 1.0 + 2e-12), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
        [(1.0, 1.0 - 1e-11), (1.0 - 1e-11, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
    ], ids=["split-vertex", "near-collinear", "split-within-band"])
    def test_degenerate_polygons(self, verts):
        """The polygons of test_degenerate_polygons_fall_back, on both sides of the line."""
        rng = np.random.default_rng(42)
        poly = validate(Polygon(verts))
        for x1x in np.linspace(-0.5, 2.5, 13):
            self.check(make_problem((0.0, -1.0), (x1x, 2.0), Ball(1.0), poly), rng)
            self.check(make_problem((x1x, -2.0), (0.3, 1.0), poly, Ellipse(2.0, 0.7, 0.4)), rng)

    def test_polygon_reach(self):
        """Offsets over the bracket past a polygon form's reach, 2**17 vy h_min/R, leave
        every threshold absent."""
        p = make_problem((0.0, -1e-6), (3.0, 1.0), egg_polygon(), Ellipse(2.0, 0.7, 1.1))
        (l, r), thresholds = located_thresholds(p)
        assert max(abs(l), abs(r)) > p.F0.line_form(1e-6).reach
        assert thresholds == (-math.inf, math.inf, -math.inf, math.inf)
        self.check(p, np.random.default_rng(45))

    @pytest.mark.parametrize("x0, x1, decides", [
        ((1e15, -1.0), (1e15 + 3.0, 1.0), True),
        ((1e300, -1.0), (1.0000000000000002e300, 1.0), False),
        ((-1e300, -1.0), (1e300, 1.0), False),
        ((0.0, -1.0), (1e306, 1.0), False),
    ], ids=["near-1e15", "near-1e300", "across-1e300", "x1-1e306"])
    def test_far_brackets(self, x0, x1, decides):
        """Offsets beyond 2**64 make every form give up, so there no threshold is located."""
        rng = np.random.default_rng(43)
        for f0, f1 in ((Ellipse(3.0, 0.1, rot=np.pi / 4), Ball(1.0)), (egg_polygon(), Ellipse(2.0, 0.7, 1.1)),
                       (Ball(1.0), egg_polygon())):
            assert (self.check(make_problem(x0, x1, validate(f0), validate(f1)), rng) > 0) == decides


def residual_rows(problem, ys, x1s):
    """residual_faces at every ys[n] for the target x1s[n] (x1s may be one shared point),
    on the row kernels: the interval ends (lo, hi) and the (zeta_lo, zeta_hi) rows of face0
    and neg_face1, each row bit-equal to the scalar call's."""
    w0, w1 = solver._offset_rows(problem, ys, x1s)
    face0 = geometry.normal_face_rows(problem.F0, w0)
    neg_face1 = geometry.normal_face_rows(problem.F1, w1)
    a0, b0 = geometry._x_range_rows(*face0)
    a1m, b1m = geometry._x_range_rows(*neg_face1)
    return a0 - b1m, b0 - a1m, face0, neg_face1


def point_with_x_rows(zeta_lo, zeta_hi, x):
    """point_with_x of every row, with the same operations and clamps."""
    a, b = zeta_lo[:, 0], zeta_hi[:, 0]
    flat = a == b
    t = (x - a) / np.where(flat, 1.0, b - a)
    t = np.where(0.0 > t, 0.0, t)
    t = np.where(1.0 < t, 1.0, t)[:, None]
    mixed = (1.0 - t) * zeta_lo + t * zeta_hi
    return np.where(flat[:, None], 0.5 * (zeta_lo + zeta_hi), mixed)


def lockstep_expand_rows(problem, x1s):
    """expand_bracket for every target x1s[n] of an (N, 2) array, on rows.

    Returns arrays (l, r, expanded, failed), node n's as expand_bracket's for
    x1 = x1s[n], with failed[n] where it raises.  All left ends are pushed,
    then all right ends; the nodes still being pushed share one try count.
    """
    eps = problem.epsilon
    x0x, x1x = problem.x0[0], x1s[:, 0]
    l = np.where(x1x < x0x, x1x, x0x)  # min(x0x, x1x)
    r = np.where(x1x > x0x, x1x, x0x)  # max(x0x, x1x)
    expanded = np.zeros(len(x1s), dtype=bool)
    with np.errstate(over="ignore"):  # an overflowing width fails its node unevaluated
        failed = ~np.isfinite(r - l)
    for end, left in ((l, True), (r, False)):
        nodes = np.flatnonzero(~failed)
        width = r[nodes] - l[nodes]
        step = np.where(1.0 > width, 1.0, width)  # max(width, 1.0)
        for tries in itertools.count():
            lo, hi = residual_rows(problem, end[nodes], x1s[nodes])[:2]
            outward = lo > eps if left else hi < -eps
            nodes, step = nodes[outward], step[outward]
            if nodes.size == 0 or tries >= solver.MAX_BRACKET_DOUBLINGS:
                break
            end[nodes] = end[nodes] - step if left else end[nodes] + step
            step = step * 2.0
            expanded[nodes] = True
        failed[nodes] = True
    with np.errstate(over="ignore"):
        failed |= ~np.isfinite(r - l)
    return l, r, expanded, failed


def lockstep_solve_batch(problem, x1s):
    """solve_batch as the loop that runs every node's bisection in lockstep on arrays,
    through the row kernels, and assembles the results from one more row call."""
    x1s = np.asarray(x1s, dtype=float).reshape(-1, 2)
    eps, max_iter = problem.epsilon, problem.max_iter
    l, r, expanded, failed = lockstep_expand_rows(problem, x1s)
    y_end = np.zeros(len(x1s))
    iterations = np.zeros(len(x1s), dtype=int)
    # The running nodes' state, compacted to them; every running node is at step k.
    nodes = np.flatnonzero(~failed)
    l, r, x1_run = l[nodes], r[nodes], x1s[nodes]
    d = r - l
    k = 0
    while nodes.size:
        with np.errstate(over="ignore"):
            y = 0.5 * (l + r)
        finite = np.isfinite(y)
        if not finite.all():  # an overflowing midpoint fails its node unevaluated, as in solve
            failed[nodes[~finite]] = True
            nodes, y, l, r, d, x1_run = (a[finite] for a in (nodes, y, l, r, d, x1_run))
        lo, hi = residual_rows(problem, y, x1_run)[:2]
        hit = (lo <= eps) & (hi >= -eps)
        stop = hit | (k + 1 >= max_iter) | (d <= 4.0 * np.spacing(np.abs(y)))
        if stop.any():
            y_end[nodes[stop]] = y[stop]
            for m in np.flatnonzero(hit).tolist():
                node = dataclasses.replace(problem, x1=x1_run[m])
                y_end[nodes[m]] = kink_finish(node, float(l[m]), float(r[m]), float(y[m]))
            iterations[nodes[stop]] = k + 1
            go = ~stop
            nodes, y, lo, l, r, d, x1_run = (a[go] for a in (nodes, y, lo, l, r, d, x1_run))
        right = lo > eps
        r = np.where(right, y, r)
        l = np.where(right, l, y)
        d = d * 0.5
        k += 1

    solved = np.flatnonzero(~failed)
    y = y_end[solved]
    lo, hi, (zlo0, zhi0), (zlo1, zhi1) = residual_rows(problem, y, x1s[solved])
    # select_multipliers, row by row.
    target = np.where(lo > 0.0, lo, 0.0)  # max(0.0, lo)
    target = np.where(hi < target, hi, target)  # min(target, hi)
    a0, b0 = geometry._x_range_rows(zlo0, zhi0)
    a1m, _ = geometry._x_range_rows(zlo1, zhi1)
    z0x = target + a1m
    z0x = np.where(a0 > z0x, a0, z0x)
    z0x = np.where(b0 < z0x, b0, z0x)
    zeta0 = point_with_x_rows(zlo0, zhi0, z0x)
    zeta1 = -point_with_x_rows(zlo1, zhi1, -(target - z0x))
    pts = np.column_stack((y, np.zeros(len(y))))
    w0 = pts - problem.x0
    w1 = x1s[solved] - pts
    g0 = problem.F0.gauge(w0)
    g1 = problem.F1.gauge(w1)
    times = (g0 + g1).tolist()
    v0, v1 = w0 / g0[:, None], w1 / g1[:, None]

    results = [None] * len(x1s)
    for m, (i, lo_m, hi_m) in enumerate(zip(solved.tolist(), lo.tolist(), hi.tolist())):
        status = solver._stop_status(lo_m, hi_m, eps) or solver.STATUS_MAX_ITERATIONS
        results[i] = solver.SolveResult(
            y=y[m],
            time=times[m],
            v0=v0[m],
            v1=v1[m],
            zeta0=zeta0[m],
            zeta1=zeta1[m],
            iterations=int(iterations[i]),
            status=solver.BRACKET_EXPANDED_PREFIX + status if expanded[i] else status,
        )
    return results


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


def assert_batch_equals_references(problem, x1s):
    """solve_batch against per-node solve and against the lockstep loop; returns its results."""
    results = solve_batch(problem, x1s)
    assert_same_results(results, solve_each(problem, np.asarray(x1s, dtype=float).reshape(-1, 2)))
    assert_same_results(results, lockstep_solve_batch(problem, x1s))
    return results


@st.composite
def batch_cases(draw, f0, f1):
    """A problem with sets drawn by the makers f0 and f1, a max_iter and 1-8 targets, some
    almost above x0, where anisotropic minimizers leave the first bracket."""
    p = random_pair_problem(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), f0, f1)
    p = dataclasses.replace(p, max_iter=draw(st.sampled_from((1, 4, 200))))
    offsets = st.one_of(st.floats(-3.0, 3.0), st.floats(-0.05, 0.05))
    targets = draw(st.lists(st.tuples(offsets, st.floats(0.05, 3.0)), min_size=1, max_size=8))
    return p, np.array([(p.x0[0] + dx, x1y) for dx, x1y in targets])


@pytest.mark.parametrize("f0", MAKERS)
@pytest.mark.parametrize("f1", MAKERS)
def test_solve_batch_is_per_node_solve(f0, f1):
    """Property: solve_batch equals per-node solve field by field, bytes and types, on random
    problems and targets over every family pair."""
    @settings(max_examples=6, derandomize=True, database=None, deadline=None)
    @given(batch_cases(f0, f1))
    def check(case):
        problem, x1s = case
        assert_same_results(solve_batch(problem, x1s), solve_each(problem, x1s))

    check()


def grid(x, y):
    """Row-major targets over the x and y values."""
    return np.column_stack((np.tile(x, len(y)), np.repeat(y, len(x))))


class TestSolveBatch:
    """solve_batch must give per-node solve's SolveResult, field by field, and the lockstep
    loop's, the batch's former implementation, which shares no loop with solve."""

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
            results = assert_batch_equals_references(p, x1s)
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

    def test_max_iterations(self, elliptic_problem, symmetric_ball_problem):
        p = dataclasses.replace(elliptic_problem, max_iter=3)
        x1s = grid(np.linspace(-2, 2, 7), [0.5, 1.0, 2.0])
        results = assert_batch_equals_references(p, x1s)
        assert any(res.status == "MaxIterations" for res in results)
        # The first midpoint of x1 = (1, 1) is the minimizer: a hit on the last allowed step
        # is Converged, not MaxIterations.
        p = dataclasses.replace(symmetric_ball_problem, max_iter=1)
        x1s = [[1.0, 1.0], [2.0, 2.0]]
        results = assert_batch_equals_references(p, x1s)
        assert [(res.status, res.iterations) for res in results] == [
            (STATUS_CONVERGED, 1), (solver.STATUS_MAX_ITERATIONS, 1)]

    def test_squares_stop_on_vertex_faces(self, square_problem):
        x1s = grid(np.arange(-4.0, 4.0 + 1e-9, 2.0 / 3.0), [1.0])
        results = assert_batch_equals_references(square_problem, x1s)
        assert sum(res.status == STATUS_RESIDUAL_ZERO_IN_FACE for res in results) >= 4

    def test_bracket_expansion_failed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_BRACKET_DOUBLINGS", 0)
        p = make_problem((0, -1), (0.1, 1), Ellipse(3.0, 0.1, rot=np.pi / 4), Ball(1))
        # Targets near x0 need an expanded bracket; the far right one does not.
        x1s = np.array([[0.1, 1.0], [0.0, 2.0], [3.0, 0.2]])
        results = assert_batch_equals_references(p, x1s)
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

        # One batch with failures first, in the middle and last: nodes whose bracket fails,
        # one that fails later, at an overflowing midpoint (test_overflow_fails'
        # walked-midpoint target), and nodes that solve.
        p = make_problem((0, -1), (0.1, 1), Ellipse(3.0, 1.0, rot=np.pi / 4), Ball(1))
        x1s = [[0.1, 1.0], [3.0, 0.2], [1.7e308, 1.0], [6.0, 1.0], [-0.1, 1.0]]
        walked = dataclasses.replace(p, x1=np.array(x1s[2]))
        assert expand_bracket(walked)[1] == 1.7e308
        with pytest.raises(BracketExpansionFailedError, match="midpoint"):
            solve(walked)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = assert_batch_equals_references(p, x1s)
        assert [res is None for res in results] == [True, False, True, False, True]

    @pytest.mark.parametrize("doublings", [0, 1, 2])
    def test_few_doublings(self, monkeypatch, doublings):
        """With 0, 1 or 2 bracket doublings allowed, some nodes fail, and with 1 or 2 some expand."""
        monkeypatch.setattr(solver, "MAX_BRACKET_DOUBLINGS", doublings)
        rng = np.random.default_rng(39)
        outcomes = set()
        for f0, f1 in [(random_ellipse, random_ball), (random_polygon, random_ellipse),
                       (random_ellipse, random_polygon)]:
            p = random_pair_problem(rng, f0, f1)
            x1s = grid(p.x0[0] + np.array([-2, -0.2, -0.01, 0, 0.01, 0.2, 2]), [0.1, 1.0])
            results = assert_batch_equals_references(p, x1s)
            outcomes.update("None" if res is None else res.status.split("+")[0] for res in results)
        # From x0 = (0, -10) F0's tilted long axis puts the crossing up to 15 to the right.
        for x0y in (-1.0, -10.0):
            p = make_problem((0, x0y), (0.1, 1), Ellipse(3.0, 0.1, rot=np.pi / 4), Ball(1))
            results = assert_batch_equals_references(
                p, [[0.1, 1.0], [0.0, 2.0], [3.0, 0.2], [6.0, 1.0], [12.0, 1.0]])
            outcomes.update("None" if res is None else res.status.split("+")[0] for res in results)
        assert "None" in outcomes
        assert ("BracketExpanded" in outcomes) == (doublings > 0)

    def test_ellipse_over_48_gon(self):
        """The sweeps' shape: a 6 x 6 grid, a rotated ellipse below an egg-shaped 48-gon."""
        p = make_problem((0.3, -1.0), (0.0, 1.0), Ellipse(2.0, 0.7, rot=1.1), egg_polygon())
        results = assert_batch_equals_references(p, grid(np.linspace(-3, 3, 6), np.linspace(0.2, 2.5, 6)))
        assert all(res is not None for res in results)

    def test_ellipse_over_48_gon_decisions(self, monkeypatch):
        """On the same grid, the bisections' decisions and the threshold locator's probes
        evaluate the 48-gon's line forms at most 20 times per node on average (one
        evaluation per decision or probe; deciding every midpoint takes about 35), and
        `delta` decides at most 5 steps over the 36 nodes."""
        calls, fallbacks = [], []
        kernels = solver.delta

        def counted_delta(problem, y):
            fallbacks.append(y)
            return kernels(problem, y)

        def counting(face):
            def counted(vx):
                calls.append(vx)
                return face(vx)

            return counted

        def counted_line_form(vset, vy, line_form=Polygon.line_form):
            got = line_form(vset, vy)
            return got and got._replace(face=counting(got.face), strict=counting(got.strict))

        monkeypatch.setattr(Polygon, "line_form", counted_line_form)
        monkeypatch.setattr(solver, "delta", counted_delta)
        p = make_problem((0.3, -1.0), (0.0, 1.0), Ellipse(2.0, 0.7, rot=1.1), egg_polygon())
        x1s = grid(np.linspace(-3, 3, 6), np.linspace(0.2, 2.5, 6))
        solve_batch(p, x1s)
        assert len(calls) <= 20 * len(x1s)
        assert len(fallbacks) <= 5

    def test_rejects_targets_on_or_below_interface(self, elliptic_problem):
        with pytest.raises(ValidationError):
            solve_batch(elliptic_problem, [[1.0, 1.0], [1.0, 0.0]])

    def test_target_shapes(self, elliptic_problem):
        """An (N, 2) array or one point; any other shape raises instead of being regrouped."""
        one = solve_batch(elliptic_problem, [1.0, 1.0])
        assert_same_results(one, solve_each(elliptic_problem, [[1.0, 1.0]]))
        for bad in (np.ones((2, 3)), np.ones((1, 3)), np.ones((3,)), np.ones((2, 2, 2))):
            with pytest.raises(ValidationError, match="x1s must be an"):
                solve_batch(elliptic_problem, bad)


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


# The known problems whose solve stops near a polygon kink instead of at it: problem_pool(104,
# 7)[6] and problem_pool(seed, 270)[i] for (seed, i) = (45, 245), (68, 71), (88, 155) and (606,
# 71) of perfbench's inputs.  Each ends BracketExpanded+ResidualZeroInFace after 28 steps with
# time 1.00e-8 to 2.42e-8 above the oracle's minimum.
VERTEX_SNAP_PROBLEMS = {
    "pool-104-7-6": '{"x0": [-1.3552366486929177, -2.5015985183453293], "x1": [-2.9485531227298676, '
                    '2.7284751069747615], "F0": {"kind": "polygon", "vertices": [[1.1745476883059276, '
                    '0.7327188258872709], [-2.0783547988187556, -0.7154465627889823], [1.7657534493478713, '
                    '-0.03349583256201258]]}, "F1": {"kind": "ball", "r": 0.8436778518473196}}',
    "pool-45-270-245": '{"x0": [0.56586799651242, -0.194986404625502], "x1": [0.5660523326814504, '
                       '2.5171543798016462], "F0": {"kind": "ball", "r": 2.3557773934135997}, "F1": {"kind": '
                       '"polygon", "vertices": [[-0.9538524991770286, 0.5052902698852589], [-0.4688266368348572, '
                       '-0.6301150930788191], [1.4417729452716854, -0.19186043741906533]]}}',
    "pool-68-270-71": '{"x0": [-2.1083988569778302, -2.2486335929468884], "x1": [-1.9032691634771601, '
                      '2.818459599418976], "F0": {"kind": "polygon", "vertices": [[-0.9760991708703132, '
                      '-1.139074847035207], [0.45863296484001187, -0.9274635042066944], [1.5801605285402656, '
                      '-0.3365638302402602], [2.091796698673979, 0.388106343643356], [1.9001928043677403, '
                      '0.9090813837609436], [0.8194126786144097, 1.1972032921224167], [-0.3370050431297836, '
                      '1.0014156853028677], [-1.5597500970166969, 0.3591427004517605], [-2.0151391967011683, '
                      '-0.2542482110067017], [-1.7908195619755216, -0.8975110602838734]]}, "F1": {"kind": '
                      '"polygon", "vertices": [[-1.2345174617512746, 0.9665498724131381], [-1.8630272501429541, '
                      '-1.2834272896301206], [2.9337627516513893, -0.15238767149108615]]}}',
    "pool-88-270-155": '{"x0": [-2.851135154553627, -0.6278087108631546], "x1": [-1.094667867408208, '
                       '2.0564566914547684], "F0": {"kind": "ball", "r": 1.1007920704080116}, "F1": {"kind": '
                       '"polygon", "vertices": [[-1.6497192319592806, -0.13367709764350863], [0.8649262027407508, '
                       '-0.41934515520478666], [1.3959942521268085, 0.44523376197753406]]}}',
    "pool-606-270-71": '{"x0": [1.6569479537330913, -1.1818857985199667], "x1": [1.4380748513520136, '
                       '2.496321988672619], "F0": {"kind": "polygon", "vertices": [[0.47483791614864856, '
                       '-2.376616607552383], [1.533704257937367, -2.331981479615524], [2.0519210569154502, '
                       '-1.6499262761171047], [1.901520791287687, -0.1945273875867753], [0.8289341006041766, '
                       '1.3894522796459292], [-0.46116471106998924, 2.1877602033107397], [-1.4283772316113783, '
                       '2.1978735344635476], [-2.100188193427318, 1.232537055083473], [-1.8488791404835827, '
                       '-0.12840679130814975], [-0.8751210652353762, -1.53251747619666]]}, "F1": {"kind": '
                       '"polygon", "vertices": [[0.5436091697833548, 0.22658111122947341], [-0.5362070018934035, '
                       '0.07690824166299734], [0.083639893664099, -0.7405391537585455]]}}',
}


@pytest.mark.parametrize("text", VERTEX_SNAP_PROBLEMS.values(), ids=VERTEX_SNAP_PROBLEMS.keys())
def test_vertex_snap_time_within_1e8(text):
    """Criterion 7's |time - phi*| <= 1e-8 against the oracle at golden_tol 1e-14."""
    p = parse_problem(text)
    result, _ = solve(p)
    _, phi = minimize_objective(p, OracleConfig(golden_tol=1e-14))
    assert abs(result.time - float(phi)) <= 1e-8


def test_pool_104_finishes_at_its_kink():
    """problem_pool(104, 7)[6], the benchmark op whose time was 1.87e-8 above phi*: the loop
    stops in F0's vertex snap band near a kink, and the solve ends on the kink itself."""
    p = parse_problem(pool_problems(104, 7)[6])
    result, trace = solve(p)
    x0x, x0y = p.x0.tolist()
    assert float(result.y) in [x0x - x0y * kink for kink in p.F0.kinks]
    assert result.y != trace.rows[-1].y
    assert (result.status, result.iterations) == ("BracketExpanded+ResidualZeroInFace", 28)
    _, phi = minimize_objective(p, OracleConfig(golden_tol=1e-14))
    assert abs(result.time - phi) <= 1e-14 * phi


def test_polygon_pairs_reach_the_exact_minimum():
    """time is within 1e-14 relative of the exact minimum of phi on 30 polygon pairs, beyond
    crossing_time's own rounding at the exact minimizer, which reaches 1e-13 relative on the
    third pair (a facet of F0 passes 1.2e-3 from the origin, so its gauge term is steep)."""
    rng = np.random.default_rng(40)
    for _ in range(30):
        p = random_problem(rng, [random_polygon])
        exact, y_exact = exact_polygon_pair_minimum(p)
        exact = float(exact)
        rounding = abs(crossing_time(p, float(y_exact)) - exact)
        assert abs(solve(p)[0].time - exact) <= 1e-14 * max(1.0, exact) + rounding


def test_outputs_do_not_depend_on_the_blas_kernel():
    """`output_probe` gives the same bytes here and in a child process under
    OPENBLAS_CORETYPE=Prescott, an OpenBLAS kernel without fused multiply-adds: no kernel
    calls BLAS, so the kernel OpenBLAS selects for the CPU moves no output bit."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", "from conftest import output_probe; print(output_probe())"],
        cwd=tests, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Prescott"))
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == output_probe()
