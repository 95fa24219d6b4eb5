import math

import numpy as np
import pytest

from elvis import (
    Ball,
    Ellipse,
    NotIsotropicError,
    Polygon,
    ValidationError,
    classical_snell_angles,
    crossing_time,
    delta,
    expand_bracket,
    gauge,
    make_problem,
    minimize_objective,
    solve,
    support,
)
from elvis.solver import STATUS_CONVERGED, STATUS_RESIDUAL_ZERO_IN_FACE

from conftest import random_ball, random_ellipse, random_polygon, random_problem


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

    @pytest.mark.parametrize("f0", [random_ball, random_ellipse, random_polygon])
    @pytest.mark.parametrize("f1", [random_ball, random_ellipse, random_polygon])
    def test_crossing_time_array_bit_equal(self, f0, f1):
        """An array of y gives, bit for bit, the sums of per-vector gauges."""
        rng = np.random.default_rng(15)
        for _ in range(5):
            while True:
                x0 = (rng.uniform(-3, 3), rng.uniform(-3, -0.1))
                x1 = (rng.uniform(-3, 3), rng.uniform(0.1, 3))
                try:
                    p = make_problem(x0, x1, f0(rng), f1(rng))
                    break
                except ValidationError:
                    continue
            l, r, _ = expand_bracket(p)
            ys = np.linspace(l, r, 257)
            expected = np.array([gauge(p.F0, (y - p.x0[0], -p.x0[1]))
                                 + gauge(p.F1, (p.x1[0] - y, p.x1[1])) for y in ys])
            assert crossing_time(p, ys).tobytes() == expected.tobytes()
            assert crossing_time(p, ys[:1]).tobytes() == expected[:1].tobytes()
            for y, t in zip(ys[::64], expected[::64]):
                assert type(crossing_time(p, y)) is float
                assert crossing_time(p, float(y)) == t

    def test_convergence_bound(self, elliptic_problem):
        result, trace = solve(elliptic_problem)
        y_star, _ = minimize_objective(elliptic_problem)
        d0 = trace.rows[0].d
        for row in trace:
            assert abs(row.y - y_star) <= d0 / 2.0 ** row.k + 1e-12


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
