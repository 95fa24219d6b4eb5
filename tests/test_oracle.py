import ast
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_sub,
    to_float,
)

import elvis
from elvis import (
    Ball,
    Ellipse,
    ElvisError,
    OracleConfig,
    Polygon,
    ValidationError,
    ZeroVectorError,
    contains,
    crossing_time,
    expand_bracket,
    flat_minimum_interval,
    gauge,
    gauge_by_membership,
    make_problem,
    minimize_objective,
    oracle,
    parse_problem,
    solve,
    validate,
)

from conftest import (
    SQUARE0_VERTICES,
    pool_problems,
    random_ball,
    random_ellipse,
    random_polygon,
    random_problem,
)


def run_child(code, timeout):
    """Run code in a child Python with this elvis on its path; TimeoutExpired fails the test."""
    src = os.path.dirname(os.path.dirname(elvis.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


class TestConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.golden_tol == 1e-12

    def test_bad_values(self):
        for tol in (0.0, -1e-12, math.inf, math.nan):
            with pytest.raises(ValueError):
                OracleConfig(golden_tol=tol)


class TestMembershipGauge:
    def test_ball(self):
        assert gauge_by_membership(Ball(2.0), (0, 3)) == pytest.approx(1.5, abs=1e-12)

    def test_ellipse(self):
        assert gauge_by_membership(Ellipse(1.0, 0.5), (1, 1)) == pytest.approx(
            np.sqrt(5.0), abs=1e-10
        )

    def test_square(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        assert gauge_by_membership(sq, (3, 2)) == pytest.approx(3.0, abs=1e-10)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            gauge_by_membership(Ball(1.0), (0, 0))

    def test_non_finite_vector(self):
        """A non-finite component raises instead of doubling the bracket forever.

        The calls run in a child process with a timeout, so a bisection that
        never ends fails the test.
        """
        code = ("from elvis import Ball, ValidationError, gauge_by_membership\n"
                "for v in ((float('nan'), 1.0), (float('inf'), 1.0), (1.0, float('-inf'))):\n"
                "    try:\n"
                "        gauge_by_membership(Ball(1.0), v)\n"
                "    except ValidationError:\n"
                "        print('raised')\n")
        proc = run_child(code, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["raised"] * 3

    def test_gauge_near_the_float_limit(self):
        """A gauge just under the largest float comes back from the scaled bisection, and
        one beyond it raises, instead of the bracket doubling to inf and the bisection
        never ending; the calls run in a child process with a timeout, as above."""
        code = ("from elvis import Ball, ValidationError, gauge_by_membership\n"
                "print(repr(gauge_by_membership(Ball(1.0), (1e308, 1.0))))\n"
                "try:\n"
                "    gauge_by_membership(Ball(1e-10), (1e300, 1.0))\n"
                "except ValidationError:\n"
                "    print('raised')\n")
        proc = run_child(code, timeout=20)
        assert proc.returncode == 0, proc.stderr
        near_max, raised = proc.stdout.split()
        assert float(near_max) == pytest.approx(1e308, rel=1e-12)
        assert raised == "raised"

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(21)
        for maker in (random_ball, random_ellipse, random_polygon):
            for _ in range(100):
                try:
                    vset = validate(maker(rng))
                except Exception:
                    continue
                v = rng.normal(size=2) * rng.uniform(0.1, 10)
                if v[0] == 0 and v[1] == 0:
                    continue
                assert gauge_by_membership(vset, v) == pytest.approx(
                    gauge(vset, v), abs=1e-9, rel=1e-9
                )


class TestMinimize:
    def test_symmetric(self, symmetric_ball_problem):
        y_star, phi_star = minimize_objective(symmetric_ball_problem)
        assert y_star == pytest.approx(0.0, abs=1e-10)
        assert phi_star == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)

    def test_elliptic_reference(self, elliptic_problem):
        y_star, _ = minimize_objective(elliptic_problem)
        assert y_star == pytest.approx(-0.401, abs=5e-3)

    def test_squares_agree_with_solver(self, square_problem):
        result, _ = solve(square_problem)
        y_star, _ = minimize_objective(square_problem)
        assert result.y == pytest.approx(y_star, abs=1e-9)

    def test_solver_agreement_random(self):
        rng = np.random.default_rng(22)
        cfg = OracleConfig(golden_tol=1e-13)
        for _ in range(25):
            p = random_problem(rng)
            result, _ = solve(p)
            y_star, phi_star = minimize_objective(p, cfg)
            assert result.time == pytest.approx(phi_star, abs=1e-8)
            flat_lo, flat_hi = flat_minimum_interval(p, cfg)
            flat = ("ResidualZeroInFace" in result.status) or (flat_hi - flat_lo > 1e-8)
            if not flat:
                assert result.y == pytest.approx(y_star, abs=1e-8)

    def test_refine_ends_below_working_precision(self):
        """golden_tol under the 136-bit spacing of y ends the refine instead of looping forever.

        At |y| = 1e30 that spacing is about 1.5e-11, so b - a stops shrinking
        above the default golden_tol of 1e-12.  The call runs in a child
        process with a timeout, so a refine that never ends fails the test.
        """
        p = translated(pair_problem(np.random.default_rng(27), random_ellipse, random_polygon), 1e30)
        code = ("from elvis import Ellipse, Polygon, make_problem, minimize_objective\n"
                f"p = make_problem({p.x0.tolist()}, {p.x1.tolist()}, {p.F0!r}, {p.F1!r})\n"
                "print(repr(minimize_objective(p)))")
        proc = run_child(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        y_star, phi_star = ast.literal_eval(proc.stdout)
        assert y_star == 1e30
        assert phi_star == solve(p)[0].time


class TestContains:
    def test_boundary_inside_outside(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        assert contains(sq, (0.999, 0.999))
        assert not contains(sq, (1.001, 0.0))
        assert contains(Ball(1.0), (0.6, 0.6))
        assert not contains(Ellipse(2.0, 1.0), (0.0, 1.1))

    # The tests below compare the defining inequality without a square, which
    # leaves the float range at these scales.
    def test_large_ball(self):
        assert not contains(Ball(1e200), (3e200, 0.0))
        assert contains(Ball(1e200), (0.6e200, 0.6e200))

    def test_small_ball(self):
        assert not contains(Ball(1e-200), (3e-200, 0.0))
        assert contains(Ball(1e-200), (0.6e-200, 0.6e-200))

    def test_gauge_of_small_ball(self):
        assert gauge_by_membership(Ball(1e-200), (1.0, 0.0)) == pytest.approx(1e200, rel=1e-12)

    def test_far_point_of_ellipse(self):
        # (w/a)**2 overflowed here, a RuntimeWarning.
        assert not contains(Ellipse(1.0, 2.0, 0.3), (1e200, 0.0))
        assert contains(Ellipse(1e200, 2e200, 0.3), (0.5e200, 0.0))


def test_sample_interior_of_a_thin_set():
    # A valid ellipse that fills under 1/1000 of its bounding box: rejection gives up, typed.
    thin = validate(Ellipse(1.0, 1e-4, math.pi / 4))
    with pytest.raises(ElvisError, match="rejection sampling"):
        oracle.sample_interior(thin, 5, np.random.default_rng(37))


class TestLazyImport:
    def test_cli_does_not_load_the_oracle(self):
        code = ("import sys\n"
                "import elvis.cli\n"
                "print(sorted(m for m in ('mpmath', 'elvis.oracle') if m in sys.modules))\n")
        proc = run_child(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]

    def test_names_load_on_first_use(self):
        code = ("import sys\n"
                "import elvis\n"
                "before = dir(elvis)\n"
                "print('elvis.oracle' in sys.modules)\n"
                "print(elvis.minimize_objective is sys.modules['elvis.oracle'].minimize_objective)\n"
                "print(dir(elvis) == before)\n")
        proc = run_child(code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "True"]

    def test_public_names(self):
        names = dir(elvis)
        for name in elvis.__all__:
            assert name in names
            assert getattr(elvis, name) is not None
        assert "oracle" in names
        assert elvis.OracleConfig is oracle.OracleConfig
        with pytest.raises(AttributeError):
            elvis.no_such_name  # noqa: B018


def reference_minimize(problem, cfg):
    """minimize_objective with its refine on plain mpf objects: the form the raw refine replaced.

    The same grid scan, then the golden section with every gauge term
    recomputed at each y and every polygon facet evaluated.
    """
    l, r, _ = expand_bracket(problem)
    ys = np.linspace(l, r, oracle.GRID_POINTS if r > l else 1)
    vals = crossing_time(problem, ys)
    i = int(np.argmin(vals))
    a = ys[max(i - 1, 0)]
    b = ys[min(i + 1, len(ys) - 1)]

    def gauge_mp(vset):
        if isinstance(vset, Ball):
            r = mp.mpf(vset.r)
            return lambda vx, vy: mp.sqrt(vx * vx + vy * vy) / r
        if isinstance(vset, Ellipse):
            c, s = mp.cos(-vset.rot), mp.sin(-vset.rot)
            ea, eb = mp.mpf(vset.a), mp.mpf(vset.b)

            def ellipse_gauge(vx, vy):
                wx = c * vx - s * vy
                wy = s * vx + c * vy
                return mp.sqrt((wx / ea) ** 2 + (wy / eb) ** 2)

            return ellipse_gauge
        facets = [(mp.mpf(n[0]), mp.mpf(n[1]), mp.mpf(h)) for n, h in zip(vset.normals, vset.offsets)]
        zero = mp.mpf(0)
        return lambda vx, vy: max([(nx * vx + ny * vy) / h for nx, ny, h in facets] + [zero])

    inv_golden = (mp.mpf(5).sqrt() - 1) / 2
    with mp.workdps(40):
        g0, g1 = gauge_mp(problem.F0), gauge_mp(problem.F1)
        x0x, x0y = mp.mpf(problem.x0[0]), mp.mpf(problem.x0[1])
        x1x, x1y = mp.mpf(problem.x1[0]), mp.mpf(problem.x1[1])

        def phi(y):
            return g0(y - x0x, -x0y) + g1(x1x - y, x1y)

        a, b = mp.mpf(a), mp.mpf(b)
        c = b - inv_golden * (b - a)
        d = a + inv_golden * (b - a)
        fc, fd = phi(c), phi(d)
        while b - a > cfg.golden_tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_golden * (b - a)
                fc = phi(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_golden * (b - a)
                fd = phi(d)
        y_star = float((a + b) / 2)
    return y_star, crossing_time(problem, y_star)


def pair_problem(rng, make0, make1):
    """Random problem with F0 drawn by make0 and F1 by make1 (redrawn until valid)."""
    while True:
        x0 = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, -0.1)))
        x1 = (float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 3)))
        try:
            return make_problem(x0, x1, make0(rng), make1(rng))
        except ValidationError:
            continue


def exact_polygon_pair_minimum(problem):
    """min over y of phi for two polygons, in exact rational arithmetic.

    phi is convex and piecewise linear, so its minimum lies at a kink: where
    the crossing direction points at a vertex v with v_y > 0, at
    y = x0_x - x0_y*v_x/v_y for F0 and y = x1_x - x1_y*v_x/v_y for F1.  Facet
    (p, p + e) contributes the gauge term (e_y*v_x - e_x*v_y)/(e_y*p_x - e_x*p_y).
    """
    x0x, x0y = (Fraction(float(u)) for u in problem.x0)
    x1x, x1y = (Fraction(float(u)) for u in problem.x1)

    def exact(vset):
        verts = [(Fraction(float(x)), Fraction(float(y))) for x, y in vset.vertices]
        facets = []
        for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
            ex, ey = qx - px, qy - py
            facets.append((ey, ex, ey * px - ex * py))
        return verts, lambda vx, vy: max([(ey * vx - ex * vy) / h for ey, ex, h in facets] + [0])

    verts0, g0 = exact(problem.F0)
    verts1, g1 = exact(problem.F1)
    kinks = [x0x - x0y * vx / vy for vx, vy in verts0 if vy > 0]
    kinks += [x1x - x1y * vx / vy for vx, vy in verts1 if vy > 0]
    return min(g0(y - x0x, -x0y) + g1(x1x - y, x1y) for y in kinks)


class TestRawRefine:
    """The raw libmp refine gives the plain-mpf refine's (y*, phi*) to the last bit."""

    CONFIGS = (OracleConfig(), OracleConfig(golden_tol=1e-14))
    MAKERS = (random_ball, random_ellipse, random_polygon)

    @staticmethod
    def bits(result):
        return [(repr(u), type(u)) for u in result]

    @pytest.mark.parametrize("k0", range(3))
    @pytest.mark.parametrize("k1", range(3))
    def test_bit_equal_to_mpf_reference(self, k0, k1):
        make0, make1 = self.MAKERS[k0], self.MAKERS[k1]
        rng = np.random.default_rng([23, k0, k1])
        for _ in range(3):
            p = pair_problem(rng, make0, make1)
            for cfg in self.CONFIGS:
                want = reference_minimize(p, cfg)
                assert self.bits(minimize_objective(p, cfg)) == self.bits(want)

    def test_kink_inside_refine_bracket(self, square0, square1):
        # The minimum is pinned at y = 1, where the crossing direction from x0
        # meets the vertex (1, 1) of square0: the refine bracket straddles that
        # kink, so two facets of F0 stay live and the maximum switches between
        # them inside the bracket.
        p = make_problem((0.0, -1.0), (2.0, 1.0), square0, square1)
        for cfg in self.CONFIGS:
            assert self.bits(minimize_objective(p, cfg)) == self.bits(reference_minimize(p, cfg))

    def test_polygon_pairs_against_exact_minimum(self):
        rng = np.random.default_rng(24)
        cfg = OracleConfig(golden_tol=1e-14)
        for _ in range(30):
            p = pair_problem(rng, random_polygon, random_polygon)
            exact = exact_polygon_pair_minimum(p)
            _, phi_star = minimize_objective(p, cfg)
            assert abs(phi_star - exact) <= 1e-13 * max(1.0, float(exact))


def grid_bound(problem, ys):
    """The per-point bound of _open_window's lemma on |crossing_time - phi| at the grid points ys."""
    x0x, x0y = problem.x0.tolist()
    x1x, x1y = problem.x1.tolist()
    return oracle._GRID_REL * ((np.abs(ys - x0x) + abs(x0y)) / problem.F0.inner_radius
                               + (np.abs(x1x - ys) + abs(x1y)) / problem.F1.inner_radius)


def step_screen(problem, sides):
    """(point, difference): the float screen of phi(c) - phi(d) that _refine forms from the
    two sides' `_term` screens.

    point(yf) gives a golden point's data from yf, the float nearest it;
    difference(p, q, delta) takes two such data and delta, the float nearest
    the exact y_p - y_q, and returns (D, E) with |D - (phi_p - phi_q)| <= E.
    """
    x0x, x1x = float(problem.x0[0]), float(problem.x1[0])
    (_, point0, difference0), (_, point1, difference1) = sides

    def point(yf):
        return point0(yf, yf - x0x), point1(yf, x1x - yf)

    def difference(p, q, delta):
        d0, e0 = difference0(p[0], q[0], delta)
        d1, e1 = difference1(p[1], q[1], -delta)
        return d0 + d1, e0 + e1

    return point, difference


def translated(problem, shift):
    """The problem moved by shift along the interface."""
    x0, x1 = problem.x0, problem.x1
    return make_problem((x0[0] + shift, x0[1]), (x1[0] + shift, x1[1]), problem.F0, problem.F1)


class TestFloatScreen:
    """The float screens' error bounds hold, and deciding by them changes no output bit."""

    MAKERS = (random_ball, random_ellipse, random_polygon)

    @pytest.mark.parametrize("k0", range(3))
    @pytest.mark.parametrize("k1", range(3))
    def test_grid_bound(self, k0, k1):
        rng = np.random.default_rng([25, k0, k1])
        for _ in range(3):
            p = pair_problem(rng, self.MAKERS[k0], self.MAKERS[k1])
            ys = linspace_grid(*oracle._grid(p))
            bound = grid_bound(p, ys)
            vals = crossing_time(p, ys)
            # The screen's one bound B, taken on the coarse points, covers every grid point's.
            _, b = oracle._grid_screen(p, ys[oracle._COARSE_INDEX])
            assert np.all(bound <= b)
            # bound holds against the exact phi, here at 60 digits.
            with mp.workdps(60):
                prec, rnd = mp.mp._prec_rounding
                phi = oracle._objective_raw(p, oracle._sides(p, ys[0], ys[-1]), prec, rnd)
                for i in rng.choice(len(ys), 40, replace=False):
                    exact = mp.mpf(phi(from_float(float(ys[i]))))
                    assert abs(mp.mpf(vals[i]) - exact) <= bound[i]

    @pytest.mark.parametrize("k0", range(3))
    @pytest.mark.parametrize("k1", range(3))
    def test_step_bound(self, k0, k1):
        rng = np.random.default_rng([26, k0, k1])
        for shift in (0.0, 1e3, 1e6):
            p = translated(pair_problem(rng, self.MAKERS[k0], self.MAKERS[k1]), shift)
            l, r, _ = expand_bracket(p)
            y0 = float(rng.uniform(l, r))
            a, b = y0 - 5e-3, y0 + 5e-3
            with mp.workdps(40):
                prec, rnd = mp.mp._prec_rounding
                sides = oracle._sides(p, a, b)
                phi = oracle._objective_raw(p, sides, prec, rnd)
                point, difference = step_screen(p, sides)
                for gap in 10.0 ** -np.arange(3, 16):
                    c = mp.mpf(a) + mp.mpf(rng.uniform(0.1, 0.4)) * (mp.mpf(b) - mp.mpf(a))
                    d = c + mp.mpf(gap) * mp.mpf(rng.uniform(1.0, 2.0))
                    delta = to_float(mpf_sub(c._mpf_, d._mpf_, prec, rnd))
                    dd, e = difference(point(to_float(c._mpf_)), point(to_float(d._mpf_)), delta)
                    with mp.workprec(600):
                        err = abs(mp.mpf(dd) - (mp.mpf(phi(c._mpf_)) - mp.mpf(phi(d._mpf_))))
                    assert err <= e

    def test_exact_path_gives_same_bits(self, monkeypatch, square0):
        rng = np.random.default_rng(27)
        problems = [pair_problem(rng, self.MAKERS[k % 3], self.MAKERS[k // 3 % 3])
                    for k in range(60)]
        problems += [translated(p, shift) for p in problems[:6] for shift in (1e3, 1e6)]
        # phi is 2 on the whole refine bracket, so every screened step has
        # D = 0 and must fall back to the exact values.
        problems.append(make_problem((0.0, -1.0), (0.5, 1.0), square0, square0))
        # Scales far outside [2**-64, 2**64] leave the screens off.
        problems.append(make_problem((0.0, -1e-30), (1e-30, 2e-30), Ball(1e-20), Ellipse(2.0, 1e-25)))
        configs = TestRawRefine.CONFIGS
        screened = [TestRawRefine.bits(minimize_objective(p, cfg)) for p in problems for cfg in configs]
        for name in ("_GRID_REL", "_STEP_REL", "_MP_REL"):
            monkeypatch.setattr(oracle, name, math.inf)  # every decision by exact values
        exact = [TestRawRefine.bits(minimize_objective(p, cfg)) for p in problems for cfg in configs]
        assert screened == exact


def linspace_grid(l, r):
    """The oracle's grid of the bracket [l, r] as np.linspace builds it: every point."""
    return np.linspace(l, r, oracle.GRID_POINTS if r > l else 1)


class TestGridPoints:
    """_grid_points forms the points of np.linspace over the grid, byte for byte."""

    @staticmethod
    def check(l, r, idx):
        ys = linspace_grid(l, r)
        assert oracle._grid_points(l, r, idx).tobytes() == ys[idx].tobytes()
        for i in idx[:5].tolist():
            y = oracle._grid_points(l, r, i)
            assert type(y) is float
            assert np.float64(y).tobytes() == ys[i].tobytes()

    def brackets(self, rng):
        out = [tuple(sorted(rng.uniform(-10.0, 10.0, 2).tolist())) for _ in range(40)]
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-300, 300)
            out.append(tuple(sorted((scale * rng.uniform(-1, 1), scale * rng.uniform(-1, 1)))))
        return out + [(-1e300, 1e300), (1e300, 1.5e300), (-1e300, -1e299), (0.0, 1.0)]

    def test_random_brackets(self):
        rng = np.random.default_rng(34)
        for l, r in self.brackets(rng):
            assert r > l
            self.check(l, r, np.arange(oracle.GRID_POINTS))
            self.check(l, r, oracle._COARSE_INDEX)
            self.check(l, r, np.sort(rng.choice(oracle.GRID_POINTS, 50, replace=False)))
            self.check(l, r, np.array([oracle.GRID_POINTS - 1, 0, 1, oracle.GRID_POINTS - 2]))

    def test_subnormal_width(self):
        for l, r in ((0.0, 1e-321), (-1e-321, 1e-321), (1e-320, 1.2e-320)):
            assert (r - l) / (oracle.GRID_POINTS - 1) == 0.0  # linspace's step == 0 case
            self.check(l, r, np.arange(oracle.GRID_POINTS))
            self.check(l, r, np.array([oracle.GRID_POINTS - 1, 7, 4000]))

    def test_one_point_grid(self):
        for l, r in ((0.25, 0.25), (-3.0, -3.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)):
            assert len(oracle._grid_index(l, r)) == 1
            self.check(l, r, np.array([0]))


def numpy_live_facets(vset, vy, vx_ends):
    """_live_facets on numpy arrays: the form the loop on Python floats replaced."""
    if not isinstance(vset, Polygon):
        return None
    ends = np.array(vx_ends)
    terms = (vset.normals[:, :1] * ends + vset.normals[:, 1:] * vy) / vset.offsets[:, None]
    j = np.argmax(terms.sum(axis=1))
    margin = 1e-9 * (np.max(np.abs(ends)) + abs(vy)) / np.min(vset.offsets)
    live = np.flatnonzero(np.any(terms[j] - terms <= margin, axis=1))
    return [(nx, ny, h)
            for (nx, ny), h in zip(vset.normals[live].tolist(), vset.offsets[live].tolist())]


class TestLiveFacets:
    """_live_facets keeps the facets its numpy form keeps."""

    @staticmethod
    def check(vset, vy, ends):
        got = oracle._live_facets(vset, vy, ends)
        assert got == numpy_live_facets(vset, vy, ends)
        assert [tuple(map(type, f)) for f in got] == [(float, float, float)] * len(got)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_pool(self, seed):
        rng = np.random.default_rng([35, seed])
        for text in pool_problems(seed):
            p = parse_problem(text)
            l, r = oracle._grid(p)
            brackets = [(l, r)] + [tuple(sorted(rng.uniform(l, r, 2).tolist())) for _ in range(3)]
            x0x, x0y = p.x0.tolist()
            x1x, x1y = p.x1.tolist()
            for a, b in brackets:
                if isinstance(p.F0, Polygon):
                    self.check(p.F0, -x0y, (a - x0x, b - x0x))
                if isinstance(p.F1, Polygon):
                    self.check(p.F1, x1y, (x1x - a, x1x - b))

    def test_random_brackets(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            try:
                vset = validate(random_polygon(rng))
            except ValidationError:
                continue
            vy = float(rng.uniform(-3, 3))
            mid, half = rng.uniform(-5, 5), 10.0 ** rng.uniform(-12, 1)
            self.check(vset, vy, (float(mid - half), float(mid + half)))

    def test_ties(self, square0):
        # Every facet of the square has end sum 0 here: the first one is j.
        for t in (0.0, 0.5, 1.0, 3.0):
            self.check(square0, 0.0, (-t, t))
            self.check(square0, 0.0, (t, -t))
        # Two facets tie at the vertex (1, 1) of the square.
        self.check(square0, 1.0, (1.0, 1.0))
        self.check(square0, -1.0, (-1.0, -1.0))
        diamond = validate(Polygon([(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]))
        for vy in (0.0, 1.0, -2.0):
            for t in (0.0, 1.0, 2.0):
                self.check(diamond, vy, (-t, t))
                self.check(diamond, vy, (t, t))


def numpy_open_window(problem, ys):
    """_open_window on the full numpy grid ys: the form the loop on Python floats replaced."""
    n = len(ys)
    coarse = np.append(np.arange(0, n - 1, oracle._COARSE), n - 1)
    v, bound = oracle._grid_screen(problem, ys[coarse])
    j = int(np.argmin(v))
    out = np.flatnonzero(v > v[j] + 3.0 * bound)
    left, right = out[out < j], out[out > j]
    lo = int(coarse[left[-1]]) + 1 if len(left) else 0
    hi = int(coarse[right[0]]) if len(right) else n
    return lo, hi


def full_scan_argmin(problem, ys):
    """The screened grid argmin without convexity pruning: every point screened by the one bound."""
    approx, bound = oracle._grid_screen(problem, ys)
    cand = np.flatnonzero(approx - bound <= np.min(approx) + bound)
    return int(cand[np.argmin(crossing_time(problem, ys[cand]))])


class TestPrunedScan:
    """The convexity-pruned grid scan finds the full scan's argmin."""

    MAKERS = (random_ball, random_ellipse, random_polygon)

    @staticmethod
    def check(problem, l, r):
        ys = linspace_grid(l, r)
        assert oracle._open_window(problem, l, r) == numpy_open_window(problem, ys)
        assert oracle._grid_argmin(problem, l, r, True) == full_scan_argmin(problem, ys)
        assert full_scan_argmin(problem, ys) == int(np.argmin(crossing_time(problem, ys)))

    @pytest.mark.parametrize("k0", range(3))
    @pytest.mark.parametrize("k1", range(3))
    def test_equals_full_scan(self, k0, k1):
        rng = np.random.default_rng([28, k0, k1])
        for _ in range(4):
            base = pair_problem(rng, self.MAKERS[k0], self.MAKERS[k1])
            for shift in (0.0, 1e3, 1e6):
                p = translated(base, shift)
                l, r = oracle._grid(p)
                assert oracle._well_scaled(p, (l, r), OracleConfig().golden_tol)
                self.check(p, l, r)

    def test_flat_minimum(self, square0):
        # phi is 2 on the whole of [0, 0.5]: the argmin is its first grid point.
        p = make_problem((0.0, -1.0), (0.5, 1.0), square0, square0)
        self.check(p, *oracle._grid(p))

    def test_minimum_at_grid_end(self, symmetric_ball_problem):
        p = symmetric_ball_problem  # least phi at y = 0
        for start, stop in ((0.0, 3.0), (-3.0, 0.0), (1.0, 4.0), (-4.0, -1.0)):
            self.check(p, start, stop)
            lo, hi = oracle._open_window(p, start, stop)
            assert hi - lo < oracle.GRID_POINTS

    def test_sound_at_the_bound(self, monkeypatch, symmetric_ball_problem):
        """Coarse float phi that errs by up to 0.99 B still gives the true argmin.

        Near its minimum phi varies by a few bounds over these grids, so a
        pruning test that compared approx without its bounds would cut the
        least value away.
        """
        p = symmetric_ball_problem  # phi(y) = 2*sqrt(2) + y**2/sqrt(2) + O(y**4)
        rng = np.random.default_rng(32)
        screen = oracle._grid_screen

        def noisy_screen(problem, ys):
            approx, bound = screen(problem, ys)
            return approx + rng.choice((-0.99, 0.99), len(ys)) * bound, bound

        monkeypatch.setattr(oracle, "_grid_screen", noisy_screen)
        for width in (1e-6, 3e-6, 1e-5, 3e-5, 1e-4):
            for _ in range(10):
                start = -width * rng.uniform(0.2, 1.0)
                ys = np.linspace(start, width, oracle.GRID_POINTS)
                assert oracle._grid_argmin(p, start, width, True) == int(np.argmin(crossing_time(p, ys)))

    def test_one_point_grid(self, symmetric_ball_problem):
        assert oracle._open_window(symmetric_ball_problem, 0.25, 0.25) == (0, 1)
        self.check(symmetric_ball_problem, 0.25, 0.25)

    def test_unscreened_problem(self):
        p = make_problem((0.0, -1e-30), (1e-30, 2e-30), Ball(1e-20), Ellipse(2.0, 1e-25))
        l, r = oracle._grid(p)
        ys = linspace_grid(l, r)
        assert not oracle._well_scaled(p, ys, OracleConfig().golden_tol)
        assert oracle._grid_argmin(p, l, r, False) == int(np.argmin(crossing_time(p, ys)))
        assert minimize_objective(p) == reference_minimize(p, OracleConfig())

    @pytest.mark.parametrize("seed", (1, 2))
    def test_window_is_pruned_on_pool(self, seed):
        for text in pool_problems(seed):
            p = parse_problem(text)
            l, r = oracle._grid(p)
            lo, hi = oracle._open_window(p, l, r)
            assert 0 <= lo < hi <= len(linspace_grid(l, r))
            assert hi - lo < oracle.GRID_POINTS
            self.check(p, l, r)


def libmp_refine(problem, a, b, cfg, screened):
    """The golden section with its points as raw libmp values: the loop the integer points replaced."""
    with mp.workdps(40):
        prec, rnd = mp.mp._prec_rounding
        sides = oracle._sides(problem, a, b)
        phi = oracle._objective_raw(problem, sides, prec, rnd)
        screen_point, screen_difference = step_screen(problem, sides)
        a, b, tol = from_float(a), from_float(b), from_float(cfg.golden_tol)
        inv_golden = oracle._INV_GOLDEN

        def point(y):
            return [y, screen_point(to_float(y)) if screened else None, None]

        def less(p, q):
            if screened:
                delta = to_float(mpf_sub(p[0], q[0], prec, rnd))
                diff, err = screen_difference(p[1], q[1], delta)
                if diff + err < 0:
                    return True
                if diff - err > 0:
                    return False
            for pt in (p, q):
                if pt[2] is None:
                    pt[2] = phi(pt[0])
            return mpf_lt(p[2], q[2])

        w = mpf_sub(b, a, prec, rnd)
        step = mpf_mul(inv_golden, w, prec, rnd)
        c = point(mpf_sub(b, step, prec, rnd))
        d = point(mpf_add(a, step, prec, rnd))
        while mpf_gt(w, tol):
            w_last = w
            if less(c, d):
                b, d = d[0], c
                w = mpf_sub(b, a, prec, rnd)
                c = point(mpf_sub(b, mpf_mul(inv_golden, w, prec, rnd), prec, rnd))
            else:
                a, c = c[0], d
                w = mpf_sub(b, a, prec, rnd)
                d = point(mpf_add(a, mpf_mul(inv_golden, w, prec, rnd), prec, rnd))
            if not mpf_lt(w, w_last):
                break
        return to_float(mpf_div(mpf_add(a, b, prec, rnd), from_int(2), prec, rnd), rnd=rnd)


def libmp_minimize(problem, cfg):
    """minimize_objective with libmp_refine: the reference for the integer points."""
    ys = linspace_grid(*oracle._grid(problem))
    screened = oracle._well_scaled(problem, ys, cfg.golden_tol)
    i = full_scan_argmin(problem, ys) if screened else int(np.argmin(crossing_time(problem, ys)))
    a = float(ys[max(i - 1, 0)])
    b = float(ys[min(i + 1, len(ys) - 1)])
    y_star = libmp_refine(problem, a, b, cfg, screened)
    return y_star, crossing_time(problem, y_star)


def random_mantissa(rng, bits):
    """A random integer of exactly bits bits (bits >= 1), every bit below the top one drawn."""
    return (1 << (bits - 1)) | int.from_bytes(rng.bytes(bits // 8 + 1), "little") % (1 << (bits - 1))


class TestIntegerPoints:
    """The refine's integer arithmetic rounds as libmp does, and the refine keeps its bits."""

    PREC = oracle._PREC

    @staticmethod
    def operands(rng):
        """Pairs (n_x, n_y) of one frame: random widths, signs, exact ties and near-cancellations."""
        out = []
        for _ in range(400):
            nx = random_mantissa(rng, int(rng.integers(1, 200)))
            ny = random_mantissa(rng, int(rng.integers(1, 200)))
            out.append((nx, ny))
            out.append((-nx, ny))
            out.append((nx, -nx + int(rng.integers(-5, 6))))  # near 0
        for _ in range(200):
            k = int(rng.integers(1, 80))
            q = random_mantissa(rng, TestIntegerPoints.PREC)
            tie = (q << k) | (1 << (k - 1))  # exactly half-way between two 136-bit values
            out.append((tie, 0))
            out.append((-tie, 0))
            out.append(((q | 1) << k, 1 << (k - 1)))  # an odd q ties too
            out.append((((1 << TestIntegerPoints.PREC) - 1) << k, 1 << (k - 1)))  # rounds up a binade
            out.append((1 << (TestIntegerPoints.PREC + k), -1))  # falls a binade
        return out

    def test_round_matches_libmp(self):
        rng = np.random.default_rng(29)
        prec = self.PREC
        for nx, ny in self.operands(rng):
            e = int(rng.integers(-300, 300))
            x, y = from_man_exp(nx, e), from_man_exp(ny, e)
            for exact, want, exp in ((nx + ny, mpf_add(x, y, prec, "n"), e),
                                     (nx - ny, mpf_sub(x, y, prec, "n"), e),
                                     (nx * ny, mpf_mul(x, y, prec, "n"), 2 * e)):
                m, k = oracle._round(exact)
                assert m.bit_length() <= prec + 1
                assert from_man_exp(m, exp + k) == want

    def test_to_float_matches_libmp(self):
        """The oracle rounds an integer n of a frame 2**e to a float as math.ldexp(float(n), e):
        libmp's nearest to_float, subnormals and ties included."""
        rng = np.random.default_rng(30)
        cases = [(0, 0), (1, -1074), (3, -1076), (1, 1023)]
        for _ in range(2000):
            n = random_mantissa(rng, int(rng.integers(1, 140)))
            n = -n if rng.integers(2) else n
            cases.append((n, int(rng.integers(-1200, 900)) - n.bit_length()))
        for _ in range(300):
            k = int(rng.integers(1, 90))
            q = random_mantissa(rng, 53)
            for n in ((q << k) | (1 << (k - 1)), (q << k) | 1, ((1 << 53) - 1) << k | (1 << (k - 1))):
                cases += [(n, -k), (-n, -k), (n, -1100 - k)]  # ties, sticky bits, subnormals
        for n, e in cases:
            x = from_man_exp(n, e)
            assert repr(math.ldexp(float(n), e)) == repr(to_float(x, rnd="n"))

    @pytest.mark.parametrize("tol", (1e-12, 1e-14, 1e-300))
    def test_symmetric_problems_match_libmp_loop(self, tol, symmetric_ball_problem):
        diamond = validate(Polygon([(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]))
        problems = [symmetric_ball_problem,
                    make_problem((0.0, -1.0), (0.0, 2.0), Ball(1.0), Ellipse(2.0, 0.5)),
                    make_problem((0.0, -1.0), (0.0, 1.0), diamond, Ball(2.0))]
        cfg = OracleConfig(golden_tol=tol)
        for p in problems:
            got = minimize_objective(p, cfg)
            assert abs(got[0]) <= max(1e-9, 1e3 * tol)
            assert TestRawRefine.bits(got) == TestRawRefine.bits(libmp_minimize(p, cfg))

    @pytest.mark.parametrize("k0", range(3))
    @pytest.mark.parametrize("k1", range(3))
    def test_random_problems_match_libmp_loop(self, k0, k1):
        makers = TestPrunedScan.MAKERS
        rng = np.random.default_rng([31, k0, k1])
        for _ in range(3):
            base = pair_problem(rng, makers[k0], makers[k1])
            for p in (base, translated(base, 1e6), translated(base, 1e30)):
                for cfg in (OracleConfig(), OracleConfig(golden_tol=1e-14)):
                    want = libmp_minimize(p, cfg)
                    assert TestRawRefine.bits(minimize_objective(p, cfg)) == TestRawRefine.bits(want)
