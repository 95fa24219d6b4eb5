import dataclasses
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from elvis import Ball, Ellipse, Polygon, make_problem, parse_problem, solve, validate
from elvis.solver import crossing_time, delta_rows

# Documented test squares for the polyhedral (non-smooth) experiments:
#   SQUARE0 is the axis-aligned unit square.
#   SQUARE1 is the unit square rotated 45 degrees and shifted up by 0.25, so
#   its vertices sit at (+-1, 0.25) and (0, 0.25 +- 1) with the origin inside.
# With x0 = (0, -1) these produce three solution regions along a horizontal
# sweep of x1: crossings pinned at y = -1, at y = x1_x, and at y = +1.
SQUARE0_VERTICES = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
SQUARE1_VERTICES = [(1.0, 0.25), (0.0, 1.25), (-1.0, 0.25), (0.0, -0.75)]


@pytest.fixture
def square0():
    return validate(Polygon(SQUARE0_VERTICES))


@pytest.fixture
def square1():
    return validate(Polygon(SQUARE1_VERTICES))


@pytest.fixture
def elliptic_problem():
    # x0/x1 on the diagonal, strongly anisotropic ellipses; reference crossing
    # abscissa is -0.401 to three decimals.
    return make_problem((-1.0, -1.0), (1.0, 1.0), Ellipse(1.0, 0.5), Ellipse(2.0, 1.0))


@pytest.fixture
def symmetric_ball_problem():
    return make_problem((-1.0, -1.0), (1.0, 1.0), Ball(1.0), Ball(1.0))


@pytest.fixture
def square_problem(square0, square1):
    return make_problem((0.0, -1.0), (0.5, 1.0), square0, square1)


def random_ball(rng):
    return Ball(float(rng.uniform(0.5, 3.0)))


def random_ellipse(rng):
    return Ellipse(
        float(rng.uniform(0.5, 3.0)),
        float(rng.uniform(0.5, 3.0)),
        float(rng.uniform(0.0, np.pi)),
    )


def random_polygon(rng):
    """Random strictly convex polygon with the origin inside (star construction)."""
    n = int(rng.integers(3, 9))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.5, 3.0, n)
    pts = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    pts -= 0.5 * pts.mean(axis=0)
    return Polygon(pts)


def egg_polygon(n=48):
    """An egg-shaped n-gon around (0.15, 0.1), the shape of the benchmark's sweeps."""
    t = np.arange(n) * (2.0 * np.pi / n)
    r = 1.0 + 0.3 * np.cos(t)
    return validate(Polygon(np.column_stack((r * np.cos(t) + 0.15, r * np.sin(t) + 0.1))))


def random_validated_set(rng):
    """Keep drawing until validation succeeds (degenerate polygons are rare)."""
    makers = [random_ball, random_ellipse, random_polygon]
    while True:
        try:
            return validate(makers[int(rng.integers(3))](rng))
        except Exception:
            continue


def random_problem(rng, families=None):
    from elvis import ValidationError

    makers = families or [random_ball, random_ellipse, random_polygon]
    while True:
        x0 = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, -0.1)))
        x1 = (float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 3)))
        f0 = makers[int(rng.integers(len(makers)))](rng)
        f1 = makers[int(rng.integers(len(makers)))](rng)
        try:
            return make_problem(x0, x1, f0, f1)
        except ValidationError:
            continue


def boundary_points(vset, n, rng):
    """Random points on the boundary of a validated set (closed-form construction)."""
    if isinstance(vset, Ball):
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        return vset.r * np.column_stack((np.cos(t), np.sin(t)))
    if isinstance(vset, Ellipse):
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        c, s = np.cos(vset.rot), np.sin(vset.rot)
        rot = np.array([[c, -s], [s, c]])
        pts = np.column_stack((vset.a * np.cos(t), vset.b * np.sin(t)))
        return pts @ rot.T
    verts = vset.vertices
    idx = rng.integers(0, len(verts), n)
    t = rng.uniform(0.0, 1.0, n)[:, None]
    nxt = np.roll(verts, -1, axis=0)
    return (1.0 - t) * verts[idx] + t * nxt[idx]


def pool_problems(seed, n=270):
    """The problem texts of the benchmark's `problem_pool(seed, n)` (perfbench/inputs.py)."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.inputs import problem_pool

    return problem_pool(seed, n)


def output_probe(seed=1, n=27):
    """sha256 of every SolveResult field of `solve` on `pool_problems(seed, n)`, with
    `delta_rows` and `crossing_time` on the array of y in [-4, 4] at step 1/4 for each
    problem; floats and arrays by their bytes."""
    h = hashlib.sha256()
    ys = np.linspace(-4.0, 4.0, 33)
    for text in pool_problems(seed, n):
        problem = parse_problem(text)
        result, _ = solve(problem)
        for field in dataclasses.fields(result):
            h.update(np.asarray(getattr(result, field.name)).tobytes())
        for values in (*delta_rows(problem, ys), crossing_time(problem, ys)):
            h.update(values.tobytes())
    return h.hexdigest()


def exact_polygon_pair_minimum(problem):
    """(min over y of phi, a y that attains it) for two polygons, in exact rational arithmetic.

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
    return min((g0(y - x0x, -x0y) + g1(x1x - y, x1y), y) for y in kinks)
