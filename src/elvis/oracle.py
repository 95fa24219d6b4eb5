"""Independent verification path for the geometry and the solver.

Nothing here touches normal faces or subgradients: gauges are recovered by
bisecting a membership predicate, and the crossing-time objective is
minimized by a grid scan plus golden-section refinement.  Deliberately slow
and simple.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import ZeroVectorError
from .geometry import Ball, Ellipse, Polygon, _rotation, support
from .solver import crossing_time, expand_bracket

_INV_GOLDEN = (mp.mpf(5).sqrt() - 1) / 2
# sample_interior gives up after this many rejected draws per requested sample.
MAX_REJECTIONS_PER_SAMPLE = 1000


@dataclass(frozen=True)
class OracleConfig:
    grid_points: int = 4096
    golden_tol: float = 1e-12

    def __post_init__(self):
        if self.grid_points < 16:
            raise ValueError("grid_points must be at least 16")
        if not self.golden_tol > 0:
            raise ValueError("golden_tol must be positive")


def contains(vset, point):
    """Membership test straight from the defining inequalities of the set."""
    x, y = float(point[0]), float(point[1])
    if isinstance(vset, Ball):
        return x * x + y * y <= vset.r * vset.r
    if isinstance(vset, Ellipse):
        w = _rotation(-vset.rot) @ np.array([x, y])
        return (w[0] / vset.a) ** 2 + (w[1] / vset.b) ** 2 <= 1.0
    if isinstance(vset, Polygon):
        return bool(np.all(vset.normals @ np.array([x, y]) <= vset.offsets))
    raise TypeError(f"not a velocity set: {vset!r}")


def gauge_by_membership(vset, v):
    """Gauge via bisection on t in the predicate "v / t in F" (no closed forms)."""
    v = np.asarray(v, dtype=float)
    if v[0] == 0.0 and v[1] == 0.0:
        raise ZeroVectorError("gauge_by_membership needs a nonzero vector")
    hi = 1.0
    while not contains(vset, v / hi):
        hi *= 2.0
    lo = hi / 2.0
    while contains(vset, v / lo):
        hi = lo
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    # Invariant: v/lo outside, v/hi inside.
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if contains(vset, v / mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _gauge_mp(vset, vx, vy):
    if isinstance(vset, Ball):
        return mp.sqrt(vx * vx + vy * vy) / vset.r
    if isinstance(vset, Ellipse):
        c, s = mp.cos(-vset.rot), mp.sin(-vset.rot)
        wx = c * vx - s * vy
        wy = s * vx + c * vy
        return mp.sqrt((wx / vset.a) ** 2 + (wy / vset.b) ** 2)
    vals = [
        (mp.mpf(n[0]) * vx + mp.mpf(n[1]) * vy) / mp.mpf(h)
        for n, h in zip(vset.normals, vset.offsets)
    ]
    return max(vals + [mp.mpf(0)])


def _objective_mp(problem, y):
    x0, x1 = problem.x0, problem.x1
    t0 = _gauge_mp(problem.F0, y - mp.mpf(x0[0]), -mp.mpf(x0[1]))
    t1 = _gauge_mp(problem.F1, mp.mpf(x1[0]) - y, mp.mpf(x1[1]))
    return t0 + t1


def _grid_scan(problem, cfg):
    """phi on cfg.grid_points evenly spaced points of the expanded bracket (one if it is a point)."""
    l, r, _ = expand_bracket(problem)
    ys = np.linspace(l, r, cfg.grid_points if r > l else 1)
    return ys, np.array([crossing_time(problem, y) for y in ys])


def minimize_objective(problem, cfg=None):
    """Brute-force minimizer of the crossing-time objective.

    Grid scan over the (expanded) bracket locates the minimal cell; a
    golden-section search run at extended precision refines it to
    cfg.golden_tol.  Returns (y_star, phi_star).
    """
    cfg = cfg or OracleConfig()
    ys, vals = _grid_scan(problem, cfg)
    i = int(np.argmin(vals))
    a = ys[max(i - 1, 0)]
    b = ys[min(i + 1, len(ys) - 1)]

    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        c = b - _INV_GOLDEN * (b - a)
        d = a + _INV_GOLDEN * (b - a)
        fc, fd = _objective_mp(problem, c), _objective_mp(problem, d)
        while b - a > cfg.golden_tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _INV_GOLDEN * (b - a)
                fc = _objective_mp(problem, c)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_GOLDEN * (b - a)
                fd = _objective_mp(problem, d)
        y_star = float((a + b) / 2)
    return y_star, crossing_time(problem, y_star)


def flat_minimum_interval(problem, cfg=None):
    """Grid-detected interval of near-minimal objective values.

    Returns (lo, hi); a positive width flags a non-strictly-convex (non-unique)
    minimum at grid resolution.
    """
    cfg = cfg or OracleConfig()
    ys, vals = _grid_scan(problem, cfg)
    vmin = float(np.min(vals))
    flat = ys[vals <= vmin + 1e-12 * max(1.0, abs(vmin))]
    return float(flat[0]), float(flat[-1])


def sample_interior(vset, n, rng):
    """Uniform-ish samples from F by rejection inside its support bounding box."""
    xb = support(vset, np.array([1.0, 0.0]))
    xa = -support(vset, np.array([-1.0, 0.0]))
    yb = support(vset, np.array([0.0, 1.0]))
    ya = -support(vset, np.array([0.0, -1.0]))
    out = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > MAX_REJECTIONS_PER_SAMPLE * n:
            raise RuntimeError("rejection sampling failed to fill the request")
        p = np.array([rng.uniform(xa, xb), rng.uniform(ya, yb)])
        if contains(vset, p):
            out.append(p)
    return np.array(out)
