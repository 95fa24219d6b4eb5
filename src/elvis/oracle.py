"""Independent verification path for the geometry and the solver.

Nothing here touches normal faces or subgradients: gauges are recovered by
bisecting a membership predicate, and the crossing-time objective is
minimized by a grid scan plus golden-section refinement.  The grid is
evaluated in one batched `crossing_time` call (bit-equal to per-point calls).
The refinement does 136-bit mpmath arithmetic on raw libmp values, calling the
functions mpf's operators call, in the same order: the gauge terms that do not
depend on y are computed once per call, and a polygon keeps only the facets
that can attain its maximum on the refine bracket.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    from_float,
    from_int,
    fzero,
    mpf_add,
    mpf_cos,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_pow_int,
    mpf_sin,
    mpf_sqrt,
    mpf_sub,
    to_float,
)

from .errors import ZeroVectorError
from .geometry import Ball, Ellipse, Polygon, support
from .solver import crossing_time, expand_bracket

# 1/golden ratio as a raw value, computed at mpmath's default 53 bits.  This
# rounded value steers every refine step, so it is part of the output bits.
_INV_GOLDEN = ((mp.mpf(5).sqrt() - 1) / 2)._mpf_
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
        w = vset._to_axes @ np.array([x, y])
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


def _live_facets(vset, vy, vx_ends):
    """Indices of the facets that can attain the polygon gauge of (vx, vy) for vx in vx_ends.

    Each facet term (nx*vx + ny*vy)/h is linear in vx, so a facet that the
    facet j with the largest end sum exceeds at both ends lies below j on the
    whole interval.  The terms are compared in float with a margin about six
    orders of magnitude above their round-off, so the maximum over the kept
    facets is the maximum over all of them at any precision.
    """
    ends = np.array(vx_ends)
    terms = (vset.normals[:, :1] * ends + vset.normals[:, 1:] * vy) / vset.offsets[:, None]
    j = np.argmax(terms.sum(axis=1))
    margin = 1e-9 * (np.max(np.abs(ends)) + abs(vy)) / np.min(vset.offsets)
    return np.flatnonzero(np.any(terms[j] - terms <= margin, axis=1))


def _gauge_raw(vset, vy, vx_ends, prec, rnd):
    """gamma_F(vx, vy) for one fixed float vy, as a function of raw libmp vx.

    vx stays within the float interval vx_ends.  The terms that do not depend
    on vx are computed here, once, and a polygon keeps only its live facets;
    each call does the arithmetic of the plain mpf formulas
    sqrt(vx*vx + vy*vy)/r, sqrt((wx/a)**2 + (wy/b)**2) with (wx, wy) the
    rotated vector, and max((nx*vx + ny*vy)/h, 0), in the same order.
    """
    vy_mp = from_float(vy)
    if isinstance(vset, Ball):
        r = from_float(vset.r)
        vy2 = mpf_mul(vy_mp, vy_mp, prec, rnd)
        return lambda vx: mpf_div(
            mpf_sqrt(mpf_add(mpf_mul(vx, vx, prec, rnd), vy2, prec, rnd), prec, rnd), r, prec, rnd
        )
    if isinstance(vset, Ellipse):
        c = mpf_cos(from_float(-vset.rot), prec, rnd)
        s = mpf_sin(from_float(-vset.rot), prec, rnd)
        a, b = from_float(vset.a), from_float(vset.b)
        s_vy, c_vy = mpf_mul(s, vy_mp, prec, rnd), mpf_mul(c, vy_mp, prec, rnd)

        def ellipse_gauge(vx):
            wx = mpf_sub(mpf_mul(c, vx, prec, rnd), s_vy, prec, rnd)
            wy = mpf_add(mpf_mul(s, vx, prec, rnd), c_vy, prec, rnd)
            wx2 = mpf_pow_int(mpf_div(wx, a, prec, rnd), 2, prec, rnd)
            wy2 = mpf_pow_int(mpf_div(wy, b, prec, rnd), 2, prec, rnd)
            return mpf_sqrt(mpf_add(wx2, wy2, prec, rnd), prec, rnd)

        return ellipse_gauge
    live = _live_facets(vset, vy, vx_ends)
    facets = [
        (from_float(nx), mpf_mul(from_float(ny), vy_mp, prec, rnd), from_float(h))
        for (nx, ny), h in zip(vset.normals[live].tolist(), vset.offsets[live].tolist())
    ]

    def polygon_gauge(vx):
        best = fzero
        for nx, ny_vy, h in facets:
            t = mpf_div(mpf_add(mpf_mul(nx, vx, prec, rnd), ny_vy, prec, rnd), h, prec, rnd)
            if mpf_gt(t, best):
                best = t
        return best

    return polygon_gauge


def _objective_raw(problem, a, b, prec, rnd):
    """phi as a function of raw libmp y in the float bracket [a, b] (see _gauge_raw)."""
    x0x, x0y = (float(u) for u in problem.x0)
    x1x, x1y = (float(u) for u in problem.x1)
    g0 = _gauge_raw(problem.F0, -x0y, (a - x0x, b - x0x), prec, rnd)
    g1 = _gauge_raw(problem.F1, x1y, (x1x - a, x1x - b), prec, rnd)
    x0x, x1x = from_float(x0x), from_float(x1x)
    return lambda y: mpf_add(
        g0(mpf_sub(y, x0x, prec, rnd)), g1(mpf_sub(x1x, y, prec, rnd)), prec, rnd
    )


def _grid_scan(problem, cfg):
    """phi on cfg.grid_points evenly spaced points of the expanded bracket (one if it is a point)."""
    l, r, _ = expand_bracket(problem)
    ys = np.linspace(l, r, cfg.grid_points if r > l else 1)
    return ys, crossing_time(problem, ys)


def minimize_objective(problem, cfg=None):
    """Brute-force minimizer of the crossing-time objective.

    Grid scan over the (expanded) bracket locates the minimal cell; a
    golden-section search run at extended precision refines it to
    cfg.golden_tol.  Returns (y_star, phi_star).
    """
    cfg = cfg or OracleConfig()
    ys, vals = _grid_scan(problem, cfg)
    i = int(np.argmin(vals))
    a = float(ys[max(i - 1, 0)])
    b = float(ys[min(i + 1, len(ys) - 1)])

    with mp.workdps(40):
        prec, rnd = mp.mp._prec_rounding
        phi = _objective_raw(problem, a, b, prec, rnd)
        a, b, tol = from_float(a), from_float(b), from_float(cfg.golden_tol)

        def golden_step(a, b):
            return mpf_mul(_INV_GOLDEN, mpf_sub(b, a, prec, rnd), prec, rnd)

        c = mpf_sub(b, golden_step(a, b), prec, rnd)
        d = mpf_add(a, golden_step(a, b), prec, rnd)
        fc, fd = phi(c), phi(d)
        while mpf_gt(mpf_sub(b, a, prec, rnd), tol):
            if mpf_lt(fc, fd):
                b, d, fd = d, c, fc
                c = mpf_sub(b, golden_step(a, b), prec, rnd)
                fc = phi(c)
            else:
                a, c, fc = c, d, fd
                d = mpf_add(a, golden_step(a, b), prec, rnd)
                fd = phi(d)
        y_star = to_float(mpf_div(mpf_add(a, b, prec, rnd), from_int(2), prec, rnd), rnd=rnd)
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
