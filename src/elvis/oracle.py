"""Independent verification path for the geometry and the solver.

minimize_objective minimizes phi(y) = gamma_F0((y, 0) - x0) +
gamma_F1(x1 - (y, 0)) by golden section on the solver's expanded bracket,
without normal faces or subgradients: only the bracket is the solver's
(`solver.expand_bracket` decides the residual's sign at its ends, by the
shapes' line forms and, on close calls, by `delta`).  phi is convex, a sum
of gauges of convex sets, so golden section on a bracket that holds a
minimizer closes in on one.  The refine's values of phi come from each
gauge term's closed form (see _term), and phi_star is `crossing_time` at
the y_star it finds.  gauge_by_membership recovers a gauge by bisecting a
membership predicate alone, as an independent check of the shapes' gauges.

A golden step only asks a yes/no question of its values: whether
phi(c) < phi(d) at two golden points.  It is first put to a float form of
phi(c) - phi(d) with a proven error bound, in the manner of
adaptive-precision predicates (Shewchuk, Discrete Comput. Geom. 18, 1997):
the refine asks each gauge term's own float screen and sums the two
answers.  Only what the bound leaves open is settled by the exact values.
The golden points are the 136-bit values libmp's operations give, kept as
Python integers of one binary frame and rounded as libmp rounds, and the
136-bit phi of a point is computed on first need and kept.  That phi does
mpmath arithmetic on raw libmp values, calling the functions mpf's
operators call, in the same order: the gauge terms that do not depend on y
are computed once per call, and a polygon keeps only the facets that can
attain its maximum on the bracket.  Every answer is the one the exact
values give, so (y*, phi*) keep their bits.

The bounds use the standard model fl(x op y) = (x op y)(1 + e), |e| <= u =
2**-53, for float +, -, *, /, an error under one ulp for `math.hypot`,
`math.cos` and `math.sin`, and the nearest float for an integer's
`float()`.  Underflow breaks the model only by an absolute 2**-1075 per
operation, so the screens run only on problems whose scales (|x0_y|,
|x1_y|, the inner and outer radii of both sets, the refine's tolerance) lie
in [2**-64, 2**64] and whose abscissae (x0_x, x1_x, the bracket ends) are
at most 2**64 in size.  There every bound term exceeds 2**-250, underflow
adds under 2**-700 to any result even after the later operations amplify
it, and nothing overflows; other problems take the exact path throughout.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    from_float,
    from_man_exp,
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
    round_nearest,
)

from .errors import ElvisError, ValidationError, ZeroVectorError
from .geometry import _SCALE_MAX, _SCALE_MIN, Ball, Ellipse, Polygon, support
from .solver import crossing_time, expand_bracket

# 1/golden ratio as a raw value, computed at mpmath's default 53 bits, and
# its mantissa and exponent.  This rounded value steers every refine step,
# so it is part of the output bits.
_INV_GOLDEN = ((mp.mpf(5).sqrt() - 1) / 2)._mpf_
_GOLDEN_MAN, _GOLDEN_EXP = _INV_GOLDEN[1], _INV_GOLDEN[2]
# The refine's precision: mpmath's binary precision at 40 digits.
_PREC = mp.libmp.dps_to_prec(40)
# sample_interior gives up after this many rejected draws per requested sample.
MAX_REJECTIONS_PER_SAMPLE = 1000
# Points of flat_minimum_interval's grid; minimize_objective refines to its cells' width or less.
GRID_POINTS = 4096

# Float screen constants, with u = 2**-53.  Each is the factor of a bound
# whose derivation needs less (see _term); math.inf sends every decision to
# the exact values.
_STEP_REL = 2.0**-47  # 64 u; the derivation needs 27 u
_MP_REL = 2.0**-120  # the derivation needs 2**-132


@dataclass(frozen=True)
class OracleConfig:
    golden_tol: float = 1e-12
    grid_points = GRID_POINTS  # a class constant, not a field: read by perfbench's replay

    def __post_init__(self):
        if not 0 < self.golden_tol < math.inf:
            raise ValueError("golden_tol must be positive and finite")


def contains(vset, point):
    """Membership test straight from the defining inequalities of the set.

    A ball or an ellipse compares a hypot with 1 (or r), so no square leaves
    the float range; every sum is formed on Python floats.
    """
    x, y = float(point[0]), float(point[1])
    if isinstance(vset, Ball):
        return math.hypot(x, y) <= vset.r
    if isinstance(vset, Ellipse):
        (t00, t01), (t10, t11) = vset._to_axes.tolist()
        return math.hypot((t00 * x + t01 * y) / vset.a, (t10 * x + t11 * y) / vset.b) <= 1.0
    if isinstance(vset, Polygon):
        return all(nx * x + ny * y <= h for (nx, ny), h in zip(vset.normals.tolist(), vset.offsets.tolist()))
    raise TypeError(f"not a velocity set: {vset!r}")


def gauge_by_membership(vset, v):
    """Gauge via bisection on t in the predicate "v / t in F" (no closed forms).

    The gauge is positively homogeneous, so the bisection runs on v scaled by
    the power of two 2**-e that brings its larger component into [0.5, 1)
    (exact, unless a component far below the other underflows), and the
    answer is scaled back by 2**e, with the stopping width and the floor
    taken in the unscaled units.  Raises ValidationError where the gauge
    exceeds the float range.
    """
    v = np.asarray(v, dtype=float)
    if not (math.isfinite(v[0]) and math.isfinite(v[1])):
        raise ValidationError(f"gauge_by_membership needs a finite vector, got {v.tolist()}")
    if v[0] == 0.0 and v[1] == 0.0:
        raise ZeroVectorError("gauge_by_membership needs a nonzero vector")
    _, e = math.frexp(max(abs(v[0]), abs(v[1])))
    scaled = np.ldexp(v, -e)
    unit = math.ldexp(1.0, -e) if e > -1024 else math.inf  # 1 in the scaled units
    hi = 1.0
    while not contains(vset, scaled / hi):
        hi *= 2.0
        if hi == math.inf:
            raise ValidationError(f"the gauge of {v.tolist()} exceeds the float range")
    lo = hi / 2.0
    while contains(vset, scaled / lo):
        hi = lo
        lo /= 2.0
        if lo < 1e-300 * unit:
            return 0.0
    # Invariant: v/lo outside, v/hi inside.
    while hi - lo > 1e-13 * max(unit, hi):
        mid = 0.5 * (lo + hi)
        if contains(vset, scaled / mid):
            hi = mid
        else:
            lo = mid
    try:
        return math.ldexp(0.5 * (lo + hi), e)
    except OverflowError:
        raise ValidationError(f"the gauge of {v.tolist()} exceeds the float range") from None


def _live_facets(vset, vy, vx_ends):
    """The facets (nx, ny, h) that can attain the polygon gauge of (vx, vy) for vx in vx_ends.

    Each facet term (nx*vx + ny*vy)/h is linear in vx, so a facet that the
    facet j with the largest end sum (the first, on a tie) exceeds at both
    ends lies below j on the whole interval.  The terms are compared in
    float with a margin about six orders of magnitude above their round-off,
    so the maximum over the kept facets is the maximum over all of them at
    any precision.
    """
    e0, e1 = vx_ends
    facets = [(nx, ny, h) for (nx, ny), h in zip(vset.normals.tolist(), vset.offsets.tolist())]
    terms = [((nx * e0 + ny * vy) / h, (nx * e1 + ny * vy) / h) for nx, ny, h in facets]
    sums = [t0 + t1 for t0, t1 in terms]
    j = sums.index(max(sums))
    margin = 1e-9 * (max(abs(e0), abs(e1)) + abs(vy)) / vset.inner_radius
    top0, top1 = terms[j]
    return [facet for facet, (t0, t1) in zip(facets, terms)
            if top0 - t0 <= margin or top1 - t1 <= margin]


def _sides(problem, a, b):
    """phi's two gauge terms on the float bracket [a, b], as `_term`'s (exact, point,
    difference) each: F0's term is gamma_F0(y - x0_x, -x0_y) and F1's is
    gamma_F1(x1_x - y, x1_y)."""
    x0x, x0y = (float(u) for u in problem.x0)
    x1x, x1y = (float(u) for u in problem.x1)
    return (_term(problem.F0, -x0y, (a - x0x, b - x0x)),
            _term(problem.F1, x1y, (x1x - a, x1x - b)))


def _term(vset, vy, vx_ends):
    """One gauge term gamma(vx, vy) of phi, vy a fixed float and vx in the float interval
    vx_ends, as (exact, point, difference).

    exact(prec, rnd) gives gamma as a function of raw libmp vx.  The terms
    that do not depend on vx are computed there, once, and a polygon keeps
    only the facets that can attain its maximum over vx_ends (see
    _live_facets), found once here for the exact path and the float screen
    both.  Each call does the arithmetic of the plain mpf formulas
    sqrt(vx*vx + vy*vy)/r, sqrt((wx/a)**2 + (wy/b)**2) with (wx, wy) the
    rotated vector, and max((nx*vx + ny*vy)/h, 0), in the same order.

    point and difference are the term's float screen.  point(yf, vx) takes
    yf, the float nearest a golden point y, and vx computed from it in
    float, and returns the point's float data; its last entry is the scale
    s = |yf| + |vx| + |vy|.  The float vx errs by under 1.01 u s (yf: under
    u |y|; the subtraction: u |vx|), which the bounds below take as
    2.01 u s.  difference(p, q, dx) takes two points and the float dx
    nearest their exact vx_p - vx_q, relative error under u, which the
    bounds take as 2.01 u, and returns (D, E): a float D and a bound
    E >= |D - (g_p - g_q)| + e_p + e_q, where g is the exact gauge and e
    bounds the error of this term's share of the 136-bit phi (its gauge, and
    its part of the final sum): under 11 roundings of 2**-136 relative, so
    under 2**-132 s/rho, which E takes as _MP_REL*s/rho.  With A = s_p + s_q:

    Ball or ellipse (the ball's screen is an unrotated ellipse's with
    a = b = r), w = M v = ((c*vx - s*vy)/a, (s*vx + c*vy)/b) and
    m = M e_x = (c/a, s/b), |m| <= 1/rho.  As the points share vy,
    g_p^2 - g_q^2 = (w_p - w_q).(w_p + w_q) = (vx_p - vx_q) m.(w_p + w_q),
    so g_p - g_q = dx*h with h = m.(w_p + w_q)/G, G = g_p + g_q, |h| <= 1/rho.
    The float w errs by under 13 u s/rho per point (so by eps < 13 u A/rho
    over both), m by under 4.3 u/rho, G by under eps + 3 u G, m.(w_p + w_q)
    by under 7.4 u G/rho + eps/rho, so h by under (11.5 u + 26 u A/(rho G))/rho
    and D = dx*h by under 26 u |dx|/rho (1 + A/(rho G)).  E takes _STEP_REL
    for 26 u; the slack covers terms of order u**2 and the roundings of the
    sums that _refine forms.

    Polygon, only the live facets (the maximum over them is the gauge on
    vx_ends).  A facet term (n_x*vx + n_y*vy)/h errs by under 4.1 u s/rho,
    so a facet that leads both points by more than 2 _STEP_REL s/rho is the
    exact maximum at both, and g_p - g_q = dx*n_x/h, within 4.1 u |dx|/rho.
    Otherwise D is the plain difference of the float maxima, within
    5.2 u A/rho.
    """
    inv_rho, avy, vy_mp = 1.0 / vset.inner_radius, abs(vy), from_float(vy)
    rel, mp_rel = _STEP_REL, _MP_REL
    if isinstance(vset, Polygon):
        live = _live_facets(vset, vy, vx_ends)

        def exact(prec, rnd):
            facets = [(from_float(nx), mpf_mul(from_float(ny), vy_mp, prec, rnd), from_float(h))
                      for nx, ny, h in live]

            def polygon_gauge(vx):
                best = fzero
                for nx, ny_vy, h in facets:
                    t = mpf_div(mpf_add(mpf_mul(nx, vx, prec, rnd), ny_vy, prec, rnd), h, prec, rnd)
                    if mpf_gt(t, best):
                        best = t
                return best

            return polygon_gauge

        facets = [(nx, ny * vy, h) for nx, ny, h in live]
        slopes = [nx / h for nx, _, h in facets]

        def polygon_point(yf, vx):
            """(leading facet, its term, its lead over the runner-up, s)."""
            lead, top, gap = 0, -math.inf, math.inf
            for j, (nx, ny_vy, h) in enumerate(facets):
                t = (nx * vx + ny_vy) / h
                if t > top:
                    lead, top, gap = j, t, t - top
                elif top - t < gap:
                    gap = top - t
            return lead, top, gap, abs(yf) + abs(vx) + avy

        def polygon_difference(p, q, dx):
            lead_p, top_p, gap_p, s_p = p
            lead_q, top_q, gap_q, s_q = q
            mp_err = mp_rel * (s_p + s_q) * inv_rho
            margin = 2.0 * rel * inv_rho
            if lead_p == lead_q and gap_p > margin * s_p and gap_q > margin * s_q:
                return dx * slopes[lead_p], rel * abs(dx) * inv_rho + mp_err
            return top_p - top_q, rel * (s_p + s_q) * inv_rho + mp_err

        return exact, polygon_point, polygon_difference

    if isinstance(vset, Ball):
        def exact(prec, rnd):
            r = from_float(vset.r)
            vy2 = mpf_mul(vy_mp, vy_mp, prec, rnd)
            return lambda vx: mpf_div(
                mpf_sqrt(mpf_add(mpf_mul(vx, vx, prec, rnd), vy2, prec, rnd), prec, rnd), r, prec, rnd
            )

        cos, sin, a, b = 1.0, 0.0, vset.r, vset.r
    else:
        def exact(prec, rnd):
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

        cos, sin, a, b = math.cos(-vset.rot), math.sin(-vset.rot), vset.a, vset.b
    sin_vy, cos_vy = sin * vy, cos * vy
    mx, my = cos / a, sin / b

    def smooth_point(yf, vx):
        """(w_x, w_y, gamma, s)."""
        wx = (cos * vx - sin_vy) / a
        wy = (sin * vx + cos_vy) / b
        return wx, wy, math.hypot(wx, wy), abs(yf) + abs(vx) + avy

    def smooth_difference(p, q, dx):
        wx_p, wy_p, g_p, s_p = p
        wx_q, wy_q, g_q, s_q = q
        g = g_p + g_q
        scale = (s_p + s_q) * inv_rho
        return (dx * ((mx * (wx_p + wx_q) + my * (wy_p + wy_q)) / g),
                rel * (1.0 + scale / g) * abs(dx) * inv_rho + mp_rel * scale)

    return exact, smooth_point, smooth_difference


def _objective_raw(problem, sides, prec, rnd):
    """phi as a function of raw libmp y in the float bracket of sides (see _sides, _term)."""
    (exact0, _, _), (exact1, _, _) = sides
    g0, g1 = exact0(prec, rnd), exact1(prec, rnd)
    x0x, x1x = from_float(float(problem.x0[0])), from_float(float(problem.x1[0]))
    return lambda y: mpf_add(
        g0(mpf_sub(y, x0x, prec, rnd)), g1(mpf_sub(x1x, y, prec, rnd)), prec, rnd
    )


def _well_scaled(problem, l, r, tol):
    """Whether the float screens' error model holds for a refine of this problem on [l, r]
    to width tol (see the module notes)."""
    x0x, x0y = (float(u) for u in problem.x0)
    x1x, x1y = (float(u) for u in problem.x1)
    scales = (abs(x0y), abs(x1y), tol, problem.F0.inner_radius, problem.F0.circumradius,
              problem.F1.inner_radius, problem.F1.circumradius)
    positions = (x0x, x1x, l, r)
    return (all(_SCALE_MIN <= s <= _SCALE_MAX for s in scales)
            and all(abs(p) <= _SCALE_MAX for p in positions))


def _bracket(problem):
    """The ends (l, r) of the expanded bracket, as floats: the refine's bracket."""
    l, r, _ = expand_bracket(problem)
    return float(l), float(r)


def _round(n, prec=_PREC):
    """(m, k) with m * 2**k the integer n rounded to prec significant bits, nearest-even.

    This is the rounding of libmp's normalize with rnd 'n': for values
    n_x * 2**e and n_y * 2**e of one binary frame, mpf_add, mpf_sub and
    mpf_mul at prec give n_x + n_y, n_x - n_y (times 2**e) or n_x * n_y
    (times 2**(2e)) so rounded.
    """
    k = n.bit_length() - prec
    if k <= 0:
        return n, 0
    m = -n if n < 0 else n
    q = m >> k
    rest = m - (q << k)
    half = 1 << (k - 1)
    if rest > half or (rest == half and q & 1):
        q += 1
    return (-q if n < 0 else q), k


def _scaled(num, den, frame):
    """floor(num/den / 2**frame) for a power of two den: a float's integer ratio in a frame."""
    shift = 1 - den.bit_length() - frame
    return num << shift if shift >= 0 else num >> -shift


def _refine(a, b, tol, objective, screen):
    """Golden-section search for the least phi on the float bracket [a, b], to width tol.

    Returns y*, the float nearest the midpoint of the last bracket.  The
    golden points are the ones libmp's mpf_add, mpf_sub and mpf_mul give at
    _PREC bits, operation by operation, but each value is a Python integer n
    standing for n * 2**frame, one frame for a, b, w = b - a and the points
    c, d: sums are exact and _round rounds them as libmp does.  The step
    _INV_GOLDEN*w, rounded, may have bits below the frame, so a point is
    summed in the step's frame; a point with bits below the frame (one
    near 0) deepens the frame, rescaling the values that are live.  A
    bracket clear of 0 never does: every point lies in [a, b], and the
    frame starts at the last of the _PREC bits of min(|a|, |b|).  The loop
    stops when w is at most tol, compared as floor(tol / 2**frame), or no
    longer shrinks (tol below the _PREC-bit spacing of y).

    The exact phi decides a step; objective() builds it, on first need (a
    screened call usually has none).  phi takes a raw mpf, from_man_exp(n,
    frame), and a point's value is computed on first need and kept.  With
    screen, (x0_x, x1_x, sides) of the problem (see _sides), a step is
    first put to the float screens of both gauge terms (see _term).  A
    point y keeps each side's point data, from yf, the float nearest y, and
    the side's vx: F0's is yf - x0_x and F1's is x1_x - yf.  Each side's
    difference takes dx, the float nearest the exact y_c - y_d, as F0's vx
    moves by dx and F1's by -dx.  The sums D and E of the two sides' answers
    give |D - (phi(c) - phi(d))| <= E for the 136-bit values, so D + E < 0
    proves phi(c) < phi(d) and D - E > 0 proves phi(c) > phi(d); float
    rounding keeps the sign of a sum, so these tests are exact.  phi
    settles only what E leaves open.
    """
    (na, da), (nb, db), (nt, dt) = (x.as_integer_ratio() for x in (a, b, tol))
    frame = 1 - max(da, db).bit_length()
    tops = [n.bit_length() - d.bit_length() for n, d in ((na, da), (nb, db)) if n]
    if tops:
        frame = min(frame, min(tops) + 1 - _PREC)
    a, b, tol_n = _scaled(na, da, frame), _scaled(nb, db, frame), _scaled(nt, dt, frame)
    if screen:
        x0x, x1x, ((_, point0, difference0), (_, point1, difference1)) = screen
    phi = None

    def golden_point(base, sign, keep):
        """[n, F0's and F1's screen data, phi once needed] for base + sign*_INV_GOLDEN*w, rounded.

        keep is the other live point, rescaled with a, b and w if the frame deepens.
        """
        nonlocal a, b, w, frame, tol_n
        m, k = _round(_GOLDEN_MAN * w)
        shift = _GOLDEN_EXP + k  # the step is m * 2**(frame + shift)
        if shift >= 0:
            y, k = _round(base + sign * (m << shift))
        else:
            y, k = _round((base << -shift) + sign * m)
            k += shift
        if k >= 0:
            y <<= k
        else:
            a, b, w, keep[0] = a << -k, b << -k, w << -k, keep[0] << -k
            frame += k
            tol_n = _scaled(nt, dt, frame)
        if not screen:
            return [y, None, None, None]
        yf = math.ldexp(float(y), frame)
        return [y, point0(yf, yf - x0x), point1(yf, x1x - yf), None]

    m, k = _round(b - a)
    w = m << k
    c = golden_point(b, -1, [0])  # nothing else is live yet
    d = golden_point(a, 1, c)
    while w > tol_n:
        w_last = w
        lower = None
        if screen:
            dx = math.ldexp(float(c[0] - d[0]), frame)
            diff0, err0 = difference0(c[1], d[1], dx)
            diff1, err1 = difference1(c[2], d[2], -dx)
            diff, err = diff0 + diff1, err0 + err1
            if diff + err < 0:
                lower = True
            elif diff - err > 0:
                lower = False
        if lower is None:
            phi = phi or objective()
            for pt in (c, d):
                if pt[3] is None:
                    pt[3] = phi(from_man_exp(pt[0], frame))
            lower = mpf_lt(c[3], d[3])
        if lower:
            b, d = d[0], c
        else:
            a, c = c[0], d
        m, k = _round(b - a)
        w = m << k
        if not w < w_last:
            break  # the _PREC-bit spacing of y: tol is below it
        if lower:
            c = golden_point(b, -1, d)
        else:
            d = golden_point(a, 1, c)
    m, k = _round(a + b)
    # libmp's to_float: m rounded to 53 bits nearest-even, as float() rounds an int.
    return math.ldexp(float(m), frame + k - 1)


def minimize_objective(problem, cfg=None):
    """Minimizer of the crossing-time objective by golden section: (y_star, phi_star).

    phi is convex, so a golden-section search with _PREC-bit points and
    values on the expanded bracket [l, r] closes in on a minimizer.  It runs
    to width tol = min(cfg.golden_tol, (r - l)/(GRID_POINTS - 1)), so a
    bracket narrower than about GRID_POINTS*golden_tol is still resolved, or
    until a step no longer narrows the bracket, which happens when tol is
    below the _PREC-bit spacing of y.  Each step decides by the float
    screens where their bounds allow (on a problem _well_scaled at tol) and
    by exact values elsewhere, with the answers the exact values give (see
    _refine).  phi_star is crossing_time at y_star.
    """
    cfg = cfg or OracleConfig()
    l, r = _bracket(problem)
    tol = min(cfg.golden_tol, (r - l) / (GRID_POINTS - 1))
    screened = _well_scaled(problem, l, r, tol)
    sides = _sides(problem, l, r)
    screen = (float(problem.x0[0]), float(problem.x1[0]), sides) if screened else None
    y_star = _refine(l, r, tol, lambda: _objective_raw(problem, sides, _PREC, round_nearest),
                     screen)
    return y_star, crossing_time(problem, y_star)


def flat_minimum_interval(problem, cfg=None):
    """Grid-detected interval of near-minimal objective values.

    The grid is np.linspace over the expanded bracket, GRID_POINTS points
    (one if the bracket is a point).  Returns (lo, hi); a positive width
    flags a non-strictly-convex (non-unique) minimum at grid resolution.
    The grid does not depend on cfg.
    """
    l, r = _bracket(problem)
    ys = np.linspace(l, r, GRID_POINTS if r > l else 1)
    vals = crossing_time(problem, ys)
    vmin = float(np.min(vals))
    flat = ys[vals <= vmin + 1e-12 * max(1.0, abs(vmin))]
    return float(flat[0]), float(flat[-1])


def sample_interior(vset, n, rng):
    """Uniform-ish samples from F by rejection inside its support bounding box.

    Raises ElvisError when MAX_REJECTIONS_PER_SAMPLE * n draws do not give n
    samples, as on a valid set that fills under 1/MAX_REJECTIONS_PER_SAMPLE
    of its box (a thin ellipse rotated by pi/4).
    """
    xa, xb = -support(vset, (-1.0, 0.0)), support(vset, (1.0, 0.0))
    ya, yb = -support(vset, (0.0, -1.0)), support(vset, (0.0, 1.0))
    out = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > MAX_REJECTIONS_PER_SAMPLE * n:
            raise ElvisError("rejection sampling failed to fill the request")
        p = np.array([rng.uniform(xa, xb), rng.uniform(ya, yb)])
        if contains(vset, p):
            out.append(p)
    return np.array(out)
