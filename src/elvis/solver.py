"""Bisection solver for the time-optimal interface crossing point.

The crossing time phi(y) = gamma_F0((y,0) - x0) + gamma_F1(x1 - (y,0)) is
convex in the crossing abscissa y.  The residual delta(y) is the x-component
of zeta0 + zeta1 over all admissible normal-face selections; every value in
the resulting interval is a subgradient of phi at y, so bisection on the
interval's position relative to [-eps, eps] converges linearly.

The bisection only needs that position, one of three answers per step.
`solve` and `expand_bracket` settle it by a screen: each set's `line_form`
gives the face's x-range along the problem's line on Python floats with a
proven error bound (see `geometry`), and a step whose screened interval
lies within that bound of a threshold asks the 2-D kernels through `delta`,
which arbitrate.  So every decision is the kernels' own.  Most steps need
no screen either: between the bracket expansion and the loop, `_thresholds`
probes the line forms a few times (a bisection over the polygons' kinks,
then a safeguarded secant or the probes around a kink's snap band) and
certifies points a <= c <= d <= b of the bracket where the kernels decide
-1 at every y <= a, 1 at every y >= b and 0 on [c, d], so the loop decides
those midpoints by one comparison.  A loop that stops on a decision 0
ends on a nearby polygon kink that decides 0 too (see `_kink_stop`).  At
the final y `solve` takes each side's gauge once, and the boundary points
it gives are both the result's velocities and where the faces are taken;
`_answer`, the one answer rule, forms the interval, status and multipliers
from those faces' end points on Python floats.  The trace keeps each
step's (k, l, r, y, d) and fills in delta_lo and delta_hi by one
`delta_rows` call, bit-equal to `delta` row by row, when its rows are
first read.

`solve_batch`, for many targets x1 that share x0, F0 and F1, runs each of
the bisection's four phases (`_expand`, `_thresholds`, `_halve`, `_kink_stop`)
over every node before it starts the next, then makes one row call of the
same gauge and face kernels per side at the abscissae where the nodes
stopped, each row bit-equal to the vector call, and `_answer` per node;
every node's result is equal to `solve`'s field by field.
"""

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BracketExpansionFailedError, NotIsotropicError, ValidationError
from .geometry import Ball, _x_range_rows, normal_face, normal_face_rows, validate

MAX_BRACKET_DOUBLINGS = 64

# An offset's gauge is at least |offset_y|/circumradius, and the kernels divide by gauges,
# so make_problem and solve_batch keep that bound at least this, above the least normal float.
_GAUGE_FLOOR = 2.0**-1020

# The threshold locator's safeguarded secant stops after this many probes.
_SECANT_PROBES = 8
# The secant stops, and aims at both crossings, once the residual is within this
# many times eps plus its margin of zero.
_AIM_FROM = 2048.0

STATUS_CONVERGED = "Converged"
STATUS_RESIDUAL_ZERO_IN_FACE = "ResidualZeroInFace"
STATUS_MAX_ITERATIONS = "MaxIterations"
BRACKET_EXPANDED_PREFIX = "BracketExpanded+"


@dataclass(frozen=True)
class ElvisProblem:
    """Endpoints in opposite open half-planes, two validated velocity sets, tolerances."""

    x0: np.ndarray
    x1: np.ndarray
    F0: object
    F1: object
    epsilon: float = 1e-12
    max_iter: int = 200


def make_problem(x0, x1, F0, F1, epsilon=1e-12, max_iter=200):
    """Validate everything and build an ElvisProblem.

    x0 and x1 must be finite, x0 strictly below the interface (x-axis) and
    x1 strictly above; epsilon must be finite and positive, max_iter a whole
    number >= 1.  A set that fails validation raises with its side ("F0: " or
    "F1: ") prefixed to the message.  |x0_y|/F0.circumradius and
    x1_y/F1.circumradius, lower bounds on the offsets' gauges, must be at
    least 2**-1020, so that no gauge underflows.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if x0.shape != (2,) or x1.shape != (2,):
        raise ValidationError("x0 and x1 must be planar points")
    if not all(map(math.isfinite, (x0[0], x0[1], x1[0], x1[1]))):
        raise ValidationError("x0 and x1 must be finite")
    if not x0[1] < 0:
        raise ValidationError("x0 must satisfy x0_y < 0")
    if not x1[1] > 0:
        raise ValidationError("x1 must satisfy x1_y > 0")
    if not 0 < epsilon < math.inf:
        raise ValidationError("epsilon must be positive and finite")
    if not (max_iter >= 1 and max_iter % 1 == 0):
        raise ValidationError("max_iter must be a positive integer")
    F0, F1 = _validate_side(F0, "F0"), _validate_side(F1, "F1")
    if not (-float(x0[1]) / F0.circumradius >= _GAUGE_FLOOR
            and float(x1[1]) / F1.circumradius >= _GAUGE_FLOOR):
        raise ValidationError("|x0_y|/F0.circumradius and x1_y/F1.circumradius must be at least 2**-1020")
    return ElvisProblem(x0, x1, F0, F1, float(epsilon), int(max_iter))


def _validate_side(vset, name):
    try:
        return validate(vset)
    except ValidationError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


@dataclass(frozen=True)
class DeltaInterval:
    """Range of the residual over all admissible multiplier selections."""

    lo: float
    hi: float


@dataclass(frozen=True)
class TraceRow:
    k: int
    l: float
    r: float
    y: float
    d: float
    delta_lo: float
    delta_hi: float


class BisectionTrace:
    """The bisection's steps, one TraceRow each, in order.

    Made from the problem and the steps' (k, l, r, y, d) tuples; `rows`
    builds the TraceRows the first time it is read (or the trace is
    iterated), with delta_lo and delta_hi from one `delta_rows` call at the
    steps' y, and keeps them, so a caller that never reads the trace never
    pays for them.
    """

    def __init__(self, problem, steps=()):
        self._problem = problem
        self._steps = list(steps)

    @cached_property
    def rows(self):
        if not self._steps:
            return []
        ks = [step[0] for step in self._steps]
        lryd = np.array([step[1:] for step in self._steps])
        lo, hi = delta_rows(self._problem, lryd[:, 2])
        return [TraceRow(k, *values, lo_k, hi_k) for k, values, lo_k, hi_k in zip(ks, lryd, lo, hi)]

    def __len__(self):
        return len(self._steps)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if type(other) is not BisectionTrace:
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"BisectionTrace(rows={self.rows!r})"


@dataclass(frozen=True)
class SolveResult:
    y: float
    time: float
    v0: np.ndarray
    v1: np.ndarray
    zeta0: np.ndarray
    zeta1: np.ndarray
    iterations: int
    status: str


def crossing_time(problem, y):
    """The objective phi(y): total traversal time through crossing point (y, 0).

    y is a number (the result is a float) or a 1-D array (the result is an
    array of phi at every entry).  A number goes through the shapes' `gauge`
    on one vector and an array through `gauge` on rows, which is bit-equal
    row by row to `gauge` on one vector, so an array gives exactly the
    values of the per-point calls.  A non-finite y raises ValidationError.
    """
    ys = np.asarray(y, dtype=float)
    if not np.isfinite(ys).all():
        raise ValidationError(f"y must be finite, got {y}")
    if ys.ndim == 0:
        pt = np.array((float(ys), 0.0))
        return float(problem.F0.gauge(pt - problem.x0) + problem.F1.gauge(problem.x1 - pt))
    w0, w1 = _offset_rows(problem, ys.ravel(), problem.x1)
    return problem.F0.gauge(w0) + problem.F1.gauge(w1)


def _offset_rows(problem, ys, x1s):
    """The rows w0 = (y, 0) - x0 and w1 = x1s[n] - (y, 0) at every ys[n] (x1s may be one
    shared point), entry by entry as those subtractions round them."""
    x0x, x0y = problem.x0
    x1x, x1y = x1s.T
    w0 = np.empty((len(ys), 2))
    w0[:, 0] = ys - x0x
    w0[:, 1] = 0.0 - x0y
    w1 = np.empty((len(ys), 2))
    w1[:, 0] = x1x - ys
    w1[:, 1] = x1y
    return w0, w1


def delta(problem, y):
    """Interval of subgradients of phi at y (x-component range of zeta0 + zeta1)."""
    if not math.isfinite(y):
        raise ValidationError(f"y must be finite, got {y}")
    yv = np.array([y, 0.0])
    a0, b0 = normal_face(problem.F0, yv - problem.x0).x_range
    a1m, b1m = normal_face(problem.F1, problem.x1 - yv).x_range
    return DeltaInterval(a0 - b1m, b0 - a1m)


def delta_rows(problem, ys):
    """delta at every entry of the 1-D array ys, as arrays (lo, hi), bit-equal entry by entry."""
    ys = np.asarray(ys, dtype=float)
    if not np.isfinite(ys).all():
        raise ValidationError("every y must be finite")
    w0, w1 = _offset_rows(problem, ys, problem.x1)
    a0, b0 = _x_range_rows(*normal_face_rows(problem.F0, w0))
    a1m, b1m = _x_range_rows(*normal_face_rows(problem.F1, w1))
    return a0 - b1m, b0 - a1m


def _x_range(face):
    """The x-range (lo, hi) of a face given as its end points ((x, y), (x, y))."""
    a, b = face[0][0], face[1][0]
    return (a, b) if a <= b else (b, a)


def _point_with_x(face, x):
    """The point of a face (its end points as pairs) with x-component x, clamped to the
    face; the midpoint where both ends have the same x."""
    (ax, ay), (bx, by) = face
    if ax == bx:
        return 0.5 * (ax + bx), 0.5 * (ay + by)
    t = min(max((x - ax) / (bx - ax), 0.0), 1.0)
    return (1.0 - t) * ax + t * bx, (1.0 - t) * ay + t * by


def _answer(eps, y, time, v0, v1, face0, neg_face1, iterations, expanded):
    """The SolveResult of a bisection that stopped at y after iterations steps.

    face0 is F0's normal face at v0 and neg_face1 F1's at v1, each as the
    float pairs of its end points; neg_face1 holds the admissible -zeta1.
    Their x-ranges give the residual interval and so the status (prefixed
    when expanded).  The multipliers split the interval's point nearest 0
    between the faces: zeta0_x is that point less the largest zeta1_x,
    clamped to F0's x-range, and zeta1_x the rest; each is the face's point
    with that x-component (clamped to the face).
    """
    (a0, b0), (a1m, b1m) = _x_range(face0), _x_range(neg_face1)
    lo, hi = a0 - b1m, b0 - a1m
    status = _stop_status(lo, hi, eps) or STATUS_MAX_ITERATIONS
    if expanded:
        status = BRACKET_EXPANDED_PREFIX + status
    target = min(max(0.0, lo), hi)
    z0x = min(max(target + a1m, a0), b0)
    z1x, z1y = _point_with_x(neg_face1, -(target - z0x))
    zeta0, zeta1 = np.array(_point_with_x(face0, z0x)), np.array((-z1x, -z1y))
    return SolveResult(y, time, v0, v1, zeta0, zeta1, iterations, status)


def _no_face(vx):
    return None


def _line_forms(problem):
    """The sets' line forms along the problem's line: F0's depends on x0 and F0 alone,
    F1's on x1_y and F1."""
    return (problem.F0.line_form(0.0 - float(problem.x0[1])),
            problem.F1.line_form(float(problem.x1[1])))


def _residual_side(problem, line0, line1):
    """The bisection's decision at y, as a function side(y) of a Python float.

    side(y) is 1 when delta(y).lo > eps, -1 when delta(y).hi < -eps and 0
    when the interval meets [-eps, eps] (lo <= hi, so these are all cases).
    It decides on the sets' line forms when their bound settles it: with
    [lo, hi] from the line forms and err the sum of their errs, the kernels'
    interval lies within err of [lo, hi] (see `geometry`), and a float
    comparison of the rounded lo - err, hi + err, lo + err or hi - err with
    +-eps holds only if the same strict comparison holds unrounded, so
    lo - err > eps proves 1, hi + err < -eps proves -1, and lo + err < eps
    with hi - err > -eps proves 0.  Otherwise, or where a line form gives
    up, `delta` decides.  line0 and line1 are the sets' `_line_forms(problem)`,
    which a caller may share between targets.
    """
    eps = problem.epsilon
    x0x, _ = problem.x0.tolist()
    x1x, _ = problem.x1.tolist()
    # The kernels' directions are (y - x0_x, 0 - x0_y) and (x1_x - y, x1_y - 0).
    if line0 is None or line1 is None:
        face0 = face1 = _no_face
        err = math.inf
    else:
        face0, face1, err = line0.face, line1.face, line0.err + line1.err

    def side(y):
        fast0, fast1 = face0(y - x0x), face1(x1x - y)
        if fast0 is not None and fast1 is not None:
            (a0, b0), (a1m, b1m) = fast0, fast1
            lo, hi = a0 - b1m, b0 - a1m
            if lo - err > eps:
                return 1
            if hi + err < -eps:
                return -1
            if lo + err < eps and hi - err > -eps:
                return 0
        interval = delta(problem, y)
        return 1 if interval.lo > eps else -1 if interval.hi < -eps else 0

    return side


def expand_bracket(problem):
    """Initial bracket on the interface, widened until it encloses a minimizer.

    Starts from the endpoint projections (order-normalized).  An end whose
    residual sign points outward is pushed out geometrically, doubling the
    bracket width each time, at most MAX_BRACKET_DOUBLINGS times per end.
    Returns (l, r, expanded), the ends as np.float64.  Raises
    BracketExpansionFailedError if an end never turns, if r - l overflows
    (checked before any residual and at the end), or if an end's offsets
    could overflow a kernel (checked before each residual; see
    `_offset_guard`).
    """
    l, r, expanded = _expand(problem, _residual_side(problem, *_line_forms(problem)))
    return np.float64(l), np.float64(r), expanded


def _expand(problem, side):
    """expand_bracket on Python floats, deciding each end's residual sign by side."""
    l = float(min(problem.x0[0], problem.x1[0]))
    r = float(max(problem.x0[0], problem.x1[0]))
    _check_width(l, r)
    guard = _offset_guard(problem)
    expanded = False

    step = max(r - l, 1.0)
    tries = 0
    while side(guard(l)) > 0:
        if tries >= MAX_BRACKET_DOUBLINGS:
            raise BracketExpansionFailedError(
                "left bracket end never reached a nonpositive residual"
            )
        l -= step
        step *= 2.0
        tries += 1
        expanded = True

    step = max(r - l, 1.0)
    tries = 0
    while side(guard(r)) < 0:
        if tries >= MAX_BRACKET_DOUBLINGS:
            raise BracketExpansionFailedError(
                "right bracket end never reached a nonnegative residual"
            )
        r += step
        step *= 2.0
        tries += 1
        expanded = True

    _check_width(l, r)
    return l, r, expanded


# Covers the roundings between |v|/rho and what the kernels form (see `_offset_guard`).
_GAUGE_ROUNDING = 1.0 + 2.0**-40


def _offset_guard(problem):
    """guard(y) returns y, or raises BracketExpansionFailedError where the residual's
    offsets at y, (y - x0_x, -x0_y) and (x1_x - y, x1_y), could overflow a kernel.

    Up to the gauge the kernels form hypot(v)/r (ball), a rotation of v, its
    parts over a and b and their hypot (ellipse), and n_i . v / h_i with
    |n_i| = 1 (polygon): each is at most (1 + 8.1u) |v|/rho, rho the set's
    `inner_radius`.  guard's hypot(v) * (_GAUGE_ROUNDING/rho) is above that,
    so when it is finite nothing overflows; beyond the gauge, p = v/g is on
    the set's boundary.  No y inside a bracket has longer offsets than both
    ends, so guarding the ends covers every midpoint.
    """
    x0x, x0y = problem.x0.tolist()
    x1x, x1y = problem.x1.tolist()
    scale0 = _GAUGE_ROUNDING / problem.F0.inner_radius
    scale1 = _GAUGE_ROUNDING / problem.F1.inner_radius

    def guard(y):
        if not (math.hypot(y - x0x, x0y) * scale0 <= sys.float_info.max
                and math.hypot(x1x - y, x1y) * scale1 <= sys.float_info.max):
            raise BracketExpansionFailedError(f"the offsets at y = {y} could overflow the kernels")
        return y

    return guard


def _check_width(l, r):
    if not math.isfinite(float(r) - float(l)):
        raise BracketExpansionFailedError(f"bracket [{float(l)}, {float(r)}] is too wide for floats")


def _stop_status(lo, hi, eps):
    """Status of a step with residual interval [lo, hi] if the bisection stops there, else None."""
    if lo <= eps and hi >= -eps:
        return STATUS_RESIDUAL_ZERO_IN_FACE if lo < 0.0 < hi else STATUS_CONVERGED
    return None


def _thresholds(problem, l, r, line0, line1):
    """Certified thresholds (a, c, d, b) of the kernels' decision on [l, r]; see `_bisect`.

    The decision at y is -1 iff the kernels' hi_K(y) < -eps and 1 iff their
    lo_K(y) > eps.  A probe at t forms lo and hi from both sets' strict
    faces (line0 and line1 are `_line_forms(problem)`) as `_residual_side`
    does, and m = err0 + err1 + 2 (E0 + E1).  The offsets y - x0_x and
    x1_x - y round monotonically, and F1's face enters with a minus; every
    offset over [l, r] lies within the forms' reach, or no threshold is
    located.  So by the line-form notes in `geometry` hi_K(y) and lo_K(y)
    are at most hi and lo plus 2 (E0 + E1) at every y <= t in [l, r], and
    at least hi and lo minus it at every y >= t; err covers the rounding of
    lo and hi.  A rounded comparison with +-eps holds only if
    the unrounded one does, so hi + m < -eps proves -1 on y <= t (a = t),
    lo - m > eps proves 1 on y >= t (b = t), and hi - m > -eps and lo + m < eps
    prove hi_K > -eps on y >= t (c = t) and lo_K < eps on y <= t (d = t),
    hence 0 on [c, d].  Any probe point gives sound thresholds, so the search
    only has to place them well: a bisection over the gaps between the
    polygons' kinks, then the flanks of the kink left between (the forms' flanks),
    which hold the crossings when the zero lies in its snap band, or else a
    safeguarded (Illinois) secant inside a gap and one probe aimed just
    outside each crossing.  The search stops where a form gives up.  Absent
    thresholds are -inf (a, d) and inf (c, b).
    """
    eps = problem.epsilon
    x0x, x0y = problem.x0.tolist()
    x1x, x1y = problem.x1.tolist()
    a, c, d, b = -math.inf, math.inf, -math.inf, math.inf
    if line0 is None or line1 is None:
        return a, c, d, b
    if not (max(abs(l - x0x), abs(r - x0x)) <= line0.reach
            and max(abs(x1x - l), abs(x1x - r)) <= line1.reach):
        return a, c, d, b
    form0, form1 = line0.strict, line1.strict
    m = line0.err + line1.err + 2.0 * (line0.bound + line1.bound)
    # The window (p, q) holds both crossings; pv and qv are the residual just inside it
    # (hi at p, lo at q: at a kink the interval spans the jump), None until probed.
    p, q, pv, qv = l, r, None, None
    moves = []  # (t, residual) of every probe that moved the window
    latest = None  # (t, residual) of the latest probe

    def probe(t):
        """Probe at t, a point of [p, q]: tighten the thresholds and the window.  Returns
        -1 or 1 where t decides so with its margin, 0 where it does not, None where a
        form gives up."""
        nonlocal a, c, d, b, p, q, pv, qv, latest
        fast0, fast1 = form0(t - x0x), form1(x1x - t)
        if fast0 is None or fast1 is None:
            return None
        (a0, b0), (a1m, b1m) = fast0, fast1
        lo, hi = a0 - b1m, b0 - a1m
        latest = t, 0.5 * (lo + hi)
        if hi - m > -eps and t < c:
            c = t
        if lo + m < eps and t > d:
            d = t
        if hi + m < -eps:
            a = p = t
            pv = hi
            moves.append((t, hi))
            return -1
        if lo - m > eps:
            b = q = t
            qv = lo
            moves.append((t, lo))
            return 1
        return 0

    # The kink K of F0 lies at y = x0_x - x0_y K, and that of F1 at y = x1_x - x1_y K.
    for line, base, slope in ((line0, x0x, -x0y), (line1, x1x, -x1y)):
        kinks = line.kinks
        k_p, k_q = sorted(((p - base) / slope, (q - base) / slope))
        i, j = bisect_right(kinks, k_p), bisect_left(kinks, k_q)
        if i == j:
            continue
        # Bisect over the gaps between the kinks inside the window, probing each gap's
        # middle; gap g runs from ends[g] to ends[g + 1].  That leaves at most the kink
        # ends[g_lo] inside the window.
        ends = (k_p, *kinks[i:j], k_q)
        g_lo, g_hi, rising = 0, j - i, slope > 0.0
        while g_lo <= g_hi:
            g = (g_lo + g_hi) // 2
            t = base + slope * (0.5 * (ends[g] + ends[g + 1]))
            sign = probe(t) if p < t < q else None
            if sign is None:
                return a, c, d, b
            if sign == 0:
                break
            if (sign < 0) == rising:
                g_lo = g + 1
            else:
                g_hi = g - 1
        else:
            if not 0 < g_lo <= j - i:
                continue
            # Probe the kink's flanks, the points on both sides of it nearest its vertex
            # where the polygon's form certifies (or the kink, where a flank is missing),
            # in the order of y: a 1 leaves the crossings left of that point and a -1
            # right of it, and -1 then 1 holds them around the kink.
            flanks = [base + slope * ratio for ratio in line.flanks[i + g_lo - 1] if ratio is not None]
            points = sorted(flanks) if len(flanks) == 2 else [base + slope * ends[g_lo]]
            for t in points:
                sign = probe(t) if p < t < q else None
                if not sign:
                    return a, c, d, b
                if sign > 0:
                    break
            if q > points[-1] or q == points[0]:
                continue
            return a, c, d, b
        break
    else:
        if (pv is None and probe(p) != -1) or (qv is None and probe(q) != 1):
            return a, c, d, b
        # Illinois: secant steps on the residual in (p, q), halving the value kept at an
        # end that two steps in a row left in place; a midpoint where the step falls outside.
        fp, fq, moved = pv, qv, 0
        for _ in range(_SECANT_PROBES):
            t = q - fq * ((q - p) / (fq - fp))
            if not p < t < q:
                t = 0.5 * (p + q)
                if not p < t < q:
                    return a, c, d, b
            sign = probe(t)
            if sign is None:
                return a, c, d, b
            if sign == 0 or abs(latest[1]) < _AIM_FROM * (eps + m):
                break
            if sign < 0:
                fp = pv
                if moved < 0:
                    fq *= 0.5
            else:
                fq = qv
                if moved > 0:
                    fp *= 0.5
            moved = sign
        else:
            return a, c, d, b
    # The latest probe lies near a crossing: aim one probe just outside each crossing,
    # along the line through it and the last probe before it that moved the window.
    t, f = latest
    before = [move for move in moves if move[0] != t]
    if before:
        slope = (f - before[-1][1]) / (t - before[-1][0])
        if slope > 0.0:
            for level in (-eps - 3.0 * m, eps + 3.0 * m):
                aim = t + (level - f) / slope
                if p < aim < q:
                    probe(aim)
    return a, c, d, b


def _bisect(problem, line0, line1):
    """The bracket and bisection of `solve`: (steps, y, expanded).

    steps holds each step's (k, l, r, y, d) on Python floats, y is where the
    bisection stopped, moved onto a polygon kink by `_kink_stop` when its
    last decision is 0, and expanded whether the bracket was widened.  Its
    four phases, each defined once, run in order: `_expand`, `_thresholds`,
    `_halve` and `_kink_stop`.  Each decision is side(y), `_residual_side`
    on the line forms line0 and line1 (`_line_forms(problem)`, which a
    caller may share between targets).  `_thresholds` locates a <= c <= d
    <= b in [l, r] with the kernels' decision -1 at every y <= a, 1 at every
    y >= b and 0 on [c, d], each possibly absent; the loop takes such a
    midpoint's decision by comparison and asks side only for the others, so
    its steps are those of side at every midpoint.
    """
    side = _residual_side(problem, line0, line1)
    l, r, expanded = _expand(problem, side)
    thresholds = _thresholds(problem, l, r, line0, line1)
    steps, y, last = _halve(problem, side, l, r, *thresholds)
    return steps, _kink_stop(problem, side, thresholds, y, last), expanded


def _halve(problem, side, l, r, a, c, d, b):
    """The loop on [l, r]: (steps, y, last), steps each step's (k, l, r, y, d), y the last
    midpoint and last the final (l, r) where the last decision was 0, else None.  A
    midpoint that overflows raises BracketExpansionFailedError before it is decided."""
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


def _kink_stop(problem, side, thresholds, y, last):
    """The kink finish: where a bisection that stopped at y ends (y where last is None).

    last is `_halve`'s (l, r), the last bracket, where its decision there was
    0.  F0's kink K lies at y = x0_x - x0_y K and F1's at y = x1_x - x1_y K,
    K in the set's `kinks`.  Of each polygon's two kinks next to y, those in
    [l, r] are tried nearest y first, and the first that the loop's decision
    (thresholds, else side) puts at 0 is returned, else y; the
    decision is nondecreasing in y, so a kink beyond another on its side of
    y could only pass if that one did.  The kernels give every point within
    VERTEX_FACE_TOL*circumradius of a vertex its face, so the loop can stop
    with decision 0 just off a kink, while that face is the kink's own.
    """
    if last is None:
        return y
    l, r = last
    x0x, x0y = problem.x0.tolist()
    x1x, x1y = problem.x1.tolist()
    near = []  # (distance to y, kink)
    for kinks, base, slope in ((problem.F0.kinks, x0x, -x0y), (problem.F1.kinks, x1x, -x1y)):
        if kinks:
            i = bisect_left(kinks, (y - base) / slope)
            for kink in kinks[max(i - 1, 0):i + 1]:
                t = base + slope * kink
                if l <= t <= r:
                    near.append((abs(t - y), t))
    if not near:
        return y
    a, c, d, b = thresholds
    return next((t for _, t in sorted(near)
                 if (-1 if t <= a else 1 if t >= b else 0 if c <= t <= d else side(t)) == 0), y)


def solve(problem):
    """Run the bisection and return (SolveResult, BisectionTrace).

    Terminates as soon as the residual interval meets [-eps, eps]; the status
    is ResidualZeroInFace when zero sits strictly inside a genuine interval
    (a non-smooth face is active and the solution need not be unique).

    Each step's decision comes from `_residual_side`, which is the kernels'
    decision, so the steps are those of the loop that evaluates `delta` at
    every midpoint.  The midpoints are formed on Python floats, and one that
    overflows raises BracketExpansionFailedError before it is evaluated.
    The final y is the last midpoint, or, where the loop stopped on a
    decision 0, a polygon kink inside the last bracket that decides 0 too
    (see `_kink_stop`).  There each side's gauge g is taken once: v = w/g is
    both the result's v0 or v1 and the boundary point its face is taken at,
    and `_answer` forms the interval, status and multipliers from those
    faces; y, l, r and d are reported as np.float64.
    """
    steps, y, expanded = _bisect(problem, *_line_forms(problem))
    y = np.float64(y)
    yv = np.array([y, 0.0])
    w0 = yv - problem.x0
    w1 = problem.x1 - yv
    g0 = problem.F0.gauge(w0)
    g1 = problem.F1.gauge(w1)
    v0, v1 = w0 / g0, w1 / g1
    # normal_face at w0 and w1, taken at the boundary points v0 and v1; its zero check
    # cannot fire, as w0_y = -x0_y and w1_y = x1_y are positive.
    face0 = [zeta.tolist() for zeta in problem.F0.boundary_face(v0)]
    neg_face1 = [zeta.tolist() for zeta in problem.F1.boundary_face(v1)]
    result = _answer(problem.epsilon, y, float(g0 + g1), v0, v1, face0, neg_face1, len(steps),
                     expanded)
    return result, BisectionTrace(problem, steps)


def solve_batch(problem, x1s):
    """solve for every target x1s[n] of an (N, 2) array (or one point); one SolveResult per node.

    problem is an ElvisProblem whose own x1 is not used (a SweepSpec is one).
    Each node runs the phases of solve's `_bisect` on its own problem, each
    phase over every node before the next, with F0's forms built once for
    all of them and F1's once per run of nodes with equal x1_y, and keeps
    only its stopping abscissa, step count and expanded flag; one row call
    of the gauge and face kernels per side at those abscissae gives every
    node its gauges and faces, bit-equal to solve's vector calls, and solve's
    `_answer` its result, so result n equals solve(problem with
    x1 = x1s[n])[0] field by field.  Result n is None where `_expand` or
    `_halve` raises BracketExpansionFailedError, as solve does.  Every
    x1 must be finite, with x1_y > 0 and x1_y/F1.circumradius >= 2**-1020.
    """
    x1s = np.asarray(x1s, dtype=float)
    if x1s.shape == (2,):
        x1s = x1s.reshape(1, 2)
    if x1s.ndim != 2 or x1s.shape[1] != 2:
        raise ValidationError(f"x1s must be an (N, 2) array or one point, got shape {x1s.shape}")
    if not (np.all(np.isfinite(x1s)) and np.all(x1s[:, 1] > 0)):
        raise ValidationError("every x1 must be finite and satisfy x1_y > 0")
    if not float(x1s[:, 1].min(initial=math.inf)) / problem.F1.circumradius >= _GAUGE_FLOOR:
        raise ValidationError("every x1_y/F1.circumradius must be at least 2**-1020")
    eps, F1 = problem.epsilon, problem.F1
    line0 = problem.F0.line_form(0.0 - float(problem.x0[1]))  # F0's form of `_line_forms`
    # _bisect's phases, each run over every node before the next starts (in process about 13 %
    # faster per sweep grid than node by node): the bracket, ...
    brackets = []  # (n, node's problem, side, F1's form, l, r, expanded)
    forms_y = None
    for n, (x1, x1y) in enumerate(zip(x1s, x1s[:, 1].tolist())):
        # F1's form depends on x1_y alone, so a run of nodes with equal x1_y (a grid row) shares it.
        if x1y != forms_y:
            forms_y, line1 = x1y, F1.line_form(x1y)
        node = ElvisProblem(problem.x0, x1, problem.F0, F1, eps, problem.max_iter)
        side = _residual_side(node, line0, line1)
        try:
            brackets.append((n, node, side, line1, *_expand(node, side)))
        except BracketExpansionFailedError:
            continue
    # ... the thresholds, the loop ...
    found = [_thresholds(node, l, r, line0, line1) for _, node, _, line1, l, r, _ in brackets]
    stops = []  # (n, node's problem, side, thresholds, y, last, steps taken, expanded)
    for (n, node, side, _, l, r, grown), thresholds in zip(brackets, found):
        try:
            steps, y, last = _halve(node, side, l, r, *thresholds)
        except BracketExpansionFailedError:
            continue
        stops.append((n, node, side, thresholds, y, last, len(steps), grown))
    # ... and the kink finish.
    y = np.array([_kink_stop(*stop[1:6]) for stop in stops])
    w0, w1 = _offset_rows(problem, y, x1s[[stop[0] for stop in stops]])
    g0, g1 = problem.F0.gauge(w0), F1.gauge(w1)
    v0, v1 = w0 / g0[:, None], w1 / g1[:, None]
    faces0 = zip(*(zeta.tolist() for zeta in problem.F0.boundary_face(v0)))
    neg_faces1 = zip(*(zeta.tolist() for zeta in F1.boundary_face(v1)))
    results = [None] * len(x1s)
    times = (g0 + g1).tolist()
    for (n, *_, iterations, grown), *node in zip(stops, y, times, v0, v1, faces0, neg_faces1):
        results[n] = _answer(eps, *node, iterations, grown)  # _answer's arguments in order
    return results


def classical_snell_angles(result, problem):
    """Angles of incidence of the optimal velocities, measured from the interface normal.

    Only meaningful for isotropic (ball) velocity sets; each angle is signed
    by the x-direction of travel.
    """
    if not (isinstance(problem.F0, Ball) and isinstance(problem.F1, Ball)):
        raise NotIsotropicError("classical refraction angles need ball velocity sets")
    theta0 = math.atan2(result.v0[0], result.v0[1])
    theta1 = math.atan2(result.v1[0], result.v1[1])
    return theta0, theta1
