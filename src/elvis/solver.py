"""Bisection solver for the time-optimal interface crossing point.

The crossing time phi(y) = gamma_F0((y,0) - x0) + gamma_F1(x1 - (y,0)) is
convex in the crossing abscissa y.  The residual delta(y) is the x-component
of zeta0 + zeta1 over all admissible normal-face selections; every value in
the resulting interval is a subgradient of phi at y, so bisection on the
interval's position relative to [-eps, eps] converges linearly.

`solve` evaluates the residual for several bisection levels at a time: the
midpoints of the next _LOOKAHEAD levels in one call of the row kernels, then
a walk down the loop's own path through them, so every step, trace row and
result bit is that of the loop that evaluates one midpoint per step.  The
walk records each step as a plain tuple; the trace builds its `TraceRow`s
from them the first time its rows are read, so a caller that ignores the
trace does not pay for them.

`solve_batch` runs the same bisection for many targets x1 that share x0, F0
and F1, all nodes in lockstep on arrays, through the same `geometry` kernels
applied to rows; every node's result is equal to `solve`'s field by field.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketExpansionFailedError, NotIsotropicError, ValidationError
from .geometry import (
    Ball,
    NormalFace,
    _point_with_x_rows,
    _x_range_rows,
    normal_face,
    normal_face_rows,
    validate,
)

MAX_BRACKET_DOUBLINGS = 64
# Bisection levels solve evaluates per call of the row kernels (2**5 - 1 = 31
# midpoints); deeper trees cost more in unvisited rows than they save.
_LOOKAHEAD = 5

STATUS_CONVERGED = "Converged"
STATUS_RESIDUAL_ZERO_IN_FACE = "ResidualZeroInFace"
STATUS_MAX_ITERATIONS = "MaxIterations"
BRACKET_EXPANDED_PREFIX = "BracketExpanded+"
# solve_batch's status codes: index into this tuple.
_STATUSES = (STATUS_CONVERGED, STATUS_RESIDUAL_ZERO_IN_FACE, STATUS_MAX_ITERATIONS)


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
    "F1: ") prefixed to the message.
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
    return ElvisProblem(
        x0, x1, _validate_side(F0, "F0"), _validate_side(F1, "F1"), float(epsilon), int(max_iter)
    )


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

    `solve` records a step as the plain tuple of its TraceRow fields; the
    rows are built from those tuples the first time `rows` is read or the
    trace is iterated, and kept, so a caller that never reads the trace
    never pays for them.
    """

    def __init__(self, rows=()):
        self._rows = list(rows)
        self._steps = []  # field tuples of the steps after _rows

    @property
    def rows(self):
        if self._steps:
            self._rows += [TraceRow(*step) for step in self._steps]
            self._steps.clear()
        return self._rows

    def append(self, row):
        self.rows.append(row)

    def __len__(self):
        return len(self._rows) + len(self._steps)

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
    array of phi at every entry).  Both go through the shapes' `gauge` on
    rows, which is bit-equal row by row to `gauge` on one vector, so an array
    gives exactly the values of the per-point calls.
    """
    ys = np.asarray(y, dtype=float)
    pts = np.column_stack((ys.ravel(), np.zeros(ys.size)))
    times = problem.F0.gauge(pts - problem.x0) + problem.F1.gauge(problem.x1 - pts)
    return float(times[0]) if ys.ndim == 0 else times


def _residual_faces(problem, y):
    """Delta interval at y plus the two faces it came from.

    face0 holds the admissible zeta0; neg_face1 holds the admissible -zeta1
    (the face of F1 at its own boundary point), so zeta1 ranges over the
    negation of neg_face1.
    """
    yv = np.array([y, 0.0])
    face0 = normal_face(problem.F0, yv - problem.x0)
    neg_face1 = normal_face(problem.F1, problem.x1 - yv)
    a0, b0 = face0.x_range
    a1m, b1m = neg_face1.x_range
    return DeltaInterval(a0 - b1m, b0 - a1m), face0, neg_face1


def delta(problem, y):
    """Interval of subgradients of phi at y (x-component range of zeta0 + zeta1)."""
    interval, _, _ = _residual_faces(problem, y)
    return interval


def _residual_rows(problem, ys, x1s):
    """_residual_faces at every ys[n] for the target x1s[n] (x1s may be one shared point).

    Returns the interval ends (lo, hi) and the (zeta_lo, zeta_hi) rows of face0
    and neg_face1, each row bit-equal to the scalar call's.
    """
    # The rows (y, 0) - x0 and x1 - (y, 0), entry by entry as those subtractions round them.
    x0x, x0y = problem.x0
    x1x, x1y = x1s.T
    v0 = np.empty((len(ys), 2))
    v0[:, 0] = ys - x0x
    v0[:, 1] = 0.0 - x0y
    v1 = np.empty((len(ys), 2))
    v1[:, 0] = x1x - ys
    v1[:, 1] = x1y
    face0 = normal_face_rows(problem.F0, v0)
    neg_face1 = normal_face_rows(problem.F1, v1)
    a0, b0 = _x_range_rows(*face0)
    a1m, b1m = _x_range_rows(*neg_face1)
    return a0 - b1m, b0 - a1m, face0, neg_face1


def delta_rows(problem, ys):
    """delta at every entry of the 1-D array ys, as arrays (lo, hi), bit-equal entry by entry."""
    lo, hi, _, _ = _residual_rows(problem, np.asarray(ys, dtype=float), problem.x1)
    return lo, hi


def _select_multipliers(interval, face0, neg_face1):
    """Pick zeta0, zeta1 from the faces with (zeta0 + zeta1)_x as close to 0 as possible."""
    target = min(max(0.0, interval.lo), interval.hi)
    a0, b0 = face0.x_range
    a1m, b1m = neg_face1.x_range
    # zeta1 x-range is [-b1m, -a1m]; split the target between the two faces.
    z0x = min(max(target + a1m, a0), b0)
    z1x = target - z0x
    zeta0 = face0.point_with_x(z0x)
    zeta1 = -neg_face1.point_with_x(-z1x)
    return zeta0, zeta1


def expand_bracket(problem):
    """Initial bracket on the interface, widened until it encloses a minimizer.

    Starts from the endpoint projections (order-normalized).  An end whose
    residual sign points outward is pushed out geometrically, doubling the
    bracket width each time, at most MAX_BRACKET_DOUBLINGS times per end.
    Returns (l, r, expanded).
    """
    l = min(problem.x0[0], problem.x1[0])
    r = max(problem.x0[0], problem.x1[0])
    eps = problem.epsilon
    expanded = False

    step = max(r - l, 1.0)
    tries = 0
    while delta(problem, l).lo > eps:
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
    while delta(problem, r).hi < -eps:
        if tries >= MAX_BRACKET_DOUBLINGS:
            raise BracketExpansionFailedError(
                "right bracket end never reached a nonnegative residual"
            )
        r += step
        step *= 2.0
        tries += 1
        expanded = True

    return l, r, expanded


def _midpoint_tree(l, r, depth):
    """Midpoints of the next depth bisection levels below the bracket [l, r], in heap order.

    Node 0 is the bracket's own midpoint; node i splits its bracket at its
    midpoint into the brackets of node 2i + 1 (the left half) and node 2i + 2
    (the right half).  Every midpoint is the loop's 0.5 * (l + r) on its
    bracket's ends: the root on l and r themselves, the rest on Python
    floats, which round alike.  A level's brackets are the neighbouring pairs
    of the sorted ends so far, so its midpoints come out sorted too.  The tree
    stops above the first level whose first or last midpoint is not finite
    (an overflowed sum): such a node would feed inf to the residual kernels,
    and the walk may never visit it.
    """
    ys = [0.5 * (l + r)]
    ends = [float(l), float(ys[0]), float(r)]
    for _ in range(depth - 1):
        mids = [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
        if not (math.isfinite(mids[0]) and math.isfinite(mids[-1])):
            break
        ys += mids
        merged = ends + mids
        merged[::2], merged[1::2] = ends, mids
        ends = merged
    return np.array(ys)


def solve(problem):
    """Run the bisection and return (SolveResult, BisectionTrace).

    Terminates as soon as the residual interval meets [-eps, eps]; the status
    is ResidualZeroInFace when zero sits strictly inside a genuine interval
    (a non-smooth face is active and the solution need not be unique).

    Each round evaluates the midpoints of the next _LOOKAHEAD bisection levels
    in one call of the row kernels, which give every row the bits of the
    one-point kernels, and then walks the loop's own path down that tree, one
    trace row per level.  Steps, trace and result are those of the plain
    loop that evaluates one midpoint at a time; only the dispatch is shared.
    """
    eps, max_iter = problem.epsilon, problem.max_iter
    l, r, expanded = expand_bracket(problem)
    d = r - l
    trace = BisectionTrace()
    record = trace._steps.append
    k = 0
    status = None
    while status is None:
        ys = _midpoint_tree(l, r, min(_LOOKAHEAD, max_iter - k))
        lo, hi, face0, neg_face1 = _residual_rows(problem, ys, problem.x1)
        i = 0
        while i < len(ys):
            y, y_lo, y_hi = ys[i], lo[i], hi[i]
            record((k, l, r, y, d, y_lo, y_hi))
            if y_lo <= eps and y_hi >= -eps:
                if y_lo < 0.0 < y_hi:
                    status = STATUS_RESIDUAL_ZERO_IN_FACE
                else:
                    status = STATUS_CONVERGED
                break
            if k + 1 >= max_iter or d <= 4.0 * math.ulp(abs(y)):
                status = STATUS_MAX_ITERATIONS
                break
            if y_lo > eps:
                r = y
                i = 2 * i + 1
            else:
                l = y
                i = 2 * i + 2
            d *= 0.5
            k += 1
    if expanded:
        status = BRACKET_EXPANDED_PREFIX + status

    interval = DeltaInterval(y_lo, y_hi)
    zeta0, zeta1 = _select_multipliers(interval, NormalFace(face0[0][i], face0[1][i]),
                                       NormalFace(neg_face1[0][i], neg_face1[1][i]))
    yv = np.array([y, 0.0])
    w0 = yv - problem.x0
    w1 = problem.x1 - yv
    g0 = problem.F0.gauge(w0)
    g1 = problem.F1.gauge(w1)
    result = SolveResult(
        y=y,
        time=float(g0 + g1),
        v0=w0 / g0,
        v1=w1 / g1,
        zeta0=zeta0,
        zeta1=zeta1,
        iterations=len(trace),
        status=status,
    )
    return result, trace


def _expand_rows(problem, x1s, end, width, nodes, left, expanded):
    """One phase of expand_bracket (the left end, or the right one) for the given nodes.

    Moves end[n] and sets expanded[n] in place, with expand_bracket's
    arithmetic.  Every node still being pushed has been pushed the same
    number of times, so one try count serves them all.  Returns the nodes
    whose end still pointed outward after MAX_BRACKET_DOUBLINGS pushes.
    """
    eps = problem.epsilon
    step = np.where(1.0 > width, 1.0, width)  # max(width, 1.0)
    for tries in itertools.count():
        lo, hi, _, _ = _residual_rows(problem, end[nodes], x1s[nodes])
        outward = lo > eps if left else hi < -eps
        nodes, step = nodes[outward], step[outward]
        if nodes.size == 0 or tries >= MAX_BRACKET_DOUBLINGS:
            return nodes
        end[nodes] = end[nodes] - step if left else end[nodes] + step
        step = step * 2.0
        expanded[nodes] = True


def solve_batch(problem, x1s):
    """solve for every target x1s[n] of an (N, 2) array; one SolveResult per node.

    problem supplies x0, F0, F1, epsilon and max_iter (any object with those
    attributes, such as a SweepSpec; an ElvisProblem's own x1 is not used).
    The nodes run expand_bracket and the bisection in lockstep on arrays, each
    with its own bracket, width and status, and stop by exactly solve's rules
    with the same kernels on rows, bit-equal to solve's, so result n equals
    solve(problem with x1 = x1s[n])[0] field by field.  Result n is None
    where solve raises BracketExpansionFailedError.  No trace is kept.
    """
    x1s = np.asarray(x1s, dtype=float).reshape(-1, 2)
    if not (np.all(np.isfinite(x1s)) and np.all(x1s[:, 1] > 0)):
        raise ValidationError("every x1 must be finite and satisfy x1_y > 0")
    n = len(x1s)
    eps, max_iter = problem.epsilon, problem.max_iter
    x0x, x1x = problem.x0[0], x1s[:, 0]
    l = np.where(x1x < x0x, x1x, x0x)  # min(x0x, x1x)
    r = np.where(x1x > x0x, x1x, x0x)  # max(x0x, x1x)
    expanded = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    failed[_expand_rows(problem, x1s, l, r - l, np.arange(n), True, expanded)] = True
    nodes = np.flatnonzero(~failed)
    failed[_expand_rows(problem, x1s, r, r[nodes] - l[nodes], nodes, False, expanded)] = True
    nodes = np.flatnonzero(~failed)

    # The state at each node's last iteration, filled in as nodes stop.
    y_end = np.zeros(n)
    lo_end, hi_end = np.zeros(n), np.zeros(n)
    faces_end = [np.zeros((n, 2)) for _ in range(4)]
    iterations = np.zeros(n, dtype=int)
    status = np.zeros(n, dtype=int)
    # The running nodes' state, compacted to them; every running node is at step k.
    l, r, x1_run = l[nodes], r[nodes], x1s[nodes]
    d = r - l
    k = 0
    while nodes.size:
        y = 0.5 * (l + r)
        lo, hi, face0, neg_face1 = _residual_rows(problem, y, x1_run)
        hit = (lo <= eps) & (hi >= -eps)
        stop = hit | (k + 1 >= max_iter) | (d <= 4.0 * np.spacing(np.abs(y)))
        if stop.any():
            done = nodes[stop]
            y_end[done], lo_end[done], hi_end[done] = y[stop], lo[stop], hi[stop]
            for end, rows in zip(faces_end, face0 + neg_face1):
                end[done] = rows[stop]
            iterations[done] = k + 1
            inside = (lo[stop] < 0.0) & (0.0 < hi[stop])
            status[done] = np.where(hit[stop], np.where(inside, 1, 0), 2)
            go = ~stop
            nodes, y, lo, l, r, d, x1_run = (a[go] for a in (nodes, y, lo, l, r, d, x1_run))
        right = lo > eps
        r = np.where(right, y, r)
        l = np.where(right, l, y)
        d = d * 0.5
        k += 1

    solved = np.flatnonzero(~failed)
    y, lo, hi = y_end[solved], lo_end[solved], hi_end[solved]
    zlo0, zhi0, zlo1, zhi1 = (end[solved] for end in faces_end)
    # _select_multipliers, row by row.
    target = np.where(lo > 0.0, lo, 0.0)  # max(0.0, lo)
    target = np.where(hi < target, hi, target)  # min(target, hi)
    a0, b0 = _x_range_rows(zlo0, zhi0)
    a1m, _ = _x_range_rows(zlo1, zhi1)
    z0x = target + a1m
    z0x = np.where(a0 > z0x, a0, z0x)
    z0x = np.where(b0 < z0x, b0, z0x)
    zeta0 = _point_with_x_rows(zlo0, zhi0, z0x)
    zeta1 = -_point_with_x_rows(zlo1, zhi1, -(target - z0x))
    pts = np.column_stack((y, np.zeros(len(y))))
    w0 = pts - problem.x0
    w1 = x1s[solved] - pts
    g0 = problem.F0.gauge(w0)
    g1 = problem.F1.gauge(w1)
    times = (g0 + g1).tolist()
    v0, v1 = w0 / g0[:, None], w1 / g1[:, None]

    results = [None] * n
    for m, i in enumerate(solved.tolist()):
        name = _STATUSES[status[i]]
        results[i] = SolveResult(
            y=y[m],
            time=times[m],
            v0=v0[m],
            v1=v1[m],
            zeta0=zeta0[m],
            zeta1=zeta1[m],
            iterations=int(iterations[i]),
            status=BRACKET_EXPANDED_PREFIX + name if expanded[i] else name,
        )
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
