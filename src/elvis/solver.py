"""Bisection solver for the time-optimal interface crossing point.

The crossing time phi(y) = gamma_F0((y,0) - x0) + gamma_F1(x1 - (y,0)) is
convex in the crossing abscissa y.  The residual delta(y) is the x-component
of zeta0 + zeta1 over all admissible normal-face selections; every value in
the resulting interval is a subgradient of phi at y, so bisection on the
interval's position relative to [-eps, eps] converges linearly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketExpansionFailedError, NotIsotropicError, ValidationError
from .geometry import Ball, normal_face, validate

MAX_BRACKET_DOUBLINGS = 64

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

    x0 must lie strictly below the interface (x-axis) and x1 strictly above.
    A set that fails validation raises with its side ("F0: " or "F1: ")
    prefixed to the message.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if x0.shape != (2,) or x1.shape != (2,):
        raise ValidationError("x0 and x1 must be planar points")
    if not x0[1] < 0:
        raise ValidationError("x0 must satisfy x0_y < 0")
    if not x1[1] > 0:
        raise ValidationError("x1 must satisfy x1_y > 0")
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    if not max_iter >= 1:
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


@dataclass
class BisectionTrace:
    rows: list = field(default_factory=list)

    def append(self, row):
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


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
    """The objective phi(y): total traversal time through crossing point (y, 0)."""
    yv = np.array([y, 0.0])
    return problem.F0.gauge(yv - problem.x0) + problem.F1.gauge(problem.x1 - yv)


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


def _select_multipliers(interval, face0, neg_face1, target):
    """Pick zeta0, zeta1 from the faces with (zeta0 + zeta1)_x as close to target as possible."""
    target = min(max(target, interval.lo), interval.hi)
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


def solve(problem):
    """Run the bisection and return (SolveResult, BisectionTrace).

    Terminates as soon as the residual interval meets [-eps, eps]; the status
    is ResidualZeroInFace when zero sits strictly inside a genuine interval
    (a non-smooth face is active and the solution need not be unique).
    """
    eps = problem.epsilon
    l, r, expanded = expand_bracket(problem)
    d = r - l
    trace = BisectionTrace()
    k = 0
    while True:
        y = 0.5 * (l + r)
        interval, face0, neg_face1 = _residual_faces(problem, y)
        trace.append(TraceRow(k, l, r, y, d, interval.lo, interval.hi))
        if interval.lo <= eps and interval.hi >= -eps:
            if interval.lo < 0.0 < interval.hi:
                status = STATUS_RESIDUAL_ZERO_IN_FACE
            else:
                status = STATUS_CONVERGED
            break
        if k + 1 >= problem.max_iter or d <= 4.0 * math.ulp(abs(y)):
            status = STATUS_MAX_ITERATIONS
            break
        if interval.lo > eps:
            r = y
        else:
            l = y
        d *= 0.5
        k += 1
    if expanded:
        status = BRACKET_EXPANDED_PREFIX + status

    zeta0, zeta1 = _select_multipliers(interval, face0, neg_face1, 0.0)
    yv = np.array([y, 0.0])
    w0 = yv - problem.x0
    w1 = problem.x1 - yv
    g0 = problem.F0.gauge(w0)
    g1 = problem.F1.gauge(w1)
    result = SolveResult(
        y=y,
        time=g0 + g1,
        v0=w0 / g0,
        v1=w1 / g1,
        zeta0=zeta0,
        zeta1=zeta1,
        iterations=len(trace),
        status=status,
    )
    return result, trace


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
