"""Planar convex velocity sets: gauges, support functions, polar duals, normal faces.

A velocity set is a closed bounded convex subset of the plane containing the
origin in its interior.  Three shapes are supported: balls, (rotated) ellipses
and convex polygons.  Each shape class implements the same operations
(`validate`, `gauge`, `support`, `polar`, `boundary_face`); the module-level
functions of the same names dispatch to them.  Each also has `line_form`,
the float forms of its normal face along a line that the solver decides by
(see below).

There is one kernel per operation.  `gauge(v)` and `boundary_face(p)` take a
vector of shape (2,) or rows of shape (N, 2), and row n of the result is bit
for bit the result for the vector alone.  `boundary_face` returns the face
as the pair (zeta_lo, zeta_hi), the same array twice for a point face;
`normal_face` wraps one vector's pair in a `NormalFace` and
`normal_face_rows` hands the rows' pair on; the solver picks points of the
faces from those end points by one answer rule (`solver._answer`).  Every
matrix product is one element-wise expression, `_matvec`, alike for a vector
and for rows, so each row rounds as the vector alone and no kernel calls
BLAS: the bits depend on the input and the numpy version only.  Components
are read from the transpose, `v.T[0]` and `v.T[1]`, which are scalars for a
vector and columns for rows.  Every shape is a frozen value, and the kernels
read constants derived from its fields once, stored on the instance so that
fields, equality and repr are left alone: an ellipse's rotation matrices and
squared semi-axes (`cached_property`s), and a polygon's half-plane form,
facet points n_i/h_i and radii from one pass over its vertices on Python
floats, the arrays read-only like its vertices, and its kinks and line-form
table from a second pass on its first line form (`Polygon`).  `inner_radius`
is the radius of the largest centred disk in the set and `circumradius` that
of the smallest centred disk around it, so |v|/circumradius <= gauge(v) <=
|v|/inner_radius.

`normal_face_rows` refuses a zero row, as `normal_face` refuses a zero
vector; since a row is zero only if its y-component is, one reduction over
the y-components clears the usual case.  `Polygon.validate` tests
collinearity and orientation on the cross products of every vertex's
incident edges, taken on the coordinates scaled by a power of two that
brings the largest to [0.5, 1), so they neither overflow nor underflow.

Line forms.  `line_form(vy)` restricts `normal_face` to the directions
(vx, vy) with one float vy > 0 and returns a `LineForm`, or None where it
cannot be sure.  Its face is a function of a float vx giving (lo, hi) on
Python floats, or None where it cannot be sure, and its err is one number
for the whole form.  A ball or an ellipse evaluates the kernel's formulas
on Python floats; a polygon's answer
depends on the direction alone, so its face looks the ratio vx/vy up in a
sorted table of direction cuts that the polygon builds once, and returns
the slot's entry of facet_points (see `Polygon.line_form`).  (lo_K, hi_K)
is the kernel's `normal_face(vset, (vx, vy)).x_range`; the guarantee, for
every answer of the form, is

    1.01 * (|lo - lo_K| + 2u m) <= err  and  1.01 * (|hi - hi_K| + 2u m) <= err,

m = max(|lo|, |hi|), so a value formed from two sides by one more rounded
subtraction is within the rounded sum of their errs of the kernels' value.
The solver decides its bisection steps by these values and calls the
kernels only on close calls.  Every err and margin is a multiple of
LINE_FACE_REL, which exceeds what the derivations need (in the line_form
docstrings) several times over; 0 leaves the answers unproven and inf
makes every form give up.  The derivations use the standard model
fl(x op y) = (x op y)(1 + e), |e| <= u = 2**-53, for float +, -, *, /, an
error under one ulp (so under 2u relative) for `math.hypot` and
`np.hypot`, and for `_matvec`'s 2-term dot product, two rounded products
and a rounded sum, an error under
2.01u (|m_0 v_0| + |m_1 v_1|).  The forms run only where vy and the
shape's scales (radius, semi-axes, inner and outer radius) lie in
[2**-64, 2**64], with aspect ratio at most 2**16, and |vx| <= 2**64.
There nothing overflows, and an operation that underflows errs by at most
2**-1074 absolute instead of relatively; carried through the later
operations, whose factors stay below 2**300 here, that is under 2**-700,
against err and margins above 2**-200, so the derivations' slack covers it.

The other fields serve the solver's threshold locator: strict, a face
whose answers bound the kernel along the line wherever |vx| <= reach, a
bound E, and the sorted kinks K (`kinks`) with their `kink_flanks`, none
for a smooth set, whose strict is its face and whose reach is inf.
For a smooth set let X(vx) be the x-component of the exact gradient of the
gauge the kernel rounds (the constants as stored); the gauge is convex, so X
is nondecreasing in vx.  E bounds both |zeta_x - X| for the kernel's zeta_x
and |lo - X| for the face's lo = hi, uniformly over every vx at which the
kernel runs without overflow (the solver's `_offset_guard`), with 1 % to
spare.  So if the face gives (lo, hi) at vx_a, the kernel's x-range is
at most hi + 2E at every vx <= vx_a and at least lo - 2E at every
vx >= vx_a, and err still covers the caller's rounding.  A polygon's strict
form gives E = 0: its answers are the kernel's own values, and they bound
the kernel's exactly within its reach (see `Polygon.line_form`).
"""

import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDimensionsError,
    NonConvexError,
    OriginNotInteriorError,
    ZeroVectorError,
)

# Boundary-point classification: a point closer than this (relative to the
# circumradius) to a polygon vertex is treated as the vertex itself and gets
# the segment face.
VERTEX_FACE_TOL = 1e-9

# Scale of every bound the line forms use (see the module notes): 64 u, with
# u = 2**-53; the derivations need at most 22 u.
LINE_FACE_REL = 2.0**-47
# The line forms' error model holds for scales and |vx| in this range, and
# aspect ratios up to _ASPECT_MAX.
_SCALE_MIN, _SCALE_MAX = 2.0**-64, 2.0**64
_ASPECT_MAX = 2.0**16
# Radii and semi-axes in this range have normal-float squares, which the kernels divide by.
_RADIUS_MIN, _RADIUS_MAX = 2.0**-511, 2.0**511
# Polygon coordinates up to this magnitude keep every edge length, radius and
# offset finite (each is at most 2**1.5 times it).
_COORD_MAX = sys.float_info.max / 4.0


def _in_scale(*scales):
    return all(_SCALE_MIN <= s <= _SCALE_MAX for s in scales)


class LineForm(NamedTuple):
    """What `line_form(vy)` knows of a set's normal face along the directions (vx, vy)."""

    face: object  # vx -> (lo, hi) or None
    strict: object  # the threshold locator's face: answers that bound the kernel within reach
    err: float  # bounds every answer of face and strict (see the module notes)
    bound: float  # E
    kinks: tuple  # K
    flanks: tuple  # kink_flanks
    reach: float


@dataclass(frozen=True)
class NormalFace:
    """Exposed face of the polar boundary picked out by a normal cone.

    Both endpoints satisfy sigma_F(zeta) = 1; for a point face they coincide.
    A segment face is an edge of the polar polygon.
    """

    zeta_lo: np.ndarray
    zeta_hi: np.ndarray

    @property
    def is_point(self):
        return bool(np.all(self.zeta_lo == self.zeta_hi))

    @property
    def x_range(self):
        """Range of x-components over the face, as (lo, hi)."""
        a, b = self.zeta_lo[0], self.zeta_hi[0]
        return (a, b) if a <= b else (b, a)


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _matvec(m, v):
    """The product m v of a vector, or of every row of an (N, 2) array, by element-wise products."""
    return m[:, 0] * v[..., 0, None] + m[:, 1] * v[..., 1, None]


def _x_range_rows(zeta_lo, zeta_hi):
    """NormalFace.x_range of every row, as arrays (lo, hi)."""
    if zeta_lo is zeta_hi:  # point faces
        a = zeta_lo[:, 0]
        return a, a
    a, b = zeta_lo[:, 0], zeta_hi[:, 0]
    ordered = a <= b
    return np.where(ordered, a, b), np.where(ordered, b, a)


def _read_only(a):
    a.flags.writeable = False
    return a


def _columns(xs, ys):
    """Read-only (n, 2) array with columns xs and ys."""
    a = np.empty((len(xs), 2))
    a[:, 0], a[:, 1] = xs, ys
    return _read_only(a)


def _crosses(xs, ys):
    """Cross product at each vertex of the edge ending there and the edge starting there."""
    ex = [b - a for a, b in zip(xs, xs[1:] + xs[:1])]
    ey = [b - a for a, b in zip(ys, ys[1:] + ys[:1])]
    return [bx * ay - by * ax for bx, by, ax, ay in zip(ex[-1:] + ex[:-1], ey[-1:] + ey[:-1], ex, ey)]


@dataclass(frozen=True)
class Ball:
    """Centered disk of radius r."""

    r: float
    kinks = ()  # a smooth set has no kinks (see Polygon)

    @property
    def inner_radius(self):
        return self.r

    @property
    def circumradius(self):
        return self.r

    def validate(self):
        if not _RADIUS_MIN <= self.r <= _RADIUS_MAX:
            raise DegenerateDimensionsError(f"ball radius must lie in [2**-511, 2**511], got {self.r}")
        return self

    def gauge(self, v):
        v = v.T
        return np.hypot(v[0], v[1]) / self.r

    def support(self, zeta):
        return float(self.r * np.hypot(zeta[0], zeta[1]))

    def polar(self):
        return Ball(1.0 / self.r)

    def boundary_face(self, p):
        """Normal face at the boundary point p: the gauge gradient p / r^2."""
        zeta = p / (self.r * self.r)
        return zeta, zeta

    def line_form(self, vy):
        """Line form along vy (see the module notes): strict is face, with no kinks.

        The kernel computes g = hypot(vx, vy)/r, p_x = vx/g, zeta_x = p_x/rr
        with rr = r*r; face does the same operations on Python floats, so
        only the two hypots differ, each within 2u of H = |(vx, vy)|.  Both
        results are Z*phi with Z = vx*r/(H*rr) and |phi - 1| <= 5.01u (the
        hypot and three roundings), so |lo - lo_K| <= 10.03u |Z|, and
        |Z| <= r/rr <= (1 + 1.01u)/r.  Then 1.01(|lo - lo_K| + 2u m) is
        under 12.2u/r, and err = LINE_FACE_REL/r.
        X = vx r/(|v| rr) is nondecreasing in vx, and both zeta_x are X phi
        at every vx, so both lie within 5.02u/r of X; E = LINE_FACE_REL/(8 r)
        = 8u/r.
        """
        r = self.r
        if not _in_scale(r, vy):
            return None
        rr = r * r

        def face(vx):
            if not -_SCALE_MAX <= vx <= _SCALE_MAX:
                return None
            zx = vx / (math.hypot(vx, vy) / r) / rr
            return zx, zx

        return LineForm(face, face, LINE_FACE_REL / r, LINE_FACE_REL / (8.0 * r), (), (), math.inf)


@dataclass(frozen=True)
class Ellipse:
    """Centered ellipse with semi-axes a (along x) and b (along y), rotated by rot radians."""

    a: float
    b: float
    rot: float = 0.0
    kinks = ()  # a smooth set has no kinks (see Polygon)

    def validate(self):
        if not (_RADIUS_MIN <= self.a <= _RADIUS_MAX and _RADIUS_MIN <= self.b <= _RADIUS_MAX
                and math.isfinite(self.rot)):
            raise DegenerateDimensionsError(
                f"ellipse needs a, b in [2**-511, 2**511] and a finite rot, "
                f"got a={self.a}, b={self.b}, rot={self.rot}"
            )
        return self

    @property
    def inner_radius(self):
        return min(self.a, self.b)

    @property
    def circumradius(self):
        return max(self.a, self.b)

    @cached_property
    def _to_axes(self):
        return _rotation(-self.rot)

    @cached_property
    def _from_axes(self):
        return _rotation(self.rot)

    @cached_property
    def _axes_squared(self):
        return np.array([self.a * self.a, self.b * self.b])

    def gauge(self, v):
        w = _matvec(self._to_axes, v).T
        return np.hypot(w[0] / self.a, w[1] / self.b)

    def support(self, zeta):
        w = _matvec(self._to_axes, zeta)
        return float(np.hypot(self.a * w[0], self.b * w[1]))

    def polar(self):
        return Ellipse(1.0 / self.a, 1.0 / self.b, self.rot)

    def boundary_face(self, p):
        """Normal face at the boundary point p: the gauge gradient, taken in the axis frame."""
        zeta = _matvec(self._from_axes, _matvec(self._to_axes, p) / self._axes_squared)
        return zeta, zeta

    def line_form(self, vy):
        """Line form along vy (see the module notes): strict is face, with no kinks.

        The kernel computes w = T v (T = _to_axes), g = hypot(w_0/a, w_1/b),
        p = v/g, s_i = (T p)_i/a2_i with (a2_0, a2_1) = (a*a, b*b), and
        zeta_x = F_00 s_0 + F_01 s_1 (F = _from_axes), each product by
        `_matvec`; this evaluates the same formulas on Python floats.  Let
        A_i = |T_i0 vx| + |T_i1 vy|, S = A_0/a + A_1/b,
        C = |F_00| A_0/a2_0 + |F_01| A_1/a2_1, G the exact gauge of v,
        k = max(a, b)/min(a, b) and m = min(a, b).  T's rows are unit
        vectors up to u, so A_i <= (1 + 2u)|v| and G >= (1 - u)|v|/max(a, b);
        hence S/G <= (1 + 3u)(1 + k), under 2**17 by the aspect bound, and
        C/G <= 1.415 k/m.
        In either evaluation w_i errs by under 2.01u A_i and w_0/a by
        3.01u A_0/a (w_1/b alike), so g by under 2u G + 3.02u S, relatively
        eta <= 2u + 3.02u S/G < 2**-33.  Then p errs relatively by eta + 1.01u,
        (T p)_i by (eta + 3.02u) A_i/G, s_i by (eta + 4.03u) A_i/(G a2_i)
        and zeta_x by (eta + 6.05u) C/G.  So |lo - lo_K| <=
        (16.1u + 6.04u S/G) C/G and max(|lo|, |hi|) <= (1 + 2**-30) C/G,
        hence 1.01(|lo - lo_K| + 2u max(|lo|, |hi|)) <= (18.4u + 6.2u S/G) C/G
        <= (34.9k + 8.8k**2) u/m, under err = LINE_FACE_REL k (1 + k)/m
        = 64u k (1 + k)/m.
        X is the x-component of the gradient of |L T v|, L = diag(1/a, 1/b).
        Both zeta_x lie within (8.05u + 3.02u S/G) C/G of the kernel's
        formula evaluated exactly, which differs from X only by the roundings
        of a*a and b*b and of F against T^T (an ulp each), under 5.5u k/m.
        So each value lies within (21.2k + 4.3k**2) u/m of X, under E/1.01
        for E = err/2.
        """
        a, b = self.a, self.b
        if not (_in_scale(a, b, vy) and self.circumradius <= _ASPECT_MAX * self.inner_radius):
            return None
        (t00, t01), (t10, t11) = self._to_axes.tolist()
        (f00, f01), _ = self._from_axes.tolist()
        a2, b2 = self._axes_squared.tolist()
        t01_vy, t11_vy = t01 * vy, t11 * vy
        m = self.inner_radius
        k = self.circumradius / m
        err = LINE_FACE_REL * k * (1.0 + k) / m
        scale_max, hypot = _SCALE_MAX, math.hypot

        def face(vx):
            if not -scale_max <= vx <= scale_max:
                return None
            g = hypot((t00 * vx + t01_vy) / a, (t10 * vx + t11_vy) / b)
            px, py = vx / g, vy / g
            zx = f00 * ((t00 * px + t01 * py) / a2) + f01 * ((t10 * px + t11 * py) / b2)
            return zx, zx

        return LineForm(face, face, err, 0.5 * err, (), (), math.inf)


class _Derived:
    """A constant of a Polygon.  The first read derives it with the other constants of
    its group (the Polygon method named `derive`) and stores them on the polygon, where
    later reads find them first."""

    def __init__(self, derive):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, polygon, owner=None):
        if polygon is None:
            return self
        getattr(polygon, self.derive)()
        return polygon.__dict__[self.name]


@dataclass(frozen=True, eq=False)
class Polygon:
    """Convex polygon given by counterclockwise vertices, kept as a read-only float copy.

    Its constants come in two groups, each derived in one pass on Python
    floats and stored on the polygon, the arrays read-only too.  The shape
    constants come from the vertex coordinates (`_derive`), which `validate`
    makes and any other polygon makes on the first read of one of them,
    raising a ValidationError where they are undefined (an edge of length 0,
    the origin not strictly inside, a facet point that overflows):

    - the half-plane form: unit outward normals `normals` and offsets
      `offsets`, facet i joining vertex i to vertex i+1;
    - the facet points `facet_points`, row i n_i/h_i, the point of the polar
      boundary that facet i exposes;
    - `circumradius` and `inner_radius` (the least offset).

    Each value has the bits of the array expression it replaces: edge
    lengths and radii come from one `np.hypot` call (libm, which may round
    differently from `math.hypot`), normals are (e_y, -e_x)/length, offsets
    n_x*V_x + n_y*V_y and facet points n/h, all element-wise.

    Near a facet at distance h from the origin the gauge errs by about u R/h
    relative, R the circumradius (1.7e-13 at h = 1e-3, 1.8e-5 at h = 1e-11 for
    R about 2), as much as moving a vertex of that facet one ulp: backward stable.

    The line-form constants, which only the solver reads, come from the
    shape constants on the first read of one of them (`_derive_line_table`):

    - `kinks` = K, the sorted V_x/V_y over the vertices with V_y > 0: a
      direction (vx, vy), vy > 0, with K[m-1] < vx/vy <= K[m] meets facet
      U[m] for m < len(K), where U lists those vertices in K's order, and
      facet U[-1] - 1 (mod n) past the last kink.  The vertices with
      V_y > 0 run contiguously, clockwise in K's order;
    - `kink_flanks`: for each kink K[m], the V_x/V_y of one point on each
      facet of its vertex W at 1.25 times the distance from W at which the
      other facet's tau falls below 1 by band/h_min: on facet j at distance
      s from W, 1 - tau_o = s |(fp_j - fp_o) . e| for the other facet o at
      W and the unit edge vector e from W along j.  None for a point past
      the middle of its facet or not above the x-axis;
    - `_line_table` = (cuts, line, strict, err), the answers of
      `line_form`'s face and strict by direction and the form's err: cuts
      is a sorted tuple of ratios vx/vy, and a direction with
      cuts[k-1] < vx/vy <= cuts[k] gets line[k] and strict[k] (see
      `line_form`); None outside the line forms' scale and aspect limits.
    """

    vertices: np.ndarray

    normals = _Derived("_derive_shape")
    offsets = _Derived("_derive_shape")
    facet_points = _Derived("_derive_shape")
    circumradius = _Derived("_derive_shape")
    inner_radius = _Derived("_derive_shape")
    kinks = _Derived("_derive_line_table")
    kink_flanks = _Derived("_derive_line_table")
    _line_table = _Derived("_derive_line_table")

    def __post_init__(self):
        object.__setattr__(self, "vertices", _read_only(np.array(self.vertices, float, ndmin=2)))

    def __repr__(self):
        return f"Polygon({self.vertices.tolist()!r})"

    def __reduce__(self):
        # Copies and unpickled polygons go through the constructor, read-only too.
        return (Polygon, (self.vertices,))

    def _derive_shape(self):
        flat = self.vertices.ravel().tolist()
        self._derive(flat[0::2], flat[1::2], 0.0)

    def _derive(self, xs, ys, floor):
        """Derive the shape constants from the vertex coordinates xs, ys and store them on
        the polygon.  Raises OriginNotInteriorError unless every offset exceeds floor, and
        DegenerateDimensionsError on an edge of length 0 or a facet point that overflows."""
        n = len(xs)
        ex = [b - a for a, b in zip(xs, xs[1:] + xs[:1])]
        ey = [b - a for a, b in zip(ys, ys[1:] + ys[:1])]
        hyp = np.hypot(ex + xs, ey + ys).tolist()
        lengths = hyp[:n]
        if not min(lengths) > 0.0:
            raise DegenerateDimensionsError("polygon has an edge of length 0")
        nx = [b / d for b, d in zip(ey, lengths)]
        ny = [-a / d for a, d in zip(ex, lengths)]
        h = [p * x + q * y for p, q, x, y in zip(nx, ny, xs, ys)]
        h_min = min(h)
        if not h_min > floor:
            raise OriginNotInteriorError("origin is not strictly inside the polygon")
        fx = [p / t for p, t in zip(nx, h)]
        fy = [q / t for q, t in zip(ny, h)]
        if not max(max(map(abs, fx)), max(map(abs, fy))) < math.inf:
            raise DegenerateDimensionsError("polygon facet points n/h overflow: its offsets are too small")
        self.__dict__.update(
            normals=_columns(nx, ny), offsets=_read_only(np.array(h)),
            facet_points=_columns(fx, fy), circumradius=max(hyp[n:]), inner_radius=h_min,
        )

    def _derive_line_table(self):
        """Derive `kinks`, `kink_flanks` and `_line_table` and store them on the polygon.

        The table walks the chain Z0, U[0], ..., U[-1], Z1 of the upper vertices
        U (V_y > 0, in K's order) and the vertex past each end, Z0 = U[0] + 1
        and Z1 = U[-1] - 1; facet_at[m] joins the chain's m-th and (m+1)-th
        vertices.  Each side of a chain vertex W (facet W toward smaller
        ratios, facet W - 1 toward larger) gets the distances and checks of
        `line_form`, and the slots of an answered upper vertex W, in the
        order of the ratios, are: its left gap (fp[W] in both faces), fp[W]
        in face only, None, the snap face, None, fp[W - 1] in face only,
        then its right gap.  A run of vertices that are not answered,
        with the failed gaps between them, is one slot of None.
        """
        flat = self.vertices.ravel().tolist()
        xs, ys = flat[0::2], flat[1::2]
        nf, fp = self.normals.ravel().tolist(), self.facet_points.ravel().tolist()
        nx, ny, fx, fy = nf[0::2], nf[1::2], fp[0::2], fp[1::2]
        h_min, radius = self.inner_radius, self.circumradius
        n = len(xs)
        upper = sorted((x / y, i) for i, (x, y) in enumerate(zip(xs, ys)) if y > 0)
        chain = [(upper[0][1] + 1) % n] + [i for _, i in upper] + [(upper[-1][1] - 1) % n]

        band = VERTEX_FACE_TOL * radius
        r_h = radius / h_min
        flank = 1.25 * VERTEX_FACE_TOL * radius / h_min
        slack = LINE_FACE_REL * radius * (1.0 + r_h)  # S of line_form
        split = 1.01 * LINE_FACE_REL * r_h
        drop = 1.0001 * (band + LINE_FACE_REL * radius) / h_min  # 1.0001 D
        corner = 0.25 * LINE_FACE_REL
        last = len(chain) - 1
        # zones[m]: lam, whether the core is answered, then per side (facet w toward
        # smaller ratios, facet w - 1 toward larger ones) the cuts at core, near and far,
        # the far distance and the facet's length.
        zones, flanks = [], []
        for m, w in enumerate(chain):
            end = m == 0 or m == last
            wx, wy = xs[w], ys[w]
            sine = abs(nx[w - 1] * ny[w] - ny[w - 1] * nx[w]) - corner
            lam = (corner * radius / sine if sine > 0.0 else math.inf) + 0.75 * slack
            mu = 2.0 * lam + 0.25 * slack
            core, edge = band - mu, band + mu
            gx, gy = fx[w - 1] - fx[w], fy[w - 1] - fy[w]  # fp[w - 1] - fp[w]
            zone = [lam, core > 0.5 * band]
            # Each side runs from W toward a neighbour.  A cut not above the x-axis lies
            # past the ratios' end on its side, or for an end vertex, which lies at or
            # below the axis, short of it; an end vertex's other side is never read.
            for v, below in (((w + 1) % n, -math.inf), (w - 1, math.inf)):
                if end and (m == 0) == (below < 0.0):
                    zone += (None,) * 5
                    continue
                dx, dy = xs[v] - wx, ys[v] - wy
                length = math.hypot(dx, dy)
                dx, dy = dx / length, dy / length
                slope = abs(gx * dx + gy * dy)
                if slope > 0.0:
                    step = flank / slope
                    near = lam + split / slope
                    if near < edge:
                        near = edge
                    far = lam + drop / slope
                    if far < near:
                        far = near
                else:
                    step = near = far = math.inf
                if end:
                    below = -below
                else:
                    px, py = wx + step * dx, wy + step * dy
                    zone.append(px / py if step <= 0.5 * length and py > 0.0 else None)
                px, py = wx + core * dx, wy + core * dy
                cut_core = px / py if py > 0.0 else below
                px, py = wx + near * dx, wy + near * dy
                cut_near = px / py if py > 0.0 else below
                px, py = wx + far * dx, wy + far * dy
                zone += cut_core, cut_near, (px / py if py > 0.0 else below), far, length
            if not end:
                flanks.append((zone[8], zone[2]))
                del zone[8], zone[2]
            zones.append(zone)

        # Gap m, the slot of facet facet_at[m] between chain vertices m and m + 1, is sound
        # where their zones on that facet leave room between them; an upper vertex is
        # answered where both its gaps are.
        facet_at = tuple(chain[1:])
        gaps = [left[10] + right[5] + 2.0 * (left[0] + right[0]) < right[6]
                for left, right in zip(zones, zones[1:])]
        # The slot that ends at cuts[k] answers line[k] and strict[k].
        cuts, line, strict = [], [], []
        for m, sound in enumerate(gaps):
            if not sound:
                continue
            if m == 0 or not gaps[m - 1]:  # the None over chain vertex m's zone ends here
                cuts.append(zones[m][9])
                line.append(None)
                strict.append(None)
            zone, x = zones[m + 1], fx[facet_at[m]]
            f = x, x
            cuts.append(zone[4])
            line.append(f)
            strict.append(f)
            if m + 1 < last and gaps[m + 1]:
                snap, y = None, fx[facet_at[m + 1]]  # the facets of W are facet_at[m] and [m + 1]
                if zone[1]:
                    snap = (y, x) if y <= x else (x, y)
                cuts += zone[3], zone[2], zone[7], zone[8], zone[9]
                line += f, None, snap, None, (y, y)
                strict += None, None, snap, None, None
        line.append(None)
        strict.append(None)
        table = None
        if (_in_scale(h_min, radius) and radius <= _ASPECT_MAX * h_min
                and all(map(operator.le, cuts, cuts[1:]))):
            table = (tuple(cuts), tuple(line), tuple(strict), LINE_FACE_REL * max(map(abs, fx)))
        self.__dict__.update(kinks=tuple(q for q, _ in upper), kink_flanks=tuple(flanks),
                             _line_table=table)

    def validate(self):
        verts = self.vertices
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise DegenerateDimensionsError("polygon needs at least 3 planar vertices")
        flat = verts.ravel().tolist()
        scale = max(map(abs, flat)) if all(map(math.isfinite, flat)) else math.inf
        if not 0.0 < scale < math.inf:
            raise DegenerateDimensionsError("polygon vertices must be finite and not all zero")
        if scale > _COORD_MAX:
            raise DegenerateDimensionsError(
                f"polygon coordinates must be at most {_COORD_MAX:.6g} in magnitude, "
                "so that its edge lengths and radii stay finite"
            )
        # Collinear and orientation tests take the coordinates scaled by 2**-e, which
        # puts scale in [0.5, 1): exact, so every decision is the unscaled one wherever
        # that one's products are normal floats, and no cross product overflows, nor
        # underflows unless it lies far below col_tol (at least 2.5e-13).
        mantissa, e = math.frexp(scale)
        col_tol = 1e-12 * mantissa * mantissa
        scaled = np.ldexp(verts, -e).ravel().tolist()
        xs, ys, sx, sy = flat[0::2], flat[1::2], scaled[0::2], scaled[1::2]

        # Drop duplicate and collinear vertices (cross product of incident edges ~ 0),
        # the first such vertex at a time, until none is left.
        while len(sx) >= 3:
            crosses = _crosses(sx, sy)
            if min(map(abs, crosses)) > col_tol:
                break
            i = next(i for i, c in enumerate(crosses) if abs(c) <= col_tol)
            del xs[i], ys[i], sx[i], sy[i]
        if len(sx) < 3:
            raise DegenerateDimensionsError("fewer than 3 distinct vertices after collinear removal")

        if max(crosses) < 0:
            raise NonConvexError("vertices are ordered clockwise; counterclockwise required")
        if not min(crosses) > 0:
            raise NonConvexError("vertices are not in strictly convex order")

        polygon = Polygon(verts if len(xs) == len(verts) else _columns(xs, ys))
        polygon._derive(xs, ys, 1e-12 * scale)
        return polygon

    def gauge(self, v):
        return np.maximum.reduce(_matvec(self.normals, v) / self.offsets, axis=-1, initial=0.0)

    def support(self, zeta):
        return float(np.max(_matvec(self.vertices, zeta)))

    def polar(self):
        """Polar polygon: vertex i is n_i / h_i, the point where the polar lines
        of vertices i and i+1 (the ends of facet i) meet."""
        return Polygon(self.facet_points).validate()

    def boundary_face(self, p):
        """Normal face at the boundary point p: facet j's n_j/h_j, or the polar
        edge joining the two incident facets' points when p is on a vertex."""
        verts = self.vertices
        dists = np.hypot(verts[:, 0] - p[..., :1], verts[:, 1] - p[..., 1:])
        i = dists.argmin(axis=-1)
        snap = dists.min(axis=-1) <= VERTEX_FACE_TOL * self.circumradius
        j = (_matvec(self.normals, p) / self.offsets).argmax(axis=-1)
        # The face is facet j's point, or on vertex i the edge from facet i-1's
        # point to facet i's; index -1 is the last facet, the one before vertex 0.
        k = j + (i - j) * snap
        return self.facet_points[k - snap], self.facet_points[k]

    def line_form(self, vy):
        """Line form along vy (see the module notes): face and strict give the answers
        `_line_table` holds for the slot of the ratio vx/vy, E = 0, the kinks are
        `kinks`, the flanks `kink_flanks` and reach = 2**17 vy h_min/R.

        Face.  The kernel takes g = max_i T_i, T_i = (n_i . v)/h_i, and
        p = v/g; p snaps to its nearest vertex W when that np.hypot distance
        is at most band = VERTEX_FACE_TOL * circumradius, giving the face
        (fp[w-1], fp[w]) of facet_points fp, and otherwise the face is fp[j]
        for the facet j with the largest (n_j . p)/h_j.  The answers are
        entries of fp, exact where the table is right, so err = LINE_FACE_REL
        max|fp_x| only covers the caller's rounding (2u m).  The table does
        not depend on vy: the face depends on the direction of v alone, up
        to the roundings counted below.

        Notation: q_i = n_i/h_i exactly, the polygon Pi = {x : q_i . x <= 1}
        of the stored half-planes, G(v) = max_i q_i . v its gauge,
        P = v/G(v), tau_i = q_i . P, R the circumradius, h = h_min,
        REL = LINE_FACE_REL = 64u and S = REL R (1 + R/h).
        (k1) Each T_i is within 3.02u (|vx| + vy)/h of q_i . v and
        G >= |v|/R, so g is within 4.3u R/h of G relatively; p is v/g with
        one rounding per component, so p - P is nearly radial and
        |p - P| <= 4.3u R**2/h + 1.01u R < 0.07 S.
        (k2) The kernel's distance to a vertex is within 3.1u of |p - V|.
        (k3) Its values (n_i . p)/h_i lie within 20u R/h of tau_i, so a
        facet ahead of every other by REL R/h is its argmax.
        (k4) A stored vertex lies within 7.3u R of the lines of its two
        facets (h_i rounds n_i . V_i, and n_i is normal to the rounded edge).
        (k5) If the kernel snaps to a vertex Z, each facet k of Z has
        q_k . p >= 1 - (band + 7.4u R)/h by (k2) and (k4), so with p's
        rounding (1.5u R/h here) and (k1) tau_k >= 1 - (band + 13.2u R)/h,
        above 1 - D with D = (band + REL R)/h.
        (k6) tau over the facets in cyclic order is cyclically bitonic: it
        falls along both arcs from its maximum to its minimum (the q_i are
        the polar polygon's vertices in order).

        Cuts.  Take a vertex W of the chain (see `_derive_line_table`), its
        facets o and j and the corner W* of Pi where their lines meet.  By
        (k4), |W - W*| <= omega = 0.25 REL R/(c - 0.25 REL) with c the cross
        product of the two normals formed here, within 6.1u of the sine of
        the lines' angle.  Along facet j at distance t from W*,
        1 - tau_o = t sigma exactly, sigma the rate |q_o . e_j| on j's unit
        direction; the slope formed here, |(fp_j - fp_o) . e| with the
        rounded unit edge vector e, errs by under (18u + 30u R/L)/h (L the
        edge length), which is within 2**-17 of sigma wherever the gap test
        below passes, as it gives slope > D/L.  A cut at distance s is the
        ratio x/y of the point W + s e formed here: that point lies within
        33u R of j's line and 11u R along it from where it should, the ray
        through it meets the line at a sine above h/R, and the cut and vx/vy
        round by u each, which moves a boundary point by under u R**2/h.  So
        a direction on the far side of the cut has its boundary point on j
        at t > s - lam, and one on the near side at t < s + lam, with
        lam = omega + 0.75 S, and |P - W| is within omega of t.  On each
        side, with mu = 2 lam + S/4, the cuts sit at core = band - mu,
        near = max(band + mu, lam + 1.01 REL (R/h)/slope) and
        far = max(near, lam + 1.0001 D/slope).  A cut whose point is not
        above the x-axis is the end of the ratios on that side: the chain
        facet there crosses the axis at a sine above h/R (its line is
        h_j >= h from the origin), so every direction with vy > 0 lies on
        the vertex's side of it.
        (z) Zones.  The gap test for chain facet f with ends X and Y is
        far_X + far_Y + 2 (lam_X + lam_Y) < |f| (the distances on f).
        Where it holds on both facets of W, every facet other than o and j
        has tau <= 1 - D over W's zone, the boundary from o's far point to
        j's through W*: at j's far point tau_o <= 1 - D and, by the test,
        the facet across j's other end too, so by (k6) all others; likewise
        at o's far point; at W* the facets across o's and j's other ends
        have tau = 1 - (length) (rate) <= 1 - D; and tau is affine on both
        segments.
        The slots of such a W, each side's ratios taken outward:
        (a) within core on both sides: |P - W| <= core + 2 lam, so the
        kernel's distance to W is at most (band - S/4 + 0.07 S)(1 + 3.1u),
        below band: it snaps, and only to W, since every other vertex has a
        facet outside o, j, under 1 - D by (z), against (k5).  The snap face
        (fp[w-1], fp[w]) where core > band/2, else None.
        (b) from core to near: None, the band's edge.
        (c) from near to far on j: |P - W| >= near - 2 lam >= band + S/4,
        so by (k1), (k2) no snap to W, nor to any other vertex by (z) and
        (k5); tau_j - tau_o >= (near - lam) sigma >= REL R/h, and every
        other facet lies under 1 - D: fp[j] by (k3).
        (d) beyond far, a gap: in the gap of facet f between two vertices
        whose test holds, both neighbours of f have tau <= 1 - D, and by
        (k6) so has every facet but f: no snap by (k5), fp[f] by (k3).
        Where the test fails on a facet of W, or W is an end of the chain
        (at or below the x-axis, its zone only partly above it), W's zone,
        with every failed gap next to it, gives None.  The table is None
        outside the scale and aspect limits of the module notes, and where
        its cuts come out unsorted.  As S and omega are far below band, an
        answer lacks only on slivers about 2 mu wide at the band's edge.

        Strict.  strict is face without its answers of slot (c), the facet
        near a vertex but outside its band, which it gives up on.  Its answer
        (lo, hi) at vx_a bounds the kernel's x-range at every |vx| <= reach:
        at most hi for vx < vx_a, at least lo for vx > vx_a.
        Take vx < vx_a (the other side is the mirror image), q_i = n_i/h_i
        exactly, so fx_i rounds q_ix and keeps the order of the q_ix, and the
        exact gauge G(v) = max_i q_i . v of the stored half-planes, convex
        with the q_ix of the facets met by the line's rays as its slopes
        along the line, nondecreasing as vx grows.
        (1) At v the kernel returns fp[i] only if q_i . v >= (1 - x) G(v), with
        x = 31u R/h_min (each kernel value within 7.4u nu/g of t_i/g, t_i
        within 3.02u nu of q_i . v, nu/g <= 1.42 R/h_min, nu = (|vx| + vy)/h_min),
        and snaps only to a vertex whose two facets both have
        q . v >= (1 - x') G(v), x' = (band + 13.2u R)/h_min by (k5).
        (2) At v_a, in a gap (d) every facet but j, and in a core (a) every
        facet but o and j, has tau <= 1 - D ((z) and (d)):
        q_k . v_a < (1 - M) G(v_a) with M = (band + 57u R)/h_min <= D, and
        q_j . v_a = G(v_a).
        (3) A facet with fx_i > hi has q_ix > q_jx, so (q_i - q_j) . v grows
        with vx; below -M G(v_a) at v_a, it stays below it at v, while a pick
        at v needs it at least -x G(v).  That needs G(v)/G(v_a) > M/x > 2.9e5,
        but G(v) <= |v|/h_min <= (reach + vy)/h_min and G(v_a) >= vy/R bound
        the ratio by 2**17 + R/h_min < 2**18: no pick exceeds hi.
        (4) At v the boundary point P = v/G(v) has P_y >= h_min vy/|v| >
        2 band, so a vertex the kernel snaps to lies above the x-axis and the
        line's rays meet both its facets.  If one of them, i, were met past
        P_a (beyond the facets of the answer): the boundary arc from P to
        facet i spans less than pi of angle and so lies within x' h_i of
        facet i's line (1 - q_i . z is affine in z, at most x' at both ends
        of the chord, 1 at the origin, and the arc lies beyond the chord from
        the origin); it passes P_a, against (2) as M > x'.  So the facets of
        a snap are met at or before P_a, and their fx are at most hi.
        Slot (c) has no margin like (2), so its value need not carry; strict
        gives up there instead.
        """
        table = self._line_table
        if table is None or not _in_scale(vy):
            return None
        cuts, line, strict, err = table
        scale_max, place = _SCALE_MAX, bisect_left

        def lookup(answers):
            def face(vx):
                if not -scale_max <= vx <= scale_max:
                    return None
                return answers[place(cuts, vx / vy)]

            return face

        return LineForm(lookup(line), lookup(strict), err, 0.0, self.kinks, self.kink_flanks,
                        2.0**17 * vy * self.inner_radius / self.circumradius)


def validate(vset):
    """Check the set invariants; return a validated (possibly rebuilt) set.

    Every parameter must be finite, radii and semi-axes in [2**-511, 2**511]
    (their squares are normal floats).  Polygons come back with collinear
    vertices removed (see `Polygon` on a facet near the origin).  Raises
    DegenerateDimensionsError, NonConvexError or OriginNotInteriorError.
    """
    if not isinstance(vset, (Ball, Ellipse, Polygon)):
        raise TypeError(f"not a velocity set: {vset!r}")
    return vset.validate()


def gauge(vset, v):
    """Minkowski gauge gamma_F(v): least t > 0 with v in t*F (0 at v = 0)."""
    return float(vset.gauge(np.asarray(v, dtype=float)))


def support(vset, zeta):
    """Support function sigma_F(zeta) = max over u in F of <zeta, u>."""
    return vset.support(np.asarray(zeta, dtype=float))


def polar(vset):
    """Polar dual F = {zeta : <zeta, v> <= 1 for all v in F}, as a validated set."""
    return vset.polar()


def normal_face(vset, v):
    """Exposed face {zeta in N_F(p) : sigma_F(zeta) = 1} at the boundary point p = v / gamma_F(v).

    Smooth sets give a point (the scaled gauge gradient); a polygon gives the
    facet normal n_i/h_i, or the polar edge joining the two incident facet
    normals when p sits on a vertex.
    """
    v = np.asarray(v, dtype=float)
    if v[0] == 0.0 and v[1] == 0.0:
        raise ZeroVectorError("normal_face needs a nonzero direction")
    return NormalFace(*vset.boundary_face(v / vset.gauge(v)))


def normal_face_rows(vset, vs):
    """normal_face of every row of an (N, 2) array, as the rows (zeta_lo, zeta_hi).

    Row n is bit-equal to normal_face(vset, vs[n]).zeta_lo and .zeta_hi.
    """
    vs = np.asarray(vs, dtype=float)
    # A row is zero only if its y-component is, so one reduction clears the usual case.
    if not vs[:, 1].all() and ((vs[:, 0] == 0.0) & (vs[:, 1] == 0.0)).any():
        raise ZeroVectorError("normal_face needs a nonzero direction")
    return vset.boundary_face(vs / vset.gauge(vs)[:, None])
