"""Planar convex velocity sets: gauges, support functions, polar duals, normal faces.

A velocity set is a closed bounded convex subset of the plane containing the
origin in its interior.  Three shapes are supported: balls, (rotated) ellipses
and convex polygons.  Each shape class implements the same operations
(`validate`, `gauge`, `support`, `polar`, `boundary_face`); the module-level
functions of the same names dispatch to them.

There is one kernel per operation.  `gauge(v)` and `boundary_face(p)` take a
vector of shape (2,) or rows of shape (N, 2), and row n of the result is bit
for bit the result for the vector alone.  `boundary_face` returns the face as
the pair (zeta_lo, zeta_hi), the same array twice for a point face;
`normal_face` wraps one vector's pair in a `NormalFace` and `normal_face_rows`
hands the rows' pair on.  Every matrix product goes through `_matvec`, the one
place that knows the BLAS rounding rule: `m @ v` for a vector and, for rows,
a stacked `np.matmul` that issues one matrix-vector product per row, so each
row is rounded exactly as `m @ v` (BLAS may fuse multiply-adds, which
`vs @ m.T`, `einsum` or an element-wise formula would round differently).
Components are read from the transpose, `v.T[0]` and `v.T[1]`, which are
scalars for a vector and columns for rows.  Every shape is a frozen value,
and the kernels read constants derived from its fields once (as
`cached_property`s, which leave fields, equality and repr alone): an
ellipse's rotation matrices and squared semi-axes, and a polygon's half-plane
form and facet points n_i/h_i, which are read-only like its vertices.

`normal_face_rows` refuses a zero row, as `normal_face` refuses a zero
vector; since a row is zero only if its y-component is, one reduction over
the y-components clears the usual case.  `Polygon.validate` takes the cross
products of every vertex's incident edges in one array expression, the same
IEEE operations per vertex as a loop over the vertices.
"""

import math
from dataclasses import dataclass
from functools import cached_property

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

    def point_with_x(self, x):
        """Point of the face whose x-component is x (clamped to the face)."""
        a, b = self.zeta_lo[0], self.zeta_hi[0]
        if a == b:
            return 0.5 * (self.zeta_lo + self.zeta_hi)
        t = (x - a) / (b - a)
        t = min(max(t, 0.0), 1.0)
        return (1.0 - t) * self.zeta_lo + t * self.zeta_hi


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _matvec(m, v):
    """m @ v for a vector, or for every row of an (N, 2) array rounded as that single product."""
    return m @ v if v.ndim == 1 else np.matmul(m, v[:, :, None])[:, :, 0]


def _x_range_rows(zeta_lo, zeta_hi):
    """NormalFace.x_range of every row, as arrays (lo, hi)."""
    if zeta_lo is zeta_hi:  # point faces
        a = zeta_lo[:, 0]
        return a, a
    a, b = zeta_lo[:, 0], zeta_hi[:, 0]
    ordered = a <= b
    return np.where(ordered, a, b), np.where(ordered, b, a)


def _point_with_x_rows(zeta_lo, zeta_hi, x):
    """NormalFace.point_with_x of every row, with the same operations and clamps."""
    a, b = zeta_lo[:, 0], zeta_hi[:, 0]
    flat = a == b
    t = (x - a) / np.where(flat, 1.0, b - a)
    t = np.where(0.0 > t, 0.0, t)
    t = np.where(1.0 < t, 1.0, t)[:, None]
    mixed = (1.0 - t) * zeta_lo + t * zeta_hi
    return np.where(flat[:, None], 0.5 * (zeta_lo + zeta_hi), mixed)


def _edges(verts):
    """Row i is the edge from vertex i to vertex i+1, cyclically."""
    return np.concatenate((verts[1:], verts[:1])) - verts


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Ball:
    """Centered disk of radius r."""

    r: float

    def validate(self):
        if not 0 < self.r < math.inf:
            raise DegenerateDimensionsError(f"ball radius must be finite and positive, got {self.r}")
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


@dataclass(frozen=True)
class Ellipse:
    """Centered ellipse with semi-axes a (along x) and b (along y), rotated by rot radians."""

    a: float
    b: float
    rot: float = 0.0

    def validate(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf and math.isfinite(self.rot)):
            raise DegenerateDimensionsError(
                f"ellipse needs finite a, b > 0 and rot, got a={self.a}, b={self.b}, rot={self.rot}"
            )
        return self

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
        w = self._to_axes @ zeta
        return float(np.hypot(self.a * w[0], self.b * w[1]))

    def polar(self):
        return Ellipse(1.0 / self.a, 1.0 / self.b, self.rot)

    def boundary_face(self, p):
        """Normal face at the boundary point p: the gauge gradient, taken in the axis frame."""
        zeta = _matvec(self._from_axes, _matvec(self._to_axes, p) / self._axes_squared)
        return zeta, zeta


@dataclass(frozen=True, eq=False)
class Polygon:
    """Convex polygon given by counterclockwise vertices, kept as a read-only float copy.

    Derived from the vertices on first use, arrays read-only too: the half-plane
    form (unit outward normals `normals` and offsets `offsets`, facet i joining
    vertex i to vertex i+1), the facet points `facet_points` (row i is n_i/h_i,
    the point of the polar boundary that facet i exposes) and `circumradius`.
    """

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _read_only(np.array(self.vertices, float, ndmin=2)))

    def __repr__(self):
        return f"Polygon({self.vertices.tolist()!r})"

    def __reduce__(self):
        # Copies and unpickled polygons go through the constructor, read-only too.
        return (Polygon, (self.vertices,))

    @cached_property
    def normals(self):
        edges = _edges(self.vertices)
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        return _read_only(np.column_stack((edges[:, 1], -edges[:, 0])) / lengths[:, None])

    @cached_property
    def offsets(self):
        return _read_only(np.sum(self.normals * self.vertices, axis=1))

    @cached_property
    def facet_points(self):
        return _read_only(self.normals / self.offsets[:, None])

    @cached_property
    def circumradius(self):
        return float(np.max(np.hypot(self.vertices[:, 0], self.vertices[:, 1])))

    def validate(self):
        verts = self.vertices
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise DegenerateDimensionsError("polygon needs at least 3 planar vertices")
        scale = float(np.max(np.abs(verts)))  # NaN or inf if any coordinate is
        if not 0.0 < scale < math.inf:
            raise DegenerateDimensionsError("polygon vertices must be finite and not all zero")
        col_tol = 1e-12 * scale * scale

        # Drop duplicate and collinear vertices (cross product of incident edges ~ 0),
        # the first such vertex at a time, until none is left.
        while len(verts) >= 3:
            edges = _edges(verts)
            before = np.concatenate((edges[-1:], edges[:-1]))  # edge i-1, ending at vertex i
            crosses = before[:, 0] * edges[:, 1] - before[:, 1] * edges[:, 0]
            small = np.flatnonzero(np.abs(crosses) <= col_tol)
            if small.size == 0:
                break
            verts = np.delete(verts, small[0], axis=0)
        if len(verts) < 3:
            raise DegenerateDimensionsError("fewer than 3 distinct vertices after collinear removal")

        if np.all(crosses < 0):
            raise NonConvexError("vertices are ordered clockwise; counterclockwise required")
        if not np.all(crosses > 0):
            raise NonConvexError("vertices are not in strictly convex order")

        polygon = Polygon(verts)
        if not np.all(polygon.offsets > 1e-12 * scale):
            raise OriginNotInteriorError("origin is not strictly inside the polygon")
        return polygon

    def gauge(self, v):
        return np.maximum.reduce(_matvec(self.normals, v) / self.offsets, axis=-1, initial=0.0)

    def support(self, zeta):
        return float(np.max(self.vertices @ zeta))

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


def validate(vset):
    """Check the set invariants; return a validated (possibly rebuilt) set.

    Every parameter must be finite, radii and semi-axes positive.  Polygons
    come back with collinear vertices removed.  Raises
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
