"""Planar convex velocity sets: gauges, support functions, polar duals, normal faces.

A velocity set is a closed bounded convex subset of the plane containing the
origin in its interior.  Three shapes are supported: balls, (rotated) ellipses
and convex polygons.  Each shape class implements the same operations
(`validate`, `gauge`, `support`, `polar`, `boundary_face`); the module-level
functions of the same names dispatch to them.

Each shape also has `gauge_rows`, the gauge of every row of an (N, 2) array in
one call, which is bit-equal to `gauge` on each row.  The matrix products go
through `_matvec_rows`, a stacked `np.matmul` that issues one matrix-vector
product per row, so every row is rounded exactly as the per-vector `m @ v`
(BLAS may fuse multiply-adds, which `vs @ m.T`, `einsum` or an element-wise
formula would round differently).  The per-vector `gauge` stays separate
because it is the solver's hot path, where array overhead on one vector costs
more than the product itself.
"""

import math
from dataclasses import dataclass

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

    @classmethod
    def point(cls, zeta):
        z = np.asarray(zeta, dtype=float)
        return cls(z, z)

    @classmethod
    def segment(cls, zeta_lo, zeta_hi):
        return cls(np.asarray(zeta_lo, dtype=float), np.asarray(zeta_hi, dtype=float))

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


def _matvec_rows(m, vs):
    """m @ v for every row v of vs, each rounded as the single product m @ v."""
    return np.matmul(m, vs[:, :, None])[:, :, 0]


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


@dataclass(frozen=True)
class Ball:
    """Centered disk of radius r."""

    r: float

    def validate(self):
        if not 0 < self.r < math.inf:
            raise DegenerateDimensionsError(f"ball radius must be finite and positive, got {self.r}")
        return self

    def gauge(self, v):
        return float(np.hypot(v[0], v[1]) / self.r)

    def gauge_rows(self, vs):
        return np.hypot(vs[:, 0], vs[:, 1]) / self.r

    def support(self, zeta):
        return float(self.r * np.hypot(zeta[0], zeta[1]))

    def polar(self):
        return Ball(1.0 / self.r)

    def boundary_face(self, p):
        """Normal face at the boundary point p: the gauge gradient p / r^2."""
        return NormalFace.point(p / (self.r * self.r))


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

    def gauge(self, v):
        w = _rotation(-self.rot) @ v
        return float(np.hypot(w[0] / self.a, w[1] / self.b))

    def gauge_rows(self, vs):
        w = _matvec_rows(_rotation(-self.rot), vs)
        return np.hypot(w[:, 0] / self.a, w[:, 1] / self.b)

    def support(self, zeta):
        w = _rotation(-self.rot) @ zeta
        return float(np.hypot(self.a * w[0], self.b * w[1]))

    def polar(self):
        return Ellipse(1.0 / self.a, 1.0 / self.b, self.rot)

    def boundary_face(self, p):
        """Normal face at the boundary point p: the gauge gradient, taken in the axis frame."""
        w = _rotation(-self.rot) @ p
        zw = np.array([w[0] / (self.a * self.a), w[1] / (self.b * self.b)])
        return NormalFace.point(_rotation(self.rot) @ zw)


class Polygon:
    """Convex polygon given by counterclockwise vertices.

    `validate` strips collinear vertices and returns a polygon carrying the
    half-plane form (unit outward normals `normals` and positive offsets
    `offsets`, facet i joining vertex i to vertex i+1) and its
    `circumradius`.  Operations other than `validate` require the
    half-plane form to be present.
    """

    def __init__(self, vertices, normals=None, offsets=None):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.normals = None if normals is None else np.asarray(normals, dtype=float)
        self.offsets = None if offsets is None else np.asarray(offsets, dtype=float)
        self.circumradius = (
            None if normals is None
            else float(np.max(np.hypot(self.vertices[:, 0], self.vertices[:, 1])))
        )

    @property
    def is_validated(self):
        return self.normals is not None

    def __repr__(self):
        return f"Polygon({self.vertices.tolist()!r})"

    def _require_halfplanes(self):
        if not self.is_validated:
            raise ValueError("polygon must be validated before use")

    def validate(self):
        verts = self.vertices
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise DegenerateDimensionsError("polygon needs at least 3 planar vertices")
        scale = float(np.max(np.abs(verts)))  # NaN or inf if any coordinate is
        if not 0.0 < scale < math.inf:
            raise DegenerateDimensionsError("polygon vertices must be finite and not all zero")
        col_tol = 1e-12 * scale * scale

        # Drop duplicate and collinear vertices (cross product of incident edges ~ 0).
        verts = list(verts)
        changed = True
        while changed and len(verts) >= 3:
            changed = False
            for i in range(len(verts)):
                a = verts[i - 1]
                b = verts[i]
                c = verts[(i + 1) % len(verts)]
                if abs(_cross2(b - a, c - b)) <= col_tol:
                    del verts[i]
                    changed = True
                    break
        if len(verts) < 3:
            raise DegenerateDimensionsError("fewer than 3 distinct vertices after collinear removal")
        verts = np.array(verts)

        crosses = np.array(
            [_cross2(verts[i] - verts[i - 1], verts[(i + 1) % len(verts)] - verts[i])
             for i in range(len(verts))]
        )
        if np.all(crosses < 0):
            raise NonConvexError("vertices are ordered clockwise; counterclockwise required")
        if not np.all(crosses > 0):
            raise NonConvexError("vertices are not in strictly convex order")

        edges = np.roll(verts, -1, axis=0) - verts
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        normals = np.column_stack((edges[:, 1], -edges[:, 0])) / lengths[:, None]
        offsets = np.sum(normals * verts, axis=1)
        if not np.all(offsets > 1e-12 * scale):
            raise OriginNotInteriorError("origin is not strictly inside the polygon")
        return Polygon(verts, normals, offsets)

    def gauge(self, v):
        self._require_halfplanes()
        return float(max(0.0, np.max((self.normals @ v) / self.offsets)))

    def gauge_rows(self, vs):
        self._require_halfplanes()
        return np.max(_matvec_rows(self.normals, vs) / self.offsets, axis=1, initial=0.0)

    def support(self, zeta):
        self._require_halfplanes()
        return float(np.max(self.vertices @ zeta))

    def polar(self):
        """Polar polygon: vertex i is n_i / h_i, the point where the polar lines
        of vertices i and i+1 (the ends of facet i) meet."""
        self._require_halfplanes()
        return Polygon(self.normals / self.offsets[:, None]).validate()

    def boundary_face(self, p):
        """Normal face at the boundary point p: facet j's n_j/h_j, or the polar
        edge joining the two incident facets' points when p is on a vertex."""
        self._require_halfplanes()
        verts, normals, offsets = self.vertices, self.normals, self.offsets
        dists = np.hypot(verts[:, 0] - p[0], verts[:, 1] - p[1])
        i = int(np.argmin(dists))
        if dists[i] <= VERTEX_FACE_TOL * self.circumradius:
            # Vertex i is shared by facets i-1 and i.
            j = i - 1 if i > 0 else len(verts) - 1
            return NormalFace.segment(normals[j] / offsets[j], normals[i] / offsets[i])
        j = int(np.argmax((normals @ p) / offsets))
        return NormalFace.point(normals[j] / offsets[j])


def validate(vset):
    """Check the set invariants; return a validated (possibly rebuilt) set.

    Every parameter must be finite, radii and semi-axes positive.  Polygons
    come back with collinear vertices removed and the half-plane form
    attached.  Raises DegenerateDimensionsError, NonConvexError or
    OriginNotInteriorError on bad input.
    """
    if not isinstance(vset, (Ball, Ellipse, Polygon)):
        raise TypeError(f"not a velocity set: {vset!r}")
    return vset.validate()


def gauge(vset, v):
    """Minkowski gauge gamma_F(v): least t > 0 with v in t*F (0 at v = 0)."""
    return vset.gauge(np.asarray(v, dtype=float))


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
    return vset.boundary_face(v / vset.gauge(v))
