import dataclasses
import math
import types

import numpy as np
import pytest

from elvis import (
    Ball,
    DegenerateDimensionsError,
    Ellipse,
    NonConvexError,
    OriginNotInteriorError,
    Polygon,
    ValidationError,
    ZeroVectorError,
    gauge,
    gauge_by_membership,
    normal_face,
    polar,
    sample_interior,
    support,
    validate,
)

from elvis.geometry import VERTEX_FACE_TOL, normal_face_rows

from conftest import SQUARE0_VERTICES, boundary_points, random_validated_set


class TestValidate:
    def test_ball_ok(self):
        assert validate(Ball(2.0)) == Ball(2.0)

    def test_ball_bad_radius(self):
        with pytest.raises(DegenerateDimensionsError):
            validate(Ball(0.0))

    def test_ellipse_bad_axis(self):
        with pytest.raises(DegenerateDimensionsError):
            validate(Ellipse(1.0, 0.0))

    def test_square_halfplane_form(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        expected_normals = [(0, 1), (-1, 0), (0, -1), (1, 0)]
        assert np.allclose(sq.normals, expected_normals)
        assert np.allclose(sq.offsets, 1.0)
        # Every vertex satisfies all facet inequalities, tightly on its two facets.
        for k, v in enumerate(sq.vertices):
            slack = sq.offsets - sq.normals @ v
            assert np.all(slack >= -1e-12)
            tight = np.flatnonzero(slack <= 1e-12)
            assert set(tight) == {k, (k - 1) % 4}

    def test_cached_constants(self):
        """Cached kernel constants leave equality and repr alone and cannot be written."""
        e = validate(Ellipse(2.0, 0.5, 0.3))
        gauge(e, (1.0, 1.0))
        assert e == Ellipse(2.0, 0.5, 0.3)
        assert repr(e) == "Ellipse(a=2.0, b=0.5, rot=0.3)"
        sq = validate(Polygon(SQUARE0_VERTICES))
        assert sq.facet_points.tobytes() == (sq.normals / sq.offsets[:, None]).tobytes()
        with pytest.raises(ValueError):
            normal_face(sq, (2, 0.6)).zeta_lo[0] = 0.0

    def test_polygon_is_frozen(self):
        """Neither the vertices nor the arrays derived from them can be changed, so
        gauge, support and normal faces keep agreeing with each other."""
        src = np.array(SQUARE0_VERTICES)
        sq = validate(Polygon(src))
        src *= 2.0  # the polygon holds its own copy

        def outputs():
            faces = [normal_face(sq, v) for v in ((2, 0.6), (3, 3))]
            return (gauge(sq, (2, 0)), support(sq, (1, 0)),
                    [(f.zeta_lo.tobytes(), f.zeta_hi.tobytes()) for f in faces])

        before = outputs()
        with pytest.raises(ValueError):
            sq.vertices *= 2
        for name in ("vertices", "normals", "offsets", "facet_points"):
            with pytest.raises(ValueError):
                getattr(sq, name)[:] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sq.vertices = 2 * src
        assert before[:2] == (2.0, 1.0)
        assert outputs() == before
        assert sq.vertices.tolist() == [list(v) for v in SQUARE0_VERTICES]

    def test_origin_outside(self):
        with pytest.raises(OriginNotInteriorError):
            validate(Polygon([(1, 0), (2, 0), (1, 1)]))

    def test_clockwise_rejected(self):
        with pytest.raises(NonConvexError):
            validate(Polygon(list(reversed(SQUARE0_VERTICES))))

    def test_nonconvex_rejected(self):
        with pytest.raises(NonConvexError):
            validate(Polygon([(2, 0), (0, 2), (-2, 0), (0, -2), (0.1, -0.1)]))

    def test_collinear_vertices_removed(self):
        sq = validate(Polygon([(1, 1), (0, 1), (-1, 1), (-1, -1), (1, -1)]))
        assert len(sq.vertices) == 4

    def test_too_few_vertices(self):
        with pytest.raises(DegenerateDimensionsError):
            validate(Polygon([(1, 0), (1.0, 0.0), (0, 1)]))


def loop_validate(polygon):
    """Polygon.validate written vertex by vertex, with the half-plane form derived here
    too: the reference the array form and the polygon's cached constants must equal.

    Collinear vertices go one at a time, the first in vertex order each pass,
    and every cross product is taken on one vertex's two incident edges.
    """
    verts = polygon.vertices
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise DegenerateDimensionsError("polygon needs at least 3 planar vertices")
    scale = float(np.max(np.abs(verts)))
    if not 0.0 < scale < math.inf:
        raise DegenerateDimensionsError("polygon vertices must be finite and not all zero")
    col_tol = 1e-12 * scale * scale

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    verts = list(verts)
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        for i in range(len(verts)):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % len(verts)]
            if abs(cross(b - a, c - b)) <= col_tol:
                del verts[i]
                changed = True
                break
    if len(verts) < 3:
        raise DegenerateDimensionsError("fewer than 3 distinct vertices after collinear removal")
    verts = np.array(verts)
    crosses = np.array([cross(verts[i] - verts[i - 1], verts[(i + 1) % len(verts)] - verts[i])
                        for i in range(len(verts))])
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
    return types.SimpleNamespace(
        vertices=verts, normals=normals, offsets=offsets, facet_points=normals / offsets[:, None],
        circumradius=float(np.max(np.hypot(verts[:, 0], verts[:, 1]))),
    )


def validate_outcome(validate_fn, vertices):
    """The validated arrays' bytes and the circumradius, or the error's type and message."""
    try:
        p = validate_fn(Polygon(vertices))
    except ValidationError as exc:
        return type(exc), str(exc)
    arrays = [getattr(p, name) for name in ("vertices", "normals", "offsets", "facet_points")]
    return [(a.shape, a.tobytes()) for a in arrays], repr(p.circumradius)


def edge_insert(verts, i, *points):
    """verts with points inserted on edge i, in order.  (t, f) puts one at t
    along the edge, moved outward (inward if f < 0) so far that it alone would
    make the cross product of its incident edges about f * col_tol."""
    a, b = verts[i], verts[(i + 1) % len(verts)]
    e = b - a
    length = np.hypot(*e)
    col_tol = 1e-12 * np.max(np.abs(verts)) ** 2
    outward = np.array([e[1], -e[0]]) / length
    return np.insert(verts, i + 1, [a + t * e + f * col_tol / length * outward
                                    for t, f in points], axis=0)


class TestValidateMatchesLoop:
    """Polygon.validate's array form equals the vertex-by-vertex loop, errors included."""

    def test_random_and_degenerate_polygons(self):
        rng = np.random.default_rng(41)
        cases, outcomes = 0, {}
        for _ in range(40):
            verts = random_row_set(rng, "polygon").vertices * 10.0 ** rng.uniform(-4, 4)
            n = len(verts)
            i = int(rng.integers(n))
            variants = {
                "convex": verts,
                "duplicate": np.insert(verts, i, verts[i], axis=0),
                "midpoint": edge_insert(verts, i, (0.5, 0.0)),
                "two on one edge": edge_insert(verts, i, (1 / 3, 0.0), (2 / 3, 0.0)),
                "within tol": edge_insert(verts, i, (0.5, 0.5)),
                "within tol inward": edge_insert(verts, i, (0.5, -0.5)),
                "outside tol": edge_insert(verts, i, (0.5, 2.0)),
                "outside tol inward": edge_insert(verts, i, (0.5, -2.0)),
                # Each point's cross is 0.7 col_tol; once the first in vertex
                # order goes, the other's is 2.1 col_tol, so it stays.
                "chain": edge_insert(verts, i, (1 / 3, 2.1), (2 / 3, 2.1)),
                "clockwise": verts[::-1],
                "non-convex": np.insert(verts, i + 1, 0.1 * (verts[i] + verts[(i + 1) % n]), axis=0),
                "origin outside": verts + 3.0 * np.max(np.abs(verts)),
                "collinear": np.outer(np.linspace(-1.0, 1.0, n), rng.normal(size=2)),
            }
            for name, vs in variants.items():
                got = validate_outcome(Polygon.validate, vs)
                assert got == validate_outcome(loop_validate, vs), name
                # Vertices added to the convex polygon that survive, or the error raised.
                added = got[0][0][0][0] - n if isinstance(got[0], list) else got[0]
                outcomes.setdefault(name, set()).add(added)
                cases += 1
        assert cases == 520
        # Every branch is taken: within the tolerance the inserted point goes,
        # outside it stays (or, inward, makes the polygon non-convex).
        for name in ("convex", "duplicate", "midpoint", "two on one edge", "within tol",
                     "within tol inward"):
            assert outcomes[name] == {0}, name
        assert outcomes["outside tol"] == outcomes["chain"] == {1}
        for name in ("outside tol inward", "clockwise", "non-convex"):
            assert outcomes[name] == {NonConvexError}, name
        assert outcomes["origin outside"] == {OriginNotInteriorError}
        assert outcomes["collinear"] == {DegenerateDimensionsError}


class TestGauge:
    def test_ball(self):
        assert gauge(Ball(2.0), (0, 3)) == pytest.approx(1.5, abs=1e-15)

    def test_ellipse_boundary(self):
        assert gauge(Ellipse(2.0, 1.0), (2, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_ellipse_off_axis(self):
        # sqrt((1/1)^2 + (1/0.5)^2) = sqrt(5); cross-checked by membership bisection.
        val = gauge(Ellipse(1.0, 0.5), (1, 1))
        assert val == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert val == pytest.approx(gauge_by_membership(Ellipse(1.0, 0.5), (1, 1)), abs=1e-10)

    def test_square(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        assert gauge(sq, (3, 2)) == pytest.approx(3.0, abs=1e-12)
        assert gauge(sq, (3, 2)) == pytest.approx(gauge_by_membership(sq, (3, 2)), abs=1e-10)

    def test_zero_vector(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        for vset in (Ball(2.0), Ellipse(1.0, 3.0), sq):
            assert gauge(vset, (0, 0)) == 0.0


def random_row_set(rng, kind):
    """Validated ball, ellipse (rotation over +-2 pi) or 3-48-gon for the row-kernel tests."""
    if kind == "ball":
        return validate(Ball(float(rng.uniform(0.1, 10.0))))
    if kind == "ellipse":
        a, b = rng.uniform(0.1, 10.0, 2)
        rot = rng.uniform(-2 * np.pi, 2 * np.pi)
        return validate(Ellipse(float(a), float(b), float(rot)))
    while True:
        # Convex polygon with 3-48 vertices on an ellipse around a point near the origin.
        n = int(rng.integers(3, 49))
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        a, b = rng.uniform(0.5, 3.0, 2)
        pts = np.column_stack((a * np.cos(t), b * np.sin(t))) + rng.uniform(-0.3, 0.3, 2)
        try:
            return validate(Polygon(pts))
        except ValidationError:
            continue


class TestGaugeRows:
    """gauge on rows must equal gauge on each row bit for bit; a numpy or BLAS
    build that rounds the stacked matmul differently from m @ v fails here."""

    @pytest.mark.parametrize("kind", ["ball", "ellipse", "polygon"])
    def test_bit_equal_to_gauge(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(40):
            vset = random_row_set(rng, kind)
            vs = rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-6, 6, (200, 1))
            vs[0] = 0.0
            expected = np.array([gauge(vset, v) for v in vs])
            assert vset.gauge(vs).tobytes() == expected.tobytes()


class TestSupport:
    def test_ball(self):
        assert support(Ball(3.0), (1, 0)) == pytest.approx(3.0, abs=1e-15)

    def test_square(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        assert support(sq, (1, 1)) == pytest.approx(2.0, abs=1e-15)

    def test_ellipse(self):
        assert support(Ellipse(2.0, 1.0), (0, 1)) == pytest.approx(1.0, abs=1e-15)


class TestPolar:
    def test_ball(self):
        assert polar(Ball(2.0)) == Ball(0.5)

    def test_ellipse(self):
        assert polar(Ellipse(1.0, 0.5)) == Ellipse(1.0, 2.0)

    def test_square_gives_diamond(self):
        diamond = polar(validate(Polygon(SQUARE0_VERTICES)))
        got = {tuple(np.round(v, 12)) for v in diamond.vertices}
        assert got == {(1, 0), (0, 1), (-1, 0), (0, -1)}

    def test_bipolar_square(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        back = polar(polar(sq))
        got = sorted(tuple(np.round(v, 9)) for v in back.vertices)
        want = sorted(tuple(np.round(np.asarray(v, float), 9)) for v in sq.vertices)
        assert got == want


class TestNormalFace:
    def test_ball(self):
        face = normal_face(Ball(2.0), (0, 5))
        assert face.is_point
        assert np.allclose(face.zeta_lo, (0, 0.5))
        assert support(Ball(2.0), face.zeta_lo) == pytest.approx(1.0, abs=1e-12)

    def test_square_facet(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        face = normal_face(sq, (2, 0.6))
        assert face.is_point
        assert np.allclose(face.zeta_lo, (1, 0))

    def test_square_vertex(self):
        sq = validate(Polygon(SQUARE0_VERTICES))
        face = normal_face(sq, (3, 3))
        assert not face.is_point
        got = {tuple(face.zeta_lo), tuple(face.zeta_hi)}
        assert got == {(1.0, 0.0), (0.0, 1.0)}

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            normal_face(Ball(1.0), (0, 0))


class TestNormalFaceRows:
    """normal_face_rows must equal normal_face on every row bit for bit."""

    @staticmethod
    def near_vertex_rows(vset, rng):
        """Directions to every vertex, to points 0.5 tol from it along an incident
        edge (snapped to the vertex) and to points 2 tol from it (not snapped),
        where tol = VERTEX_FACE_TOL * circumradius."""
        verts = vset.vertices
        tol = VERTEX_FACE_TOL * vset.circumradius
        snapped, apart = [], []
        for i, q in enumerate(verts):
            for nb in (verts[i - 1], verts[(i + 1) % len(verts)]):
                e = (nb - q) / np.hypot(*(nb - q))
                snapped.append(q + 0.5 * tol * e)
                apart.append(q + 2.0 * tol * e)
        on_vertex = verts * 10.0 ** rng.uniform(-3, 3, (len(verts), 1))
        return np.vstack((verts, on_vertex, snapped)), np.array(apart)

    @pytest.mark.parametrize("kind", ["ball", "ellipse", "polygon"])
    def test_bit_equal_to_normal_face(self, kind):
        rng = np.random.default_rng(22)
        for _ in range(30):
            vset = random_row_set(rng, kind)
            vs = rng.normal(size=(100, 2)) * 10.0 ** rng.uniform(-6, 6, (100, 1))
            if kind == "polygon":
                snapped, apart = self.near_vertex_rows(vset, rng)
                vs = np.vstack((vs, snapped, apart))
            lo, hi = normal_face_rows(vset, vs)
            faces = [normal_face(vset, v) for v in vs]
            assert lo.tobytes() == np.array([f.zeta_lo for f in faces]).tobytes()
            assert hi.tobytes() == np.array([f.zeta_hi for f in faces]).tobytes()
            if kind == "polygon":
                # Both branches of the vertex snap are taken.
                n0, n1 = 100, 100 + len(snapped)
                assert np.all(np.any(lo[n0:n1] != hi[n0:n1], axis=1))
                assert np.all(lo[n1:] == hi[n1:])

    def test_zero_row(self):
        for zero in ([0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]):
            with pytest.raises(ZeroVectorError):
                normal_face_rows(Ball(1.0), [[1.0, 0.0], zero])

    @pytest.mark.parametrize("kind", ["ball", "ellipse", "polygon"])
    def test_rows_on_the_x_axis(self, kind):
        """A zero y-component alone is no zero direction: such rows pass the guard."""
        vset = random_row_set(np.random.default_rng(5), kind)
        vs = np.array([[1.0, 0.0], [-2.5, 0.0], [3e-9, -0.0], [0.5, 1.0]])
        lo, hi = normal_face_rows(vset, vs)
        faces = [normal_face(vset, v) for v in vs]
        assert lo.tobytes() == np.array([f.zeta_lo for f in faces]).tobytes()
        assert hi.tobytes() == np.array([f.zeta_hi for f in faces]).tobytes()


class TestInvariants:
    N = 300

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(self.N):
            vset = random_validated_set(rng)
            v = rng.normal(size=2)
            t = float(rng.uniform(0.01, 100.0))
            lhs = gauge(vset, t * v)
            rhs = t * gauge(vset, v)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_subadditivity(self):
        rng = np.random.default_rng(2)
        for _ in range(self.N):
            vset = random_validated_set(rng)
            u, v = rng.normal(size=2), rng.normal(size=2)
            assert gauge(vset, u + v) <= gauge(vset, u) + gauge(vset, v) + 1e-12

    def test_boundary_gauge_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vset = random_validated_set(rng)
            for p in boundary_points(vset, 20, rng):
                assert gauge(vset, p) == pytest.approx(1.0, abs=1e-10)

    def test_polar_support_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(self.N):
            vset = random_validated_set(rng)
            zeta = rng.normal(size=2)
            assert gauge(polar(vset), zeta) == pytest.approx(
                support(vset, zeta), rel=1e-10, abs=1e-10
            )

    def test_bipolarity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            vset = random_validated_set(rng)
            back = polar(polar(vset))
            if isinstance(vset, Ball):
                assert back.r == pytest.approx(vset.r, rel=1e-15)
            elif isinstance(vset, Ellipse):
                assert back.a == pytest.approx(vset.a, rel=1e-15)
                assert back.b == pytest.approx(vset.b, rel=1e-15)
                assert back.rot == vset.rot
            else:
                got = sorted(tuple(np.round(v, 9)) for v in back.vertices)
                want = sorted(tuple(np.round(v, 9)) for v in vset.vertices)
                assert got == want

    def test_normal_face_validity(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            vset = random_validated_set(rng)
            v = rng.normal(size=2)
            if v[0] == 0 and v[1] == 0:
                continue
            face = normal_face(vset, v)
            p = np.asarray(v, float) / gauge(vset, v)
            samples = sample_interior(vset, 1000, rng)
            for zeta in (face.zeta_lo, face.zeta_hi):
                assert support(vset, zeta) == pytest.approx(1.0, abs=1e-9)
                assert np.all(samples @ zeta <= p @ zeta + 1e-9)

    def test_smooth_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        from conftest import random_ball, random_ellipse

        for _ in range(200):
            maker = random_ball if rng.integers(2) else random_ellipse
            vset = validate(maker(rng))
            v = rng.normal(size=2)
            nv = np.hypot(v[0], v[1])
            if nv < 1e-3:
                continue
            face = normal_face(vset, v)
            h = 1e-7 * nv
            grad = np.array([
                (gauge(vset, v + np.array([h, 0])) - gauge(vset, v - np.array([h, 0]))) / (2 * h),
                (gauge(vset, v + np.array([0, h])) - gauge(vset, v - np.array([0, h]))) / (2 * h),
            ])
            assert np.allclose(face.zeta_lo, grad, atol=1e-6)
