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


class TestGaugeRows:
    """gauge_rows must equal gauge on every row bit for bit; a numpy or BLAS
    build that rounds the stacked matmul differently from m @ v fails here."""

    @staticmethod
    def random_polygon(rng):
        """Convex polygon with 3-48 vertices on an ellipse around a point near the origin."""
        while True:
            n = int(rng.integers(3, 49))
            t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            a, b = rng.uniform(0.5, 3.0, 2)
            pts = np.column_stack((a * np.cos(t), b * np.sin(t))) + rng.uniform(-0.3, 0.3, 2)
            try:
                return validate(Polygon(pts))
            except ValidationError:
                continue

    @pytest.mark.parametrize("kind", ["ball", "ellipse", "polygon"])
    def test_bit_equal_to_gauge(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(40):
            if kind == "ball":
                vset = validate(Ball(float(rng.uniform(0.1, 10.0))))
            elif kind == "ellipse":
                a, b = rng.uniform(0.1, 10.0, 2)
                rot = rng.uniform(-2 * np.pi, 2 * np.pi)
                vset = validate(Ellipse(float(a), float(b), float(rot)))
            else:
                vset = self.random_polygon(rng)
            vs = rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-6, 6, (200, 1))
            vs[0] = 0.0
            expected = np.array([gauge(vset, v) for v in vs])
            assert vset.gauge_rows(vs).tobytes() == expected.tobytes()


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
