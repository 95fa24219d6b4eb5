import copy
import dataclasses
import json
import math
import pickle
import types
import warnings
from fractions import Fraction

import mpmath as mp
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
    parse_problem,
    polar,
    sample_interior,
    support,
    validate,
)

from elvis import geometry
from elvis.geometry import VERTEX_FACE_TOL, normal_face_rows

from conftest import (
    SQUARE0_VERTICES,
    boundary_points,
    egg_polygon,
    pool_problems,
    random_validated_set,
)


class TestValidate:
    def test_ball_ok(self):
        assert validate(Ball(2.0)) == Ball(2.0)

    def test_ball_bad_radius(self):
        with pytest.raises(DegenerateDimensionsError):
            validate(Ball(0.0))

    def test_ellipse_bad_axis(self):
        with pytest.raises(DegenerateDimensionsError):
            validate(Ellipse(1.0, 0.0))

    @pytest.mark.parametrize("r", [2.0**-511, 2.0**511])
    def test_radius_range_ends(self, r):
        """Radii and semi-axes from 2**-511 to 2**511 have normal-float squares."""
        assert validate(Ball(r)) == Ball(r)
        assert validate(Ellipse(r, 1.0, 0.3)) == Ellipse(r, 1.0, 0.3)
        assert validate(Ellipse(1.0, r)) == Ellipse(1.0, r)

    @pytest.mark.parametrize("r", [2.0**-512, 2.0**512, 1e-200, 1e200])
    def test_radius_out_of_range(self, r):
        """The kernels divide by r*r and by the squared semi-axes, which would leave the
        normal floats: the multipliers came out zero or NaN."""
        for vset in (Ball(r), Ellipse(r, 1.0, 0.3), Ellipse(1.0, r)):
            with pytest.raises(DegenerateDimensionsError, match="2\\*\\*-511"):
                validate(vset)

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

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_polygon_copy_is_frozen(self, clone):
        sq = validate(Polygon(SQUARE0_VERTICES))
        sq.offsets  # a cached array, which the copy must not carry over writeable
        q = clone(sq)
        assert type(q) is Polygon and repr(q) == repr(sq)
        for name in ("vertices", "normals", "offsets", "facet_points"):
            assert not getattr(q, name).flags.writeable, name
        assert gauge(q, (2, 0)) == gauge(sq, (2, 0)) == 2.0

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

    @pytest.mark.parametrize("s", [1e-200, 1e160, 1e200])
    def test_extreme_squares(self, s):
        """Collinearity and orientation are tested on power-of-two scaled coordinates, so
        the square (+-s, +-s) validates where its cross products would underflow or
        overflow, with no warning, and its constants are the unit square's scaled by s."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sq = validate(Polygon([(s, s), (-s, s), (-s, -s), (s, -s)]))
        assert sq.normals.tolist() == [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]
        assert sq.offsets.tolist() == [s] * 4 and sq.inner_radius == s
        assert sq.facet_points.tolist() == (sq.normals / s).tolist()
        assert sq.circumradius == float(np.hypot(s, s))
        assert sq.kinks == (-1.0, 1.0)

    @pytest.mark.parametrize("s, match", [(1e308, "at most"), (5e307, "at most"),
                                          (1e-320, "facet points")])
    def test_square_beyond_float_range(self, s, match):
        """Coordinates above a quarter of the largest float could overflow an edge length or
        radius, and a facet point n/h of a subnormal square overflows."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDimensionsError, match=match):
                validate(Polygon([(s, s), (-s, s), (-s, -s), (s, -s)]))

    @pytest.mark.parametrize("verts, error", [
        ([(1, 1), (1, 1), (-1, 0)], DegenerateDimensionsError),  # an edge of length 0
        ([(1, 0), (2, 0), (1, 1)], OriginNotInteriorError),
    ])
    def test_unvalidated_degenerate_constants(self, verts, error):
        """An unvalidated polygon derives its constants on first read, with the checks its
        divisions need."""
        with pytest.raises(error):
            Polygon(verts).normals


POLYGON_CONSTANTS = ("vertices", "normals", "offsets", "facet_points", "circumradius",
                     "inner_radius", "kinks", "kink_flanks", "_line_table")


def reference_constants(verts):
    """Every constant of a validated polygon with these vertices: the shape constants by
    the array expressions Polygon used before it derived them on Python floats in one
    pass, the line-form constants by `reference_line_table`."""
    edges = np.concatenate((verts[1:], verts[:1])) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.column_stack((edges[:, 1], -edges[:, 0])) / lengths[:, None]
    offsets = np.sum(normals * verts, axis=1)
    facet_points = normals / offsets[:, None]
    circumradius = float(np.max(np.hypot(verts[:, 0], verts[:, 1])))
    inner_radius = float(np.min(offsets))
    kinks, flanks, table = reference_line_table(verts.tolist(), normals.tolist(),
                                                facet_points.tolist(), circumradius, inner_radius)
    return dict(normals=normals, offsets=offsets, facet_points=facet_points,
                circumradius=circumradius, inner_radius=inner_radius, kinks=kinks,
                kink_flanks=flanks, _line_table=table)


def reference_line_table(points, normals, fp, radius, h_min):
    """kinks, kink_flanks and _line_table from the rules of `Polygon.line_form`, vertex by
    vertex: each chain vertex's two sides, the gap tests, then the slots in ratio order."""
    n = len(points)
    upper = sorted((x / y, i) for i, (x, y) in enumerate(points) if y > 0)
    chain = [(upper[0][1] + 1) % n] + [i for _, i in upper] + [(upper[-1][1] - 1) % n]
    rel, band = geometry.LINE_FACE_REL, VERTEX_FACE_TOL * radius
    slack = rel * radius * (1.0 + radius / h_min)
    drop = 1.0001 * (band + rel * radius) / h_min  # 1.0001 D

    def side(w, toward, lam, mu, outside):
        """Cuts (core, near, far), far, length and flank ratio of W's side along the facet
        toward vertex `toward`; outside is the cut of a point not above the x-axis."""
        (wx, wy), (ox, oy) = points[w], points[toward % n]
        j, o = (w, w - 1) if toward == w + 1 else (w - 1, w)
        ex, ey = ox - wx, oy - wy
        length = math.hypot(ex, ey)
        ex, ey = ex / length, ey / length
        slope = abs((fp[j][0] - fp[o][0]) * ex + (fp[j][1] - fp[o][1]) * ey)
        if slope == 0.0:
            step = near = far = math.inf
        else:
            step = 1.25 * VERTEX_FACE_TOL * radius / h_min / slope
            near = max(band + mu, lam + 1.01 * rel * (radius / h_min) / slope)
            far = max(near, lam + drop / slope)

        def ratio(s):
            x, y = wx + s * ex, wy + s * ey
            return x / y if y > 0.0 else outside

        flank = ratio(step) if step <= 0.5 * length and wy + step * ey > 0.0 else None
        return dict(core=ratio(band - mu), near=ratio(near), far=ratio(far), far_s=far,
                    length=length, flank=flank)

    vertices = []
    for m, w in enumerate(chain):
        end = m in (0, len(chain) - 1)
        c = abs(normals[w - 1][0] * normals[w][1] - normals[w - 1][1] * normals[w][0])
        omega = 0.25 * rel * radius / (c - 0.25 * rel) if c > 0.25 * rel else math.inf
        lam = omega + 0.75 * slack
        mu = 2.0 * lam + 0.25 * slack
        vertices.append(dict(w=w, lam=lam, snaps=band - mu > 0.5 * band,
                             left=side(w, w + 1, lam, mu, math.inf if end else -math.inf),
                             right=side(w, w - 1, lam, mu, -math.inf if end else math.inf)))
    flanks = tuple((v["right"]["flank"], v["left"]["flank"]) for v in vertices[1:-1])
    sound = [a["right"]["far_s"] + b["left"]["far_s"] + 2.0 * (a["lam"] + b["lam"]) < b["left"]["length"]
             for a, b in zip(vertices, vertices[1:])]

    def facet(i):
        return fp[i][0], fp[i][0]

    slots = []  # (the ratio the slot ends at, line answer, threshold answer)
    for m in range(len(sound)):
        if not sound[m]:
            continue
        if m == 0 or not sound[m - 1]:
            slots.append((vertices[m]["right"]["far"], None, None))
        v = vertices[m + 1]
        f = facet(chain[m + 1])
        slots.append((v["left"]["far"], f, f))
        if m + 1 < len(sound) and sound[m + 1]:
            lo, hi = sorted((fp[v["w"] - 1][0], fp[v["w"]][0]))
            snap = (lo, hi) if v["snaps"] else None
            g = facet(v["w"] - 1)
            slots += [(v["left"]["near"], f, None), (v["left"]["core"], None, None),
                      (v["right"]["core"], snap, snap), (v["right"]["near"], None, None),
                      (v["right"]["far"], g, None)]
    cuts = [c for c, _, _ in slots]
    table = None
    scales_ok = all(2.0**-64 <= x <= 2.0**64 for x in (h_min, radius)) and radius <= 2.0**16 * h_min
    if scales_ok and all(a <= b for a, b in zip(cuts, cuts[1:])):
        table = (tuple(cuts), tuple(a for _, a, _ in slots) + (None,),
                 tuple(b for _, _, b in slots) + (None,), rel * max(abs(p[0]) for p in fp))
    return tuple(q for q, _ in upper), flanks, table


def constants_of(polygon):
    """Every constant of the polygon: arrays by shape and bytes, the rest by repr."""
    return [(name, (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v))
            for name in POLYGON_CONSTANTS for v in [getattr(polygon, name)]]


def loop_validate(polygon):
    """Polygon.validate written vertex by vertex, with its constants derived by
    `reference_constants`: the reference the polygon's validate and constants must equal.

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
    return types.SimpleNamespace(vertices=verts, **reference_constants(verts))


def validate_outcome(validate_fn, vertices):
    """The validated polygon's constants (`constants_of`), or the error's type and message."""
    try:
        return constants_of(validate_fn(Polygon(vertices)))
    except ValidationError as exc:
        return type(exc), str(exc)


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
    """Polygon.validate equals the vertex-by-vertex loop, errors included, and every
    constant of the polygon it returns equals the array derivations (`reference_constants`)."""

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
                added = got[0][1][0][0] - n if isinstance(got, list) else got[0]
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

    def test_egg_and_pool_polygons(self):
        """The sweep 48-gon and every polygon of the benchmark's problem pools 1-3, validated
        and, unvalidated, read directly: one derivation serves both."""
        vertex_lists = [egg_polygon().vertices.tolist()]
        for seed in (1, 2, 3):
            for text in pool_problems(seed):
                doc = json.loads(text)
                vertex_lists += [doc[k]["vertices"] for k in ("F0", "F1") if doc[k]["kind"] == "polygon"]
        assert len(vertex_lists) == 1 + 3 * 180
        for verts in vertex_lists:
            want = validate_outcome(loop_validate, verts)
            assert validate_outcome(Polygon.validate, verts) == want
            assert constants_of(Polygon(verts)) == want


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


def assert_radii_bound_gauge(vset, vs):
    """|v|/circumradius <= gauge(v) <= |v|/inner_radius for every row v, to 1e-14 relative."""
    norms = np.hypot(vs[:, 0], vs[:, 1])
    g = vset.gauge(vs)
    assert np.all(norms / vset.circumradius <= g * (1.0 + 1e-14))
    assert np.all(g <= norms / vset.inner_radius * (1.0 + 1e-14))


class TestRadii:
    """inner_radius and circumradius bound every family's gauge, as the oracle's screens read them."""

    @pytest.mark.parametrize("kind", ("ball", "ellipse", "polygon"))
    def test_random_sets(self, kind):
        rng = np.random.default_rng([33, len(kind)])
        for _ in range(20):
            vset = random_row_set(rng, kind)
            vs = rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-6, 6, (200, 1))
            assert_radii_bound_gauge(vset, vs)

    def test_pool_sets(self):
        rng = np.random.default_rng(34)
        for text in pool_problems(1):
            problem = parse_problem(text)
            for vset in (problem.F0, problem.F1):
                assert_radii_bound_gauge(vset, rng.normal(size=(50, 2)))

    def test_ball_and_ellipse(self):
        assert (Ball(2.5).inner_radius, Ball(2.5).circumradius) == (2.5, 2.5)
        assert (Ellipse(3.0, 0.5, 1.0).inner_radius, Ellipse(3.0, 0.5, 1.0).circumradius) == (0.5, 3.0)


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
    """gauge on rows must equal gauge on each row bit for bit: `_matvec` forms a row by
    the same element-wise products and sum as a single vector, so a change that gives
    rows a different product (a matmul, einsum) fails here."""

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


U = 2.0**-53


def scaled(vset, s):
    """vset with every length multiplied by s."""
    if isinstance(vset, Ball):
        return validate(Ball(vset.r * s))
    if isinstance(vset, Ellipse):
        return validate(Ellipse(vset.a * s, vset.b * s, vset.rot))
    return validate(Polygon(vset.vertices * s))


def check_line_form(vset, vy, vxs, face=None):
    """Every answer of vset.line_form(vy)'s face, or of the form face along vy, on vxs
    against normal_face's x-range.

    The answer keeps the guarantee of the module notes with the form's err,
    and a polygon's face is the kernel's, bit for bit.  Returns the answered
    (lo, hi) pairs and the number of calls that gave up.
    """
    form = vset.line_form(vy)
    face, err = face or form.face, form.err
    answers, gave_up = [], 0
    for vx in vxs:
        got = face(vx)
        if got is None:
            gave_up += 1
            continue
        lo, hi = got
        lo_k, hi_k = (float(x) for x in normal_face(vset, (vx, vy)).x_range)
        m = max(abs(lo), abs(hi))
        assert 1.01 * (abs(lo - lo_k) + 2.0 * U * m) <= err, (vset, vy, vx)
        assert 1.01 * (abs(hi - hi_k) + 2.0 * U * m) <= err, (vset, vy, vx)
        if isinstance(vset, Polygon):
            assert (lo.hex(), hi.hex()) == (lo_k.hex(), hi_k.hex()), (vset, vy, vx)
        answers.append((lo, hi))
    return answers, gave_up


class TestLineFace:
    """Each shape's line form stays within its err of the kernels' x-range, or gives up."""

    @pytest.mark.parametrize("kind", ["ball", "ellipse", "polygon"])
    def test_within_err(self, kind):
        rng = np.random.default_rng(42)
        answered = gave_up = segments = 0
        for _ in range(30):
            vset = random_row_set(rng, kind)
            vy = float(10.0 ** rng.uniform(-3, 3))
            vxs = (rng.normal(size=200) * 10.0 ** rng.uniform(-3, 3, 200) * vy).tolist()
            if kind == "polygon":
                # Directions to vertices, to points 0.5 tol from them (snapped) and 2 tol (not).
                snapped, apart = TestNormalFaceRows.near_vertex_rows(vset, rng)
                pts = np.vstack((snapped, apart))
                pts = pts[pts[:, 1] > 0]
                vxs += (vy * pts[:, 0] / pts[:, 1]).tolist()
            answers, missed = check_line_form(vset, vy, vxs)
            answered += len(answers)
            gave_up += missed
            segments += sum(lo != hi for lo, hi in answers)
        assert gave_up <= 0.01 * answered
        if kind == "polygon":
            assert segments > 100  # vertex faces, certified from both sides of the snap

    def test_polygon_vertex_band(self):
        """Directions to points at the snap band's edge and near degenerate vertices: every
        answer is the kernel's face, and the close calls give up."""
        rng = np.random.default_rng(44)
        polygons = [random_row_set(rng, "polygon") for _ in range(10)] + [
            # A vertex split in two 0.7e-9 * sqrt(2) apart, and one between near-collinear neighbours.
            validate(Polygon([(1.0, 1.0 - 0.7e-9), (1.0 - 0.7e-9, 1.0), (-1.0, 1.0), (-1.0, -1.0),
                              (1.0, -1.0)])),
            validate(Polygon([(1.0, 1.0), (0.0, 1.0 + 2e-12), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])),
        ]
        answered = gave_up = 0
        for vset in polygons:
            verts = vset.vertices
            tol = VERTEX_FACE_TOL * vset.circumradius
            steps = tol * np.concatenate((1.0 + np.array([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6]),
                                          10.0 ** np.linspace(0.5, 8.0, 16)))
            pts = []
            for i, q in enumerate(verts):
                for nb in (verts[i - 1], verts[(i + 1) % len(verts)]):
                    e = (nb - q) / np.hypot(*(nb - q))
                    pts += [q + t * e for t in steps]
            pts = np.array(pts)
            pts = pts[pts[:, 1] > 0]
            for vy in 10.0 ** rng.uniform(-2, 2, 3):
                answers, missed = check_line_form(vset, vy, (vy * pts[:, 0] / pts[:, 1]).tolist())
                answered += len(answers)
                gave_up += missed
        assert answered > gave_up > 0  # the points at the band edge itself give up

    def test_polygon_kinks(self):
        """Directions at relative offsets 0, 1e-15, 1e-12, 1e-9 and 1e-3 either side of every
        kink of 3-48-gons and the egg-shaped 48-gon: every answer is the kernel's face."""
        rng = np.random.default_rng(45)
        offsets = [0.0] + [s * o for o in (1e-15, 1e-12, 1e-9, 1e-3) for s in (1.0, -1.0)]
        answered = gave_up = 0
        for vset in [random_row_set(rng, "polygon") for _ in range(20)] + [egg_polygon()]:
            kinks = vset.kinks
            for vy in (0.37, 1.0, 12.5):
                answers, missed = check_line_form(vset, vy, [vy * k * (1.0 + o) for k in kinks
                                                             for o in offsets])
                answered += len(answers)
                gave_up += missed
        assert gave_up <= 0.05 * answered

    def test_polygon_short_edge_after_sharp_vertex(self):
        """A 37-degree apex W followed by an edge 1e-10 to 5e-10 long: toward points on W's
        other edge within the band, the short edge's far end V is nearer than W, and the
        kernel snaps to V.  The zones of W and V overlap on the short edge, so the form
        must give up over both, never answer W's face."""
        apex, left, right = np.array([0.0, 3.0]), np.array([-1.0, -3.0]), np.array([1.0, -3.0])
        left, right = left / np.hypot(*left), right / np.hypot(*right)
        out = np.array([left[1], -left[0]])  # outward normal of the edge from W along left
        far_snaps = 0
        for short in (1e-10, 2e-10, 5e-10):
            for bend in (1e-11, 3e-11, 1e-10):
                v = apex + short * left + bend * out
                vset = validate(Polygon([(1.0, 0.0), apex, v, (-1.0, 0.0), (-0.5, -1.0), (0.5, -1.0)]))
                assert len(vset.vertices) == 6
                pts = apex + np.outer(short * np.array([0.5, 0.7, 1.0, 1.5, 2.0, 3.0]), right)
                for vy in (0.5, 1.0, 3.0):
                    vxs = (vy * pts[:, 0] / pts[:, 1]).tolist()
                    check_line_form(vset, vy, vxs)
                    fp = vset.facet_points[:, 0]
                    far_snaps += sum(normal_face(vset, (vx, vy)).x_range == (min(fp[1:3]), max(fp[1:3]))
                                     for vx in vxs)
        assert far_snaps > 50

    @staticmethod
    def short_edge_polygon():
        """test_polygon_short_edge_after_sharp_vertex's polygon with a 2e-10 edge bent by 3e-11."""
        apex, left = np.array([0.0, 3.0]), np.array([-1.0, -3.0]) / np.hypot(1.0, 3.0)
        v = apex + 2e-10 * left + 3e-11 * np.array([left[1], -left[0]])
        return validate(Polygon([(1.0, 0.0), apex, v, (-1.0, 0.0), (-0.5, -1.0), (0.5, -1.0)]))

    def test_polygon_table_cuts(self):
        """Both forms at every cut of the table and 1, 2 and 4 ulps either side of it, on
        3-48-gons, the egg-shaped 48-gon and the degenerate polygons above, for vy from
        2**-20 to 2**20: every answer is the kernel's face."""
        rng = np.random.default_rng(47)
        polygons = [random_row_set(rng, "polygon") for _ in range(12)] + [egg_polygon()] + [
            validate(Polygon(verts)) for verts in (
                [(1.0, 1.0 - 0.7e-9), (1.0 - 0.7e-9, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
                [(1.0, 1.0), (0.0, 1.0 + 2e-12), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
                [(1.0, 1.0 - 1e-11), (1.0 - 1e-11, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
        ] + [self.short_edge_polygon()]
        answered = gave_up = 0
        for vset in polygons:
            cuts = [c for c in vset._line_table[0] if math.isfinite(c)]
            ratios = []
            for c in cuts:
                ratios.append(c)
                for k in (1, 2, 4):
                    up = down = c
                    for _ in range(k):
                        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                    ratios += [up, down]
            for vy in (2.0**-20, 0.37, 1.0, 12.5, 2.0**20):
                vxs = [vy * q for q in ratios]
                for face in vset.line_form(vy)[:2]:
                    answers, missed = check_line_form(vset, vy, vxs, face)
                    answered += len(answers)
                    gave_up += missed
        # Every cut borders a slot that gives up, so about half the calls do.
        assert answered > 0.5 * gave_up > 0

    def test_facet_values_bitonic(self):
        """tau_i(v) = <n_i/h_i, v> is cyclically bitonic in i, in exact arithmetic, on 3-48-gons:
        with N_i = (e_y, -e_x) for edge e_i from vertex V_i, n_i/h_i = N_i/(N_i . V_i), a
        rational function of the float vertices, so its differences change sign at most twice."""
        rng = np.random.default_rng(46)
        for _ in range(40):
            verts = [(Fraction(x), Fraction(y)) for x, y in random_row_set(rng, "polygon").vertices.tolist()]
            n = len(verts)
            normals = [(by - ay, ax - bx) for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])]
            for vx, vy in rng.normal(size=(10, 2)).tolist():
                vx, vy = Fraction(vx), Fraction(vy)
                taus = [(nx * vx + ny * vy) / (nx * ax + ny * ay) for (nx, ny), (ax, ay) in zip(normals, verts)]
                signs = [s for s in ((b > a) - (b < a) for a, b in zip(taus, taus[1:] + taus[:1])) if s]
                assert sum(s != t for s, t in zip(signs, signs[1:] + signs[:1])) <= 2

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("scale", [1.0, 2.0**20, 2.0**-20])
    def test_translated_and_scaled_problems(self, shift, scale):
        """Along a problem's bracket, translated along the interface and scaled."""
        from elvis import expand_bracket, make_problem

        from conftest import random_problem

        rng = np.random.default_rng(43)
        answered = gave_up = 0
        for _ in range(12):
            p = random_problem(rng)
            move = np.array([shift, 0.0])
            q = make_problem(p.x0 * scale + move, p.x1 * scale + move,
                             scaled(p.F0, scale), scaled(p.F1, scale))
            l, r, _ = expand_bracket(q)
            ys = np.linspace(l, r, 60).tolist()
            (x0x, x0y), (x1x, x1y) = q.x0.tolist(), q.x1.tolist()
            for vset, vy, vxs in ((q.F0, -x0y, [y - x0x for y in ys]),
                                  (q.F1, x1y, [x1x - y for y in ys])):
                answers, missed = check_line_form(vset, vy, vxs)
                answered += len(answers)
                gave_up += missed
        assert gave_up <= 0.01 * answered

    def test_ellipse_at_its_limits(self):
        """Ellipses with aspect ratios up to the forms' 2**16, rotations 0, +-pi/2 and 1e-12,
        and |vx|/vy up to 2**60: every answer lies within the form's err of the kernel and,
        with the kernel's, within E of the exact gradient."""
        rng = np.random.default_rng(48)
        answered = 0
        for rot in (0.0, 0.5 * math.pi, -0.5 * math.pi, 1e-12, float(rng.uniform(-math.pi, math.pi))):
            for k in [2.0**16, 1.0] + (2.0 ** rng.uniform(0.0, 16.0, 8)).tolist():
                m = 2.0 ** float(rng.uniform(-8.0, 8.0))
                vset = validate(Ellipse(m, m * k, rot) if rng.integers(2) else Ellipse(m * k, m, rot))
                vy = 2.0 ** float(rng.uniform(-2.0, 2.0))
                vxs = (vy * rng.choice((-1.0, 1.0), 30) * 2.0 ** rng.uniform(-60.0, 60.0, 30)).tolist()
                answers, missed = check_line_form(vset, vy, vxs)
                assert missed == 0
                bound = vset.line_form(vy).bound
                for vx, (lo, _) in zip(vxs, answers):
                    exact = TestThresholdFace.exact_x(vset, vx, vy)
                    kernel = float(normal_face(vset, [vx, vy]).zeta_lo[0])
                    assert max(abs(kernel - exact), abs(lo - exact)) <= bound, (vset, vy, vx)
                answered += len(answers)
        assert answered == 5 * 10 * 30

    def test_outside_the_error_model(self):
        """Scales outside [2**-64, 2**64], aspect ratios past 2**16 and |vx| > 2**64 give up."""
        assert Ball(1e-30).line_form(1.0) is None
        assert Ball(1.0).line_form(1e30) is None
        assert Ellipse(1.0, 1e-6).line_form(1.0) is None
        assert validate(Polygon([(1e6, 1e-5), (-1e6, 1e-5), (-1e6, -1e-5), (1e6, -1e-5)])
                        ).line_form(1.0) is None
        for vset in (Ball(1.0), Ellipse(2.0, 0.5, 0.3), validate(Polygon(SQUARE0_VERTICES))):
            for face in vset.line_form(1.0)[:2]:
                assert face(1e20) is None and face(-1e20) is None
                assert face(1e18) is not None


class TestThresholdFace:
    """The threshold locator's forms: a smooth set's E bounds the kernel and the form
    against the exact gradient, and a polygon's strict form is its face without its tail
    answer."""

    @staticmethod
    def exact_x(vset, vx, vy):
        """x-component of the exact gradient of the gauge the kernel rounds, from the stored
        constants, at 60 digits."""
        with mp.workdps(60):
            if isinstance(vset, Ball):
                rr = mp.mpf(vset.r * vset.r)  # the kernel's rounded r * r
                return float(mp.mpf(vx) * vset.r / (mp.sqrt(mp.mpf(vx) ** 2 + mp.mpf(vy) ** 2) * rr))
            (t00, t01), (t10, t11) = vset._to_axes.tolist()
            w0 = mp.mpf(t00) * vx + mp.mpf(t01) * vy
            w1 = mp.mpf(t10) * vx + mp.mpf(t11) * vy
            a, b = mp.mpf(vset.a), mp.mpf(vset.b)
            g = mp.sqrt((w0 / a) ** 2 + (w1 / b) ** 2)
            return float((t00 * w0 / a**2 + t10 * w1 / b**2) / g)

    @pytest.mark.parametrize("kind", ["ball", "ellipse"])
    def test_smooth_bound(self, kind):
        rng = np.random.default_rng(46)
        worst = 0.0
        for _ in range(40):
            vset = random_row_set(rng, kind)
            vy = float(10.0 ** rng.uniform(-2, 2))
            face, strict, _, bound, kinks, flanks, reach = vset.line_form(vy)
            assert strict is face and kinks == flanks == () and reach == math.inf
            for vx in (rng.normal(size=25) * 10.0 ** rng.uniform(-3, 3, 25) * vy).tolist():
                exact = self.exact_x(vset, vx, vy)
                kernel = float(normal_face(vset, [vx, vy]).zeta_lo[0])
                lo, hi = face(vx)
                assert lo == hi
                gap = max(abs(kernel - exact), abs(lo - exact))
                assert gap <= bound
                worst = max(worst, gap / bound)
        assert worst > 0.0

    def test_polygon_form_drops_the_tail_answer(self):
        """Directions near every kink of the egg 48-gon: the strict form answers as
        face does or gives up, and it gives up on some tail answers; at every kink flank it
        answers a single facet."""
        poly = egg_polygon()
        dropped = 0
        for vy in (0.3, 1.0, 2.5):
            face, strict, _, bound, kinks, flanks, reach = poly.line_form(vy)
            assert bound == 0.0 and kinks == poly.kinks and reach > 1000.0 * vy
            assert flanks == poly.kink_flanks
            for k in kinks:
                for offset in (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 3e-10, -3e-10, 1e-9, -1e-9, 1e-6, -1e-6):
                    vx = vy * k * (1.0 + offset) + vy * offset
                    want, got = face(vx), strict(vx)
                    if got is None:
                        dropped += want is not None
                    else:
                        assert got == want
            for flank in flanks:
                for ratio in flank:
                    if ratio is not None:
                        lo, hi = strict(vy * ratio)
                        assert lo == hi
        assert dropped > 0


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
