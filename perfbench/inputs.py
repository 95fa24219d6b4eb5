"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and JSON: the program under test only ever
sees the generated problem and sweep files, never this module.  The same seed
gives byte-identical inputs.
"""

import json
import math

import numpy as np

FAMILIES = ("ball", "ellipse", "polygon")
PAIRS = tuple((f0, f1) for f0 in FAMILIES for f1 in FAMILIES)

# cli_sweep: one rotated ellipse below the interface, a many-vertex polygon
# above it, and a grid of targets.  The grid is small enough that one sweep
# command takes a fraction of a second, so a run holds enough sweeps for a
# 90th-percentile latency.
SWEEP_POLYGON_VERTICES = 48
SWEEP_NX = 6
SWEEP_NY = 6
SWEEP_SPECS = 12


def _convex_polygon(rng, n):
    """n vertices in counterclockwise order on a random rotated ellipse.

    Points of a strictly convex curve taken in angular order are in strictly
    convex position.  Stratified angles keep every gap below pi, so the
    ellipse centre is inside; the small centre shift keeps the origin inside.
    """
    a, b = rng.uniform(0.5, 3.0, 2)
    rot = rng.uniform(0.0, math.pi)
    t = (np.arange(n) + rng.uniform(0.35, 0.65, n)) * (2.0 * math.pi / n)
    t += rng.uniform(0.0, 2.0 * math.pi)
    px, py = a * np.cos(t), b * np.sin(t)
    c, s = math.cos(rot), math.sin(rot)
    shift = 0.1 * min(a, b) * rng.uniform(-1.0, 1.0, 2)
    xs = c * px - s * py + shift[0]
    ys = s * px + c * py + shift[1]
    return [[float(x), float(y)] for x, y in zip(xs, ys)]


def random_set(rng, family, vertices=None):
    """Tagged set descriptor of one family, as the problem files spell it."""
    if family == "ball":
        return {"kind": "ball", "r": float(rng.uniform(0.5, 3.0))}
    if family == "ellipse":
        return {
            "kind": "ellipse",
            "a": float(rng.uniform(0.5, 3.0)),
            "b": float(rng.uniform(0.5, 3.0)),
            "rot": float(rng.uniform(0.0, math.pi)),
        }
    return {"kind": "polygon", "vertices": _convex_polygon(rng, vertices)}


def random_problem(rng, pair, vertices):
    """One problem document for the family pair (F0, F1); polygons get the given vertex counts.

    Half of the targets sit almost straight above the source, so the initial
    bracket [min x, max x] is narrow and anisotropic sets push the minimizer
    outside it; those problems need bracket expansion.
    """
    x0 = [float(rng.uniform(-3.0, 3.0)), -float(rng.uniform(0.1, 3.0))]
    if rng.uniform() < 0.5:
        x1x = x0[0] + float(rng.uniform(-0.3, 0.3))
    else:
        x1x = float(rng.uniform(-3.0, 3.0))
    x1 = [x1x, float(rng.uniform(0.1, 3.0))]
    return {"x0": x0, "x1": x1, "F0": random_set(rng, pair[0], vertices[0]),
            "F1": random_set(rng, pair[1], vertices[1])}


def problem_pool(seed, n):
    """n problem texts; problem i has family pair PAIRS[i % 9], so pairs are evenly spread.

    Polygon vertex counts cycle through 3..12 (F1's a step ahead of F0's), so
    every pool has the same count mix and only the shapes follow the seed.
    """
    rng = np.random.default_rng([seed, 1])
    docs = []
    for i in range(n):
        m = i // len(PAIRS)
        docs.append(random_problem(rng, PAIRS[i % len(PAIRS)], (3 + m % 10, 3 + (m + 3) % 10)))
    return [json.dumps(d) for d in docs]


def sweep_polygon():
    """Fixed egg-shaped 48-gon above the interface, origin off-centre."""
    t = np.arange(SWEEP_POLYGON_VERTICES) * (2.0 * math.pi / SWEEP_POLYGON_VERTICES)
    r = 1.0 + 0.3 * np.cos(t)
    return [[float(r[i] * math.cos(t[i]) + 0.15), float(r[i] * math.sin(t[i]) + 0.1)]
            for i in range(len(t))]


def sweep_specs(seed, count=SWEEP_SPECS, nx=SWEEP_NX, ny=SWEEP_NY):
    """count sweep documents sharing x0 and both sets' shapes.

    The seed sets each ellipse rotation (stratified over [0, pi), so every
    run covers the whole range of rotations in the same proportions) and
    jitters the grid bounds.
    """
    rng = np.random.default_rng([seed, 2])
    polygon = sweep_polygon()
    specs = []
    for k in range(count):
        rot = (k + float(rng.uniform())) * math.pi / count
        jx, jy = rng.uniform(-0.2, 0.2, 2)
        specs.append({
            "x0": [0.3, -1.0],
            "F0": {"kind": "ellipse", "a": 2.0, "b": 0.7, "rot": rot},
            "F1": {"kind": "polygon", "vertices": polygon},
            "x1_grid": {
                "xmin": -3.0 + float(jx), "xmax": 3.0 + float(jx),
                "ymin": 0.2 + abs(float(jy)), "ymax": 2.5 + float(jy),
                "nx": nx, "ny": ny,
            },
        })
    return specs


def polygon_vertex_counts(text):
    """Vertex counts of the polygon sets in one problem document (input property)."""
    doc = json.loads(text)
    return [len(doc[k]["vertices"]) for k in ("F0", "F1") if doc[k]["kind"] == "polygon"]
