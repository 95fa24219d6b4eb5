"""Problem and sweep files: JSON documents with a fixed key set.

Unknown keys are rejected so that typos fail loudly.  Parsing errors raise
ProblemFormatError with the offending key named; semantic violations raise
the usual ValidationError subclasses.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ProblemFormatError, ValidationError
from .geometry import Ball, Ellipse, Polygon
from .solver import ElvisProblem, make_problem

PROBLEM_KEYS = {"x0", "x1", "F0", "F1", "epsilon", "max_iter"}
SWEEP_KEYS = {"x0", "F0", "F1", "epsilon", "max_iter", "x1_grid"}
GRID_KEYS = {"xmin", "xmax", "ymin", "ymax", "nx", "ny"}
SET_KEYS = {
    "ball": {"kind", "r"},
    "ellipse": {"kind", "a", "b", "rot"},
    "polygon": {"kind", "vertices"},
}


@dataclass(frozen=True)
class SweepSpec:
    """Fixed source side plus a rectangular grid of targets in the upper half-plane."""

    x0: np.ndarray
    F0: object
    F1: object
    epsilon: float
    max_iter: int
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ProblemFormatError(f"{where}: unknown key {key!r}")


def _point(obj, key):
    val = obj.get(key)
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or not all(isinstance(c, (int, float)) for c in val)
    ):
        raise ProblemFormatError(f"key {key!r} must be a pair of numbers")
    return np.array(val, dtype=float)


def parse_set(obj, where):
    """Tagged set descriptor -> unvalidated velocity set."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProblemFormatError(f"{where}: set descriptor needs a 'kind' tag")
    kind = obj["kind"]
    if kind not in SET_KEYS:
        raise ProblemFormatError(f"{where}: unknown set kind {kind!r}")
    _check_keys(obj, SET_KEYS[kind], where)
    try:
        if kind == "ball":
            return Ball(float(obj["r"]))
        if kind == "ellipse":
            return Ellipse(float(obj["a"]), float(obj["b"]), float(obj.get("rot", 0.0)))
        verts = obj["vertices"]
        if not isinstance(verts, list) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in verts
        ):
            raise ProblemFormatError(f"{where}: key 'vertices' must be a list of pairs")
        return Polygon(verts)
    except KeyError as exc:
        raise ProblemFormatError(f"{where}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise ProblemFormatError(f"{where}: non-numeric field in set descriptor") from None


def _read_document(text, allowed, required, where):
    """JSON text -> dict with only allowed keys and every required key."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from None
    _check_keys(doc, allowed, where)
    for key in required:
        if key not in doc:
            raise ProblemFormatError(f"{where}: missing key {key!r}")
    return doc


def _tolerances(doc, epsilon_override):
    """(epsilon, max_iter) from the document, type-checked; booleans are rejected."""
    epsilon = doc.get("epsilon", 1e-12)
    max_iter = doc.get("max_iter", 200)
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        raise ProblemFormatError("key 'epsilon' must be a number")
    if isinstance(max_iter, bool) or not isinstance(max_iter, int):
        raise ProblemFormatError("key 'max_iter' must be an integer")
    if epsilon_override is not None:
        epsilon = epsilon_override
    return epsilon, max_iter


def parse_problem(text, epsilon_override=None):
    """Parse problem-file text into a validated ElvisProblem."""
    doc = _read_document(text, PROBLEM_KEYS, ("x0", "x1", "F0", "F1"), "problem")
    x0 = _point(doc, "x0")
    x1 = _point(doc, "x1")
    f0 = parse_set(doc["F0"], "F0")
    f1 = parse_set(doc["F1"], "F1")
    epsilon, max_iter = _tolerances(doc, epsilon_override)
    return make_problem(x0, x1, f0, f1, epsilon, max_iter)


def load_problem(path, epsilon_override=None):
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read(), epsilon_override)


def set_to_dict(vset):
    if isinstance(vset, Ball):
        return {"kind": "ball", "r": vset.r}
    if isinstance(vset, Ellipse):
        return {"kind": "ellipse", "a": vset.a, "b": vset.b, "rot": vset.rot}
    return {"kind": "polygon", "vertices": vset.vertices.tolist()}


def problem_to_dict(problem):
    return {
        "x0": list(problem.x0),
        "x1": list(problem.x1),
        "F0": set_to_dict(problem.F0),
        "F1": set_to_dict(problem.F1),
        "epsilon": problem.epsilon,
        "max_iter": problem.max_iter,
    }


def dump_problem(problem):
    return json.dumps(problem_to_dict(problem), indent=2) + "\n"


def parse_sweep(text, epsilon_override=None):
    """Parse sweep-file text into a SweepSpec (sets validated)."""
    doc = _read_document(text, SWEEP_KEYS, ("x0", "F0", "F1", "x1_grid"), "sweep")
    grid = doc["x1_grid"]
    _check_keys(grid, GRID_KEYS, "x1_grid")
    for key in GRID_KEYS:
        if key not in grid:
            raise ProblemFormatError(f"x1_grid: missing key {key!r}")
        if not isinstance(grid[key], (int, float)):
            raise ProblemFormatError(f"x1_grid: key {key!r} must be a number")
    nx, ny = grid["nx"], grid["ny"]
    if not (isinstance(nx, int) and isinstance(ny, int) and nx >= 1 and ny >= 1):
        raise ProblemFormatError("x1_grid: 'nx' and 'ny' must be integers >= 1")
    epsilon, max_iter = _tolerances(doc, epsilon_override)
    x0 = _point(doc, "x0")
    f0 = parse_set(doc["F0"], "F0")
    f1 = parse_set(doc["F1"], "F1")
    if not grid["ymin"] > 0:
        raise ValidationError("x1_grid: ymin must be positive (targets above the interface)")
    # Validate everything once up front with a representative target.
    probe = make_problem(
        x0, np.array([grid["xmin"], grid["ymin"]]), f0, f1, epsilon, max_iter
    )
    return SweepSpec(
        x0=probe.x0,
        F0=probe.F0,
        F1=probe.F1,
        epsilon=probe.epsilon,
        max_iter=probe.max_iter,
        xmin=float(grid["xmin"]),
        xmax=float(grid["xmax"]),
        ymin=float(grid["ymin"]),
        ymax=float(grid["ymax"]),
        nx=nx,
        ny=ny,
    )


def load_sweep(path, epsilon_override=None):
    with open(path, encoding="utf-8") as fh:
        return parse_sweep(fh.read(), epsilon_override)


def sweep_grid(spec):
    """Grid targets in row-major order: y varies over rows, x within a row."""
    xs = np.linspace(spec.xmin, spec.xmax, spec.nx) if spec.nx > 1 else np.array([spec.xmin])
    ys = np.linspace(spec.ymin, spec.ymax, spec.ny) if spec.ny > 1 else np.array([spec.ymin])
    return xs, ys


def sweep_problem(spec, x1x, x1y):
    return ElvisProblem(
        spec.x0,
        np.array([x1x, x1y]),
        spec.F0,
        spec.F1,
        spec.epsilon,
        spec.max_iter,
    )
