"""Problem and sweep files: JSON documents with a fixed key set.

Unknown keys are rejected so that typos fail loudly, and every number must be
a finite JSON number (not a string, boolean, NaN or Infinity).  Parsing errors
raise ProblemFormatError with the offending key named; semantic violations
raise the usual ValidationError subclasses.
"""

import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ProblemFormatError, ValidationError
from .geometry import Ball, Ellipse, Polygon
from .solver import ElvisProblem, make_problem

PROBLEM_KEYS = ("x0", "x1", "F0", "F1", "epsilon", "max_iter")
SWEEP_KEYS = ("x0", "F0", "F1", "epsilon", "max_iter", "x1_grid")
GRID_KEYS = ("xmin", "xmax", "ymin", "ymax", "nx", "ny")
# Set kinds whose fields are numbers: kind -> (class, {field: its default, or
# MISSING if the field is required}), read off the dataclass.  The other kind,
# "polygon", has the one field "vertices".
NUMERIC_SETS = {
    kind: (cls, {f.name: f.default for f in dataclasses.fields(cls)})
    for kind, cls in (("ball", Ball), ("ellipse", Ellipse))
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


def _object(obj, where, required, allowed):
    """obj itself, checked to be a JSON object with every required key and no other than allowed."""
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ProblemFormatError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ProblemFormatError(f"{where}: missing key {key!r}")
    return obj


def _number(val, what, integer=False):
    """val itself, checked to be a finite JSON number (an integer if asked).

    Booleans are not numbers; NaN, Infinity and integers beyond the float
    range fail the magnitude test.
    """
    if (isinstance(val, bool) or not isinstance(val, int if integer else (int, float))
            or not abs(val) <= sys.float_info.max):
        raise ProblemFormatError(f"{what} must be {'an integer' if integer else 'a finite number'}")
    return val


def _pair(val, what):
    if not isinstance(val, list) or len(val) != 2:
        raise ProblemFormatError(f"{what} must be a pair of numbers")
    return [_number(c, f"{what} coordinate") for c in val]


def parse_set(obj, where):
    """Tagged set descriptor -> unvalidated velocity set."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "polygon":
        verts = _object(obj, where, ("vertices",), ("kind", "vertices"))["vertices"]
        if not isinstance(verts, list):
            raise ProblemFormatError(f"{where}: key 'vertices' must be a list of pairs")
        return Polygon([_pair(p, f"{where}: vertex") for p in verts])
    if not (isinstance(kind, str) and kind in NUMERIC_SETS):
        raise ProblemFormatError(f"{where}: 'kind' must be ball, ellipse or polygon, got {kind!r}")
    cls, fields = NUMERIC_SETS[kind]
    required = [name for name, default in fields.items() if default is dataclasses.MISSING]
    _object(obj, where, required, ("kind", *fields))
    return cls(**{
        name: float(_number(obj.get(name, default), f"{where}: key {name!r}"))
        for name, default in fields.items()
    })


def _read_document(text, where, required, allowed):
    """JSON text -> its top-level object, checked by _object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from None
    return _object(doc, where, required, allowed)


def _tolerances(doc, epsilon_override):
    """(epsilon, max_iter) from the document, or epsilon_override if given."""
    epsilon = _number(doc.get("epsilon", 1e-12), "key 'epsilon'")
    max_iter = _number(doc.get("max_iter", 200), "key 'max_iter'", integer=True)
    return (epsilon if epsilon_override is None else epsilon_override), max_iter


def parse_problem(text, epsilon_override=None):
    """Parse problem-file text into a validated ElvisProblem."""
    doc = _read_document(text, "problem", ("x0", "x1", "F0", "F1"), PROBLEM_KEYS)
    x0 = np.array(_pair(doc["x0"], "key 'x0'"), dtype=float)
    x1 = np.array(_pair(doc["x1"], "key 'x1'"), dtype=float)
    f0 = parse_set(doc["F0"], "F0")
    f1 = parse_set(doc["F1"], "F1")
    epsilon, max_iter = _tolerances(doc, epsilon_override)
    return make_problem(x0, x1, f0, f1, epsilon, max_iter)


def _read_text(path):
    """The file's text; bytes that are not UTF-8 raise ProblemFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"file is not UTF-8 text: {exc}") from None


def load_problem(path, epsilon_override=None):
    return parse_problem(_read_text(path), epsilon_override)


def set_to_dict(vset):
    for kind, (cls, fields) in NUMERIC_SETS.items():
        if type(vset) is cls:
            return {"kind": kind, **{name: getattr(vset, name) for name in fields}}
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
    """Parse sweep-file text into a SweepSpec (sets validated, grid above the interface)."""
    doc = _read_document(text, "sweep", ("x0", "F0", "F1", "x1_grid"), SWEEP_KEYS)
    grid = _object(doc["x1_grid"], "x1_grid", GRID_KEYS, GRID_KEYS)
    xmin, xmax, ymin, ymax, nx, ny = (
        _number(grid[key], f"x1_grid: key {key!r}", integer=key in ("nx", "ny"))
        for key in GRID_KEYS
    )
    if not (nx >= 1 and ny >= 1):
        raise ProblemFormatError("x1_grid: 'nx' and 'ny' must be integers >= 1")
    epsilon, max_iter = _tolerances(doc, epsilon_override)
    x0 = np.array(_pair(doc["x0"], "key 'x0'"), dtype=float)
    f0 = parse_set(doc["F0"], "F0")
    f1 = parse_set(doc["F1"], "F1")
    if not (ymin > 0 and ymax > 0):
        raise ValidationError("x1_grid: ymin and ymax must be positive (above the interface)")
    # Validate everything once up front with a representative target.
    probe = make_problem(x0, np.array([xmin, ymin]), f0, f1, epsilon, max_iter)
    return SweepSpec(
        x0=probe.x0,
        F0=probe.F0,
        F1=probe.F1,
        epsilon=probe.epsilon,
        max_iter=probe.max_iter,
        xmin=float(xmin),
        xmax=float(xmax),
        ymin=float(ymin),
        ymax=float(ymax),
        nx=nx,
        ny=ny,
    )


def load_sweep(path, epsilon_override=None):
    return parse_sweep(_read_text(path), epsilon_override)


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
