"""Problem and sweep files: JSON documents with a fixed key set.

Unknown and repeated keys are rejected so that typos fail loudly, and every
number must be a finite JSON number (not a string, boolean, NaN or
Infinity).  Parsing errors raise ProblemFormatError with the offending key
named; semantic violations raise the usual ValidationError subclasses.
"""

import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ProblemFormatError, ValidationError
from .geometry import Ball, Ellipse, Polygon
from .solver import _GAUGE_FLOOR, ElvisProblem, make_problem

PROBLEM_KEYS = ("x0", "x1", "F0", "F1", "epsilon", "max_iter")
SWEEP_KEYS = ("x0", "F0", "F1", "epsilon", "max_iter", "x1_grid")
GRID_KEYS = ("xmin", "xmax", "ymin", "ymax", "nx", "ny")
# The types json.loads gives a JSON number (bool is neither) and the largest magnitude kept.
_NUMBER, _INTEGER, _FLOAT_MAX = (int, float), (int,), sys.float_info.max
MAX_GRID_AXIS = 10**7  # one axis array is then 80 MB, one line of nodes an hour's work
# Set kinds whose fields are numbers: kind -> (class, {field: its default, or
# MISSING if the field is required}), read off the dataclass.  The other kind,
# "polygon", has the one field "vertices".
NUMERIC_SETS = {
    kind: (cls, {f.name: f.default for f in dataclasses.fields(cls)})
    for kind, cls in (("ball", Ball), ("ellipse", Ellipse))
}


@dataclass(frozen=True, kw_only=True)
class SweepSpec(ElvisProblem):
    """A problem validated at x1 = (xmin, min(ymin, ymax)) plus a grid of targets above the
    interface."""

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


def _is_number(val, integer=False):
    """Whether val is a finite JSON number (an integer if asked).

    Booleans are not numbers; NaN, Infinity and integers beyond the float
    range fail the magnitude test.
    """
    return type(val) in (_INTEGER if integer else _NUMBER) and abs(val) <= _FLOAT_MAX


def _number(val, what, integer=False):
    """val itself, checked by _is_number."""
    if not _is_number(val, integer):
        raise ProblemFormatError(f"{what} must be {'an integer' if integer else 'a finite number'}")
    return val


def _pair(val, *what):
    """val itself, checked to be a list of two finite numbers; the parts of what, joined
    by ': ', name it in an error message, which is built only when raised."""
    if not isinstance(val, list) or len(val) != 2:
        raise ProblemFormatError(f"{': '.join(what)} must be a pair of numbers")
    x, y = val  # _is_number's test, written out: it runs for every vertex
    if not (type(x) in _NUMBER and type(y) in _NUMBER and abs(x) <= _FLOAT_MAX and abs(y) <= _FLOAT_MAX):
        raise ProblemFormatError(f"{': '.join(what)} coordinate must be a finite number")
    return val


def parse_set(obj, where):
    """Tagged set descriptor -> unvalidated velocity set."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "polygon":
        verts = _object(obj, where, ("vertices",), ("kind", "vertices"))["vertices"]
        if not isinstance(verts, list):
            raise ProblemFormatError(f"{where}: key 'vertices' must be a list of pairs")
        return Polygon([_pair(p, where, "vertex") for p in verts])
    if not (isinstance(kind, str) and kind in NUMERIC_SETS):
        raise ProblemFormatError(f"{where}: 'kind' must be ball, ellipse or polygon, got {kind!r}")
    cls, fields = NUMERIC_SETS[kind]
    required = [name for name, default in fields.items() if default is dataclasses.MISSING]
    _object(obj, where, required, ("kind", *fields))
    return cls(**{
        name: float(_number(obj.get(name, default), f"{where}: key {name!r}"))
        for name, default in fields.items()
    })


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict; a key given twice raises ProblemFormatError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ProblemFormatError(f"repeated key {repeated!r}")
    return obj


# One decoder for every document: json.loads with a hook builds a new one on every call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _read_document(text, where, required, allowed):
    """JSON text -> its top-level object, checked by _object.

    text is a str, or bytes or a bytearray in UTF-8, UTF-16 or UTF-32, decoded
    as json.loads decodes them; bytes that do not decode, like text that is
    not JSON, raise ProblemFormatError.
    """
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        elif not isinstance(text, str):
            raise TypeError(f"the text must be str, bytes or bytearray, not {type(text).__name__}")
        elif text[:1] == "\ufeff":  # as json.loads refuses a str with a byte order mark
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"text is not UTF-8, UTF-16 or UTF-32: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from None
    return _object(doc, where, required, allowed)


def _tolerances(doc, epsilon_override):
    """(epsilon, max_iter) from the document, or epsilon_override if given."""
    epsilon = _number(doc.get("epsilon", 1e-12), "key 'epsilon'")
    max_iter = _number(doc.get("max_iter", 200), "key 'max_iter'", integer=True)
    return (epsilon if epsilon_override is None else epsilon_override), max_iter


def parse_problem(text, epsilon_override=None):
    """Parse problem-file text, a str or UTF-8, UTF-16 or UTF-32 bytes or bytearray, into a
    validated ElvisProblem."""
    doc = _read_document(text, "problem", ("x0", "x1", "F0", "F1"), PROBLEM_KEYS)
    x0 = _pair(doc["x0"], "key 'x0'")
    x1 = _pair(doc["x1"], "key 'x1'")
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
    """Parse sweep-file text, a str or UTF-8, UTF-16 or UTF-32 bytes or bytearray, into a
    SweepSpec (sets validated, grid above the interface).

    The grid's spans xmax - xmin and ymax - ymin must be finite, and its lowest row,
    min(ymin, ymax), must pass `make_problem`'s gauge floor, checked apart from x0's so
    that the error names x1_grid.
    """
    doc = _read_document(text, "sweep", ("x0", "F0", "F1", "x1_grid"), SWEEP_KEYS)
    grid = _object(doc["x1_grid"], "x1_grid", GRID_KEYS, GRID_KEYS)
    xmin, xmax, ymin, ymax, nx, ny = (
        _number(grid[key], f"x1_grid: key {key!r}", integer=key in ("nx", "ny"))
        for key in GRID_KEYS
    )
    if not (1 <= nx <= MAX_GRID_AXIS and 1 <= ny <= MAX_GRID_AXIS):
        raise ProblemFormatError(f"x1_grid: 'nx' and 'ny' must be integers from 1 to {MAX_GRID_AXIS}")
    epsilon, max_iter = _tolerances(doc, epsilon_override)
    x0 = _pair(doc["x0"], "key 'x0'")
    f0 = parse_set(doc["F0"], "F0")
    f1 = parse_set(doc["F1"], "F1")
    if not (ymin > 0 and ymax > 0):
        raise ValidationError("x1_grid: ymin and ymax must be positive (above the interface)")
    xmin, xmax, ymin, ymax = float(xmin), float(xmax), float(ymin), float(ymax)
    if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
        raise ValidationError("x1_grid: xmax - xmin and ymax - ymin must be finite")
    # Validate x0, the sets and the tolerances once up front, at a target that clears the gauge
    # floor for any valid F1, then the grid's lowest row: no node's x1_y is below it, so every
    # node passes make_problem's gauge floor too.
    low = min(ymin, ymax)
    probe = make_problem(x0, np.array([xmin, _FLOAT_MAX]), f0, f1, epsilon, max_iter)
    if not low / probe.F1.circumradius >= _GAUGE_FLOOR:
        raise ValidationError("x1_grid: min(ymin, ymax)/F1.circumradius must be at least 2**-1020")
    return SweepSpec(**dict(vars(probe), x1=np.array([xmin, low])),
                     xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax, nx=nx, ny=ny)


def load_sweep(path, epsilon_override=None):
    return parse_sweep(_read_text(path), epsilon_override)


def sweep_grid(spec):
    """Grid targets in row-major order: y varies over rows, x within a row."""
    xs = np.linspace(spec.xmin, spec.xmax, spec.nx) if spec.nx > 1 else np.array([spec.xmin])
    ys = np.linspace(spec.ymin, spec.ymax, spec.ny) if spec.ny > 1 else np.array([spec.ymin])
    return xs, ys


def sweep_problem(spec, x1x, x1y):
    return ElvisProblem(spec.x0, np.array([x1x, x1y]), spec.F0, spec.F1, spec.epsilon, spec.max_iter)
