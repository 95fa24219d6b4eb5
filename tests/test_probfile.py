import json

import numpy as np
import pytest

from elvis import (
    Ball,
    Ellipse,
    Polygon,
    ProblemFormatError,
    ValidationError,
    dump_problem,
    parse_problem,
    parse_sweep,
)
from elvis.probfile import problem_to_dict

ELLIPTIC = json.dumps({
    "x0": [-1, -1],
    "x1": [1, 1],
    "F0": {"kind": "ellipse", "a": 1, "b": 0.5},
    "F1": {"kind": "ellipse", "a": 2, "b": 1},
})


def test_parse_defaults():
    p = parse_problem(ELLIPTIC)
    assert p.epsilon == 1e-12
    assert p.max_iter == 200
    assert isinstance(p.F0, Ellipse)
    assert p.F0.rot == 0.0


def test_parse_all_kinds():
    text = json.dumps({
        "x0": [0, -1], "x1": [1, 2],
        "F0": {"kind": "ball", "r": 1.5},
        "F1": {"kind": "polygon", "vertices": [[1, 1], [0, 1], [-1, 1], [-1, -1], [1, -1]]},
        "epsilon": 1e-10, "max_iter": 50,
    })
    p = parse_problem(text)
    assert isinstance(p.F0, Ball)
    assert isinstance(p.F1, Polygon)
    # Validated: the edge midpoint (0, 1) is gone.
    assert p.F1.vertices.tolist() == [[1, 1], [-1, 1], [-1, -1], [1, -1]]
    assert p.epsilon == 1e-10
    assert p.max_iter == 50


def test_unknown_key_named():
    bad = json.dumps({"x0": [0, -1], "x1": [0, 1], "F0": {"kind": "ball", "r": 1},
                      "F1": {"kind": "ball", "r": 1}, "eps": 1e-9})
    with pytest.raises(ProblemFormatError, match="'eps'"):
        parse_problem(bad)


def test_unknown_set_key_named():
    bad = json.dumps({"x0": [0, -1], "x1": [0, 1],
                      "F0": {"kind": "ball", "r": 1, "radius": 2},
                      "F1": {"kind": "ball", "r": 1}})
    with pytest.raises(ProblemFormatError, match="'radius'"):
        parse_problem(bad)


def test_missing_key():
    with pytest.raises(ProblemFormatError, match="'x1'"):
        parse_problem(json.dumps({"x0": [0, -1], "F0": {"kind": "ball", "r": 1},
                                  "F1": {"kind": "ball", "r": 1}}))


def test_invalid_json():
    with pytest.raises(ProblemFormatError):
        parse_problem("{not json")


def test_validation_propagates():
    bad = json.dumps({"x0": [0, 0], "x1": [0, 1], "F0": {"kind": "ball", "r": 1},
                      "F1": {"kind": "ball", "r": 1}})
    with pytest.raises(ValidationError):
        parse_problem(bad)


def test_epsilon_override():
    p = parse_problem(ELLIPTIC, epsilon_override=1e-6)
    assert p.epsilon == 1e-6


def test_round_trip():
    text = json.dumps({
        "x0": [-0.25, -1.5], "x1": [0.75, 2.0],
        "F0": {"kind": "ellipse", "a": 1.25, "b": 0.5, "rot": 0.3},
        "F1": {"kind": "polygon", "vertices": [[1, 0.25], [0, 1.25], [-1, 0.25], [0, -0.75]]},
        "epsilon": 1e-11, "max_iter": 77,
    })
    p1 = parse_problem(text)
    p2 = parse_problem(dump_problem(p1))
    d1, d2 = problem_to_dict(p1), problem_to_dict(p2)
    assert d1 == d2
    assert np.array_equal(p1.x0, p2.x0)
    assert np.array_equal(p1.x1, p2.x1)
    assert np.array_equal(p1.F1.vertices, p2.F1.vertices)
    assert p1.F0 == p2.F0
    assert p1.epsilon == p2.epsilon and p1.max_iter == p2.max_iter


SWEEP = {
    "x0": [0, -1],
    "F0": {"kind": "ball", "r": 1},
    "F1": {"kind": "ball", "r": 1},
    "x1_grid": {"xmin": -2, "xmax": 2, "ymin": 0.5, "ymax": 2, "nx": 5, "ny": 2},
}


def test_parse_sweep():
    spec = parse_sweep(json.dumps(SWEEP))
    assert spec.nx == 5 and spec.ny == 2
    assert spec.epsilon == 1e-12


def test_sweep_requires_positive_ymin():
    bad = dict(SWEEP, x1_grid=dict(SWEEP["x1_grid"], ymin=0))
    with pytest.raises(ValidationError, match="ymin"):
        parse_sweep(json.dumps(bad))


def test_sweep_unknown_grid_key():
    bad = dict(SWEEP, x1_grid=dict(SWEEP["x1_grid"], zmax=1))
    with pytest.raises(ProblemFormatError, match="'zmax'"):
        parse_sweep(json.dumps(bad))


@pytest.mark.parametrize("key, value", [
    ("epsilon", "x"), ("epsilon", True), ("max_iter", "5"), ("max_iter", 2.5), ("max_iter", True),
])
@pytest.mark.parametrize("parse, doc", [
    (parse_problem, json.loads(ELLIPTIC)), (parse_sweep, SWEEP),
], ids=["problem", "sweep"])
def test_tolerance_types(parse, doc, key, value):
    with pytest.raises(ProblemFormatError, match=f"'{key}'"):
        parse(json.dumps(dict(doc, **{key: value})))
