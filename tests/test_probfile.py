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


@pytest.mark.parametrize("vertex, message", [
    ([1, "1"], "F1: vertex coordinate must be a finite number"),
    ([1, True], "F1: vertex coordinate must be a finite number"),
    ([1, 2, 3], "F1: vertex must be a pair of numbers"),
])
def test_vertex_messages(vertex, message):
    bad = json.dumps({"x0": [0, -1], "x1": [0, 1], "F0": {"kind": "ball", "r": 1},
                      "F1": {"kind": "polygon", "vertices": [[1, -1], vertex, [-1, 1]]}})
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(bad)
    assert str(info.value) == message


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


def test_sweep_gauge_floor_messages():
    """A grid row under the gauge floor is named as the grid's; an x0 under it keeps
    make_problem's message.  The spec keeps x1 = (xmin, min(ymin, ymax))."""
    low_grid = dict(SWEEP, x1_grid=dict(SWEEP["x1_grid"], ymin=1e-310))
    with pytest.raises(ValidationError, match=r"^x1_grid: min\(ymin, ymax\)/F1.circumradius"):
        parse_sweep(json.dumps(low_grid))
    with pytest.raises(ValidationError, match=r"^\|x0_y\|/F0.circumradius and x1_y"):
        parse_sweep(json.dumps(dict(SWEEP, x0=[0, -1e-310])))
    high_first = dict(SWEEP, x1_grid=dict(SWEEP["x1_grid"], ymin=3))
    assert parse_sweep(json.dumps(high_first)).x1.tolist() == [-2, 2]


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


@pytest.mark.parametrize("encode", [
    lambda t: t.encode(), lambda t: bytearray(t.encode()), lambda t: t.encode("utf-8-sig"),
    lambda t: t.encode("utf-16"), lambda t: bytearray(t.encode("utf-32-le")),
], ids=["utf8", "utf8_bytearray", "utf8_bom", "utf16", "utf32le_bytearray"])
def test_bytes_texts(encode):
    """Bytes and bytearrays decode as json.loads decodes them, to the str text's problem and
    sweep."""
    text = json.dumps(json.loads(ELLIPTIC) | {"F1": {"kind": "polygon", "vertices": [
        [1, 0.25], [0, 1.25], [-1, 0.25], [0, -0.75]]}})
    assert dump_problem(parse_problem(encode(text))) == dump_problem(parse_problem(text))
    want, got = parse_sweep(json.dumps(SWEEP)), parse_sweep(encode(json.dumps(SWEEP)))
    assert repr(got) == repr(want)


@pytest.mark.parametrize("data", [b"\x80abc", b"\xff\xfe\x00", bytearray(b'{"x0": "\xe9"}')],
                         ids=["utf8_start", "utf16_truncated", "latin1_bytearray"])
@pytest.mark.parametrize("parse", [parse_problem, parse_sweep])
def test_undecodable_bytes(parse, data):
    """Bytes that do not decode are a parse error, as a file that is not UTF-8 is."""
    with pytest.raises(ProblemFormatError, match="not UTF-8, UTF-16 or UTF-32"):
        parse(data)


def test_byte_order_mark_in_str():
    """A str that starts with a byte order mark stays refused, as json.loads refuses it."""
    with pytest.raises(ProblemFormatError, match="BOM"):
        parse_problem("\ufeff" + ELLIPTIC)


@pytest.mark.parametrize("parse", [parse_problem, parse_sweep])
def test_text_type(parse):
    """A text that is neither str, bytes nor bytearray is a caller's error, as in json.loads."""
    with pytest.raises(TypeError, match="str, bytes or bytearray, not NoneType"):
        parse(None)
