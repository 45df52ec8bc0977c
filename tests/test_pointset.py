import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import complex_vectors
from pensemble.pointset import (
    PointSetFile,
    dumps,
    format_float,
    pointset_from_json,
    pointset_to_json,
    read_pointset,
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x or (x == 0.0 and float(format_float(x)) == 0.0)


def test_format_float_rejects_nonfinite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            format_float(bad)
        with pytest.raises(ValueError):
            dumps({"x": [1.0, bad]})


def test_dumps_shapes_and_parseability():
    doc = {"a": 1, "b": [0.1, -2.5e300, True, None], "c": {"nested": "text \"quoted\""}}
    text = dumps(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["a"] == 1
    assert parsed["b"][0] == 0.1
    assert parsed["b"][1] == -2.5e300
    assert parsed["c"]["nested"] == 'text "quoted"'


def test_dumps_rejects_unserializable():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_pointset_validation():
    pts = np.zeros((2, 3), dtype=complex)
    with pytest.raises(ValueError):
        PointSetFile(space="XX", d=2, seed=1, points=pts, L=1)
    with pytest.raises(ValueError):
        PointSetFile(space="CP", d=2, seed=1, points=pts)  # missing L
    with pytest.raises(ValueError):
        PointSetFile(space="S", d=2, seed=1, points=pts)  # missing k
    with pytest.raises(ValueError):
        PointSetFile(space="CP", d=3, seed=1, points=pts, L=1)  # wrong width


@given(complex_vectors(size=6, lo=-10.0, hi=10.0))
def test_pointset_round_trip_is_bit_exact(row):
    pts = np.stack([row[:3], row[3:]])
    ps = PointSetFile(space="CP", d=2, seed=9, points=pts, L=1)
    text = pointset_to_json(ps)
    back = pointset_from_json(text)
    assert np.array_equal(back.points, pts)
    assert pointset_to_json(back) == text
    assert back.space == "CP" and back.d == 2 and back.L == 1 and back.seed == 9


def test_pointset_round_trip_keeps_negative_zero():
    pts = np.array([[complex(-0.0, 0.5), complex(1.0, -0.0)], [complex(-0.0, -0.0), 1.0]])
    ps = PointSetFile(space="CP", d=1, seed=2**64 - 1, points=pts, L=1)
    text = pointset_to_json(ps)
    back = pointset_from_json(text)
    assert np.array_equal(np.signbit(back.points.real), np.signbit(pts.real))
    assert np.array_equal(np.signbit(back.points.imag), np.signbit(pts.imag))
    assert pointset_to_json(back) == text
    assert back.seed == 2**64 - 1


def test_pointset_reads_seventeen_digit_files():
    # Files written before floats took their shortest form: 17 significant
    # digits, whole numbers as integer tokens, and -0.0 as the token -0.
    text = (
        '{"space":"CP","d":1,"L":1,"seed":4,"points":'
        '[[[0.10000000000000001,-0.69999999999999996],[1,-0]],'
        '[[-0,0.33333333333333331],[2.5,-3]]]}\n'
    )
    ps = pointset_from_json(text)
    expected = np.array([[0.1 - 0.7j, 1.0 + 0.0j], [0.0 + 1.0j / 3.0, 2.5 - 3.0j]])
    assert np.array_equal(ps.points, expected)
    assert not np.signbit(ps.points[0, 1].imag) and not np.signbit(ps.points[1, 0].real)
    assert ps.space == "CP" and ps.d == 1 and ps.L == 1 and ps.seed == 4


def test_pointset_file_io(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    ps = PointSetFile(space="S", d=1, seed=3, points=pts, k=2)
    path = tmp_path / "points.json"
    path.write_text(pointset_to_json(ps), encoding="utf-8")
    back = read_pointset(path)
    assert np.array_equal(back.points, pts)
    assert back.k == 2 and back.L is None


def test_pointset_missing_field_rejected():
    with pytest.raises(ValueError):
        pointset_from_json('{"space": "CP", "d": 2}')


@pytest.mark.parametrize(
    "points, message",
    [
        ([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]]], "same number of coordinates"),
        ([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [True, 0.0]]], r"got \[True, 0.0\]"),
        ([[[1.0, 0.0], ["1.0", 1.0]]], r"got \['1.0', 1.0\]"),
        ([[[1.0, None], [0.0, 1.0]]], r"got \[1.0, None\]"),
        ([[[1.0, 0.0], [0.0, 1.0, 2.0]]], r"got \[0.0, 1.0, 2.0\]"),
        ([[[1.0, 0.0], 0.5]], "got 0.5"),
        ([[[1.0, 0.0], [10**400, 0.0]]], "finite"),
        ([[[1.0, 0.0], [-math.inf, 0.0]]], "finite"),
    ],
    ids=["ragged", "true", "string", "null", "triple", "bare-number", "huge-int", "infinity"],
)
def test_pointset_rejects_malformed_points(points, message):
    doc = {"space": "CP", "d": 1, "L": 1, "seed": 1, "points": points}
    with pytest.raises(ValueError, match=message):
        pointset_from_json(json.dumps(doc))
