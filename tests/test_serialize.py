"""Tests for matrix literals, canonical JSON and config digests."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.errors import InvalidInput
from hyperlab.serialize import (canonical_dumps, config_digest, literal_to_matrix,
                                matrix_to_literal, read_json, write_json)


def test_matrix_literal_roundtrip():
    A = np.array([[1.0 + 2.0j, 0.0], [-0.5j, 3.0]])
    lit = matrix_to_literal(A)
    assert lit[0][0] == [1.0, 2.0]
    assert np.array_equal(literal_to_matrix(lit), A)


def test_literal_shape_and_finite_validation():
    with pytest.raises(InvalidInput):
        literal_to_matrix([[1.0, 2.0]])  # missing [re, im] nesting
    with pytest.raises(InvalidInput):
        literal_to_matrix([[[float("nan"), 0.0]]])
    with pytest.raises(InvalidInput):
        matrix_to_literal(np.array([1.0, 2.0]))


def test_matrix_literal_matches_the_elementwise_form():
    """One tolist of the real view gives the literal of the elementwise
    comprehension, float for float, signed zeros and transposed views too."""
    rng = np.random.default_rng(63)
    mats = [np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0 - 2.5j]]),
            rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
            (rng.standard_normal((3, 3)) + 1j).T, np.arange(6).reshape(2, 3),
            np.zeros((0, 2)), np.zeros((2, 0))]
    for A in mats:
        lit = matrix_to_literal(A)
        ref = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(A, dtype=complex)]
        assert json.dumps(lit) == json.dumps(ref)
        flat = [x for row in lit for z in row for x in z]
        assert all(type(x) is float for x in flat)
        assert [x.hex() for x in flat] == [x.hex() for row in ref for z in row for x in z]
    for bad in (np.array(1.0), np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(InvalidInput):
            matrix_to_literal(bad)


def test_config_digest_is_order_insensitive():
    a = {"d": 3, "generators": [], "tol": 1e-7}
    b = {"tol": 1e-7, "generators": [], "d": 3}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({**a, "d": 4})
    assert len(config_digest(a)) == 64


def test_canonical_dumps_is_compact_and_sorted():
    assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_json_roundtrip_is_byte_stable(tmp_path):
    obj = {"z": [1, 2, 3], "a": {"nested": True, "x": [1.5, -2.25e-17, 0.1], "s": "\u00e9 p/q"},
           "m": [], "b": "text"}
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    write_json(p1, obj)
    write_json(p2, read_json(p1))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() == (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


_leaves = (st.text() | st.sampled_from(["", "\"\\\n\t\x00\x1f\x7f", "\u00e9 p/q", "\U0001f600"])
           | st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e308, float("nan"), float("inf"),
                                             -float("inf")])
           | st.integers() | st.integers(min_value=2**64, max_value=2**200)
           | st.booleans() | st.none() | st.sampled_from([[], {}, ()]))
_objects = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(obj=_objects)
def test_write_json_bytes_match_json_dumps(obj, tmp_path_factory):
    """write_json's own writer against json.dumps on random nested objects."""
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")
