"""JSON matrix serialization: exact round-trips and precise error reporting."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sectormeans import MatrixFormatError, dumps_matrix, loads_matrix, parse_matrix, write_matrix

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
entries = st.complex_numbers(allow_nan=False, allow_infinity=False)


def test_identity_round_trip():
    text = dumps_matrix(np.eye(2))
    M = loads_matrix(text)
    assert np.array_equal(M, np.eye(2, dtype=np.complex128))


@given(st.integers(min_value=1, max_value=5), st.data())
def test_round_trip_bit_exact(n, data):
    A = np.array(
        [[data.draw(entries) for _ in range(n)] for _ in range(n)], dtype=np.complex128
    )
    back = loads_matrix(dumps_matrix(A))
    assert np.array_equal(back, A)


def test_extreme_magnitudes_survive():
    A = np.array([[1e-308 + 1e308j, 0.0], [-1.2345678901234567e-17, 5.0]])
    assert np.array_equal(loads_matrix(dumps_matrix(A)), A.astype(np.complex128))


def test_bad_json_reports_position():
    with pytest.raises(MatrixFormatError, match=r"line"):
        loads_matrix('{"n": 2, "data": [[[1, 0], [0, 0]],')


def test_top_level_must_be_object():
    with pytest.raises(MatrixFormatError, match="object"):
        loads_matrix("[1, 2, 3]")


def test_missing_fields():
    with pytest.raises(MatrixFormatError, match="missing required field.*data"):
        loads_matrix('{"n": 1}')
    with pytest.raises(MatrixFormatError, match="missing required field.*n"):
        loads_matrix('{"data": [[[1, 0]]]}')


def test_dimension_validation():
    with pytest.raises(MatrixFormatError, match="positive"):
        loads_matrix('{"n": 0, "data": []}')
    with pytest.raises(MatrixFormatError, match="2 rows"):
        loads_matrix('{"n": 2, "data": [[[1, 0], [0, 0]]]}')
    with pytest.raises(MatrixFormatError, match=r"data\[1\]"):
        loads_matrix('{"n": 2, "data": [[[1, 0], [0, 0]], [[1, 0]]]}')


def test_entry_validation_names_position():
    with pytest.raises(MatrixFormatError, match=r"data\[0\]\[1\]"):
        loads_matrix('{"n": 2, "data": [[[1, 0], [1]], [[0, 0], [1, 0]]]}')
    with pytest.raises(MatrixFormatError, match=r"data\[1\]\[0\]"):
        loads_matrix('{"n": 2, "data": [[[1, 0], [0, 0]], [[NaN, 0], [1, 0]]]}')
    with pytest.raises(MatrixFormatError, match=r"data\[0\]\[0\]"):
        loads_matrix('{"n": 1, "data": [[[true, 0]]]}')


def _per_entry_text(A):
    n = A.shape[0]
    data = [[[float(A[i, j].real), float(A[i, j].imag)] for j in range(n)] for i in range(n)]
    return json.dumps({"n": n, "data": data})


@pytest.mark.parametrize("A", [
    np.array([[-0.0, 5e-324 - 0.0j], [1e308, complex(-1e308, -5e-324)]]),
    np.array([[complex(-0.0, -0.0)]]),
    np.random.default_rng(64).normal(size=(64, 64, 2)) @ [1.0, 1.0j],
], ids=["extremes", "negative-zeros", "random64"])
def test_dumps_matches_per_entry_text(A):
    assert dumps_matrix(A) == _per_entry_text(A)


def test_schema_refuses_numeric_strings_and_huge_integers():
    with pytest.raises(MatrixFormatError, match=r"data\[1\]\[0\]"):
        loads_matrix('{"n": 2, "data": [[[1, 0], [0, 0]], [["1", 0], [1, 0]]]}')
    with pytest.raises(MatrixFormatError, match=r"data\[0\]\[1\].*double range"):
        loads_matrix('{"n": 2, "data": [[[1, 0], [1%s, 0]], [[0, 0], [1, 0]]]}' % ("0" * 400))


def test_file_round_trip_64(tmp_path):
    rng = np.random.default_rng(7)
    A = rng.normal(size=(64, 64)) * 10.0 ** rng.integers(-300, 300, size=(64, 64))
    A = A + 1j * rng.normal(size=(64, 64))
    path = tmp_path / "m64.json"
    write_matrix(A, path)
    assert np.array_equal(parse_matrix(path), A)


def test_file_round_trip(tmp_path):
    A = np.array([[1.5 - 2.5j, 0.25j], [3.0, -1.0]])
    path = tmp_path / "m.json"
    write_matrix(A, path)
    assert np.array_equal(parse_matrix(path), A.astype(np.complex128))


def test_parse_missing_file(tmp_path):
    with pytest.raises(MatrixFormatError, match="nope.json"):
        parse_matrix(tmp_path / "nope.json")


def test_parse_non_utf8_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(MatrixFormatError, match=r"utf16\.json: not UTF-8 text: invalid start byte at byte 0"):
        parse_matrix(path)
