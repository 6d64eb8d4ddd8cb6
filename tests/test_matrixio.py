"""JSON matrix serialization: exact round-trips and precise error reporting."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
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
    return orjson.dumps({"n": n, "data": data}).decode()


@pytest.mark.parametrize("A", [
    np.array([[-0.0, 5e-324 - 0.0j], [1e308, complex(-1e308, -5e-324)]]),
    np.array([[complex(-0.0, -0.0)]]),
    np.random.default_rng(64).normal(size=(64, 64, 2)) @ [1.0, 1.0j],
], ids=["extremes", "negative-zeros", "random64"])
def test_dumps_matches_per_entry_text(A):
    text = dumps_matrix(A)
    assert text == _per_entry_text(A)
    # any JSON reader gets the same doubles back, signs of zeros included
    back = np.array(json.loads(text)["data"])
    assert back.tobytes() == np.stack([A.real, A.imag], axis=-1).tobytes()


@pytest.mark.parametrize("order", ["fortran", "transposed"])
def test_dumps_non_contiguous_matches_c_copy(order):
    A = np.random.default_rng(5).normal(size=(5, 5, 2)) @ [1.0, 1.0j]
    M = np.asfortranarray(A) if order == "fortran" else A.T
    assert not M.flags.c_contiguous
    assert dumps_matrix(M) == dumps_matrix(np.ascontiguousarray(M))
    assert np.array_equal(loads_matrix(dumps_matrix(M)), M)


# Inputs that orjson refuses or reads differently from json, with the
# messages the json-only reader gave them
@pytest.mark.parametrize("text, message", [
    ('{"n": 2, "data": [[[1, 0], [0, 0]], [[Infinity, 0], [1, 0]]]}',
     "data[1][0] has non-finite entry [inf, 0.0]"),
    ('{"n": 2, "data": [[[1, 0], [0, -Infinity]], [[0, 0], [1, 0]]]}',
     "data[0][1] has non-finite entry [0.0, -inf]"),
    ('{"n": 2, "data": [[[1, 0], [0, 0]], [[0, 0], [1e400, 0]]]}',
     "data[1][1] has non-finite entry [inf, 0.0]"),
    ('{"n": 18446744073709551616, "data": [[[1, 0]]]}',
     "field 'data' must be a list of 18446744073709551616 rows, got 1"),
    ('\ufeff{"n": 1, "data": [[[1, 0]]]}',
     "invalid json at line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ('{"n": 1, "data": [[["\\ud800", 0]]]}',
     "data[0][0] must be a [re, im] pair of numbers, got ['\\ud800', 0]"),
    ('{"n": 1, "data": [[[1, 0]]]} []',
     "invalid json at line 1 column 30: Extra data"),
], ids=["infinity", "minus-infinity", "1e400", "n-2^64", "bom", "lone-surrogate", "trailing-text"])
def test_refusals_keep_their_messages(text, message):
    with pytest.raises(MatrixFormatError) as exc:
        loads_matrix(text)
    assert str(exc.value) == message


def _decimals():
    """Decimal strings that are not the shortest repr of their double."""
    rng = random.Random(2024)
    out = ["2.4703282292062328e-324", "2.2250738585072011e-308",
           "1.7976931348623158e308", "9007199254740993", "9007199254740993.0"]
    for digits in range(17, 26):
        for _ in range(20):
            mantissa = "".join(rng.choice("0123456789") for _ in range(digits - 1))
            out.append(f"{'-' * rng.randint(0, 1)}{rng.randint(1, 9)}.{mantissa}e{rng.randint(-300, 300)}")
    while len(out) < 5 + 9 * 20 + 2000:
        digits = rng.randint(1, 25)
        mantissa = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(digits - 1))
        text = f"{'-' * rng.randint(0, 1)}{mantissa[0]}.{mantissa[1:] or '0'}e{rng.randint(-330, 308)}"
        if math.isfinite(float(text)):
            out.append(text)
    return out


def test_parsing_matches_float_on_long_decimals():
    strings = _decimals()
    n = math.isqrt(len(strings) // 2) + 1
    strings += ["0"] * (2 * n * n - len(strings))
    entries = [f"[{strings[k]}, {strings[k + 1]}]" for k in range(0, len(strings), 2)]
    rows = [f"[{', '.join(entries[i * n:(i + 1) * n])}]" for i in range(n)]
    M = loads_matrix(f'{{"n": {n}, "data": [{", ".join(rows)}]}}')
    expected = np.array([float(s) for s in strings]).reshape(n, n, 2)
    assert M.view(np.float64).reshape(n, n, 2).tobytes() == expected.tobytes()


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


def test_matrix_past_the_orjson_bracket_bound_round_trips():
    A = np.random.default_rng(71).normal(size=(71, 71, 2)) @ [1.0, 1.0j]
    assert np.array_equal(loads_matrix(dumps_matrix(A)), A)


def test_deep_nesting_raises_rather_than_crashing():
    # orjson recurses in C and would overflow the stack at this depth; json
    # stops at Python's recursion limit, which is a format error. A fresh
    # process, so that a crash fails this test and not the run.
    probe = (
        "from sectormeans import MatrixFormatError, loads_matrix\n"
        "deep = '[' * 200000 + ']' * 200000\n"
        "try:\n"
        "    loads_matrix('{\"n\": 1, \"data\": [[[1, 0]]], \"x\": ' + deep + '}')\n"
        "except MatrixFormatError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "invalid json: nested too deeply to read\n"), proc.stderr


@pytest.mark.parametrize("depth", [990, 995, 1000])
def test_an_entry_nested_to_the_recursion_limit_is_a_format_error(depth):
    # json reads this entry, but its repr in the refusal message passes
    # Python's recursion limit
    nest = "[" * depth + "]" * depth
    with pytest.raises(MatrixFormatError, match="nested too deeply"):
        loads_matrix('{"n": 1, "data": [[' + nest + "]]}")


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


def _text_mode_read(path):
    """What parse_matrix gave when it read the file in text mode and handed
    the text to loads_matrix: the matrix, or the message of its refusal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
    try:
        return loads_matrix(text)
    except MatrixFormatError as exc:
        return f"{path}: {exc}"


def _read(path):
    try:
        return parse_matrix(path)
    except MatrixFormatError as exc:
        return str(exc)


def _same(got, expected):
    if isinstance(expected, str):
        return got == expected
    return isinstance(got, np.ndarray) and got.dtype == expected.dtype and (
        got.shape == expected.shape and got.tobytes() == expected.tobytes())


def _number(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return str(rng.randint(-10**6, 10**6))
    if kind == 1:
        return rng.choice(["-0.0", "-0", "0", "0.0", "-0e0"])
    if kind == 2:
        return f"{rng.uniform(-9, 9):.{rng.randint(1, 17)}f}{rng.choice('eE')}{rng.choice(['', '+', '-'])}{rng.randint(0, 300)}"
    if kind == 3:
        return rng.choice(["5e-324", "-4.9e-324", "2.2250738585072009e-308", "1e-310", "1.7976931348623157e308"])
    if kind == 4:
        return str(2**64 + rng.randint(0, 9))
    return repr(rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300))


def _numbers_only_text(n, rng):
    """A schema-valid file text of numbers only, with varied spacing and key order."""

    def gap():
        return "".join(rng.choice([" ", "\n", "\t", "\r\n", "\r", ""]) for _ in range(rng.randint(0, 2)))

    def entry():
        return f"[{gap()}{_number(rng)}{gap()},{gap()}{_number(rng)}{gap()}]"

    rows = [f"[{gap()}" + f"{gap()},{gap()}".join(entry() for _ in range(n)) + f"{gap()}]" for _ in range(n)]
    data = f'"data"{gap()}:{gap()}[{gap()}' + ",".join(rows) + f"{gap()}]"
    size = f'"n"{gap()}:{gap()}{n}'
    fields = [size, data] if rng.random() < 0.5 else [data, size]
    return f"{gap()}{{{gap()}{fields[0]}{gap()},{gap()}{fields[1]}{gap()}}}{gap()}"


def test_numbers_only_files_read_as_the_text_reader_read_them(tmp_path, monkeypatch):
    # a file of numbers only is read by orjson from its bytes, with no walk
    # over its scalars' types and never by json, into the bits the
    # text-mode reader gave and json with one array conversion gives
    from sectormeans import matrixio

    rng = random.Random(31)
    expected = {}
    for n in (*range(1, 13), 16, 24, 32, 48, 64, 69, 70):
        path = tmp_path / f"m{n}.json"
        text = _numbers_only_text(n, rng)
        path.write_bytes(text.encode())
        expected[path] = _text_mode_read(path)
        assert isinstance(expected[path], np.ndarray), expected[path]
        flat = np.array(json.loads(text)["data"], dtype=np.float64)
        assert _same(expected[path], flat.view(np.complex128).reshape(n, n)), path

    def refuse(text):
        raise AssertionError("json read the text")

    flags = []
    pairs = matrixio._pairs
    monkeypatch.setattr(matrixio, "_json_read", refuse)
    monkeypatch.setattr(matrixio, "_pairs", lambda data, n, numbers_only: flags.append(numbers_only) or pairs(data, n, numbers_only))
    for path, matrix in expected.items():
        assert _same(parse_matrix(path), matrix), path
    assert flags == [True] * len(expected)


ONE = b'{"n": 1, "data": [[[1.5, -2]]]}'
TWO = b'{"n": 2, "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'


@pytest.mark.parametrize("raw", [
    ONE.replace(b"}", b', "x": 1}'),
    ONE.replace(b"1.5", b"true"),
    ONE.replace(b"-2", b"false"),
    ONE.replace(b"1.5", b'"1.5"'),
    ONE.replace(b"1.5", b"null"),
    ONE.replace(b'"n"', b'"\\u006e"'),
    ONE.replace(b'"n": 1', b'"n": 1.0'),
    TWO.replace(b"[[0, 0], [1, 0]]]", b"[[0, 0]]]"),
    TWO.replace(b"[[[1, 0], [0, 0]]", b"[[[1, 0, 0], [0, 0]]"),
    TWO.replace(b"[[[1, 0]", b"[[[1]"),
    TWO.replace(b"[[0, 0], [1, 0]]]", b"[[0, 0], [1, 0]], []]"),
    TWO.replace(b"[[0, 0], [1, 0]]]", b"[[0, 0], [1, {}]]]"),
    ONE.replace(b"1.5", b"NaN"),
    ONE.replace(b"1.5", b"Infinity"),
    ONE.replace(b"1.5", b"1e400"),
    ONE.replace(b"1.5", b"1" + b"0" * 400),
    ONE.replace(b'"n": 1', b'"n": 18446744073709551616'),
    b"\xef\xbb\xbf" + ONE,
    ONE.replace(b"1.5", b"1.5\xff"),
    ONE.replace(b'"n"', b'"\xc3\xa9"'),
    ONE[:-3],
    ONE.replace(b", ", b",\r").replace(b"]]]", b"]]],\r"),
    ONE.replace(b", ", b",\r\n").replace(b"]]]", b"]]],\r\n"),
    ONE.replace(b"[[[1.5, -2]]]", b"[" * 6000 + b"]" * 6000),
    ONE + b" []",
    b"",
], ids=["extra-key", "true", "false", "string", "null", "escaped-key", "float-n", "short-data",
        "long-row", "short-entry", "extra-row", "object-entry", "nan", "infinity", "1e400",
        "huge-integer", "n-2^64", "bom", "invalid-utf8", "non-ascii-key", "truncated",
        "cr-lines", "crlf-lines", "deep", "trailing-text", "empty"])
def test_other_texts_keep_the_text_readers_result(tmp_path, raw):
    # every text that is not a schema-valid file of numbers only has the
    # result or the message the text-mode reader gave it
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    assert _same(_read(path), _text_mode_read(path))


def test_a_file_past_the_bracket_bound_is_read_by_json(tmp_path, monkeypatch):
    # n = 71 has 5114 brackets, more than orjson may nest, so json reads it
    from sectormeans import matrixio

    A = np.random.default_rng(71).normal(size=(71, 71, 2)) @ [1.0, 1.0j]
    path = tmp_path / "m71.json"
    write_matrix(A, path)
    calls = []
    read = matrixio._json_read
    monkeypatch.setattr(matrixio, "_json_read", lambda text: calls.append(1) or read(text))
    assert np.array_equal(parse_matrix(path), A) and calls == [1]
