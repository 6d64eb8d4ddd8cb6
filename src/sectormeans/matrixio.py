"""Matrix file I/O.

Schema: UTF-8 JSON object {"n": int, "data": n x n array of [re, im]
doubles}.  Explicit re/im pairs keep the format locale-proof and make
write-then-parse round-trips bit-exact for finite doubles (orjson emits the
shortest representation that reparses to the same double, and any JSON
reader turns it back into that double).

orjson reads and writes the files.  It is imported on the first call, not
with this module, so `import sectormeans` and `verify` do not load it.

orjson reads a text first.  Where byte counts show that the only strings
are the two keys and that no true, false or null occurs, the text holds
numbers only, and the 2 n^2 scalars orjson gives need no type check
(`_orjson_read`).  json reads every text that orjson or the schema refuses,
and gives it its result or message.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
from typing import Union

import numpy as np

from .linalg import PreconditionError, as_matrix

__all__ = ["MatrixFormatError", "parse_matrix", "write_matrix", "loads_matrix", "dumps_matrix"]


class MatrixFormatError(PreconditionError):
    """Raised when a matrix file does not match the schema."""


# orjson builds nested lists by recursion in C, about 60 bytes of stack a
# level, so a text nesting 9000 deep overflows a 512 KB thread stack and
# kills the process.  A text nests no deeper than it has brackets, and one
# with at most this many holds any matrix up to n = 70; json reads the rest.
_ORJSON_MAX_BRACKETS = 5000


def _entry(value, i: int, j: int) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in value)
    ):
        raise MatrixFormatError(
            f"data[{i}][{j}] must be a [re, im] pair of numbers, got {value!r}"
        )
    try:
        re, im = float(value[0]), float(value[1])
    except OverflowError:
        raise MatrixFormatError(f"data[{i}][{j}] has an entry beyond the double range") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise MatrixFormatError(f"data[{i}][{j}] has non-finite entry [{re}, {im}]")
    return complex(re, im)


def _scalars(data: list):
    return itertools.chain.from_iterable(itertools.chain.from_iterable(data))


def _pairs(data: list, n: int, numbers_only: bool) -> np.ndarray | None:
    """data as an n x n complex128 array when every entry is a finite [re, im]
    pair of numbers, read flat once the lengths of the rows and entries show
    the shape; None otherwise.  numbers_only says that the text held no
    scalar but numbers, which spares the walk over the scalars' types."""
    try:
        if set(map(len, data)) != {n} or set(map(len, itertools.chain.from_iterable(data))) != {2}:
            return None
        pairs = np.fromiter(_scalars(data), dtype=np.float64, count=2 * n * n)
    except (ValueError, TypeError, OverflowError):
        return None
    if not np.isfinite(pairs).all():
        return None
    # the conversion also takes bools and numeric strings, which the schema refuses
    if not numbers_only and not set(map(type, _scalars(data))) <= {int, float}:
        return None
    return pairs.view(np.complex128).reshape(n, n)


def _checked(obj, numbers_only: bool = False) -> np.ndarray:
    """The matrix a parsed file holds, or a MatrixFormatError naming the first
    place where it leaves the schema; numbers_only as for `_pairs`."""
    if not isinstance(obj, dict):
        raise MatrixFormatError(f"top level must be an object, got {type(obj).__name__}")
    missing = {"n", "data"} - set(obj)
    if missing:
        raise MatrixFormatError(f"missing required field(s): {', '.join(sorted(missing))}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFormatError(f"field 'n' must be a positive integer, got {n!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != n:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise MatrixFormatError(f"field 'data' must be a list of {n} rows, got {got}")
    pairs = _pairs(data, n, numbers_only)
    if pairs is not None:
        return pairs
    # a schema error: walk the entries in order to report the first one
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise MatrixFormatError(f"data[{i}] must be a list of {n} entries, got {got}")
        for j, value in enumerate(row):
            out[i, j] = _entry(value, i, j)
    return out


def _orjson_read(raw: bytes) -> np.ndarray | None:
    """The matrix in the UTF-8 text raw as orjson reads it, or None where
    orjson or the schema refuses it.

    A text with four quotes holds at most two strings, which `_checked`
    requires to be the keys "n" and "data", and one with no byte u or l
    holds no true, false or null: its scalars are numbers, and their types
    need no walk.
    """
    import orjson

    codes = np.frombuffer(raw, dtype=np.uint8)
    if np.count_nonzero((codes == ord("[")) | (codes == ord("{"))) > _ORJSON_MAX_BRACKETS:
        return None
    numbers_only = np.count_nonzero(codes == ord('"')) == 4 and b"u" not in raw and b"l" not in raw
    try:
        return _checked(orjson.loads(raw), numbers_only)
    except (orjson.JSONDecodeError, MatrixFormatError, RecursionError):
        return None


def _json_read(text: str) -> np.ndarray:
    # orjson refuses some text that json reads (NaN, Infinity, numbers past
    # the double range, lone surrogates, a BOM) and reads an integer of 2^64
    # or more as a float, so json makes every refusal again, with its message
    try:
        return _checked(json.loads(text))
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid json at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        # json reads nested arrays by recursion, and the message of a bad
        # entry is its repr, both up to Python's recursion limit
        raise MatrixFormatError("invalid json: nested too deeply to read") from None


def loads_matrix(text: str) -> np.ndarray:
    matrix = _orjson_read(text.encode("utf-8", "surrogatepass"))
    return matrix if matrix is not None else _json_read(text)


def dumps_matrix(A: np.ndarray) -> str:
    import orjson

    # as_matrix refuses non-finite entries, which orjson would write as null;
    # orjson writes only C-contiguous arrays
    A = np.ascontiguousarray(as_matrix(A))
    n = A.shape[0]
    data = A.view(np.float64).reshape(n, n, 2)
    return orjson.dumps({"n": n, "data": data}, option=orjson.OPT_SERIALIZE_NUMPY).decode()


def parse_matrix(path: Union[str, os.PathLike]) -> np.ndarray:
    """The matrix in the file at path, read once as bytes: orjson reads them
    as they are, and a text it refuses is decoded as a text-mode read
    decodes it, so that json's messages keep their line numbers."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    matrix = _orjson_read(raw)
    if matrix is not None:
        return matrix
    try:
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return _json_read(text)
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None


def write_matrix(A: np.ndarray, path: Union[str, os.PathLike]) -> None:
    text = dumps_matrix(A)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
