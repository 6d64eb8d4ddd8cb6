#!/usr/bin/env python3
"""Compare two verify reports field by field, timing aside.

    python3 scripts/report_diff.py A.json B.json

Drops every `runtime_s` and `elapsed_s` field, prints one line per
difference left, as (check, field, a, b), and exits 1 if there is any and
0 if there is none.  Values are compared by their repr, so 0.0 and -0.0
differ and NaN equals NaN.  A field outside the per-check entries is named
by its path, with `-` for the check.
"""

import json
import pathlib
import sys

TIMING = ("runtime_s", "elapsed_s")


class _Absent:
    def __repr__(self):
        return "<absent>"


ABSENT = _Absent()


def without_timing(value):
    """A copy of a parsed report with every timing field dropped."""
    if isinstance(value, dict):
        return {k: without_timing(v) for k, v in value.items() if k not in TIMING}
    if isinstance(value, list):
        return [without_timing(v) for v in value]
    return value


def _leaves(value, path=()):
    """(path, value) for every scalar and every empty container."""
    if isinstance(value, dict) and value:
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def _fields(report):
    """{(check, field): value} over every leaf; a check is named by its id."""
    out = {}
    checks = report.get("checks", [])
    for path, value in _leaves(report):
        if len(path) > 2 and path[0] == "checks":
            key = (checks[path[1]].get("id", str(path[1])), ".".join(map(str, path[2:])))
        else:
            key = ("-", ".".join(map(str, path)))
        out[key] = value
    return out


def differences(a, b):
    """(check, field, a, b) for each field that differs, timing aside."""
    fa, fb = _fields(without_timing(a)), _fields(without_timing(b))
    keys = list(fa) + [k for k in fb if k not in fa]
    pairs = [(k, fa.get(k, ABSENT), fb.get(k, ABSENT)) for k in keys]
    return [(*k, x, y) for k, x, y in pairs if repr(x) != repr(y)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: report_diff.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text(encoding="utf-8")) for path in argv)
    diffs = differences(a, b)
    for check, name, x, y in diffs:
        print(f"{check}\t{name}\t{x!r}\t{y!r}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
