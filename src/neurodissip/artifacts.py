"""Number, CSV and JSON formats of every artifact the package writes.

Numbers are ``repr`` of the float64, which reads back to the same double.
A CSV table is a header plus one iterable per column; each column becomes
a list of fields once, and rows are joined from them as the file is
written.  ``Numbers`` formats an array once for several files that write
it.
JSON documents are ``json.dumps(doc, indent=2)`` plus a newline, except
that every non-finite float (scalar, array entry, ``Numbers`` field or
``json_pairs`` entry) is ``null``, as RFC 8259 has no ``NaN`` or
``Infinity``; they may also hold float, int and bool ndarrays, written as
nested lists.  A CSV number keeps its ``repr`` (``nan``, ``inf``).
Both writers make the directory of the file they write.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np


def number(value) -> str:
    """One field in the number format."""
    return repr(float(value))


def numbers(values):
    """Lazy column of the float64 values of an array, row-major."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


class Numbers:
    """A float array with the ``repr`` of each value formatted once, for
    several writers: a CSV column iterates ``fields`` (row-major) or a
    slice of it, and ``write_json`` writes the array from them."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.fields = list(map(repr, self.values.ravel().tolist()))


def repeated_numbers(values):
    """``numbers`` for a column with few distinct values: each distinct bit
    pattern is formatted once."""
    values = np.asarray(values, dtype=float).ravel()
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return map(list(map(repr, bits.view(float).tolist())).__getitem__,
               inverse.tolist())


def flags(values):
    """Lazy column of ``true``/``false`` fields."""
    return map({True: "true", False: "false"}.__getitem__,
               np.asarray(values, dtype=bool).ravel().tolist())


def blank(mask, column, fill: str = ""):
    """``column`` with ``fill`` in place of the fields where mask is set."""
    mask = np.asarray(mask, dtype=bool).ravel()
    if not mask.any():
        return column
    return (fill if m else v for m, v in zip(mask.tolist(), column))


def json_pairs(rows):
    """Lazy column of the rows of an (n, 2) array as inline JSON lists."""
    rows = np.asarray(rows, dtype=float)
    # What json.dumps writes for a finite pair, without its encoder.
    pairs = map("[{!r}, {!r}]".format, *rows.T.tolist())
    finite = np.isfinite(rows).all(axis=1)
    if finite.all():
        return pairs
    return (pair if ok else "[{}, {}]".format(*(_json(v, False, "") for v in row))
            for pair, ok, row in zip(pairs, finite.tolist(), rows.tolist()))


def _create(path, newline=None):
    """Open path for writing as UTF-8, making its directory first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline=newline, encoding="utf-8")


def write_csv(path, header, columns, lineterminator: str = "\r\n") -> None:
    """Header row, then row k from field k of each column, minimally quoted.

    The bytes are those of ``csv.writer`` (Python 3.11): ``None`` is an
    empty field and other non-strings go through ``str``; a field holding
    a comma, a double quote or a character of the line terminator is
    quoted with its quotes doubled; a row whose one field is empty is
    ``""``.  Each column is formatted once and scanned once, and only a
    column the scan flags is quoted field by field.
    """
    special = set(',"' + lineterminator)
    header = _csv_fields(header, special)
    columns = [_csv_fields(column, special) for column in columns]
    if len(header) == 1:
        header = [header[0] or '""']
    if len(columns) == 1:
        columns = [[field or '""' for field in columns[0]]]
    with _create(path, newline="") as fh:
        fh.writelines(",".join(row) + lineterminator
                      for row in chain([header], zip(*columns)))


def _csv_fields(values, special) -> list:
    """One column's fields, quoted where ``csv.writer`` would quote them."""
    fields = list(values)
    try:  # join refuses a column that holds anything but strings
        text = "".join(fields)
    except TypeError:
        fields = [v if isinstance(v, str) else "" if v is None else str(v)
                  for v in fields]
        text = "".join(fields)
    if any(c in text for c in special):
        fields = ['"' + f.replace('"', '""') + '"' if special.intersection(f)
                  else f for f in fields]
    return fields


def write_json(path, doc, sort_keys: bool = False) -> None:
    with _create(path) as fh:
        fh.write(_json(doc, sort_keys, "\n"))
        fh.write("\n")


def _json(value, sort_keys: bool, newline: str) -> str:
    """``json.dumps(value, indent=2)`` at the indent ``newline`` ends with,
    non-finite floats written ``null``.

    The indented mode of ``json.dumps`` runs the pure-Python encoder, one
    generator step per value; ndarrays are formatted here a whole array at
    a time instead.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NON_FINITE.get(text, text)
    if isinstance(value, np.ndarray):
        return _json_array(value, newline)
    if isinstance(value, Numbers):
        return _json_array(value.values, newline, value.fields)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_json(v, sort_keys, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items()) if sort_keys else value.items()
        return "{" + inner + ("," + inner).join(
            [_json_key(k) + ": " + _json(v, sort_keys, inner) for k, v in items]
        ) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_json_string = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_NON_FINITE = dict.fromkeys(("nan", "inf", "-inf"), "null")


def _json_key(key) -> str:
    if isinstance(key, str):
        return _json_string(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _json(key, False, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _json_array(arr: np.ndarray, newline: str, fields=None) -> str:
    """A float, int or bool ndarray as its ``tolist``, non-finite floats
    as null; a float array's ``repr`` fields may come already formatted."""
    if arr.dtype.kind == "f":
        if fields is None:
            fields = list(map(repr, arr.astype(float).ravel().tolist()))
        if not np.isfinite(arr).all():
            fields = [_JSON_NON_FINITE.get(f, f) for f in fields]
    elif arr.dtype.kind == "b":
        fields = [_JSON_CONSTANTS[v] for v in arr.ravel().tolist()]
    elif arr.dtype.kind in "iu":
        fields = list(map(repr, arr.ravel().tolist()))
    else:
        raise TypeError(f"cannot write a {arr.dtype} array as JSON")
    # Wrap the innermost lists first, then each enclosing level in turn.
    for depth in range(arr.ndim - 1, -1, -1):
        size = arr.shape[depth]
        if size == 0:
            fields = ["[]"] * int(np.prod(arr.shape[:depth]))
            continue
        inner = newline + "  " * (depth + 1)
        close = newline + "  " * depth + "]"
        sep = "," + inner
        fields = ["[" + inner + sep.join(fields[i : i + size]) + close
                  for i in range(0, len(fields), size)]
    return fields[0]


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

