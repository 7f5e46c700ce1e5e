"""Number, CSV and JSON formats of every artifact the package writes.

Numbers are ``repr`` of the float64, which reads back to the same double.
A CSV table is a header plus one iterable per column, zipped into rows as
the file is written, so ``numbers`` formats a value only when its row is.
JSON documents are indented by two spaces and end with a newline.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def number(value) -> str:
    """One field in the number format."""
    return repr(float(value))


def numbers(values):
    """Lazy column of the float64 values of an array, row-major."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


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


def json_lists(rows):
    """Lazy column of each row of a 2-D array as an inline JSON list."""
    return map(json.dumps, np.asarray(rows, dtype=float).tolist())


def write_csv(path, header, columns, lineterminator: str = "\r\n") -> None:
    """Header row, then row k from field k of each column, minimally quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_json(path, doc, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def plain(value):
    """Recursively convert numpy scalars/arrays into JSON-ready values;
    non-finite floats become their ``repr`` strings."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[float(v.real), float(v.imag)] for v in value.ravel()]
        return value.tolist()
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def nan_to_none(arr):
    """Nested lists of a float array with NaN as None (JSON ``null``)."""
    arr = np.asarray(arr, dtype=float)
    out = arr.astype(object)
    out[np.isnan(arr)] = None
    return out.tolist()
