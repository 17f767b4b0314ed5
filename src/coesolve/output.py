"""Deterministic text serialization for result files.

Both CSV and JSON writers format floats with %.17g so repeated runs of the
same configuration produce byte-identical files.  The JSON writer is a
small local emitter because the stdlib encoder hard-codes repr for floats.
"""

from __future__ import annotations

import math

import numpy as np


def fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _json_emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'"{escaped}"')
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            parts.append(fmt_float(obj))
        else:
            parts.append(f'"{fmt_float(obj)}"')
    elif isinstance(obj, complex):
        _json_emit([obj.real, obj.imag], parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            _json_emit(str(k), parts)
            parts.append(": ")
            _json_emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _json_emit(v, parts)
        parts.append("]")
    else:
        try:
            _json_emit(obj.item(), parts)  # numpy scalars
        except AttributeError:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_text(obj) -> str:
    parts = []
    _json_emit(obj, parts)
    return "".join(parts) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(to_json_text(obj))


def field_table(x, values, t=None):
    """Header and rows of sampled fields: [t,] x, then re_u{d}, im_u{d} per component.

    ``values`` has shape (n, dim) at the points ``x``, or (len(t), n, dim)
    with times ``t``; rows run over x fastest.
    """
    values = np.ascontiguousarray(values, dtype=complex)
    dim = values.shape[-1]
    rows = values.size // dim
    cols = [np.tile(x, rows // len(x)), values.view(float).reshape(rows, 2 * dim)]
    header = ["x"] + [f"{part}_u{d}" for d in range(dim) for part in ("re", "im")]
    if t is not None:
        cols.insert(0, np.repeat(t, len(x)))
        header.insert(0, "t")
    return header, np.column_stack(cols)


def write_csv(path, header, table):
    """Write a 2-D float table under a fixed header, %.17g formatted."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # Row by row: formatting the whole table at once is no faster and
        # holds every line in memory.
        for row in table:
            fh.write(line % tuple(row.tolist()))
