"""Deterministic JSON and CSV emission.

All floating-point numbers are rendered with 17 significant digits so that
reruns on identical inputs produce byte-identical output and values survive
a round trip through text exactly.
"""

from __future__ import annotations

import math

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(x, ".17g")


def _emit(obj) -> str:
    if isinstance(obj, str):
        # Reuse the stdlib escaping rules.
        import json

        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return '{"re": %s, "im": %s}' % (format_float(obj.real), format_float(obj.imag))
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, dict):
        items = ", ".join("%s: %s" % (_emit(str(k)), _emit(v)) for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


def dumps(obj) -> str:
    """Serialize *obj* to a single-line JSON string with 17-digit floats."""
    return _emit(obj)


def write_csv(path, header: list[str], columns: list) -> None:
    """Write columns (sequences of equal length) as CSV with 17-digit floats.

    Every value is written as :func:`format_float` writes it, all rows from
    one ``%.17g`` template. A non-finite value raises ``ValueError`` before
    the file is opened.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("CSV columns must have equal length")
    values = np.column_stack(cols).astype(float, copy=False)
    if not np.isfinite(values).all():
        raise ValueError("cannot serialize non-finite float")
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * n) % tuple(values.ravel().tolist()))
