"""Deterministic text output helpers shared by the CSV/JSON writers."""

from __future__ import annotations

import json
import os
import tempfile
from array import array
from pathlib import Path


def format_float(x: float) -> str:
    """Scientific notation, 12 significant digits, '.' separator, platform-free."""
    return f"{float(x):.11e}"


# format_float's format in %-style, so that one operation formats a row of floats
FLOAT_FORMAT = "%.11e"


def format_distinct(fmt: str, *columns) -> list[str]:
    """fmt % row for each row across the columns, each distinct row formatted once.

    A float column is an array('d'), and its values are told apart by their
    exact bits (an unsigned 64-bit view), never by float equality: +0.0 and
    -0.0, and NaNs of different payloads, each keep their own text. Any other
    column (bytes, a tuple of str) is told apart by value.
    """
    keys = [memoryview(col).cast("B").cast("Q") if isinstance(col, array) else col
            for col in columns]
    # one column's rows are its values, not 1-tuples
    keys, values = (keys[0], columns[0]) if len(columns) == 1 else (zip(*keys), zip(*columns))
    text: dict = {}
    rows = []
    for key, row in zip(keys, values):
        line = text.get(key)
        if line is None:
            line = text[key] = fmt % row
        rows.append(line)
    return rows


def dump_json(obj) -> str:
    """Stable JSON rendering: sorted keys, LF, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file + rename so failures never leave partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
