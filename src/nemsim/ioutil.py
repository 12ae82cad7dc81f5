"""Deterministic text output helpers shared by the CSV/JSON writers."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def format_float(x: float) -> str:
    """Scientific notation, 12 significant digits, '.' separator, platform-free."""
    return f"{float(x):.11e}"


# format_float's format in %-style, so that one operation formats a row of floats
FLOAT_FORMAT = "%.11e"


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
