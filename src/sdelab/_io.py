"""The one on-disk format for run artifacts.

CSV cells holding a float (Python or numpy) are written as
``repr(float(v))``, the shortest string that reads back to the same
double; every other cell is written as ``str`` gives it.  JSON is strict:
non-finite floats become ``null``, and the text is indented by two with
sorted keys and a trailing newline.  Both are byte-deterministic, so the
SHA-256 of a file identifies its contents.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .expr import Expression


def jsonable(value):
    """``value`` as plain JSON types, with non-finite floats as ``None``."""
    if isinstance(value, Expression):
        return value.source
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def write_json(path, obj) -> None:
    Path(path).write_text(
        json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, header: Sequence[str], rows: Iterable) -> None:
    """Write ``rows`` under ``header``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
