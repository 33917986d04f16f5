"""The one CSV writer.

Every experiment file is written here, by one cell rule: a str verbatim, a
bool or integer as an integer, and every other number as repr(float(v)), so
a numpy scalar prints as the plain float it wraps.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, columns, rows, provenance: dict | None = None) -> Path:
    """Write an optional `# k=v,...` line (sorted keys), the header, then rows."""
    path = Path(path)
    with open(path, "w") as fh:
        if provenance is not None:
            fh.write("# " + ",".join(f"{k}={v}" for k, v in sorted(provenance.items())) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    return path
