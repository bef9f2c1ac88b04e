"""Deterministic, atomic output helpers shared by the CLI and exporters.

CSV conventions: comma separator, decimal point, 17 significant digits
(round-trip exact for doubles), mandatory header, LF line endings.  Files
are written to a temporary sibling and renamed into place so a crashed run
never leaves a partial file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["fmt", "atomic_write_text", "write_csv"]


def fmt(x: float) -> str:
    """17-significant-digit decimal form of a double."""
    return f"{x:.17g}"


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """One ``fmt`` cell per value, one row per line under ``header``.

    Each line fills one "%.17g" template, which converts a cell as float()
    does and formats it as ``fmt`` does, with no per-cell call; a row that
    is not as wide as the header raises TypeError.
    """
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(template % tuple(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")
