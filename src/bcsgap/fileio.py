"""Deterministic, atomic output helpers shared by the CLI and exporters.

CSV conventions: comma separator, decimal point, 17 significant digits
(round-trip exact for doubles), mandatory header, LF line endings.  Every
file is streamed, chunk by chunk, to a temporary sibling that is renamed
into place once complete, so no output's whole text is held in memory, and
a failed or crashed write leaves the target as it was and no sibling behind.
"""

from __future__ import annotations

import os
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["fmt", "atomic_write", "write_csv"]


def fmt(x: float) -> str:
    """17-significant-digit decimal form of a double."""
    return f"{x:.17g}"


def atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the concatenation of ``chunks`` to ``path``, atomically.

    The chunks are streamed to ``path`` + ".tmp", which replaces ``path``
    once the last chunk is written; if a chunk or the write raises, the
    sibling is removed and ``path`` keeps its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """One ``fmt`` cell per value, one row per line under ``header``.

    Each line fills one "%.17g" template, which converts a cell as float()
    does and formats it as ``fmt`` does, with no per-cell call; a row that
    is not as wide as the header raises TypeError.  Rows are formatted as
    they are written, one line a chunk.
    """
    template = ",".join(["%.17g"] * len(header)) + "\n"
    lines = (template % tuple(row) for row in rows)
    atomic_write(path, chain([",".join(header) + "\n"], lines))
