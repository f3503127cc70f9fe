"""The one layout of every CSV artifact the package writes.

In order: an optional typed magic line (``# roughmkv-<kind> v1 key=value
...``), an optional ``# generated <stamp>`` line, a header line, then rows.
Floats are written as the ``repr`` of Python floats, the shortest text that
round-trips, so loading reproduces them bit-exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["write_table", "read_table", "check_shape"]

_STAMP = "# generated"


def write_table(
    path: str,
    header: Sequence[str],
    blocks: Iterable[tuple],
    magic: str | None = None,
    stamp: str | None = None,
) -> None:
    """Write ``blocks`` of rows under ``header``, one string per block.

    A block is a tuple of equal-length columns; a column is a float ndarray
    or an iterable of ready-formatted cells.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if magic is not None:
            fh.write(magic + "\n")
        if stamp is not None:
            fh.write(f"{_STAMP} {stamp}\n")
        fh.write(",".join(header) + "\n")
        for cols in blocks:
            cells = (map(repr, c.tolist()) if isinstance(c, np.ndarray) else c for c in cols)
            fh.write("\n".join(map(",".join, zip(*cells))))
            fh.write("\n")


@contextmanager
def read_table(
    path: str, magic: str, required: Sequence[str]
) -> Iterator[tuple[dict[str, str], np.ndarray]]:
    """``with read_table(...) as (meta, rows):`` the magic line's ``key=value``
    tokens and the rows as a float array.

    A file with a header but no rows gives a ``(0, columns)`` array, with the
    column count read from the header.  Raises ``ValueError`` unless the
    file opens with ``magic`` followed by ``key=value`` tokens only, among
    them every key in ``required``.  Every ``ValueError`` raised in reading
    or in the ``with`` block, where a loader checks the rows and builds its
    object, comes back with ``<path>: `` in front.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens, words = fh.readline().split(), magic.split()
            if tokens[: len(words)] != words:
                raise ValueError(f"bad magic line, expected {magic!r}")
            meta = {}
            for tok in tokens[len(words):]:
                key, eq, value = tok.partition("=")
                if not eq:
                    raise ValueError(f"magic line token {tok!r} is not key=value")
                meta[key] = value
            for key in required:
                if key not in meta:
                    raise ValueError(f"magic line has no {key}= token")
            header = fh.readline()
            if header.startswith(_STAMP):
                header = fh.readline()
            # loadtxt warns on a file without rows, so look for one first
            body = fh.tell()
            line = fh.readline()
            while line and not line.strip():
                line = fh.readline()
            if line:
                fh.seek(body)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            else:
                rows = np.empty((0, len(header.split(","))))
        yield meta, rows
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def check_shape(rows: np.ndarray, count: int, columns: int, layout: str) -> None:
    """Refuse ``rows`` unless it has ``columns`` columns and ``count`` rows (``layout``)."""
    if rows.shape[1] != columns:
        raise ValueError(f"expected {columns} columns, got {rows.shape[1]}")
    if rows.shape[0] != count:
        raise ValueError(f"expected {count} rows ({layout}), got {rows.shape[0]}")
