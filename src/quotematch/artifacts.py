"""Artifact conventions shared by the pipeline stages."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


class VersionMismatchError(Exception):
    """An artifact of another format version, or built from other inputs than
    the stage was given (the CLI exits 3)."""


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write string rows that ``csv.reader`` reads back field for field.

    Lines end in ``\\n``. The csv module quotes a field holding a comma, a
    quote or ``\\n``, but not one holding a bare ``\\r``, which a reader then
    takes for a line end; a row with one is written fully quoted. A row of
    plain fields is written as ``",".join(row)``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(header)
        for row in rows:
            (quoted if any("\r" in field for field in row) else plain).writerow(row)
