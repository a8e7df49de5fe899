"""Every stage artifact's file format: JSON, JSONL and CSV writers and readers,
and the one reader of plain line files (lexicons, exclusion lists).

A file that is not valid JSON or CSV, a record that is not an object, or one
that lacks a required key raises ``ValueError("<path>: [line N: ]...")`` (the
CLI exits 4); another ``format_version`` raises :class:`VersionMismatchError`
(exit 3). No numpy here: every stage imports this module.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence


class VersionMismatchError(Exception):
    """An artifact of another format version, or built from other inputs than
    the stage was given (the CLI exits 3)."""


def check_record(
    path: str | Path, line_no: int | None, obj: Any, keys: Iterable[str], version: int | None = None
) -> dict:
    """``obj`` if it is an object of format ``version`` (when given) holding every key."""
    where = f"{path}: " if line_no is None else f"{path}: line {line_no}: "
    if not isinstance(obj, dict):
        raise ValueError(f"{where}expected a JSON object, got {type(obj).__name__}")
    if version is not None and obj.get("format_version", version) != version:
        found = obj["format_version"]
        raise VersionMismatchError(f"{where}format version {found!r}, expected {version}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}missing key {key!r}")
    return obj


def write_json(path: str | Path, payload: dict) -> None:
    # No indent: json.dumps with one leaves its C encoder for the Python one.
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: str | Path, keys: Iterable[str], version: int) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    return check_record(path, None, payload, keys, version)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON record per line, keys in the record's own order."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """``(line number, value)`` for each non-blank line."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    yield line_no, json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded in blocks, so no line number
            raise ValueError(f"{path}: {exc}") from None


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write string rows that ``read_csv`` reads back field for field.

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


def read_csv(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each non-empty row, header included; the
    number is the physical line the row ends on, as ``csv.reader`` counts."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded in blocks, so no line number
            raise ValueError(f"{path}: {exc}") from None


def read_lines(path: str | Path) -> list[str]:
    """The stripped non-blank lines of a plain UTF-8 text file, one entry per line."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [line.strip() for line in text.splitlines() if line.strip()]
