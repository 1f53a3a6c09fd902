"""JSONL read/write helpers.

Lines are UTF-8, one JSON object each, written in the dict's insertion
order (callers build dicts in the canonical key order, so files are
byte-reproducible).
"""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar

from .errors import MalformedLineError, RecordValidationError

T = TypeVar("T")

# json.dumps builds an encoder per call when given any option; one serves every line.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def dump_line(obj: dict[str, Any]) -> str:
    return _ENCODER.encode(obj)


def write_jsonl(path: str | Path, records: Iterable[dict[str, Any]]) -> None:
    """``write_lines`` of each record's ``dump_line``."""
    write_lines(path, (dump_line(record).encode("utf-8") for record in records))


def write_lines(path: str | Path, lines: Iterable[bytes]) -> None:
    """Write each line and a ``\\n`` to a temporary file beside ``path``,
    then rename it over ``path``: a failure midway leaves the old file
    whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            for line in lines:
                f.write(line + b"\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def append_jsonl(path: str | Path, records: Iterable[dict[str, Any]]) -> None:
    """Append rows, one at a time; the file is created even when there are none."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as f:
        for record in records:
            f.write(dump_line(record) + "\n")


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """One object per non-blank line; a line that is not a UTF-8 JSON
    object raises MalformedLineError naming ``path:line``."""
    return read_rows(path, lambda row: row)


def read_rows(
    path: str | Path,
    parse: Callable[[dict[str, Any]], T],
    seen: Optional[Callable[[bytes], object]] = None,
) -> Iterator[T]:
    """``parse`` of each object ``read_jsonl`` reads; a row that ``parse``
    rejects with KeyError, TypeError, ValueError or RecordValidationError
    raises MalformedLineError naming ``path:line`` too. ``seen``, when
    given, is called with the bytes of each line as read, blank lines and
    the ``\\n`` included, so the caller can count or hash what it read."""
    with Path(path).open("rb") as f:
        for number, raw in enumerate(f, 1):
            if seen is not None:
                seen(raw)
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
                raise MalformedLineError(f"{path}:{number}: {exc}") from None
            if type(obj) is not dict:
                raise MalformedLineError(f"{path}:{number}: not a JSON object: {line[:80]}")
            try:
                row = parse(obj)
            except KeyError as exc:
                raise MalformedLineError(f"{path}:{number}: missing field {exc}") from None
            except (TypeError, ValueError, RecordValidationError) as exc:
                raise MalformedLineError(f"{path}:{number}: {exc}") from None
            yield row
