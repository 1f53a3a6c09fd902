"""JSONL read/write helpers, and the one writer of whole files.

Lines are UTF-8, one JSON object each, written in the dict's insertion
order (callers build dicts in the canonical key order, so files are
byte-reproducible). Every line is encoded by ``dump_line``, whose bytes
are those of ``json.dumps(obj, ensure_ascii=False)``; it calls one C
encoder, built once at import, where ``JSONEncoder.encode`` would build
one per call.
"""
from __future__ import annotations

import json
import os
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Optional, TypeVar

from .errors import MalformedLineError, RecordValidationError

T = TypeVar("T")

# json.dumps builds a JSONEncoder per call when given any option, and
# JSONEncoder.encode builds a C encoder per call; dump_line calls one C
# encoder, built here with _ENCODER's settings (no markers: no circular
# check). _C_ENCODE is None where the C accelerator is missing.
_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False)
_C_ENCODE = None if c_make_encoder is None else c_make_encoder(
    None, _ENCODER.default, encode_basestring, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator,
    _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
)


def dump_line(obj: Any) -> str:
    """``obj`` as one line of JSON. The encoder does not check for
    circular references: rows are built from the model objects, which
    form no cycles (see graph.py), and from parsed JSON, which has none."""
    if _C_ENCODE is None:
        return _ENCODER.encode(obj)
    return "".join(_C_ENCODE(obj, 0))


def write_jsonl(path: str | Path, records: Iterable[dict[str, Any]]) -> None:
    """``write_lines`` of each record's ``dump_line``."""
    write_lines(path, (dump_line(record).encode("utf-8") for record in records))


def write_lines(path: str | Path, lines: Iterable[bytes]) -> None:
    """``write_chunks`` of each line and a ``\\n``."""
    write_chunks(path, (line + b"\n" for line in lines))


def write_chunks(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a temporary file beside ``path``, then rename
    it over ``path``: a failure midway leaves the old file whole. Every
    file the package writes whole goes through here. The temporary file
    is named after the writing process, ``<name>.<pid>.tmp``, so that
    concurrent writers of one path each rename a whole file of their own:
    the last rename wins."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def append_jsonl(path: str | Path, records: Iterable[dict[str, Any]]) -> None:
    """``append_lines`` of each record's ``dump_line``."""
    append_lines(path, (dump_line(record).encode("utf-8") for record in records))


def append_lines(path: str | Path, lines: Iterable[bytes]) -> int:
    """Append each line and a ``\\n``, one at a time, and return the byte
    offset at which the first starts: the file's length before. The
    file is created even when there are none."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab") as f:
        start = f.tell()
        for line in lines:
            f.write(line + b"\n")
    return start


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """One object per non-blank line; a line that is not a UTF-8 JSON
    object raises MalformedLineError naming ``path:line``."""
    return read_rows(path, lambda row: row)


def read_rows(
    path: str | Path,
    parse: Callable[[dict[str, Any]], T],
    seen: Optional[Callable[[bytes], object]] = None,
    limit: Optional[int] = None,
) -> Iterator[T]:
    """``parse`` of each object ``read_jsonl`` reads; a row that ``parse``
    rejects with KeyError, TypeError, ValueError or RecordValidationError
    raises MalformedLineError naming ``path:line`` too. ``seen``, when
    given, is called with the bytes of each line as read, blank lines and
    the ``\\n`` included, so the caller can count or hash what it read.
    With ``limit``, only the file's first ``limit`` bytes are read."""
    with Path(path).open("rb") as f:
        for number, raw in enumerate(f if limit is None else _lines_upto(f, limit), 1):
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


def _lines_upto(f: BinaryIO, limit: int) -> Iterator[bytes]:
    while limit > 0 and (raw := f.readline(limit)):
        limit -= len(raw)
        yield raw
