from __future__ import annotations

import pytest

from contribgraph.jsonl import append_jsonl, read_jsonl, write_jsonl


def test_write_failing_midway_leaves_old_file_whole(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [{"a": 1}, {"a": 2}])
    before = path.read_bytes()

    def rows():
        yield {"a": 3}
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_jsonl(path, rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


def test_append_writes_rows_and_creates_file_when_empty(tmp_path):
    path = tmp_path / "alignments.jsonl"
    append_jsonl(path)
    assert path.read_bytes() == b""
    append_jsonl(path, {"a": 1}, {"b": 2})
    append_jsonl(path, {"c": 3})
    assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}, {"c": 3}]
