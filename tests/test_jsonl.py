from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contribgraph import jsonl
from contribgraph.embedding import EmbeddingIndex
from contribgraph.errors import ContribGraphError, MalformedLineError
from contribgraph.evaluation import EvalReport, write_report
from contribgraph.jsonl import append_jsonl, dump_line, read_jsonl, write_jsonl


# Text of any code point but lone surrogates: control characters, non-ASCII.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()  # nan and infinities included
    | st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf])
    | TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=12,
)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c_encoder", "fallback"])
@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
@example(value={"a": [1, {"b": "\u00e9\x00\x1f\u2028"}], "\u6570": [-0.0, 1e300, 2**100]})
@example(value="\ttop-level \u00c5 \U0001f642")
def test_dump_line_is_json_dumps(c_encoder, value):
    """Through the one C encoder or its fallback, ``dump_line`` gives the
    text of ``json.dumps(value, ensure_ascii=False)``."""
    with pytest.MonkeyPatch.context() as patch:
        if c_encoder:
            assert jsonl._C_ENCODE is not None
        else:
            patch.setattr(jsonl, "_C_ENCODE", None)
        assert dump_line(value) == json.dumps(value, ensure_ascii=False)


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


@contextlib.contextmanager
def disk_full_after(limit: int):
    """While open, a write that takes any file past ``limit`` bytes fails
    with EFBIG, as a write to a full disk fails with ENOSPC."""
    old_limit = resource.getrlimit(resource.RLIMIT_FSIZE)
    old_handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, old_limit[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, old_limit)
        signal.signal(signal.SIGXFSZ, old_handler)


def index_of(rows: int) -> EmbeddingIndex:
    return EmbeddingIndex([f"p.c{i}" for i in range(rows)], np.ones((rows, 64), np.float32))


# Whole-file writers outside the store, by file name: a write of a path
# and a value, then a small value and a large one, past the disk's limit.
WHOLE_FILE_WRITERS = {
    "embeddings.bin": (lambda path, index: index.save(path), index_of(1), index_of(100)),
    "report.json": (write_report, EvalReport(backend="b"), EvalReport(backend="b" * 4096)),
}


@pytest.mark.parametrize("name", WHOLE_FILE_WRITERS)
def test_disk_full_midway_leaves_old_file_whole(tmp_path, name):
    write, small, large = WHOLE_FILE_WRITERS[name]
    path = tmp_path / name
    write(path, small)
    before = path.read_bytes()
    with pytest.raises(OSError) as info, disk_full_after(len(before) + 64):
        write(path, large)
    assert info.value.errno == errno.EFBIG
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


SRC = Path(__file__).resolve().parent.parent / "src"

# Writes argv[1] through write_chunks: twenty chunks of argv[2], one
# every 20 ms.
SLOW_WRITER = """
import sys, time
from contribgraph.jsonl import write_chunks

def chunks():
    for _ in range(20):
        time.sleep(0.02)
        yield sys.argv[2].encode() * 1000

write_chunks(sys.argv[1], chunks())
"""


def test_concurrent_writers_of_one_path_each_rename_a_whole_file(tmp_path):
    path = tmp_path / "out.bin"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    writers = []
    for fill in "ab":
        writers.append(subprocess.Popen(
            [sys.executable, "-c", SLOW_WRITER, str(path), fill],
            env=env, stderr=subprocess.PIPE, text=True,
        ))
        time.sleep(0.1)
    outcomes = [(w.communicate(timeout=30)[1], w.returncode) for w in writers]
    assert outcomes == [("", 0), ("", 0)]
    assert path.read_bytes() in (b"a" * 20000, b"b" * 20000)
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_append_writes_rows_and_creates_file_when_empty(tmp_path):
    path = tmp_path / "alignments.jsonl"
    append_jsonl(path, [])
    assert path.read_bytes() == b""
    append_jsonl(path, [{"a": 1}, {"b": 2}])
    append_jsonl(path, iter([{"c": 3}]))
    assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}, {"c": 3}]


def test_torn_last_line_names_the_file_and_line(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [{"a": 1}, {"a": 2}])
    with path.open("a", encoding="utf-8") as f:
        f.write("\n" + '{"a": 3, "title": "Atten')  # a crash mid-append, after a blank line
    rows = read_jsonl(path)
    assert next(rows) == {"a": 1}
    assert next(rows) == {"a": 2}
    with pytest.raises(MalformedLineError, match=rf"^{re.escape(str(path))}:4: "):
        next(rows)
    assert issubclass(MalformedLineError, ContribGraphError)


def test_line_torn_inside_a_utf8_character_names_the_file_and_line(tmp_path):
    path = tmp_path / "records.jsonl"
    # The tail stops after the first byte of the two-byte "\u00e9".
    path.write_bytes(b'{"a": 1}\n' + '{"title": "Caf\u00e9"}'.encode("utf-8")[:-3])
    with pytest.raises(MalformedLineError, match=rf"^{re.escape(str(path))}:2: "):
        list(read_jsonl(path))


@pytest.mark.parametrize("line", ["[1, 2]", '"text"', "null"])
def test_line_that_is_not_an_object_names_the_file_and_line(tmp_path, line):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
    rows = read_jsonl(path)
    assert next(rows) == {"a": 1}
    with pytest.raises(MalformedLineError, match=rf"^{re.escape(str(path))}:2: not a JSON object"):
        next(rows)
