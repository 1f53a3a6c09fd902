"""Run one contribgraph CLI command with span wrappers installed.

Usage: ``python3 bench/traced_cli.py SPANS_OUT TRACE_ID -- <cli args>``

Before calling ``contribgraph.cli.main`` this wraps the public entry
points of each layer (no source edits) so that every call records a
span ``[id, parent, name, start, end, attrs]`` in memory, stamped with
``time.monotonic()``. The parent is the innermost open span of the same
thread; spans opened on worker threads hang under the command's root
span. All spans share TRACE_ID (one CLI step is one request) and are
written as JSON to SPANS_OUT when the command returns.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

SUBCOMMANDS = ("ingest", "extract", "frontier", "embed", "taskgen", "rank", "eval", "export", "validate")

class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root_id = 0

    def wrap(self, name: str, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(result, args) adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self.root_id
            stack.append(sid)
            start = time.monotonic()
            extra = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(result, args)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append([sid, parent, name, start, end, extra])

        return traced

    def run_root(self, name: str, fn, *args):
        """Run fn as the root span; spans of threads without an open span hang under it."""
        sid = self.root_id = next(self._ids)
        self._local.stack = [sid]
        start = time.monotonic()
        try:
            return fn(*args)
        finally:
            self.spans.append([sid, 0, name, start, time.monotonic(), None])


def _patch(tracer: Tracer, owner, attr: str, name: str, attrs=None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, attrs)))
    else:
        setattr(owner, attr, tracer.wrap(name, raw, attrs))


def install(tracer: Tracer) -> None:
    from contribgraph import backends, cli, embedding, evaluation, frontier, graph, jsonl, pipeline, records, taskgen

    g = graph.ContributionGraph
    for attr in ("load", "save", "validate", "add_paper_record", "contributions_of", "deduplicated_edges"):
        extra = (lambda _r, args: {"unresolved": len(args[0].unresolved)}) if attr == "save" else None
        _patch(tracer, g, attr, f"graph.{attr}", extra)
    _patch(tracer, records, "parse_record", "records.parse_record")
    _patch(tracer, jsonl, "write_jsonl", "jsonl.write_jsonl")
    _patch(tracer, jsonl, "append_jsonl", "jsonl.append_jsonl")
    _patch(tracer, frontier, "build_histogram", "frontier.build_histogram", lambda r, _a: {"keys": len(r)})
    _patch(tracer, backends.HttpBackend, "generate", "backends.generate")
    _patch(tracer, pipeline.Pipeline, "stage_paper", "pipeline.stage_paper")
    _patch(tracer, pipeline.Pipeline, "finalize_paper", "pipeline.finalize_paper")
    # cli imported build_index by name, so patch the name it calls.
    _patch(tracer, cli, "build_index", "embedding.build_index")
    _patch(tracer, embedding.EmbeddingIndex, "load", "embedding.load")
    _patch(tracer, embedding.EmbeddingIndex, "save", "embedding.save")
    _patch(tracer, embedding.EmbeddingIndex, "cosine_top_k", "embedding.cosine_top_k")
    _patch(tracer, taskgen, "sample_targets", "taskgen.sample_targets")
    _patch(
        tracer, taskgen, "build_problem", "taskgen.build_problem",
        lambda r, _a: {"skip": 1} if isinstance(r, taskgen.Skip) else None,
    )
    _patch(tracer, evaluation, "rank_with_model", "evaluation.rank_with_model")
    _patch(tracer, evaluation, "score_run", "evaluation.score_run")


def main() -> int:
    out_path, trace_id = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    from contribgraph import cli

    command = next((a for a in argv if a in SUBCOMMANDS), "unknown")
    try:
        return tracer.run_root(f"cli.{command}", cli.main, argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"trace_id": trace_id, "spans": tracer.spans}, f, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
