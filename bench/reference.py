"""A fixed Python job whose wall time measures the host's current speed.

Usage: ``python3 bench/reference.py INPUT``

The run starts an interpreter, loads INPUT (JSON lines written by
``write_input``) into dataclass rows, indexes them by title words and
cited ids, and sorts the index: the same kinds of work as a CLI step,
in a job that no change to the program can move. The host this
benchmark was tuned on runs such work up to 1.8x slower in phases that
can outlast a run, and a CLI step and this job, timed next to each
other, slow down alike. ``run.py`` times it between the timed steps and
rescales CPU-bound times by its median (see ``bench/README.md``).
"""
from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROWS = 8_000
WORDS = ("graph", "model", "learning", "deep", "net", "data", "attention")


@dataclass
class Row:
    id: str
    title: str
    refs: list[int]


def write_input(path: Path) -> None:
    """The job's input: the same bytes in every run, whatever the seed."""
    rng = random.Random(0)
    with path.open("w", encoding="utf-8") as f:
        for i in range(ROWS):
            row = {
                "id": str(i),
                "title": " ".join(rng.choice(WORDS) for _ in range(8)),
                "refs": [rng.randrange(5000) for _ in range(8)],
            }
            f.write(json.dumps(row) + "\n")


def main(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        rows = [Row(**json.loads(line)) for line in f]
    index: dict[str, list[str]] = {}
    for r in rows:
        key = " ".join(w.upper() for w in r.title.split() if len(w) > 3)
        index.setdefault(key, []).append(r.id)
        for ref in r.refs:
            index.setdefault(str(ref), []).append(r.id)
    sorted(index.items(), key=lambda kv: (-len(kv[1]), kv[0]))


if __name__ == "__main__":
    main(sys.argv[1])
