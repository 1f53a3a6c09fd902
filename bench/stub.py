"""Loopback stub model speaking the OpenAI chat-completions format.

Each answer is a pure function of the prompt. The stub reads the
template heading to tell the stage, the ``SPEC`` line of the paper
text for extraction answers, and the JSON payloads for alignment and
ranking answers. Alignment verdicts and rankings come from the hash
functions in ``gen``, which the benchmark's oracles share. About one
first attempt in 25 (chosen by prompt hash) gets an unparseable answer,
so the program's retry path runs; the retry prompt always succeeds.
That rate is not measured from any model: it only exercises the retry
path, so retry counts and calls per paper are not realistic figures.

Every call sleeps ``DELAY_MS`` and is logged as
``[stage, start, end, prompt_bytes, retry, tokens_in, tokens_out]``
with ``time.monotonic()`` stamps. ``GET /stats`` returns the log and
``POST /reset`` clears it.

Run: ``python3 bench/stub.py --port-file PATH``; the
bound port is written to PATH once the server listens.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from gen import match_type, ranking_order

STAGES = {
    "# Contribution Extraction Prompt": "contributions",
    "# Prerequisite Extraction Prompt": "prerequisites",
    "# Cross-paper Prerequisite-to-Contribution Alignment Prompt": "alignment",
    "# Prerequisite Ranking Prompt": "ranking",
}
RETRY_MARK = "# Previous attempt failed validation"
DELAY_MS = 20.0  # fixed model latency added to every call
_FENCE = re.compile(r"```\n(.*?)\n```", re.DOTALL)


def stage_of(prompt: str) -> str:
    return STAGES.get(prompt.split("\n", 1)[0].strip(), "unknown")


def _payload_after(prompt: str, heading: str):
    """The first fenced JSON block after a heading of the prompt."""
    return json.loads(_FENCE.search(prompt, prompt.index(heading)).group(1))


def _spec(prompt: str) -> dict:
    start = prompt.index("\nSPEC ") + len("\nSPEC ")
    return json.loads(prompt[start : prompt.index("\n", start)])


def _types(contribution: dict) -> list[dict]:
    return [{"type": contribution["type"], "justification": "by construction"}]


def _reference(ref: dict, key: str) -> dict:
    kind = ref["kind"]
    if kind == "paper":
        return {
            "type": "paper",
            "paper_title": f"Paper {ref['corpus_id']}",
            "first_author": {"last_name": "Smith", "first_name": "A", "middle_names": ""},
            "year": None,
            "venue": None,
            "corpus_id": int(ref["corpus_id"]),
        }
    if kind == "outside":
        return {"type": "paper", "paper_title": ref["title"], "year": ref["year"], "venue": None, "corpus_id": None}
    if kind == "internal":
        return {
            "type": "internal",
            "contribution_name": f"Contribution {ref['key']}",
            "contribution_key": ref["key"],
            "justification": f"contribution {key} builds on it",
        }
    return {"type": "other", "name": "code release", "url": ref["url"]}


def answer(prompt: str) -> str:
    """The stub model: response text for one prompt."""
    stage = stage_of(prompt)
    base, retry, _ = prompt.partition("\n\n" + RETRY_MARK)
    if not retry and hashlib.sha256(prompt.encode("utf-8")).digest()[0] < 10:
        return "I am not able to answer in the requested format."
    if stage == "contributions":
        doc = {
            "contributions": [
                {"name": c["name"], "description": c["description"], "contribution_type": _types(c),
                 "sections": [c["section"]]}
                for c in _spec(base)["contributions"]
            ]
        }
    elif stage == "prerequisites":
        key = str(_payload_after(base, "# Specific Contribution/Claim Being Analyzed")["key"])
        c = _spec(base)["contributions"][int(key)]
        doc = {
            "contributions": [
                {
                    "key": key,
                    "name": c["name"],
                    "description": c["description"],
                    "contribution_type": _types(c),
                    "sections": [c["section"]],
                    "prerequisites": [
                        {
                            "name": p["name"],
                            "description": p["description"],
                            "justification": p["justification"],
                            "core_or_peripheral": p["core"],
                            "references_in_paper": [_reference(r, key) for r in p["refs"]],
                        }
                        for p in c["prereqs"]
                    ],
                }
            ]
        }
    elif stage == "alignment":
        prereq = _payload_after(base, "# Source Paper Information")["prerequisite"]["name"]
        cited = _payload_after(base, "# Cited Paper Information")["contributions"]
        matches = []
        for contribution in cited:
            verdict = match_type(prereq, contribution["key"])
            if verdict:
                matches.append(
                    {"contribution_key": contribution["key"], "explanation": "hash verdict", "match_type": verdict}
                )
        doc = {"matches": matches, "overall_explanation": f"{len(matches)} matches"}
    elif stage == "ranking":
        candidates = _payload_after(base, "# Candidate Technologies")
        doc = {"ranking": ranking_order([c["id"] for c in candidates])}
    else:
        raise ValueError("unrecognised prompt template")
    return "```\n" + json.dumps(doc, ensure_ascii=False, indent=2) + "\n```\n"


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.calls: list[list] = []
        self.calls_lock = threading.Lock()


class StubHandler(BaseHTTPRequestHandler):
    server: StubServer

    def log_message(self, *args) -> None:  # keep stderr quiet
        pass

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, b"{}")
            return
        with self.server.calls_lock:
            body = json.dumps({"calls": self.server.calls}).encode("utf-8")
        self._send(200, body)

    def do_POST(self) -> None:
        start = time.monotonic()
        raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        if self.path == "/reset":
            with self.server.calls_lock:
                self.server.calls = []
            self._send(200, b"{}")
            return
        prompt = json.loads(raw)["messages"][-1]["content"]
        try:
            text = answer(prompt)
        except (ValueError, KeyError, IndexError, AttributeError) as exc:
            self._send(400, json.dumps({"error": str(exc)}).encode("utf-8"))
            return
        prompt_bytes = len(prompt.encode("utf-8"))
        usage = {"prompt_tokens": prompt_bytes // 4, "completion_tokens": len(text.encode("utf-8")) // 4}
        body = json.dumps(
            {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}], "usage": usage}
        ).encode("utf-8")
        time.sleep(DELAY_MS / 1000.0)
        entry = [stage_of(prompt), start, time.monotonic(), prompt_bytes, int(RETRY_MARK in prompt),
                 usage["prompt_tokens"], usage["completion_tokens"]]
        # Logged before the reply goes out, so a client that has its answer
        # always finds the call in /stats.
        with self.server.calls_lock:
            self.server.calls.append(entry)
        self._send(200, body)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args()
    server = StubServer()
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    os.replace(tmp, port_file)
    server.serve_forever()


if __name__ == "__main__":
    main()
