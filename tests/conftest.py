from __future__ import annotations

import gc
import http.client
import http.server
import json
import os
import random
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus_fixture
from contribgraph.graph import ContributionGraph
from contribgraph.jsonl import read_jsonl, write_jsonl

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_RECORDS = DATA_DIR / "golden_records.jsonl"

# The suite runs apart from the caller's CONTRIBGRAPH_* settings, which
# the CLI would otherwise pick up (embed would call a configured
# endpoint). Only the live smoke test reads them, from here.
LIVE_SETTINGS = {
    name: os.environ.pop(name) for name in list(os.environ) if name.startswith("CONTRIBGRAPH_")
}

# One PASS/FAIL line per acceptance criterion in the terminal summary.
ACCEPTANCE_LABELS = {
    "test_pipeline_determinism": "pipeline determinism (10-paper mock corpus, byte-identical, edge oracle, <10s)",
    "test_golden_record": "golden record (12 contributions, strong/weak/internal edges, unresolved citation)",
    "test_ap_map_correctness": "AP/MAP correctness (exhaustive zero-tolerance + Monte Carlo +/-0.005, <60s)",
    "test_taskgen_soundness": "taskgen soundness (>=50 problems, brute-force re-derivation, zero violations)",
    "test_backtesting_split": "backtesting split (partition + cutoff-year discard, 500 cases, <1s)",
    "test_retrieval_exactness": "retrieval exactness (top-10 vs brute force on 1,000 vectors, <5s)",
    "test_roadmap_properties": "roadmap properties (100 random DAGs, tree/depth/hidden-count, <10s)",
    "test_frontier_selection": "frontier selection (sort-filter oracle on 100 histograms, exact)",
    "test_live_backend_smoke": "live-backend smoke (optional, not gating)",
}
_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid:
        name = report.nodeid.rsplit("::", 1)[-1]
        if report.when == "call":
            _acceptance_outcomes[name] = report.outcome
        elif report.when == "setup" and report.outcome in ("skipped", "failed"):
            _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, label in ACCEPTANCE_LABELS.items():
        outcome = _acceptance_outcomes.get(name)
        if outcome is None:
            continue
        word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[outcome]
        terminalreporter.write_line(f"{word}  {label}")


@pytest.fixture(autouse=True)
def unfreeze_after_test():
    """Return what a test's CLI calls froze (``cli.load_store`` and
    ``ingest`` call ``gc.freeze``) to the collector once the test ends:
    frozen cyclic garbage is never collected, so it would pile up over
    the session."""
    yield
    gc.unfreeze()


class LoopbackServer(http.server.ThreadingHTTPServer):
    """A loopback HTTP server whose answers a test scripts.

    Each POST takes the next action from ``script``, or ``default`` when
    the script is empty; an action is a function of the handler (see
    ``reply`` and the ones after it), which holds the request body as
    ``body``. The server counts the connections it accepted and keeps
    every POST and CONNECT request it read, as ``(method, path, headers,
    body)``; ``headers`` is looked up without regard to case.
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), LoopbackHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.script: list = []
        self.default = reply(200, b"{}")
        self.connections = 0
        self.requests: list[tuple[str, str, http.client.HTTPMessage, bytes]] = []
        self.lock = threading.Lock()  # handler threads share the counts and the script
        self.stopping = threading.Event()
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()

    @property
    def posts(self) -> int:
        return sum(1 for method, *_ in self.requests if method == "POST")

    def handle_error(self, request, client_address):
        pass  # a client that timed out or hung up; the test checks what it saw

    def stop(self) -> None:
        self.stopping.set()
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


class LoopbackHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # a connection is closed when the client asks
    disable_nagle_algorithm = True  # headers and body go out in two writes

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            self.server.requests.append(("POST", self.path, self.headers, body))
            action = self.server.script.pop(0) if self.server.script else self.server.default
        action(self)

    def do_CONNECT(self):
        with self.server.lock:
            self.server.requests.append(("CONNECT", self.path, self.headers, b""))
        self.send_error(502, "no tunnels here")

    def log_message(self, format, *args):
        pass


def reply(status: int, body: bytes):
    """Answer with ``status`` and ``body``."""

    def act(handler: LoopbackHandler) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    return act


def partial_reply(handler: LoopbackHandler) -> None:
    """Promise 100 body bytes, send 10, then hang up."""
    handler.send_response(200)
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"choices"')
    handler.close_connection = True


def hang_up(handler: LoopbackHandler) -> None:
    """Close the connection without a byte of reply."""
    handler.close_connection = True


def stall(handler: LoopbackHandler) -> None:
    """Answer nothing until the server stops."""
    handler.server.stopping.wait(10)
    handler.close_connection = True


@pytest.fixture()
def loopback(monkeypatch):
    """``start()`` starts a LoopbackServer, stopped after the test. Every
    proxy variable is cleared, so requests go straight to the server
    unless the test sets one."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    servers: list[LoopbackServer] = []

    def start() -> LoopbackServer:
        servers.append(LoopbackServer())
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> corpus_fixture.CorpusPaths:
    """Ten-paper corpus with recorded replay-mock responses."""
    return corpus_fixture.build_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture()
def write_papers_calls(monkeypatch) -> list:
    """The directory of each ``ContributionGraph.write_papers`` call made
    during the test, in order; the calls still write."""
    calls = []
    real = ContributionGraph.write_papers

    def write_papers(graph, directory):
        calls.append(directory)
        return real(graph, directory)

    monkeypatch.setattr(ContributionGraph, "write_papers", write_papers)
    return calls


@pytest.fixture()
def golden_graph() -> ContributionGraph:
    graph = ContributionGraph()
    for raw in read_jsonl(GOLDEN_RECORDS):
        graph.add_paper_record(raw)
    return graph


def assert_index_invariants(graph: ContributionGraph) -> None:
    """What ``add_paper_record`` keeps by construction, so that no run-time
    check repeats it: every edge joins two stored contributions, the
    adjacency chains hold each edge's row under its endpoints, oldest
    first, and nothing else, no unresolved reference cites an extracted
    paper, and every extracted paper's record, read back from the log
    when it is logged, holds the paper's own contribution ids."""
    incoming: dict[str, list[int]] = {}
    outgoing: dict[str, list[int]] = {}
    for i, edge in enumerate(graph.edges):
        assert edge.pre_id in graph.nodes and edge.dep_id in graph.nodes, edge
        incoming.setdefault(edge.dep_id, []).append(i)
        outgoing.setdefault(edge.pre_id, []).append(i)
    edges = graph.edges
    chained = (
        {cid: edges.incoming_rows(cid) for cid in edges.in_last},
        {cid: edges.outgoing_rows(cid) for cid in edges.out_last},
    )
    assert chained == (incoming, outgoing)
    assert [cited for cited in graph.unresolved_by_cited() if graph.is_extracted(cited)] == []
    for corpus_id in graph.papers:
        if graph.is_extracted(corpus_id):
            record = graph.record(corpus_id)
            assert record.corpus_id == corpus_id
            assert [c.id for c in record.contributions] == [
                node.id for node in graph.contributions_of(corpus_id)
            ]


def load_golden_raw() -> list[dict]:
    return list(read_jsonl(GOLDEN_RECORDS))


def citation(pre_id: str, match_type: str = "strong", explanation: str = "") -> dict:
    """A prerequisite whose one paper reference cites the paper of ``pre_id``
    and matches ``pre_id``: an edge from ``pre_id`` once both papers are in."""
    corpus_id = pre_id.rpartition(".c")[0]
    match = {"contribution_id": pre_id, "explanation": explanation, "match_type": match_type}
    reference = {"type": "paper", "paper_title": f"Paper {corpus_id}", "corpus_id": corpus_id,
                 "matches": [match]}
    return {"name": f"needs {pre_id}", "description": "d", "core_or_peripheral": "core",
            "references": [reference]}


def build_synthetic_graph(
    n_papers: int = 160, seed: int = 20240901, min_contribs: int = 2, max_contribs: int = 4
) -> ContributionGraph:
    """Programmatic many-paper graph for task-generation tests.

    Papers spread over 2015-2025 with contributions and random
    backward citations (strong or weak), each one prerequisite, dense
    enough that problems can fill 100 candidates.
    """
    rng = random.Random(seed)
    graph = ContributionGraph()
    all_ids: list[str] = []
    for i in range(n_papers):
        corpus_id = f"9{i:06d}"
        year = 2015 + (i * 11) // n_papers
        n_contribs = rng.randint(min_contribs, max_contribs)
        contributions = []
        for c in range(n_contribs):
            contributions.append(
                {
                    "contribution_id": f"{corpus_id}.c{c}",
                    "name": f"Technique {i}-{c} for synthetic workload {rng.randint(0, 999)}",
                    "description": (
                        f"A synthetic contribution {i}-{c} addressing workload family "
                        f"{rng.randint(0, 9)} with variant {rng.randint(0, 99)}. It "
                        "exists to populate retrieval pools in tests."
                    ),
                    "types": [{"type": "techniques_algorithms", "explanation": "synthetic"}],
                    "sections": ["Section 1"],
                    "prerequisites": [],
                }
            )
        # Backward citations from this paper's contributions to earlier ones.
        if all_ids:
            for contribution in contributions:
                contribution["prerequisites"] = [
                    citation(rng.choice(all_ids), rng.choice(["strong", "weak"]),
                             "synthetic citation")
                    for _ in range(rng.randint(0, 3))
                ]
        graph.add_paper_record(
            {
                "corpus_id": corpus_id,
                "title": f"Synthetic paper {i}",
                "year": year,
                "contributions": contributions,
            }
        )
        all_ids.extend(c["contribution_id"] for c in contributions)
    return graph


# The late alignment of 6.c0's reference to paper 7, as the pipeline logs it.
LATE_ALIGNMENT = {
    "owner_id": "6.c0",
    "prereq_index": 0,
    "ref_index": 0,
    "reference": {
        "type": "paper", "paper_title": "Paper 7", "paper_year": None, "paper_venue": None,
        "corpus_id": "7",
        "matches": [{"contribution_id": "7.c0", "explanation": "x", "match_type": "strong"}],
    },
}

# Rows breaking the record rules, each of which an unchecked load once accepted.
MALFORMED_ALIGNMENTS = {
    "maybe_match": {
        **LATE_ALIGNMENT,
        "reference": {
            **LATE_ALIGNMENT["reference"],
            "matches": [{"contribution_id": "7.c0", "explanation": "x", "match_type": "maybe"}],
        },
    },
    "no_reference": {k: v for k, v in LATE_ALIGNMENT.items() if k != "reference"},
}


def record_with(level: str, value) -> dict:
    """A one-contribution record of paper 9, every list field holding one
    well-formed entry, except field ``level``, which holds ``value``."""
    match = {"contribution_id": "8.c0", "match_type": "strong"}
    ref = {"type": "paper", "paper_title": "T", "corpus_id": "8", "matches": [match]}
    prerequisite = {"name": "P", "description": "D", "core_or_peripheral": "core",
                    "references": [ref]}
    contribution = {"name": "N", "description": "D", "types": [{"type": "analysis"}],
                    "sections": ["S1"], "prerequisites": [prerequisite]}
    record = {"corpus_id": "9", "title": "t", "year": 2020, "contributions": [contribution]}
    owner = {"contributions": record, "types": contribution, "prerequisites": contribution,
             "references": prerequisite, "matches": ref}[level]
    owner[level] = value
    return record


# Records breaking the shape rule at one level, each with its one problem;
# the parsers once raised AttributeError or TypeError on every one of them.
MISSHAPEN_RECORDS = {
    "contributions_not_a_list": (
        record_with("contributions", "x"),
        "record: contributions must be a list, got 'x'",
    ),
    "contribution_not_an_object": (
        record_with("contributions", ["not an object"]),
        "record: contributions must hold objects, got 'not an object'",
    ),
    "types_not_a_list": (
        record_with("types", {"type": "analysis"}),
        "contribution 9.c0: types must be a list, got {'type': 'analysis'}",
    ),
    "type_not_an_object": (
        record_with("types", ["analysis"]),
        "contribution 9.c0: types must hold objects, got 'analysis'",
    ),
    "prerequisites_not_a_list": (
        record_with("prerequisites", 3),
        "contribution 9.c0: prerequisites must be a list, got 3",
    ),
    "prerequisite_not_an_object": (
        record_with("prerequisites", [None]),
        "contribution 9.c0: prerequisites must hold objects, got None",
    ),
    "references_not_a_list": (
        record_with("references", "paper"),
        "contribution 9.c0, prerequisite 0: references must be a list, got 'paper'",
    ),
    "reference_not_an_object": (
        record_with("references", [["paper"]]),
        "contribution 9.c0, prerequisite 0: references must hold objects, got ['paper']",
    ),
    "matches_not_a_list": (
        record_with("matches", True),
        "contribution 9.c0, prerequisite 0: matches must be a list, got True",
    ),
    "match_not_an_object": (
        record_with("matches", ["8.c0"]),
        "contribution 9.c0, prerequisite 0: matches must hold objects, got '8.c0'",
    ),
}


def write_citing_pair(store: Path, alignment: dict) -> None:
    """Save a store of paper 6, whose c0 cites paper 7, then paper 7, and
    log ``alignment`` as the one late alignment."""
    graph = ContributionGraph()
    for corpus_id, refs in (("6", [{"type": "paper", "corpus_id": "7"}]), ("7", [])):
        prerequisite = {"name": "needs", "description": "d", "core_or_peripheral": "core"}
        graph.add_paper_record({
            "corpus_id": corpus_id, "title": f"Paper {corpus_id}", "year": 2020,
            "contributions": [{
                "name": "thing", "description": "d", "types": [], "sections": [],
                "prerequisites": [{**prerequisite, "references": refs}],
            }],
        })
    graph.save(store)
    write_jsonl(store / "alignments.jsonl", [alignment])


FORGED = "0" * 64


def forge_stamp(store) -> None:
    """Put FORGED in place of the stamped digest, keeping its key: a load
    that trusts the stamp then returns FORGED from ``graph_hash``."""
    path = store / "graph_hash.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "graph_hash": FORGED}))
