"""contribgraph benchmark: crawl, ingest and backtest through the real CLI.

Usage (from the repository root):

    python3 bench/run.py --workload crawl --seed 1 --seconds 40 --trace 0

Each CLI step runs as its own child process (``python -m
contribgraph.cli``), one at a time, with the package imported from
``src/`` of the current directory. The model is ``bench/stub.py``, a
loopback chat-completions endpoint in a second child process that adds
a fixed delay to each call and reaches the program through its real
HttpBackend. Inputs come from ``bench/gen.py`` and depend only on the
seed; every run checks the program's outputs against the generator's
oracles.

With ``--trace 0`` the timed flow repeats while another repetition is
expected to end within ``--seconds`` of the first set-up (at least
once), and further set-ups are sampled between steps, evenly over the
run. Before every timed step ``run.py`` also times
``bench/reference.py``, a fixed Python job, to follow the host's
speed. ``setup_s`` is the median set-up and ``wall_s`` the sum of each
step's median run, both in nominal-host seconds: multiplied by
``REFERENCE_NOMINAL_S`` over the run's median reference time, so that
slow phases of the host, which slow the program and the reference
alike, cancel. ``crawl`` mostly waits on the stub's fixed delay, so
its ``wall_s`` is not rescaled.

With ``--trace 1`` the flow runs once untraced and once under
``bench/traced_cli.py``; the per-layer metrics come from the traced
spans and the stub's call log, and the difference between the two
walls is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/README.md`` for every metric and why each workload exists.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen
import reference
from stub import DELAY_MS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
PARALLEL = 2
STEP_TIMEOUT_S = 150.0
# Median wall of bench/reference.py on the two-vCPU host the benchmark was
# tuned on; rescaled times are in seconds of a host running at that speed.
REFERENCE_NOMINAL_S = 0.15
MODEL = "stub"
PRICE_IN_PER_1K, PRICE_OUT_PER_1K = 0.5, 1.5
FRONTIER_K = 50
BACKTEST_YEARS = range(2021, 2026)
CUTOFF = "2023-06"
COMMANDS = ("ingest", "extract", "frontier", "validate", "embed", "taskgen", "rank", "eval")
STAGES = ("contributions", "prerequisites", "alignment", "ranking")
LAYERS = ("cli", "backends", "pipeline", "graph", "records", "jsonl", "frontier", "embedding", "taskgen", "evaluation")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, stub did not start)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


@dataclass
class Step:
    command: str
    start: float
    end: float
    returncode: int
    stdout: str
    rss_mb: float
    cpu_s: float  # user + system time of the child
    store_delta: int
    spans: list | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start


def child_env() -> dict[str, str]:
    """The CLI's environment: this checkout's sources, no proxies, no preset backend."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.lower().endswith("_proxy") and not k.startswith("CONTRIBGRAPH_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONHASHSEED"] = "0"
    return env


def _dir_size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


class Stub:
    """The stub model in its own process."""

    def __init__(self, work: Path, env: dict[str, str]):
        port_file = work / "stub.port"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--port-file", str(port_file)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("stub model did not start")
            time.sleep(0.02)
        self.url = f"http://127.0.0.1:{port_file.read_text().strip()}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def calls(self) -> list[list]:
        with self._opener.open(self.url + "/stats", timeout=30) as resp:
            return json.load(resp)["calls"]

    def reset(self) -> None:
        self._opener.open(urllib.request.Request(self.url + "/reset", data=b"{}"), timeout=30).close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def wait_child(proc: subprocess.Popen):
    """Block until the child ends (killed after STEP_TIMEOUT_S); its exit code and rusage.

    A blocking wait4 returns as the child ends; subprocess's wait with a
    timeout polls up to 50 ms apart, which would quantize the times."""
    timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Runner:
    def __init__(self, work: Path, stub: Stub | None):
        self.work = work
        self.env = child_env()
        self.stub = stub
        self.config = work / "bench.cfg"
        if stub is not None:
            self.config.write_text(
                f"GEN_ENDPOINT={stub.url}/v1/chat/completions\nGEN_MODEL={MODEL}\n"
                f"PRICE_IN_PER_1K={PRICE_IN_PER_1K}\nPRICE_OUT_PER_1K={PRICE_OUT_PER_1K}\n"
            )
        self._n = 0
        self.before_step = None  # called before each timed step (set-up and reference sampling)

    def reference(self, input_path: Path) -> float:
        """Wall time of one run of bench/reference.py: the host's current speed."""
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "reference.py"), str(input_path)],
                                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        returncode, _ = wait_child(proc)
        end = time.monotonic()
        if returncode != 0:
            raise BenchError(f"reference job exited with {returncode}")
        return end - start

    def cli(self, command: str, *args: str, store: Path | None = None, traced: bool = False) -> Step:
        """Run one CLI step to completion; its peak RSS comes from wait4."""
        self._n += 1
        argv = ["--config", str(self.config), command, *args] if self.stub else [command, *args]
        spans_path = self.work / f"spans-{self._n}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), f"{command}-{self._n}", "--", *argv]
        else:
            cmd = [sys.executable, "-m", "contribgraph.cli", *argv]
        out_path = self.work / f"step-{self._n}.out"
        before = _dir_size(store) if store else 0
        with out_path.open("wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT)
            returncode, usage = wait_child(proc)
            end = time.monotonic()
        spans = None
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())["spans"]
            spans_path.unlink()
        step = Step(
            command, start, end, returncode, out_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
            (_dir_size(store) - before) if store else 0, spans,
        )
        out_path.unlink()
        return step


# ----------------------------------------------------------------------
# Results of one repetition
# ----------------------------------------------------------------------


@dataclass
class Rep:
    steps: list[Step] = field(default_factory=list)
    calls: list[list] = field(default_factory=list)  # stub log over the timed steps
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # messages of failed steps and checks
    extras: dict[str, float] = field(default_factory=dict)  # workload-specific metrics
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.steps)

    @property
    def cpu(self) -> float:
        return sum(s.cpu_s for s in self.steps)

    def step(self, runner: Runner, command: str, *args: str, store: Path | None = None, traced: bool = False) -> Step:
        if runner.before_step is not None:
            runner.before_step()
        step = runner.cli(command, *args, store=store, traced=traced)
        self.steps.append(step)
        self.attempted += 1
        if step.returncode != 0:
            self.failed += 1
            self.failures.append(f"{command} exited with {step.returncode}")
        return step

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def _count_lines(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for _ in f)


def _tokens(calls: list[list]) -> int:
    return sum(c[5] + c[6] for c in calls)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Crawl:
    """Extract iterations over a catalog: the newest papers first, then the frontier."""

    uses_stub = True
    cpu_bound = False  # the wall is mostly the stub's fixed delay: not rescaled by host speed
    setup_samples = 20  # set-ups per --seconds; set-up is short, so it is cheap to sample often

    def __init__(self, n_papers: int = 300, iterations: int = 6, batch: int = 20):
        self.n_papers, self.iterations, self.batch = n_papers, iterations, batch

    def setup(self, work: Path, seed: int, runner: Runner):
        return gen.crawl_corpus(seed, work / "crawl", self.n_papers, self.batch)

    def run(self, runner: Runner, corpus, rep_dir: Path, seed: int, traced: bool) -> Rep:
        rep, store = Rep(), rep_dir / "store"
        catalog = str(corpus.catalog_path)
        usage_tokens = stub_tokens = 0
        done: set[str] = set()  # papers extracted so far, from the CLI's output
        for i in range(self.iterations):
            if i == 0:
                args, offered, want = corpus.newest, set(corpus.newest), len(corpus.newest)
            else:
                # The frontier can run short of a full batch; the oracle says by how much.
                args, offered = ["--k", str(self.batch)], gen.crawl_frontier(corpus.papers, done)
                want = min(self.batch, len(offered))
            runner.stub.reset()
            step = rep.step(runner, "extract", *args, "--store", str(store), "--catalog", catalog,
                            "--parallel", str(PARALLEL), store=store, traced=traced)
            calls = runner.stub.calls()
            rep.calls += calls
            extracted = set(re.findall(r"^(\d+): \+", step.stdout, re.M))
            failed = len(re.findall(r"^\d+: FAILED", step.stdout, re.M))
            rep.check(len(extracted) == want and extracted <= offered,
                      f"extract {i + 1}: {len(extracted)} papers, want {want} from the generator's frontier")
            done |= extracted
            rep.attempted += len(extracted) + failed
            rep.failed += failed
            m = re.search(r"tokens in/out: (\d+)/(\d+)", step.stdout)
            usage_tokens += int(m.group(1)) + int(m.group(2)) if m else 0
            stub_tokens += _tokens(calls)
        validate = runner.cli("validate", "--store", str(store))
        rep.check(validate.returncode == 0 and "\n0 violations" in "\n" + validate.stdout, "validate reported violations")
        rows = [json.loads(line) for line in (store / "papers.jsonl").read_text().splitlines()]
        extracted_ids = {p["corpus_id"] for p in rows if p["status"] == "extracted"}
        rep.check(extracted_ids == done, f"{len(extracted_ids)} papers extracted in the store, {len(done)} reported")
        edges = Counter(
            (e["pre_id"], e["dep_id"], e["match_type"], e["prereq_index"])
            for e in map(json.loads, (store / "edges.jsonl").read_text().splitlines())
        )
        oracle = gen.crawl_oracle_edges(corpus.papers, extracted_ids)
        rep.check(edges == oracle, f"edge multiset differs from oracle ({sum(edges.values())} vs {sum(oracle.values())})")
        rep.digests["records.jsonl"] = _sha256(store / "records.jsonl")
        n = max(len(done), 1)
        rep.extras = {
            "extract_papers_per_s": len(done) / rep.wall,
            "calls_per_paper": len(rep.calls) / n,
            "tokens_per_paper": _tokens(rep.calls) / n,
            "usage_ratio": usage_tokens / stub_tokens if stub_tokens else 0.0,
        }
        return rep


class Ingest:
    """Records whose paper references mostly stay unresolved, then two read-only loads."""

    uses_stub = False
    cpu_bound = True
    setup_samples = 20

    def __init__(self, n_records: int = 1000):
        self.n_records = n_records

    def setup(self, work: Path, seed: int, runner: Runner):
        return gen.ingest_corpus(seed, work / "ingest", self.n_records)

    def run(self, runner: Runner, corpus, rep_dir: Path, seed: int, traced: bool) -> Rep:
        rep, store = Rep(), rep_dir / "store"
        ingest = rep.step(runner, "ingest", "--store", str(store), "--catalog", str(corpus.catalog_path),
                          "--records", str(corpus.records_path), store=store, traced=traced)
        frontier = rep.step(runner, "frontier", "--store", str(store), "--k", str(FRONTIER_K), store=store, traced=traced)
        validate = rep.step(runner, "validate", "--store", str(store), store=store, traced=traced)
        rep.check(f"records: {corpus.n_records} ingested" in ingest.stdout, "not every record was ingested")
        rep.check(_count_lines(store / "nodes.jsonl") == corpus.nodes, "node count differs from generator")
        rep.check(_count_lines(store / "edges.jsonl") == corpus.edges, "edge count differs from generator")
        added = sum(int(m) for m in re.findall(r"\+(\d+) unresolved", ingest.stdout))
        rep.check(added == corpus.unresolved_added, f"{added} unresolved added, want {corpus.unresolved_added}")
        if traced:
            saves = [s for s in ingest.spans or [] if s[2] == "graph.save"]
            final = saves[-1][5]["unresolved"] if saves else -1
            rep.check(final == corpus.unresolved, f"{final} unresolved after ingest, want {corpus.unresolved}")
        want = sorted(corpus.histogram.items(), key=lambda kv: (-kv[1], kv[0]))[:FRONTIER_K]
        got = [tuple(line.split("\t")) for line in frontier.stdout.splitlines()]
        rep.check(got == [(k, str(v)) for k, v in want], "frontier top-k differs from generator histogram")
        rep.check("\n0 violations" in "\n" + validate.stdout, "validate reported violations")
        rep.digests["records.jsonl"] = _sha256(store / "records.jsonl")
        rep.extras = {
            "ingest_records_per_s": corpus.n_records / ingest.wall,
            "readonly_cmd_s": (frontier.wall + validate.wall) / 2,
        }
        return rep


class Backtest:
    """embed, taskgen, rank and eval over a large resolved store."""

    uses_stub = True
    cpu_bound = True
    setup_samples = 6  # each set-up ingests the whole store

    def __init__(self, n_papers: int = 2500, per_year: int = 4):
        self.n_papers, self.per_year = n_papers, per_year

    def setup(self, work: Path, seed: int, runner: Runner):
        corpus = gen.backtest_corpus(seed, work / "backtest", self.n_papers)
        store = work / "backtest" / "store"
        shutil.rmtree(store, ignore_errors=True)
        step = runner.cli("ingest", "--store", str(store), "--catalog", str(corpus.catalog_path),
                          "--records", str(corpus.records_path))
        if step.returncode != 0:
            raise BenchError("set-up ingest failed")
        return corpus, store

    def run(self, runner: Runner, setup, rep_dir: Path, seed: int, traced: bool) -> Rep:
        (corpus, store), rep = setup, Rep()
        rep_dir.mkdir(parents=True, exist_ok=True)
        index, problems_path = rep_dir / "embeddings.bin", rep_dir / "problems.jsonl"
        submissions, report = rep_dir / "submissions.jsonl", rep_dir / "report.json"
        cutoffs = rep_dir / "cutoffs.json"
        cutoffs.write_text(json.dumps({f"http:{MODEL}": CUTOFF}))
        embed = rep.step(runner, "embed", "--store", str(store), "--dim", "64", "--out", str(index),
                         store=rep_dir, traced=traced)
        years = f"{BACKTEST_YEARS[0]}-{BACKTEST_YEARS[-1]}"
        taskgen = rep.step(runner, "taskgen", "--store", str(store), "--index", str(index), "--years", years,
                           "--per-year", str(self.per_year), "--seed", str(seed), "--out", str(problems_path),
                           store=rep_dir, traced=traced)
        runner.stub.reset()
        rank = rep.step(runner, "rank", "--problems", str(problems_path), "--parallel", str(PARALLEL),
                        "--out", str(submissions), store=rep_dir, traced=traced)
        rep.calls = runner.stub.calls()
        rep.step(runner, "eval", "--problems", str(problems_path), "--submissions", str(submissions),
                 "--cutoffs", str(cutoffs), "--out", str(report), store=rep_dir, traced=traced)
        problems = [json.loads(line) for line in problems_path.read_text().splitlines()] if problems_path.exists() else []
        rep.attempted += len(problems)
        subs = [json.loads(line) for line in submissions.read_text().splitlines()] if submissions.exists() else []
        flagged = sum(1 for s in subs if s["flagged"])
        rep.failed += flagged
        m = re.search(r"(\d+) problems, (\d+) skipped", taskgen.stdout)
        sampled = int(m.group(1)) + int(m.group(2)) if m else 0
        want = len(BACKTEST_YEARS) * self.per_year
        rep.check(bool(problems) and sampled == want, f"{len(problems)} problems from {sampled} targets, want {want} targets")
        rep.check(len(subs) == len(problems), "submission count differs from problem count")
        for message in check_problems(problems, corpus):
            rep.check(False, message)
        rep.check(report.exists() and json.loads(report.read_text())["map_overall"] == reference_map(problems),
                  "eval MAP differs from the benchmark's exact AP")
        for path in (problems_path, submissions):
            rep.digests[path.name] = _sha256(path)
        # Per-problem usage in submissions.jsonl races at --parallel > 1 (the
        # shared-counter attribution the ROADMAP reports), so the rankings
        # get a digest of their own.
        rankings = "".join(json.dumps([s["problem_id"], s["ranked_ids"]]) + "\n" for s in subs)
        rep.digests["submissions.rankings"] = hashlib.sha256(rankings.encode("utf-8")).hexdigest()
        rep.digests["records.jsonl"] = _sha256(store / "records.jsonl")
        n = max(len(problems), 1)
        stub_cost = sum(c[5] * PRICE_IN_PER_1K + c[6] * PRICE_OUT_PER_1K for c in rep.calls) / 1000.0
        rep.extras = {
            "embed_contribs_per_s": corpus.n_contributions / embed.wall,
            "taskgen_problems_per_s": len(problems) / taskgen.wall,
            "rank_problems_per_s": len(problems) / rank.wall,
            "tokens_per_problem": _tokens(rep.calls) / n,
            "flagged": float(flagged),
            "cost_ratio": sum(s["usage"]["cost"] for s in subs) / stub_cost if stub_cost else 0.0,
        }
        return rep


def check_problems(problems: list[dict], corpus) -> list[str]:
    """Every problem: 100 distinct candidates, gold = deduplicated precursors,
    no distractor later than the target or from an excluded paper."""
    incoming: dict[str, set[str]] = {}
    neighbours: dict[str, set[str]] = {}  # paper -> papers sharing a direct edge
    for pre, dep in corpus.edges:
        incoming.setdefault(dep, set()).add(pre)
        a, b = pre.split(".c")[0], dep.split(".c")[0]
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    out = []
    for p in problems:
        target = p["target"]["id"]
        paper = target.split(".c")[0]
        ids = [c["id"] for c in p["candidates"]]
        gold = set(p["gold_ids"])
        excluded = {paper} | neighbours.get(paper, set())
        target_year = corpus.years[paper]
        if len(ids) != 100 or len(set(ids)) != 100:
            out.append(f"{target}: candidates are not 100 distinct ids")
        if gold != incoming.get(target, set()) or not gold <= set(ids):
            out.append(f"{target}: gold set differs from the generator's precursors")
        if p["target"]["year"] != target_year:
            out.append(f"{target}: target year differs from the generator")
        for cid in set(ids) - gold:
            corpus_id = cid.split(".c")[0]
            if corpus.years[corpus_id] > target_year or corpus_id in excluded:
                out.append(f"{target}: distractor {cid} is later or from an excluded paper")
                break
    return out


def reference_map(problems: list[dict]) -> float:
    """MAP of the stub's rankings in exact rational AP, averaged as eval averages."""
    aps = []
    for p in problems:
        gold = set(p["gold_ids"])
        total, hits = Fraction(0), 0
        for rank, cid in enumerate(gen.ranking_order([c["id"] for c in p["candidates"]]), start=1):
            if cid in gold:
                hits += 1
                total += Fraction(hits, rank)
        aps.append(float(total / len(gold)))
    return sum(aps) / len(aps) if aps else float("nan")


WORKLOADS = {"crawl": Crawl, "ingest": Ingest, "backtest": Backtest}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def timing(name: str, values: list[float]) -> dict[str, float]:
    """Median, the highest of p50..p99.9 with at least 10 samples beyond it, and the count.

    A percentile is the nearest-rank sample, ordered[ceil(q * n) - 1],
    computed in per-mille integers so that no rounding moves the rank.
    With fewer than 20 samples no percentile has 10 beyond it, and the
    tail repeats the median."""
    if not values:
        return {name: 0.0, f"{name}.tail": 0.0, f"{name}.n": 0}
    ordered = sorted(values)
    n = len(ordered)
    tail = statistics.median(ordered)
    for per_mille in (999, 990, 950, 900, 750, 500):
        rank = -(-per_mille * n // 1000)  # ceil(q * n), 1-based
        if n - rank >= 10:
            tail = ordered[rank - 1]
            break
    return {name: statistics.median(ordered), f"{name}.tail": tail, f"{name}.n": n}


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start if cur_end is not None else 0.0)


def self_times(spans: list[list]) -> dict[int, float]:
    """Exclusive time per span: each instant goes to the innermost open
    spans, split evenly when spans on several threads are open at once.
    The self times of one step's spans sum to its root span's duration."""
    depth: dict[int, int] = {}
    parent = {s[0]: s[1] for s in spans}

    def depth_of(sid: int) -> int:
        if sid not in depth:
            depth[sid] = 0 if parent.get(sid, 0) == 0 else 1 + depth_of(parent[sid])
        return depth[sid]

    events = []
    for sid, _, _, start, end, _ in spans:
        events.append((start, 1, depth_of(sid), sid))
        events.append((end, 0, -depth_of(sid), sid))
    events.sort()
    open_children: Counter = Counter()
    leaves: set[int] = set()
    active: set[int] = set()
    attributed: dict[int, float] = {s[0]: 0.0 for s in spans}
    last = events[0][0] if events else 0.0
    for t, kind, _, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                attributed[leaf] += share
        last = t
        p = parent[sid]
        if kind == 1:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return attributed


def layer_metrics(untraced: Rep, traced: Rep) -> dict[str, float]:
    m: dict[str, float] = {}
    for command in COMMANDS:
        m[f"cli.{command}_s"] = sum(s.wall for s in untraced.steps if s.command == command)
    spans = [(step, s) for step in traced.steps for s in (step.spans or [])]
    roots = [(step, next((s for s in step.spans or [] if s[1] == 0), None)) for step in traced.steps]
    m["cli.startup_s"] = sum(step.wall - (r[4] - r[3]) for step, r in roots if r)
    m["cli.cpu_s"] = untraced.cpu

    def named(name: str) -> list[list]:
        return [s for _, s in spans if s[2] == name]

    def seconds(name: str) -> list[float]:
        return [s[4] - s[3] for s in named(name)]

    def ms(name: str) -> list[float]:
        return [(s[4] - s[3]) * 1000.0 for s in named(name)]

    def total(name: str) -> float:
        return sum(seconds(name))

    # Ancestry within each step, for spans that must be split by caller.
    by_id = {(id(step), s[0]): s for step, s in spans}

    def under(step, s, name: str) -> bool:
        p = s[1]
        while p:
            ancestor = by_id[(id(step), p)]
            if ancestor[2] == name:
                return True
            p = ancestor[1]
        return False

    # backends: counts from the stub log, timings from the untraced pass.
    stages = Counter(c[0] for c in untraced.calls)
    for stage in STAGES:
        m[f"backends.calls.{stage}"] = stages[stage]
    m["backends.retries"] = sum(c[4] for c in untraced.calls)
    m["backends.tokens_in"] = sum(c[5] for c in untraced.calls)
    m["backends.tokens_out"] = sum(c[6] for c in untraced.calls)
    backend_steps = [s for s in untraced.steps if s.command in ("extract", "rank")]
    busy = union_length([(c[1], c[2]) for c in untraced.calls])
    wall = sum(s.wall for s in backend_steps)
    m["backends.busy_s"] = busy
    m["backends.critical_calls"] = busy / (DELAY_MS / 1000.0)
    m["backends.mean_inflight"] = sum(c[2] - c[1] for c in untraced.calls) / busy if busy else 0.0
    m["backends.client_gap_s"] = wall - busy if backend_steps else 0.0
    generate_ms = ms("backends.generate")
    m.update(timing("backends.call_ms", generate_ms))
    m["backends.overhead_ms"] = statistics.median(generate_ms) - DELAY_MS if generate_ms else 0.0
    m["backends.usage_ratio"] = untraced.extras.get("usage_ratio", 0.0)

    m.update(timing("pipeline.stage_paper_s", seconds("pipeline.stage_paper")))
    m.update(timing("pipeline.finalize_paper_s", seconds("pipeline.finalize_paper")))
    m["pipeline.finalize_total_s"] = total("pipeline.finalize_paper")
    m["pipeline.finalize_calls"] = sum(
        1 for step, s in spans if s[2] == "backends.generate" and under(step, s, "pipeline.finalize_paper")
    )

    m.update(timing("graph.load_s", seconds("graph.load")))
    m.update(timing("graph.add_paper_record_ms", [
        (s[4] - s[3]) * 1000.0 for step, s in spans
        if s[2] == "graph.add_paper_record" and not under(step, s, "graph.load")
    ]))
    saves = named("graph.save")
    m["graph.unresolved_final"] = saves[-1][5]["unresolved"] if saves else 0
    m["graph.save_s"] = total("graph.save")
    m["graph.validate_s"] = total("graph.validate")
    m.update(timing("graph.contributions_of_ms", ms("graph.contributions_of")))
    m.update(timing("graph.deduplicated_edges_ms", ms("graph.deduplicated_edges")))
    m.update(timing("records.parse_record_ms", ms("records.parse_record")))
    m["jsonl.bytes_written"] = sum(s.store_delta for s in traced.steps)

    histograms = named("frontier.build_histogram")
    m["frontier.build_histogram_s"] = total("frontier.build_histogram")
    m["frontier.histogram_keys"] = histograms[-1][5]["keys"] if histograms else 0

    problems = named("taskgen.build_problem")
    m["embedding.build_index_s"] = total("embedding.build_index")
    m["embedding.load_s"] = total("embedding.load")
    m.update(timing("embedding.cosine_top_k_ms", ms("embedding.cosine_top_k")))
    m["embedding.queries_per_problem"] = len(named("embedding.cosine_top_k")) / len(problems) if problems else 0.0

    self_s: Counter = Counter()
    build_self_ms = []
    for step in traced.steps:
        exclusive = self_times(step.spans or [])
        for s in step.spans or []:
            self_s[s[2].split(".")[0]] += exclusive[s[0]]
            if s[2] == "taskgen.build_problem":
                build_self_ms.append(exclusive[s[0]] * 1000.0)
    m["taskgen.sample_targets_s"] = total("taskgen.sample_targets")
    m.update(timing("taskgen.build_problem_ms", ms("taskgen.build_problem")))
    m["taskgen.build_problem_self_ms"] = statistics.median(build_self_ms) if build_self_ms else 0.0
    m["taskgen.skips"] = sum(1 for s in problems if s[5])

    m.update(timing("evaluation.rank_ms", ms("evaluation.rank_with_model")))
    m["evaluation.score_run_s"] = total("evaluation.score_run")
    m["evaluation.flagged"] = untraced.extras.get("flagged", 0.0)
    m["evaluation.cost_ratio"] = untraced.extras.get("cost_ratio", 0.0)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = len(spans)
    m["trace.untraced_wall_s"] = untraced.wall
    m["trace.traced_wall_s"] = traced.wall
    m["trace.overhead_s"] = traced.wall - untraced.wall
    # Self times plus interpreter start-up against the clock from the first
    # step's start to the last one's end (driver work between steps included).
    clock = traced.steps[-1].end - traced.steps[0].start
    m["trace.accounted_frac"] = (sum(self_s.values()) + m["cli.startup_s"]) / clock
    for name in EXTRAS:
        m[f"workload.{name}"] = untraced.extras.get(name, 0.0)
    return m


EXTRAS = (
    "extract_papers_per_s", "calls_per_paper", "tokens_per_paper", "ingest_records_per_s", "readonly_cmd_s",
    "embed_contribs_per_s", "taskgen_problems_per_s", "rank_problems_per_s", "tokens_per_problem",
)
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
    "calls_per_paper": "calls/paper", "tokens_per_paper": "tokens/paper", "tokens_per_problem": "tokens/problem",
    "backends.critical_calls": "calls", "backends.mean_inflight": "calls", "jsonl.bytes_written": "B",
    "embedding.queries_per_problem": "queries/problem",
}


def unit_of(name: str) -> str:
    if name.endswith(".tail"):
        return unit_of(name[: -len(".tail")])
    name = name.removeprefix("workload.")
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run(workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    env = child_env()
    stub = Stub(work, env) if workload.uses_stub else None
    try:
        runner = Runner(work, stub)
        setup_walls: list[float] = []

        def set_up(root: Path):
            start = time.monotonic()
            corpus = workload.setup(root, seed, runner)
            setup_walls.append(time.monotonic() - start)
            return corpus

        reps: list[Rep] = []
        reference_walls: list[float] = []
        begin = time.monotonic()
        corpus = set_up(work)  # the inputs every repetition reads
        if trace:
            reps.append(workload.run(runner, corpus, work / "rep-0", seed, traced=False))
            reps.append(workload.run(runner, corpus, work / "rep-1", seed, traced=True))
        else:
            # The host's speed changes in phases of seconds to minutes.
            # Further set-ups, into a directory no repetition reads, are
            # spread evenly over the run between steps, and the reference
            # job runs before every step, so that its median follows the
            # host's speed over the same span as the medians it rescales.
            interval = seconds / workload.setup_samples
            sample_dir = work / "setup-sample"
            reference_input = work / "reference.jsonl"
            reference.write_input(reference_input)

            def sample() -> None:
                if time.monotonic() - begin >= interval * len(setup_walls):
                    set_up(sample_dir)
                    shutil.rmtree(sample_dir)
                reference_walls.append(runner.reference(reference_input))

            runner.before_step = sample
            laps: list[float] = []
            while True:
                start = time.monotonic()
                reps.append(workload.run(runner, corpus, work / f"rep-{len(reps)}", seed, traced=False))
                shutil.rmtree(work / f"rep-{len(reps) - 1}", ignore_errors=True)
                laps.append(time.monotonic() - start)
                if time.monotonic() - begin + statistics.median(laps) > seconds:
                    break
    finally:
        if stub is not None:
            stub.stop()
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for r in reps:
        for message in r.failures:
            print(f"check failed: {message}")
    print("digests: " + json.dumps(reps[0].digests, sort_keys=True))
    for name in EXTRAS:
        if name in reps[0].extras:
            print(f"{name}: {statistics.median(r.extras[name] for r in reps):.6g} {unit_of(name)}")
    if trace:
        metrics = layer_metrics(reps[0], reps[1])
    else:
        # Every repetition runs the same steps; each step's median run, summed.
        setup_s = statistics.median(setup_walls)
        wall_s = sum(statistics.median(s.wall for s in runs) for runs in zip(*(r.steps for r in reps)))
        host = statistics.median(reference_walls)
        scale = REFERENCE_NOMINAL_S / host
        print(f"measured: setup_s {setup_s:.4f} s, wall_s {wall_s:.4f} s; "
              f"reference job {host:.4f} s (median of {len(reference_walls)}), scale {scale:.4f}")
        metrics = {
            "setup_s": setup_s * scale,
            "wall_s": wall_s * scale if workload.cpu_bound else wall_s,
            "peak_rss_mb": max(s.rss_mb for r in reps for s in r.steps),
            "ok_frac": 1.0 - failed / attempted,
        }
    print(f"reps: {len(reps)}, setup runs: {len(setup_walls)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contribgraph end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contribgraph" / "cli.py").is_file():
        print(f"error: no contribgraph sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the stub and any CLI child are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
