"""Text-generation backends.

The pipeline talks to a single ``generate(prompt) -> text`` contract.
Two implementations ship: a replay mock keyed by the SHA-256 of the
fully rendered prompt (pure, deterministic, used by the whole test
suite), and an OpenAI-compatible HTTP backend that takes its endpoint,
key, model and prices as arguments (the CLI resolves them from flags,
environment and config file).

``JsonTransport`` is the one HTTP client, shared by the generation
backend and the embedding provider. It uses only the standard library
(``urllib.request``): one connection per call, proxies from the
``*_proxy``/``no_proxy`` environment, and TLS roots from the system
store (or ``SSL_CERT_FILE``).

``generate_validated`` is the one call -> parse -> validate -> re-prompt
loop; the extraction stages and ranking all go through it.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import re
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from . import __version__
from .errors import BackendError, ParseFailure, StageFailure


@dataclass
class Usage:
    calls: int = 0
    tokens_in: int = 0
    tokens_out: int = 0
    cost: float = 0.0

    def add(self, tokens_in: int, tokens_out: int, cost: float) -> None:
        self.calls += 1
        self.tokens_in += tokens_in
        self.tokens_out += tokens_out
        self.cost += cost


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class GenerationBackend(ABC):
    """Abstract generation contract: prompt in, text out, usage accounted."""

    name: str = "backend"
    model: str = ""

    def __init__(self) -> None:
        self.usage = Usage()
        self._usage_lock = threading.Lock()
        self._local = threading.local()

    @property
    def tag(self) -> str:
        return f"{self.name}:{self.model}" if self.model else self.name

    @abstractmethod
    def generate(self, prompt: str) -> str:
        ...

    def _account(self, tokens_in: int, tokens_out: int, cost: float) -> None:
        with self._usage_lock:
            self.usage.add(tokens_in, tokens_out, cost)
        counted = getattr(self._local, "usage", None)
        if counted is not None:
            counted.add(tokens_in, tokens_out, cost)

    @contextlib.contextmanager
    def counting(self) -> Iterator[Usage]:
        """Usage of the calls this thread makes inside the block, apart
        from calls made meanwhile on other threads."""
        self._local.usage = usage = Usage()
        try:
            yield usage
        finally:
            self._local.usage = None


class MockBackend(GenerationBackend):
    """Replay backend: responses come from ``<sha256-of-prompt>.txt`` files.

    A pure function of the prompt, so repeated runs are byte-identical.
    An unknown prompt hash is an error so fixture drift fails loudly
    instead of silently changing output.
    """

    name = "mock"
    model = "replay"

    def __init__(self, directory: str | Path):
        super().__init__()
        self.directory = Path(directory)

    def generate(self, prompt: str) -> str:
        digest = prompt_hash(prompt)
        path = self.directory / f"{digest}.txt"
        if not path.exists():
            head = prompt[:160].replace("\n", " ")
            raise BackendError(f"no canned response for prompt hash {digest} ({head!r}...)")
        response = path.read_text(encoding="utf-8")
        # Crude deterministic token estimate; the mock has no tokenizer.
        self._account(len(prompt) // 4, len(response) // 4, 0.0)
        return response


class JsonTransport:
    """POSTs JSON to one endpoint through a ``urllib.request`` opener.

    Each post opens a connection and closes it after the reply; nothing
    is kept between calls. The opener reads the ``*_proxy``/``no_proxy``
    environment once, when the transport is made: over http a proxied
    request goes to the proxy with an absolute URI, over https through a
    ``CONNECT`` tunnel, and credentials in the proxy URL become Basic
    auth. A 307 or 308 reply is not followed, so it fails like any status
    other than 200. Every failure is a BackendError whose message starts
    with ``what`` ("generation", "embedding").
    """

    def __init__(self, url: str, what: str, api_key: Optional[str], timeout: float):
        # Imported here, not at module level: only commands that call an
        # endpoint pay for them.
        import urllib.parse
        import urllib.request

        parts = urllib.parse.urlsplit(url)
        try:
            parts.port  # a port that is not a number raises here
        except ValueError as exc:
            raise BackendError(f"{what} endpoint {url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise BackendError(f"{what} endpoint must be an http(s) URL, got {url!r}")
        self.url = url
        self.what = what
        self.timeout = timeout
        # Some API gateways refuse a request that names no User-Agent.
        self.headers = {"Content-Type": "application/json",
                        "User-Agent": f"contribgraph/{__version__}"}
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"
        self.opener = urllib.request.build_opener()

    def post(self, payload: Any) -> bytes:
        """The body of the 200 reply to ``payload``; nothing is retried."""
        import http.client
        import urllib.error
        import urllib.request

        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(self.url, body, self.headers, method="POST")
        try:
            try:
                response = self.opener.open(request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                response = exc  # a reply whose status is not 2xx, body and all
            with response:
                status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            # urllib wraps a failure before the reply in a URLError; name its cause.
            cause = getattr(exc, "reason", None)
            if not isinstance(cause, BaseException):
                cause = exc
            raise BackendError(
                f"{self.what} request failed: {type(cause).__name__}: {cause}"
            ) from exc
        if status != 200:
            text = data.decode("utf-8", "replace")[:500]
            raise BackendError(f"{self.what} endpoint returned {status}: {text}")
        return data


class HttpBackend(GenerationBackend):
    """OpenAI-compatible chat-completions backend at ``endpoint``.
    Per-1k-token prices feed cost accounting."""

    name = "http"

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        model: str = "",
        price_in_per_1k: float = 0.0,
        price_out_per_1k: float = 0.0,
        timeout: float = 300.0,
    ):
        super().__init__()
        self.model = model
        self.price_in_per_1k = price_in_per_1k
        self.price_out_per_1k = price_out_per_1k
        self._transport = JsonTransport(endpoint, "generation", api_key, timeout)

    def generate(self, prompt: str) -> str:
        body = self._transport.post({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
        })
        try:
            doc = json.loads(body)
            text = doc["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content is {text!r:.80}")
            usage = doc.get("usage") or {}
            tokens_in = int(usage.get("prompt_tokens", len(prompt) // 4))
            tokens_out = int(usage.get("completion_tokens", len(text) // 4))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        cost = (
            tokens_in * self.price_in_per_1k + tokens_out * self.price_out_per_1k
        ) / 1000.0
        self._account(tokens_in, tokens_out, cost)
        return text


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_+-]*[ \t]*\r?\n?(.*?)```", re.DOTALL)


def parse_fenced_json(response: str) -> Any:
    """Parse the last well-formed triple-backtick fence, else the whole body."""
    for text in reversed([m.group(1) for m in _FENCE_RE.finditer(response)]):
        try:
            return json.loads(text.strip())
        except json.JSONDecodeError:
            continue
    try:
        return json.loads(response.strip())
    except json.JSONDecodeError:
        raise ParseFailure("no parseable JSON in response", response) from None


def _retry_suffix(problems: Sequence[str]) -> str:
    lines = "\n".join(f"- {p}" for p in problems)
    return (
        "\n\n# Previous attempt failed validation\n"
        "The previous response was rejected by the schema validator:\n"
        f"{lines}\n"
        "Please answer again, following the output format exactly. "
        "The JSON must be valid JSON, between triple backticks (```).\n"
    )


def generate_validated(
    backend: GenerationBackend,
    prompt: str,
    list_key: str,
    validate: Callable[[list], tuple[Any, list[str]]],
    *,
    retries: int,
    corpus_id: str,
    stage: str,
) -> Any:
    """Call, parse and validate; on a problem, re-prompt with the problems appended.

    The answer must be a JSON object holding a list under ``list_key``;
    ``validate`` maps that list to (value, problems). Makes at most
    ``retries + 1`` calls and raises StageFailure when none validates.
    Transport errors are re-raised naming the paper and the stage.
    """
    problems: list[str] = []
    current = prompt
    for _ in range(retries + 1):
        try:
            response = backend.generate(current)
        except BackendError as exc:
            raise BackendError(f"paper {corpus_id}, stage {stage}: {exc}") from exc
        try:
            doc = parse_fenced_json(response)
        except ParseFailure as exc:
            problems = [f"response is not parseable JSON: {exc}"]
        else:
            if not isinstance(doc, dict) or not isinstance(doc.get(list_key), list):
                problems = [f"top level must be a dict with a `{list_key}` list"]
            else:
                value, problems = validate(doc[list_key])
                if not problems:
                    return value
        current = prompt + _retry_suffix(problems)
    raise StageFailure(corpus_id, stage, "; ".join(problems))
