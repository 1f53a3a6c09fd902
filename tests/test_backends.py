"""The HTTP path of the generation backend, against loopback servers:
status and body checks, one connection per call and no retry, and
proxies from the environment."""
from __future__ import annotations

import base64
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from contribgraph.backends import HttpBackend
from contribgraph.errors import BackendError

from conftest import hang_up, partial_reply, reply, stall

SRC = Path(__file__).resolve().parent.parent / "src"
PATH = "/v1/chat/completions"
# A loopback address where nothing listens: a request that skips the proxy
# fails here, and no lookup or connection leaves the host.
BEHIND_PROXY = "127.0.0.2:9"


def completion(text: str = "ok", **usage: int) -> bytes:
    body: dict = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage:
        body["usage"] = usage
    return json.dumps(body).encode("utf-8")


def http_backend(url: str, **kwargs) -> HttpBackend:
    return HttpBackend(endpoint=url + PATH, model="m", **kwargs)


def redirect(status: int, location: str):
    def act(handler) -> None:
        handler.send_response(status)
        handler.send_header("Location", location)
        handler.send_header("Content-Length", "5")
        handler.end_headers()
        handler.wfile.write(b"moved")

    return act


def unused_port() -> int:
    """A loopback port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestCompletion:
    def test_text_usage_and_request(self, loopback):
        server = loopback()
        server.default = reply(200, completion("hi", prompt_tokens=7, completion_tokens=3))
        backend = http_backend(server.url, api_key="k", price_in_per_1k=1.0)
        assert backend.generate("prompt") == "hi"
        assert (backend.usage.calls, backend.usage.tokens_in, backend.usage.tokens_out) == (1, 7, 3)
        assert backend.usage.cost == pytest.approx(0.007)
        method, path, headers, body = server.requests[0]
        assert (method, path) == ("POST", PATH)
        assert headers["Authorization"] == "Bearer k"
        assert headers["Content-Type"] == "application/json"
        assert headers["User-Agent"].startswith("contribgraph/")
        assert json.loads(body) == {
            "model": "m", "messages": [{"role": "user", "content": "prompt"}], "temperature": 0.0,
        }

    def test_usage_estimated_when_the_reply_has_none(self, loopback):
        server = loopback()
        server.default = reply(200, completion("x" * 40))
        backend = http_backend(server.url)
        backend.generate("p" * 80)
        assert (backend.usage.tokens_in, backend.usage.tokens_out) == (20, 10)


class TestFailures:
    def test_non_200(self, loopback):
        server = loopback()
        server.default = reply(503, b"busy " * 200)
        with pytest.raises(BackendError, match="^generation endpoint returned 503: busy") as e:
            http_backend(server.url).generate("p")
        assert len(str(e.value)) == len("generation endpoint returned 503: ") + 500

    @pytest.mark.parametrize(
        "body",
        [b"<html>busy</html>", b"[]", b'{"choices": []}', b'{"choices": [{"message": {}}]}',
         b'{"choices": [{"message": {"content": null}}]}',
         b'{"choices": [{"message": {"content": "t"}}], "usage": {"prompt_tokens": "many"}}'],
        ids=["not_json", "not_an_object", "no_choice", "no_content", "null_content", "bad_usage"],
    )
    def test_malformed_body(self, loopback, body):
        server = loopback()
        server.default = reply(200, body)
        backend = http_backend(server.url)
        with pytest.raises(BackendError, match="^malformed completion response"):
            backend.generate("p")
        assert backend.usage.calls == 0

    def test_refused_connection(self, loopback):
        backend = http_backend(f"http://127.0.0.1:{unused_port()}")
        with pytest.raises(BackendError, match="^generation request failed: ConnectionRefused"):
            backend.generate("p")

    def test_read_timeout_is_not_retried(self, loopback):
        server = loopback()
        server.script = [stall]
        backend = http_backend(server.url, timeout=0.3)
        with pytest.raises(BackendError, match="^generation request failed: .*timed out"):
            backend.generate("p")
        assert server.posts == 1

    @pytest.mark.parametrize("status", [307, 308])
    def test_redirect_that_keeps_the_post_is_not_followed(self, loopback, status):
        server = loopback()
        server.script = [redirect(status, server.url + "/elsewhere")]
        backend = http_backend(server.url)
        with pytest.raises(BackendError, match=f"^generation endpoint returned {status}: moved"):
            backend.generate("p")
        assert [path for _, path, *_ in server.requests] == [PATH]

    @pytest.mark.parametrize(
        "endpoint", ["ftp://model/v1", "http://model:port/v1", "http:///v1"],
        ids=["ftp_endpoint", "bad_port", "no_host"],
    )
    def test_unusable_endpoint_fails_at_construction(self, endpoint):
        with pytest.raises(BackendError, match="^generation endpoint"):
            HttpBackend(endpoint=endpoint)


class TestOneConnectionPerCall:
    def test_each_call_opens_and_closes_its_own_connection(self, loopback):
        server = loopback()
        server.default = reply(200, completion())
        backend = http_backend(server.url)
        for _ in range(3):
            backend.generate("p")
        assert (server.posts, server.connections) == (3, 3)
        assert all(headers["Connection"] == "close" for _, _, headers, _ in server.requests)

    def test_hang_up_before_the_reply_is_not_retried(self, loopback):
        server = loopback()
        server.script = [hang_up, reply(200, completion())]
        backend = http_backend(server.url)
        with pytest.raises(BackendError, match="^generation request failed: RemoteDisconnected"):
            backend.generate("p")
        assert server.posts == 1

    def test_partial_reply_is_never_resent(self, loopback):
        server = loopback()
        server.script = [partial_reply, reply(200, completion())]
        backend = http_backend(server.url)
        with pytest.raises(BackendError, match="^generation request failed: IncompleteRead"):
            backend.generate("p")
        assert server.posts == 1


class TestProxy:
    def test_http_proxy_gets_the_absolute_uri(self, loopback, monkeypatch):
        proxy = loopback()
        proxy.default = reply(200, completion("via proxy"))
        monkeypatch.setenv("HTTP_PROXY", proxy.url)
        assert http_backend(f"http://{BEHIND_PROXY}").generate("p") == "via proxy"
        _, path, headers, _ = proxy.requests[0]
        assert path == f"http://{BEHIND_PROXY}{PATH}"
        assert headers["Host"] == BEHIND_PROXY
        assert "Proxy-Authorization" not in headers

    def test_proxy_credentials_become_basic_auth(self, loopback, monkeypatch):
        proxy = loopback()
        proxy.default = reply(200, completion())
        monkeypatch.setenv("http_proxy", proxy.url.replace("//", "//user:p%40ss@"))
        http_backend(f"http://{BEHIND_PROXY}").generate("p")
        expected = "Basic " + base64.b64encode(b"user:p@ss").decode("ascii")
        assert proxy.requests[0][2]["Proxy-Authorization"] == expected

    def test_no_proxy_bypasses_the_proxy(self, loopback, monkeypatch):
        server = loopback()
        server.default = reply(200, completion("direct"))
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{unused_port()}")
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        assert http_backend(server.url).generate("p") == "direct"
        assert server.requests[0][1] == PATH

    def test_https_goes_through_a_connect_tunnel(self, loopback, monkeypatch):
        proxy = loopback()
        monkeypatch.setenv("HTTPS_PROXY", proxy.url)
        with pytest.raises(BackendError, match="^generation request failed: .*Tunnel.*502"):
            http_backend(f"https://{BEHIND_PROXY}").generate("p")
        assert [(method, path) for method, path, *_ in proxy.requests] == [
            ("CONNECT", BEHIND_PROXY)
        ]

    def test_proxy_other_than_http_fails_at_the_call(self, loopback, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "socks5://127.0.0.1:1080")
        with pytest.raises(BackendError, match="^generation request failed: .*socks5"):
            http_backend(f"http://{BEHIND_PROXY}").generate("p")


def test_http_clients_need_no_requests(tmp_path):
    """Both HTTP clients import and construct with `requests` unimportable."""
    probe = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "from contribgraph.backends import HttpBackend\n"
        "from contribgraph.embedding import HttpEmbeddingProvider\n"
        "HttpBackend(endpoint='https://model.invalid/v1')\n"
        "HttpEmbeddingProvider(endpoint='http://model.invalid/v1')\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
