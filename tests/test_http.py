"""Retry and backoff behavior of the shared JSON POST helper: against a fake
``urllib.request.urlopen``, then against a real server on the loopback
interface."""

from __future__ import annotations

import http.client
import io
import json
import socket
import urllib.error

import pytest

from graphrag._http import post_json
from graphrag.errors import ClientError


class _Response:
    """What ``urlopen`` returns for a 2xx: a context manager with ``read``."""

    def __init__(self, body=b"{}"):
        self._body = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self):
        return self._body


def _http_error(code, text=""):
    """What ``urlopen`` raises for a status it does not return."""
    return urllib.error.HTTPError("http://svc", code, "status", None, io.BytesIO(text.encode("utf-8")))


def patch_transport(monkeypatch, outcomes):
    """Each call to urlopen pops the next outcome (exception or response)."""
    calls = []

    def fake_urlopen(request, timeout=None):
        calls.append({
            "url": request.full_url,
            "method": request.get_method(),
            "json": json.loads(request.data),
            "headers": dict(request.header_items()),
            "timeout": timeout,
        })
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    sleeps = []
    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setattr("graphrag._http.time.sleep", sleeps.append)
    return calls, sleeps


def test_success_first_try(monkeypatch):
    calls, sleeps = patch_transport(monkeypatch, [_Response(body={"ok": True})])
    assert post_json("http://svc", {"a": 1}, timeout=7.5) == {"ok": True}
    assert len(calls) == 1
    assert sleeps == []
    assert calls[0]["json"] == {"a": 1}
    assert calls[0]["method"] == "POST"
    assert calls[0]["timeout"] == 7.5
    assert calls[0]["headers"] == {"Content-type": "application/json"}


def test_api_key_becomes_bearer_header(monkeypatch):
    calls, _ = patch_transport(monkeypatch, [_Response(body={})])
    post_json("http://svc", {}, api_key="sk-test")
    assert calls[0]["headers"]["Authorization"] == "Bearer sk-test"


def test_connection_error_retries_then_succeeds(monkeypatch):
    calls, sleeps = patch_transport(
        monkeypatch,
        [urllib.error.URLError(ConnectionRefusedError("refused")), _Response(body={"ok": 1})],
    )
    assert post_json("http://svc", {}) == {"ok": 1}
    assert len(calls) == 2
    assert sleeps == [0.5]  # first backoff step


def test_backoff_doubles(monkeypatch):
    calls, sleeps = patch_transport(
        monkeypatch,
        [TimeoutError("slow"), TimeoutError("slow"), _Response(body={})],
    )
    post_json("http://svc", {})
    assert sleeps == [0.5, 1.0]


def test_protocol_error_retries(monkeypatch):
    calls, sleeps = patch_transport(
        monkeypatch,
        [http.client.RemoteDisconnected("closed"), http.client.IncompleteRead(b"{"), _Response(body={})],
    )
    assert post_json("http://svc", {}) == {}
    assert len(calls) == 3
    assert sleeps == [0.5, 1.0]


def test_server_errors_exhaust_attempts(monkeypatch):
    calls, sleeps = patch_transport(
        monkeypatch,
        [_http_error(500), _http_error(502), _http_error(503)],
    )
    with pytest.raises(ClientError, match="after 3 attempts"):
        post_json("http://svc", {})
    assert len(calls) == 3
    assert len(sleeps) == 2


def test_client_error_never_retries(monkeypatch):
    calls, sleeps = patch_transport(monkeypatch, [_http_error(400, "bad request " + "x" * 300)])
    with pytest.raises(ClientError, match="rejected request: 400 bad request") as info:
        post_json("http://svc", {})
    assert str(info.value).endswith("bad request " + "x" * 188)  # 200 characters of the body
    assert len(calls) == 1
    assert sleeps == []


def test_unfollowed_redirect_never_retries(monkeypatch):
    calls, sleeps = patch_transport(monkeypatch, [_http_error(307)])
    with pytest.raises(ClientError, match="rejected request: 307"):
        post_json("http://svc", {})
    assert len(calls) == 1
    assert sleeps == []


def test_non_json_body_fails_immediately(monkeypatch):
    calls, _ = patch_transport(monkeypatch, [_Response(body=b"not json")])
    with pytest.raises(ClientError, match="non-JSON"):
        post_json("http://svc", {})
    assert len(calls) == 1


def test_json_that_is_not_an_object_fails_immediately(monkeypatch):
    calls, _ = patch_transport(monkeypatch, [_Response(body=[1, 2])])
    with pytest.raises(ClientError, match="not an object"):
        post_json("http://svc", {})
    assert len(calls) == 1


def test_malformed_url_fails_without_a_request(monkeypatch):
    calls, sleeps = patch_transport(monkeypatch, [])
    with pytest.raises(ClientError, match="cannot send"):
        post_json("svc/embeddings", {})
    assert calls == [] and sleeps == []


# -- a real server on 127.0.0.1 ----------------------------------------------------


@pytest.fixture()
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr("graphrag._http.time.sleep", recorded.append)
    return recorded


def _scripted(*replies):
    """A loopback reply function that answers with each (status, body) in turn."""
    queue = list(replies)
    return lambda path, body: queue.pop(0)


def test_loopback_body_and_headers_arrive(loopback, sleeps):
    url, received = loopback(_scripted((200, b'{"ok": true}')))
    payload = {"input": ["café", "青铜"], "n": 2}
    assert post_json(f"{url}/v1/embeddings", payload, api_key="sk-test") == {"ok": True}
    [(path, headers, body)] = received
    assert path == "/v1/embeddings"
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer sk-test"
    assert body == json.dumps(payload).encode("utf-8")
    assert sleeps == []


def test_loopback_server_error_then_success(loopback, sleeps):
    url, received = loopback(_scripted((503, b"busy"), (200, b'{"ok": 1}')))
    assert post_json(url, {}) == {"ok": 1}
    assert len(received) == 2
    assert sleeps == [0.5]


def test_loopback_client_error_holds_the_body(loopback, sleeps):
    url, received = loopback(_scripted((400, b"model 'x' does not exist")))
    with pytest.raises(ClientError, match="400 model 'x' does not exist"):
        post_json(url, {})
    assert len(received) == 1
    assert sleeps == []


def test_loopback_redirect_is_not_followed(loopback, sleeps):
    url, received = loopback(_scripted((307, b"")))
    with pytest.raises(ClientError, match="rejected request: 307"):
        post_json(url, {})
    assert len(received) == 1


def test_loopback_non_json_body(loopback, sleeps):
    url, received = loopback(_scripted((200, b"<html>gateway</html>")))
    with pytest.raises(ClientError, match="non-JSON"):
        post_json(url, {})
    assert len(received) == 1


def test_loopback_json_array_body(loopback, sleeps):
    url, received = loopback(_scripted((200, b"[1, 2]")))
    with pytest.raises(ClientError, match="not an object: list"):
        post_json(url, {})
    assert len(received) == 1


def test_loopback_refused_connection_exhausts_attempts(loopback, sleeps):
    with socket.socket() as probe:  # a port that nothing listens on once closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(ClientError, match="after 3 attempts"):
        post_json(f"http://127.0.0.1:{port}", {})
    assert sleeps == [0.5, 1.0]
