import http.server
import json
import os
import select
import socket
import socketserver
import ssl
import threading
import time
from pathlib import Path

import pytest

from docstudy.analysis import analyze_document
from docstudy.corpus import ingest_jsonl

DATA = Path(__file__).parent / "data"

ROBERT_BODY = (
    "Robert Alexander Anderson (born 1946) is an American portrait artist "
    "known for painting the official portraits of George W. Bush and Alan "
    "Greenspan as well as designing United States postage stamps."
)
ROBERT_TITLE = "Robert Anderson (artist)"

MORITZ_TITLE = "Helmut Moritz"
MORITZ_BODY = (
    "Helmut Moritz (1 November 1933 - 21 October 2022) was an Austrian "
    "physical geodesist. He was a member of the Austrian Academy of Sciences "
    "and of many other international academies and societies. He became "
    "internationally known with a fundamental work on Error propagation in "
    "Geodesy. From 1991 to 1995, he was president of the International Union "
    "of Geodesy and Geophysics (IUGG)."
)


@pytest.fixture(scope="session")
def robert_corpus():
    return ingest_jsonl(DATA / "robert_anderson.jsonl")


@pytest.fixture(scope="session")
def robert_adoc(robert_corpus):
    return analyze_document(robert_corpus[0])


@pytest.fixture(scope="session")
def eval_fixture():
    return json.loads((DATA / "eval_fixture.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def golden_plans():
    return json.loads((DATA / "stage_plans.json").read_text("utf-8"))


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next (status, content type, body) of the
    server's script and records (path, headers, payload) it received; a
    `truncate` entry promises more bytes than it sends."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.seen.append((self.path, dict(self.headers), json.loads(self.rfile.read(length))))
        status, content_type, body = self.server.script.pop(0)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body) + (content_type == "truncate") * 100))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server(monkeypatch):
    """A loopback chat endpoint on a thread: fill `script`, read `seen`."""
    # a proxy set on the host must not reroute 127.0.0.1
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    server = http.server.HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script, server.seen = [], []
    server.url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def wait_for(condition, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


class _FakeReply:
    __slots__ = ("payload", "step", "begins")

    def __init__(self, payload, step, begins):
        self.payload, self.step, self.begins = payload, step, begins


class FakePool:
    """A scripted stand-in for `transport.HttpPool`, with its public methods.

    `script` gives each request's step as it is sent: a list taken in send
    order (retries included), or a function of the request's payload. A
    step is `(status, body)`, or `(status, body, after)` for a reply that
    begins only after `after` more `wait` calls have returned without it
    (0 by default), or an exception, such as `ConnectionError` or
    `KeyboardInterrupt`, that `read` raises. A `wait` that finds no reply
    begun stands for the time until the first one does, so nothing sleeps.
    Read `sent` and `read_order` (payloads), `in_flight` and `peak` (the
    most requests sent and not yet read at once)."""

    def __init__(self, script):
        if callable(script):
            self._next = script
        else:
            steps = iter(script)
            self._next = lambda payload: next(steps)
        self.sent, self.read_order = [], []
        self.waits = self.in_flight = self.peak = 0

    def encode(self, url: str, headers: dict, payload: dict) -> bytes:
        return json.dumps(payload).encode("utf-8")

    def send(self, message: bytes, timeout: float):
        payload = json.loads(message)
        step = self._next(payload)
        after = step[2] if isinstance(step, tuple) and len(step) == 3 else 0
        self.sent.append(payload)
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        return _FakeReply(payload, step, self.waits + 1 + after)

    def wait(self, socks: list, timeout: float) -> list:
        self.waits += 1
        if not any(sock.begins <= self.waits for sock in socks):
            self.waits = min(sock.begins for sock in socks)
        return [sock for sock in socks if sock.begins <= self.waits]

    def read(self, sock):
        self.in_flight -= 1
        self.read_order.append(sock.payload)
        if not isinstance(sock.step, tuple):
            raise sock.step
        return sock.step[:2]

    def close(self) -> None:
        pass


LOOPBACK_CERT = DATA / "loopback_cert.pem"  # self-signed for 127.0.0.1, test use only
_REPLY = json.dumps({"choices": [{"message": {"content": "Question: Q?\nAnswer: A."}}]}).encode("utf-8")


class _KeepAliveHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with one fixed chat reply over HTTP/1.1, so the
    client may keep the connection; with `drop` set, the server closes it
    after each reply without saying so. A CONNECT is refused with a 502,
    or with `tunnel` set, opens a tunnel to the host:port it names. Each
    request is recorded as (path, headers, payload or None)."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 5  # how long a kept connection waits for its next request

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.seen.append((self.path, dict(self.headers), json.loads(self.rfile.read(length))))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(_REPLY)))
        self.end_headers()
        self.wfile.write(_REPLY)
        self.close_connection = self.server.drop

    def do_CONNECT(self):
        self.server.seen.append((self.path, dict(self.headers), None))
        self.close_connection = True
        if not self.server.tunnel:
            self.send_response(502)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        host, _, port = self.path.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=5) as upstream:
            self.send_response(200, "Connection established")
            self.end_headers()
            _relay(self.connection, upstream)

    def log_message(self, *args):
        pass


def _relay(one, other) -> None:
    """Copies bytes both ways until a side closes or both are idle for 5 s."""
    try:
        while True:
            readable, _, _ = select.select([one, other], [], [], 5)
            for sock in readable:
                data = sock.recv(65536)
                if not data:
                    return
                (other if sock is one else one).sendall(data)
            if not readable:
                return
    except OSError:
        return


class _Http10Handler(_KeepAliveHandler):
    protocol_version = "HTTP/1.0"


class _CountingServer(http.server.ThreadingHTTPServer):
    """Counts the connections it accepts and the ones it has closed."""

    connections = closed = 0

    def get_request(self):
        request = super().get_request()  # with TLS, the handshake runs here
        self.connections += 1
        return request

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed += 1


@pytest.fixture()
def loopback_server(monkeypatch):
    """Starts loopback chat servers that count connections:
    `loopback_server(tls=False, drop=False, http10=False, tunnel=False)`; read `seen`,
    `connections` and `closed`. An HTTP/1.0 server closes each connection
    after its reply, as the `chat_server` fixture does; for an HTTP/1.1
    one, close every client before the test ends."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    servers = []

    def start(tls: bool = False, drop: bool = False, http10: bool = False, tunnel: bool = False):
        server = _CountingServer(("127.0.0.1", 0), _Http10Handler if http10 else _KeepAliveHandler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(LOOPBACK_CERT, DATA / "loopback_key.pem")
            server.socket = context.wrap_socket(server.socket, server_side=True)
        server.seen, server.drop, server.tunnel = [], drop, tunnel
        scheme = "https" if tls else "http"
        server.url = f"{scheme}://127.0.0.1:{server.server_port}/v1/chat/completions"
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class _RawHandler(socketserver.StreamRequestHandler):
    timeout = 5

    def handle(self):
        try:
            while True:
                line = self.rfile.readline()
                if not line:  # the client closed the connection
                    return
                length = 0
                while (field := self.rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = field.partition(b":")
                    length = int(value) if name.lower() == b"content-length" else length
                self.server.seen.append((line, self.rfile.read(length)))
                reply, close = self.server.script.pop(0)
                for i, part in enumerate(reply if isinstance(reply, list) else [reply]):
                    if i:  # so the client may read the parts one by one
                        time.sleep(0.05)
                    self.wfile.write(part)
                if close:
                    return
        except OSError:  # the client gave up on a reply, as it should on a bad one
            return


class _RawServer(socketserver.ThreadingTCPServer):
    connections = 0

    def get_request(self):
        request = super().get_request()
        self.connections += 1
        return request


@pytest.fixture()
def raw_server(monkeypatch):
    """A loopback server that answers each request with the bytes of the
    next `(reply, close)` in its `script`, and closes the connection after
    it if `close` is set; a reply given as a list of parts is sent one part
    every 50 ms. Read `seen` as (request line, body) and `connections`.
    Close every client before the test ends."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    server = _RawServer(("127.0.0.1", 0), _RawHandler)
    server.script, server.seen = [], []
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
