import http.server
import json
import os
import threading
import urllib.request
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
    # a proxy set on the host must not reroute 127.0.0.1, and urlopen keeps
    # the opener (with the proxies it read) from its first call
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    monkeypatch.setattr(urllib.request, "_opener", None)
    server = http.server.HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script, server.seen = [], []
    server.url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
