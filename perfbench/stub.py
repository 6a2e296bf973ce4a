"""Loopback chat-completion stub for `gen-qa`.

It serves one request at a time from a single thread of the benchmark on
127.0.0.1 and never sleeps, so `gen-qa` timings measure the client's own
overhead rather than a fake network latency. The response is a pure
function of the prompt: cold runs and cache replays produce identical
bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

# documents at least this many words long get up to MAX_PAIRS overlapping
# ~100-token window answers; shorter ones get two phrases of about an
# eighth of their length
LONG_WORDS = 200
WINDOW = 100
MAX_PAIRS = 80


def paragraph_of(prompt: str) -> str:
    start = prompt.rfind("\nParagraph: ")
    text = prompt[start + len("\nParagraph: "):] if start >= 0 else prompt
    if text.endswith("\nQuestion:"):
        text = text[: -len("\nQuestion:")]
    return text


def respond(prompt: str, discard_share: float) -> tuple[str, int, int]:
    """(completion text, valid pairs, malformed blocks) for one prompt."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    rng = random.Random(digest)
    words = paragraph_of(prompt).split()
    if len(words) >= LONG_WORDS:
        count, base = min(MAX_PAIRS, len(words) // (WINDOW // 2)), WINDOW
    else:  # short phrases, longer for longer documents
        count, base = 2, max(2, len(words) // 8)
    stride = max(1, len(words) // count)
    answers = []
    for k in range(count):
        size = base + rng.randrange(3 + base // 5)
        start = k * stride + rng.randrange(stride)
        answers.append(words[start : start + size] or words[-size:])
    blocks = [
        f"What does the paragraph state in part {k + 1}?\nAnswer: {' '.join(answer)}"
        for k, answer in enumerate(answers)
    ]
    malformed = int(digest[0] < 256 * discard_share)
    if malformed:
        blocks.append("Is anything else worth asking?")
    # the model continues after the prompt's trailing "Question:" sentinel
    return " " + "\nQuestion: ".join(blocks), len(answers), malformed


class ChatStub:
    """Counts requests, valid pairs and malformed blocks it served."""

    def __init__(self, discard_share: float = 0.0):
        self.discard_share = discard_share
        self.requests = 0
        self.pairs = 0
        self.malformed = 0
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05})

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def reset(self) -> None:
        self.requests = self.pairs = self.malformed = 0

    def __enter__(self) -> "ChatStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        stub = self.server.stub
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        text, pairs, malformed = respond(prompt, stub.discard_share)
        stub.requests += 1
        stub.pairs += pairs
        stub.malformed += malformed
        payload = json.dumps(
            {
                "choices": [{"message": {"role": "assistant", "content": text}, "finish_reason": "stop"}],
                "usage": {"prompt_tokens": len(prompt.split()), "completion_tokens": len(text.split())},
            }
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass
