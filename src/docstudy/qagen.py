"""QA generation through an external chat endpoint, as `gen-qa` runs it.

Prompts are byte-stable package assets instantiated per document.
`generate_corpus` replays each document from its task's response log, which
keeps every raw response with the sha256 of the request that bought it, or
fetches it through a `ChatClient`, which speaks a generic JSON-over-HTTP
chat-completion protocol. Replayed or fetched, a response is parsed into
its pairs the same way, and the pairs are handed on one document at a time.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from collections import deque, namedtuple
from importlib import resources
from pathlib import Path
from urllib.parse import urlsplit

from .corpus import RawDocument
from .errors import DataError, MalformedLineError, UsageError
from .jsonio import encode_line, parse_object
from .qapairs import QAPair, read_qa_jsonl  # read_qa_jsonl stays importable here
from .vocab import NLI_LABELS, NLI_OPTIONS, TASK_GENERATION, TASK_NLI, fill

# a reply may give an NLI label, its option text, or the option without "'"
_LABEL_CANON = {
    form.lower(): label
    for option, label in zip(NLI_OPTIONS, NLI_LABELS)
    for form in (label, option, option.replace("'", ""))
}

ENDPOINT_ENV = "DOCSTUDY_CHAT_ENDPOINT"
API_KEY_ENV = "DOCSTUDY_API_KEY"


class ParseError(DataError):
    """Raw response contained no parseable question/answer block."""


@functools.cache
def _prompt_asset(name: str) -> str:
    return resources.files("docstudy").joinpath("data", "prompts", name).read_text("utf-8")


def build_generation_prompt(doc: RawDocument) -> str:
    if not doc.title or not doc.body:
        raise DataError("document needs a title and body")
    return fill(_prompt_asset("qa_generation.txt"), topic=doc.title, paragraph=doc.body).rstrip("\n")


def build_nli_prompt(doc: RawDocument) -> str:
    if not doc.title or not doc.body:
        raise DataError("document needs a title and body")
    return fill(_prompt_asset("qa_nli.txt"), topic=doc.title, paragraph=doc.body).rstrip("\n")


def build_type_prompt(doc: RawDocument, qas: list["QAPair"]) -> str:
    if not qas:
        raise DataError("type annotation prompt needs at least one QA pair")
    qa_text = "\n".join(f"Question: {qa.question}\nAnswer: {qa.answer}" for qa in qas)
    return fill(_prompt_asset("qa_types.txt"), paragraph=doc.body, QA=qa_text).rstrip("\n")


def canonical_label(text: str) -> str | None:
    return _LABEL_CANON.get(text.strip().strip(".").lower())


class ParsedResponse:
    __slots__ = ("pairs", "discarded")

    def __init__(self, pairs: list[QAPair], discarded: int = 0):
        self.pairs = pairs
        self.discarded = discarded


# a marker starts a line; the text gets a leading "\n" instead of a "^|" branch,
# which would keep sre from scanning for the literal (25 times slower on long replies)
_QUESTION_MARK = re.compile(r"\nQuestion:", re.IGNORECASE)
_ANSWER_MARK = re.compile(r"\nAnswer:", re.IGNORECASE)
_OPTIONS_MARK = re.compile(r"\s*Options:\s*", re.IGNORECASE)


def parse_qa_response(raw: str, task: str, doc_id: str = "") -> ParsedResponse:
    """Scan alternating Question/Answer blocks out of a raw completion.

    The model often continues from the prompt's trailing ``Question:``
    sentinel, so text before the first explicit marker is treated as the
    opening question. Trailing or malformed blocks are dropped and counted.
    """
    if not raw.strip():
        raise ParseError("empty response")
    text = "\n" + raw.strip()
    if not _QUESTION_MARK.match(text):
        text = "\nQuestion: " + text[1:]

    pairs: list[QAPair] = []
    discarded = 0
    chunks = _QUESTION_MARK.split(text)
    for chunk in chunks:
        if not chunk.strip():
            continue
        split = _ANSWER_MARK.split(chunk, maxsplit=1)
        if len(split) != 2:
            discarded += 1
            continue
        question_part, answer_part = split
        answer = answer_part.strip()
        question = question_part.strip()
        options = None
        label = None
        if task == TASK_NLI:
            opt_split = _OPTIONS_MARK.split(question_part, maxsplit=1)
            question = opt_split[0].strip()
            options = NLI_OPTIONS
            label = canonical_label(answer.splitlines()[0]) if answer else None
            if label is None:
                discarded += 1
                continue
            answer = NLI_OPTIONS[NLI_LABELS.index(label)]
        else:
            answer = answer.strip()
        if not question or not answer:
            discarded += 1
            continue
        pairs.append(
            QAPair(
                doc_id=doc_id,
                task=task,
                question=question,
                answer=answer,
                options=options,
                answer_label=label,
            )
        )
    if not pairs:
        raise ParseError(f"no question/answer blocks found (discarded {discarded})")
    return ParsedResponse(pairs=pairs, discarded=discarded)


class ChatResponse(namedtuple("ChatResponse", "text finish_reason usage", defaults=("", None))):
    """A reply's text, finish reason and usage object, as the endpoint sent them."""

    __slots__ = ()


class ChatError(DataError):
    """Chat endpoint failed permanently or returned malformed output."""


_TRANSIENT_STATUSES = {429, 500, 502, 503, 504}


def _http_pool():
    """The default transport, made by a client's first request: a run that
    sends none, a replay included, never loads the HTTP modules."""
    from .transport import HttpPool

    return HttpPool()


def _check_endpoint(endpoint: str) -> None:
    """Refuse an endpoint no request could be sent to, before any is sent."""
    try:
        parts = urlsplit(endpoint)
        if parts.port == 0:  # .port raises for a port out of 0-65535 or not a number
            raise ValueError("port 0 cannot be connected to")
    except ValueError as exc:
        raise UsageError(f"chat endpoint {endpoint!r} is not a valid URL: {exc}") from None
    if parts.scheme not in ("http", "https"):
        raise UsageError(f"chat endpoint {endpoint!r} is not an http(s) URL")
    if re.search(r"[^\x21-\x7e]", endpoint):  # a request line and a Host header are printable ASCII
        raise UsageError(f"chat endpoint {endpoint!r} holds whitespace, a control or a non-ASCII character")
    if "@" in parts.netloc:  # not echoed: it may hold a password
        raise UsageError("chat endpoint holds user info (user:password@), which is never sent")
    if not parts.hostname:
        raise UsageError(f"chat endpoint {endpoint!r} has no host")


class Exchange:
    """One prompt's request across its attempts: `ChatClient.prepare`
    builds it, `send` sends it, `retry` schedules the next attempt, `wait`
    tells when `read` can take the reply."""

    __slots__ = ("request", "attempts", "handle", "deadline", "due", "reply")

    def __init__(self, request):
        self.request = request  # the encoded bytes
        self.attempts = 0
        self.handle = None  # the transport's handle on the attempt in flight, until its reply is read
        self.deadline = 0.0  # when a reply that has not begun becomes a connection error
        self.due = None  # when the next attempt goes out, while it waits out its backoff
        self.reply = None  # (status, body) or the OSError that failed the attempt, once known


class ChatClient:
    """Chat-completion client with retry, used from one thread. `prepare`,
    `send`, `wait`, `read` and `retry` let the caller build a request before
    it can go out, keep several in flight, each with its own backoff, and do
    other work while they are. `close()` (or `with`) closes its connections.
    `transport` speaks `transport.HttpPool`'s protocol (`encode`, `send`,
    `wait`, `read`, `close`); by default the first `prepare` makes an
    `HttpPool`. `clock` is the time that backoffs and timeouts are measured
    on, and `sleep` waits out a backoff while no request is in flight."""

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        max_retries: int = 5,
        backoff: float = 0.5,
        timeout: float = 60.0,
        transport=None,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not self.endpoint:
            raise UsageError(f"no chat endpoint configured (set {ENDPOINT_ENV})")
        _check_endpoint(self.endpoint)
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self._transport = transport
        self._sleep = sleep
        self._clock = clock

    def __enter__(self) -> "ChatClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._transport is not None:  # none until the first request
            self._transport.close()

    def prepare(self, request: dict) -> Exchange:
        """The exchange that sends `request`, a dict of "prompt", "model",
        "temperature" and "max_tokens" as the response log records it,
        ready to `send`."""
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": request["model"],
            "messages": [{"role": "user", "content": request["prompt"]}],
            "temperature": request["temperature"],
            "max_tokens": request["max_tokens"],
        }
        if self._transport is None:
            self._transport = _http_pool()
        return Exchange(self._transport.encode(self.endpoint, headers, payload))

    def send(self, exchange: Exchange) -> None:
        """Send `exchange`'s next attempt; a failure to send is kept for `read`."""
        exchange.attempts += 1
        exchange.reply = exchange.due = None
        try:
            exchange.handle = self._transport.send(exchange.request, self.timeout)
            exchange.deadline = self._clock() + self.timeout
        except OSError as exc:
            exchange.reply = exc

    def retry(self, exchange: Exchange) -> None:
        """Schedule the next attempt after its backoff; `wait` sends it."""
        exchange.due = self._clock() + self.backoff * (2 ** (exchange.attempts - 1))

    def wait(self, exchanges: list) -> list:
        """Those of `exchanges` (one at least) whose reply `read` can take
        now, once there is one: the reply has begun or is overdue, or the
        attempt has failed. A retry whose backoff is over is sent on the
        way; while no request is in flight, the client sleeps until the
        next is due."""
        now = self._clock()
        while True:
            for exchange in exchanges:
                if exchange.due is not None and exchange.due <= now:
                    self.send(exchange)
            ready = [exchange for exchange in exchanges
                     if exchange.due is None and (exchange.handle is None or exchange.deadline <= now)]
            if ready:
                return ready
            first = min(exchange.deadline if exchange.due is None else exchange.due for exchange in exchanges)
            handles = [exchange.handle for exchange in exchanges if exchange.handle is not None]
            if handles:
                begun = self._transport.wait(handles, first - now)
                if begun:
                    return [exchange for exchange in exchanges if exchange.handle in begun]
            else:
                self._sleep(first - now)
            now = max(self._clock(), first)  # a wait that ends with nothing begun ran to the first timer

    def read(self, exchange: Exchange) -> ChatResponse | None:
        """The reply to `exchange` once `wait` has returned it, or None when
        the attempt failed transiently and may be retried."""
        try:
            if exchange.handle is not None:
                handle, exchange.handle = exchange.handle, None
                exchange.reply = self._transport.read(handle)
        except OSError as exc:
            exchange.reply = exc
        if isinstance(exchange.reply, ConnectionError):
            error = f"connection error: {exchange.reply}"
        elif isinstance(exchange.reply, OSError):  # permanent, such as an untrusted certificate
            raise ChatError(f"chat request failed: {exchange.reply}") from exchange.reply
        elif exchange.reply[0] in _TRANSIENT_STATUSES:
            error = f"transient HTTP {exchange.reply[0]}"
        else:
            status, body = exchange.reply
            if status != 200:
                raise ChatError(f"chat endpoint returned HTTP {status}: {body}")
            try:
                choice = body["choices"][0]
                text = choice["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError("content is not a string")
            except (KeyError, IndexError, TypeError) as exc:
                raise ChatError(f"malformed chat response: {body}") from exc
            return ChatResponse(text=text, finish_reason=choice.get("finish_reason", ""), usage=body.get("usage", {}))
        if exchange.attempts > self.max_retries:
            raise ChatError(f"chat request failed after {self.max_retries + 1} attempts ({error})")
        return None


PROMPT_BUILDERS = {TASK_GENERATION: build_generation_prompt, TASK_NLI: build_nli_prompt}

_ENTRY_SHAPE = (
    "a cache entry needs a string 'doc_id', a string 'request_sha256' (or, in the older format, an object"
    " 'request') and an object 'response' with a string 'text'"
)


def request_sha256(request: dict) -> str:
    """The digest a log line records its request by: the sha256 of the request's canonical line."""
    import hashlib  # loads libcrypto, so only a command that hashes pays for it

    return hashlib.sha256(encode_line(request)).hexdigest()


class ResponseLog:
    """The append-only response cache of one QA task, one canonical line per
    fetched response: `{"doc_id", "request_sha256", "response"}`. The
    digest is `request_sha256` of the request (prompt and settings), and the
    response is the reply as billed (`text`, `finish_reason`, `usage`). The
    prompt, a pure function of the document and the task, and the pairs, a
    pure function of the reply, are not kept. A line of the older format,
    `{"discarded", "doc_id", "pairs", "request", "response"}`, is still read:
    it matches by its `request`, and only its `response` is used. A line is
    read back as any JSON object of either shape: an exact canonical check
    would re-encode every line, which costs about five times its parse on a
    line under 4,096 characters (`jsonio` re-encodes a longer one in about
    the time of its parse).

    Opening locks the log for the life of the object, so a second run on it
    fails at once, and reads it once, keeping only each doc id's last
    complete line as (offset, length, line number). A final line with no LF
    is an append cut short by a kill: it is ignored, and truncated away
    before the first append.
    """

    def __init__(self, path):
        import fcntl  # POSIX only, so `split` and `stats`, which import qagen, do not need it

        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o666)
        try:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise OSError(f"{self.path} is in use by another gen-qa run") from None
            self._index: dict[str, tuple[int, int, int]] = {}
            self._end = self._lines = 0
            with open(self._fd, "rb", closefd=False) as handle:
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break
                    self._lines += 1
                    self._index[self._entry(raw, self._lines)["doc_id"]] = (self._end, len(raw), self._lines)
                    self._end += len(raw)
            self._torn = os.fstat(self._fd).st_size > self._end
        except BaseException:
            os.close(self._fd)
            raise

    def __enter__(self) -> "ResponseLog":
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._fd)  # and with it the lock

    def _entry(self, raw: bytes, line_no: int) -> dict:
        try:
            entry = parse_object(raw.decode("utf-8"))
        except ValueError as exc:
            raise MalformedLineError(self.path, line_no, str(exc)) from None
        response = entry.get("response")
        if not (
            isinstance(entry.get("doc_id"), str)
            and (isinstance(entry.get("request_sha256"), str) or isinstance(entry.get("request"), dict))
            and isinstance(response, dict)
            and isinstance(response.get("text"), str)
        ):
            raise MalformedLineError(self.path, line_no, _ENTRY_SHAPE)
        return entry

    def find(self, doc_id: str, request: dict) -> tuple[str, int] | None:
        """The response text of `doc_id`'s last complete line and that
        line's number, if the line records `request`; else None."""
        where = self._index.get(doc_id)
        if where is None:
            return None
        offset, length, line_no = where
        # checked when the log was opened; the lock keeps other runs out since
        entry = json.loads(os.pread(self._fd, length, offset))
        if "request_sha256" not in entry:  # the older format
            match = entry["request"] == request
        else:
            try:
                match = entry["request_sha256"] == request_sha256(request)
            except UnicodeEncodeError:  # a lone surrogate, from an undecodable --model say, is in no logged request
                return None
        return (entry["response"]["text"], line_no) if match else None

    def append(self, doc_id: str, line: bytes) -> None:
        """Add `doc_id`'s entry line; a kill of this process after it returns
        cannot lose the line (a power loss can: there is no fsync)."""
        if self._torn:
            os.ftruncate(self._fd, self._end)
            self._torn = False
        view = memoryview(line)
        while view:  # one write unless the disk fills up
            view = view[os.write(self._fd, view):]
        self._lines += 1
        self._index[doc_id] = (self._end, len(line), self._lines)
        self._end += len(line)


def lookup_document(
    doc: RawDocument, task: str, client: ChatClient | None, log: ResponseLog, settings: dict
) -> ParsedResponse | dict:
    """The replayed pairs of one document, or the request to fetch them with.

    The request is the document's prompt under `settings` ("model",
    "temperature" and "max_tokens"). The document's entry in `log` replays
    only if it records that request, and its response is parsed as a fetched
    one is, but with no warning for discarded blocks: the fetch printed it.
    Otherwise, with no client to fetch it, the document is a usage error.
    Sends nothing.
    """
    if task not in PROMPT_BUILDERS:
        raise UsageError(f"unknown QA task {task!r}")
    request = {"prompt": PROMPT_BUILDERS[task](doc), **settings}
    found = log.find(doc.id, request)
    if found is not None:
        text, line_no = found
        try:
            return parse_qa_response(text, task, doc_id=doc.id)
        except DataError as exc:  # a line edited by hand, or a parser changed since the fetch
            raise DataError(f"{log.path}:{line_no}: {exc} (document {doc.id!r})") from exc
    if client is None:
        raise UsageError(
            f"no cached response to this request for ({doc.id}, {task}) and no chat endpoint configured"
            f" (set {ENDPOINT_ENV})"
        )
    return request


def _for_document(exc: DataError, doc: RawDocument) -> DataError:
    return type(exc)(f"{exc} (document {doc.id!r})")


def _record(doc: RawDocument, task: str, request: dict, response: ChatResponse) -> tuple[ParsedResponse, bytes]:
    """(parsed, the log line that records them) of the reply to `request`.
    A reply with blocks that cannot be parsed is warned of on stderr."""
    try:
        parsed = parse_qa_response(response.text, task, doc_id=doc.id)
        if parsed.discarded:
            sys.stderr.write(f"warning: discarded {parsed.discarded} malformed block(s) (document {doc.id!r})\n")
        line = encode_line(
            {
                "doc_id": doc.id,
                "request_sha256": request_sha256(request),
                "response": {
                    "text": response.text,
                    "finish_reason": response.finish_reason,
                    "usage": response.usage,
                },
            }
        )
    except UnicodeEncodeError:
        raise DataError(f"the reply holds a lone surrogate, which UTF-8 cannot encode (document {doc.id!r})") from None
    except DataError as exc:  # ParseError, or a reply QAPair refuses
        raise _for_document(exc, doc) from exc
    return parsed, line


class _Pending:
    """A document from its look-up until its outcome leaves the window."""

    __slots__ = ("doc", "request", "exchange", "reply", "outcome")

    def __init__(self, doc: RawDocument):
        self.doc = doc
        self.request = self.exchange = None  # the request the log line's digest is of, and the Exchange that sends it
        self.reply = None  # the ChatResponse, once read
        self.outcome = None  # (parsed, log line or None), or the DataError that failed it


def generate_corpus(
    docs, task: str, client: ChatClient | None, log: ResponseLog, settings: dict, emit, jobs: int = 1
) -> list[DataError]:
    """Replay or fetch the QA pairs of every document on this thread, and
    pass each document's `ParsedResponse` to `emit`, in corpus order, as
    it leaves the window: the errors that failed documents are returned,
    in corpus order.

    `docs` is read as the run goes. A `DataError` it raises (a malformed or
    duplicate corpus line) ends the corpus there: the documents before it
    are settled, logged and emitted, and the error is returned last.

    Up to `jobs` requests are in flight. The next document is looked up
    before the thread waits, and a freed slot's next request is sent before
    the reply that freed it is parsed, so the endpoint works while this
    thread parses, encodes and logs. A fetched line is appended to `log` as
    soon as its document and every earlier one are settled, so the log's
    bytes do not depend on `jobs`, and at most 4 × jobs documents and their
    pairs are held. A document waiting out a retry's backoff keeps its slot
    while the loop goes on with the others. On any exception, an interrupt
    or one that `emit` raises included, every reply already read is logged
    before it propagates.
    """
    window = deque()  # looked-up documents whose outcome is not yet taken, in corpus order
    queued = deque()  # those whose request is not yet sent
    flying = {}  # Exchange -> _Pending, for requests whose reply is unread
    failures, corpus_error = [], []
    source = iter(docs)

    def look_up():
        """Take documents until one has a request to send or the window is full."""
        while not queued and len(window) < 4 * jobs and not corpus_error:
            try:
                doc = next(source, None)
            except DataError as exc:
                corpus_error.append(exc)
                return
            if doc is None:
                return
            item = _Pending(doc)
            window.append(item)
            try:
                found = lookup_document(doc, task, client, log, settings)
            except DataError as exc:
                item.outcome = exc
                continue
            if isinstance(found, ParsedResponse):
                item.outcome = (found, None)
            else:
                item.request, item.exchange = found, client.prepare(found)
                queued.append(item)

    def send():
        """Fill the free slots, looking the next document up after each send."""
        look_up()
        while queued and len(flying) < jobs:
            item = queued.popleft()
            client.send(item.exchange)
            flying[item.exchange] = item
            look_up()

    def settle(item):
        try:
            item.outcome = _record(item.doc, task, item.request, item.reply)
        except DataError as exc:
            item.outcome = exc

    try:
        send()
        while window:
            for exchange in client.wait(list(flying)) if flying else ():
                item = flying[exchange]
                try:
                    item.reply = client.read(exchange)
                    if item.reply is None:
                        client.retry(exchange)  # keeps its slot; a later `wait` sends it
                        continue
                except ChatError as exc:
                    item.outcome = _for_document(exc, item.doc)
                del flying[exchange]
                if item.reply is not None:
                    send()
                    settle(item)
            while window and window[0].outcome is not None:
                item = window.popleft()
                if isinstance(item.outcome, DataError):
                    failures.append(item.outcome)
                    continue
                parsed, line = item.outcome
                if line is not None:
                    log.append(item.doc.id, line)
                emit(parsed)
            send()
    except BaseException:
        for item in window:
            if item.outcome is None and item.reply is not None:
                settle(item)
            if isinstance(item.outcome, tuple) and item.outcome[1] is not None:
                log.append(item.doc.id, item.outcome[1])
        raise
    return failures + corpus_error
