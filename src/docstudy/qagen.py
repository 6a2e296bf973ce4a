"""Prompt construction and response parsing for external QA generation.

Prompts are byte-stable package assets instantiated per document; the
chat client speaks a generic JSON-over-HTTP chat-completion protocol, and
each task's response log keeps every raw response next to its parsed pairs
so that reruns replay from disk instead of re-billing.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import threading
import time
from collections import namedtuple
from importlib import resources
from pathlib import Path
from urllib.parse import urlsplit

from .corpus import RawDocument
from .errors import DataError, MalformedLineError, UsageError
from .jsonio import encode_line, iter_jsonl, parse_object, reject_lone_surrogates, write_jsonl
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


_TEXT_FIELDS = ("doc_id", "task", "question", "answer", "answer_label")


class QAPair(namedtuple("QAPair", "doc_id task question answer options answer_label")):
    __slots__ = ()

    def __new__(
        cls, doc_id: str, task: str, question: str, answer: str,
        options: tuple[str, ...] | None = None, answer_label: str | None = None,
    ):
        fields = dict(zip(_TEXT_FIELDS, (doc_id, task, question, answer, answer_label)))
        fields.update((f"options[{i}]", option) for i, option in enumerate(options or ()))
        reject_lone_surrogates(fields)
        if task == TASK_NLI:
            if answer_label not in NLI_LABELS:
                raise DataError(f"bad NLI label {answer_label!r}")
        elif not answer:
            raise DataError("generation answer must be non-empty")
        return tuple.__new__(cls, (doc_id, task, question, answer, options, answer_label))

    def to_record(self) -> dict:
        record = {
            "doc_id": self.doc_id,
            "task": self.task,
            "question": self.question,
            "answer": self.answer,
        }
        if self.options is not None:
            record["options"] = list(self.options)
        if self.answer_label is not None:
            record["answer_label"] = self.answer_label
        return record

    @classmethod
    def from_record(cls, record: dict) -> "QAPair":
        for key in ("doc_id", "task", "question", "answer"):
            if not isinstance(record.get(key), str):
                raise DataError(f"QA record needs a string {key!r}")
        options = record.get("options")
        if not (options is None or isinstance(options, list) and all(isinstance(o, str) for o in options)):
            raise DataError("QA record 'options' must be a list of strings or null")
        if not isinstance(record.get("answer_label"), (str, type(None))):
            raise DataError("QA record 'answer_label' must be a string or null")
        return cls(
            doc_id=record["doc_id"],
            task=record["task"],
            question=record["question"],
            answer=record["answer"],
            options=tuple(options) if options else None,
            answer_label=record.get("answer_label"),
        )


def canonical_label(text: str) -> str | None:
    return _LABEL_CANON.get(text.strip().strip(".").lower())


class ParsedResponse:
    __slots__ = ("pairs", "discarded")

    def __init__(self, pairs: list[QAPair], discarded: int = 0):
        self.pairs = pairs
        self.discarded = discarded


_QUESTION_MARK = re.compile(r"(?:^|\n)Question:", re.IGNORECASE)
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
    text = raw.strip()
    if not _QUESTION_MARK.match(text):
        text = "Question: " + text

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
    if discarded:
        # one write, so warnings from concurrent documents never interleave
        sys.stderr.write(f"warning: discarded {discarded} malformed block(s) (document {doc_id!r})\n")
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


class ChatClient:
    """Thread-safe chat-completion client with retry; callers bound requests
    in flight, and `close()` (or `with`) closes its kept-alive connections."""

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model: str = "gpt-4",
        temperature: float = 0.0,
        max_tokens: int = 2048,
        max_retries: int = 5,
        backoff: float = 0.5,
        timeout: float = 60.0,
        transport=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not self.endpoint:
            raise UsageError(f"no chat endpoint configured (set {ENDPOINT_ENV})")
        _check_endpoint(self.endpoint)
        self.model = model
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self._transport = transport
        self._transport_lock = threading.Lock()
        self._sleep = sleep

    def __enter__(self) -> "ChatClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        close = getattr(self._transport, "close", None)  # a plain function holds no connection
        if close is not None:
            close()

    def _send(self, headers: dict, payload: dict):
        if self._transport is None:
            with self._transport_lock:
                if self._transport is None:
                    self._transport = _http_pool()
        return self._transport(self.endpoint, headers, payload, self.timeout)

    def complete(self, prompt: str) -> ChatResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error = "no attempt made"
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                status, body = self._send(headers, payload)
            except ConnectionError as exc:
                last_error = f"connection error: {exc}"
                continue
            except OSError as exc:  # permanent, such as an untrusted certificate
                raise ChatError(f"chat request failed: {exc}") from exc
            if status in _TRANSIENT_STATUSES:
                last_error = f"transient HTTP {status}"
                continue
            if status != 200:
                raise ChatError(f"chat endpoint returned HTTP {status}: {body}")
            try:
                choice = body["choices"][0]
                text = choice["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError("content is not a string")
            except (KeyError, IndexError, TypeError) as exc:
                raise ChatError(f"malformed chat response: {body}") from exc
            return ChatResponse(
                text=text,
                finish_reason=choice.get("finish_reason", ""),
                usage=body.get("usage", {}),
            )
        raise ChatError(f"chat request failed after {self.max_retries + 1} attempts ({last_error})")


PROMPT_BUILDERS = {TASK_GENERATION: build_generation_prompt, TASK_NLI: build_nli_prompt}


class ResponseLog:
    """The append-only response cache of one QA task, one canonical line per
    fetched response: `{"discarded", "doc_id", "pairs", "request", "response"}`.
    A line is read back as any JSON object of that shape: an exact canonical
    check would re-encode every line, which costs about five times its parse.

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
        pairs = entry.get("pairs")
        if not (
            isinstance(entry.get("doc_id"), str)
            and isinstance(entry.get("request"), dict)
            and isinstance(pairs, list)
            and all(isinstance(rec, dict) for rec in pairs)
            and type(entry.get("discarded")) is int
        ):
            raise MalformedLineError(
                self.path,
                line_no,
                "a cache entry needs a string 'doc_id', an object 'request', a list of objects 'pairs'"
                " and an int 'discarded'",
            )
        return entry

    def get(self, doc_id: str) -> tuple[dict, int] | None:
        """The last complete entry of `doc_id` and its line number, or None."""
        where = self._index.get(doc_id)
        if where is None:
            return None
        offset, length, line_no = where
        # checked when the log was opened; the lock keeps other runs out since
        return json.loads(os.pread(self._fd, length, offset)), line_no

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
    doc: RawDocument, task: str, client: ChatClient | None, log: ResponseLog, settings: dict | None = None
) -> ParsedResponse | dict:
    """The replayed pairs of one document, or the request to fetch them with.

    The document's entry in `log` replays only if its request is the one
    this call would send: the document's prompt under the client's model,
    temperature and max_tokens, or under `settings` (those three keys) when
    there is no client. With neither, any entry replays. Sends nothing, so
    the caller may run it on the thread that owns `log`.
    """
    if task not in PROMPT_BUILDERS:
        raise UsageError(f"unknown QA task {task!r}")
    if client is not None:
        settings = {"model": client.model, "temperature": client.temperature, "max_tokens": client.max_tokens}
    request = None if settings is None else {"prompt": PROMPT_BUILDERS[task](doc), **settings}
    cached = log.get(doc.id)
    if cached is not None:
        entry, line_no = cached
        if request is None or entry["request"] == request:
            try:
                pairs = [QAPair.from_record(rec) for rec in entry["pairs"]]
            except DataError as exc:
                raise DataError(f"{log.path}:{line_no}: {exc} (document {doc.id!r})") from exc
            return ParsedResponse(pairs=pairs, discarded=entry["discarded"])
    if client is None:
        raise UsageError(
            f"no cached response to this request for ({doc.id}, {task}) and no chat endpoint configured"
            f" (set {ENDPOINT_ENV})"
        )
    return request


def fetch_document(doc: RawDocument, task: str, client: ChatClient, request: dict) -> tuple[ParsedResponse, bytes]:
    """Send `lookup_document`'s request: (parsed, the log line that records it).

    Touches no log, so it may run on any thread; the caller appends the line.
    """
    try:
        response = client.complete(request["prompt"])
        parsed = parse_qa_response(response.text, task, doc_id=doc.id)
        line = encode_line(
            {
                "discarded": parsed.discarded,
                "doc_id": doc.id,
                "pairs": [pair.to_record() for pair in parsed.pairs],
                "request": request,
                "response": {
                    "text": response.text,
                    "finish_reason": response.finish_reason,
                    "usage": response.usage,
                },
            }
        )
    except UnicodeEncodeError:
        raise DataError(f"the reply holds a lone surrogate, which UTF-8 cannot encode (document {doc.id!r})") from None
    except DataError as exc:  # ChatError, ParseError, or a reply QAPair refuses
        raise type(exc)(f"{exc} (document {doc.id!r})") from exc
    return parsed, line


def generate_for_document(
    doc: RawDocument, task: str, client: ChatClient | None, log: ResponseLog, settings: dict | None = None
) -> tuple[ParsedResponse, bytes | None]:
    """Fetch-or-replay the QA pairs for one document: (parsed, log line).

    A replay (see `lookup_document`) comes back with no line to append; a
    fresh response with the line that records it, for the caller to append.
    """
    found = lookup_document(doc, task, client, log, settings)
    if isinstance(found, ParsedResponse):
        return found, None
    return fetch_document(doc, task, client, found)


def write_qa_jsonl(pairs: list[QAPair], path) -> None:
    write_jsonl(path, (pair.to_record() for pair in pairs))


def iter_qa_jsonl(path):
    """Yield (line number, pair) for each row of a QA JSONL file."""
    for line_no, record in iter_jsonl(path):
        try:
            pair = QAPair.from_record(record)
        except DataError as exc:
            raise MalformedLineError(path, line_no, str(exc)) from exc
        yield line_no, pair


def read_qa_jsonl(path) -> list[QAPair]:
    return [pair for _, pair in iter_qa_jsonl(path)]
