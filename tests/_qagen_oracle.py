"""One request, and one document, at a time: `complete` and
`generate_for_document` as `docstudy.qagen` had them before `gen-qa` ran
every document through `generate_corpus`. Copied, not imported, and built
on the client's public `prepare`/`send`/`wait`/`read`/`retry` and on
`lookup_document` and `_record`, so the tests that call them check that
API and the log lines `gen-qa` writes. `parse_qa_response` is the parser
as it split replies on `(?:^|\n)Question:`, before it split them on
`\nQuestion:` after a leading "\n"."""

from __future__ import annotations

import re

from docstudy.qagen import (
    ChatError,
    ParsedResponse,
    ParseError,
    QAPair,
    _for_document,
    _record,
    canonical_label,
    lookup_document,
)
from docstudy.vocab import NLI_LABELS, NLI_OPTIONS, TASK_NLI

# gen-qa's defaults for --model, --temperature and --max-tokens
SETTINGS = {"model": "gpt-4", "temperature": 0.0, "max_tokens": 2048}


def complete(client, prompt: str, **settings):
    """Send `prompt` under SETTINGS, overridden by `settings`, and wait for
    its reply, retrying as the client says."""
    exchange = client.prepare({"prompt": prompt, **SETTINGS, **settings})
    client.send(exchange)
    while True:
        client.wait([exchange])
        response = client.read(exchange)
        if response is not None:
            return response
        client.retry(exchange)


def generate_for_document(doc, task: str, client, log, settings: dict) -> tuple[ParsedResponse, bytes | None]:
    """Fetch-or-replay the QA pairs for one document: (parsed, log line).

    A replay (see `lookup_document`) comes back with no line to append; a
    fresh response with the line that records it, for the caller to append.
    """
    found = lookup_document(doc, task, client, log, settings)
    if isinstance(found, ParsedResponse):
        return found, None
    try:
        response = complete(client, found["prompt"], **settings)
    except ChatError as exc:
        raise _for_document(exc, doc) from exc
    return _record(doc, task, found, response)


_QUESTION_MARK = re.compile(r"(?:^|\n)Question:", re.IGNORECASE)
_ANSWER_MARK = re.compile(r"\nAnswer:", re.IGNORECASE)
_OPTIONS_MARK = re.compile(r"\s*Options:\s*", re.IGNORECASE)


def parse_qa_response(raw: str, task: str, doc_id: str = "") -> ParsedResponse:
    if not raw.strip():
        raise ParseError("empty response")
    text = raw.strip()
    if not _QUESTION_MARK.match(text):
        text = "Question: " + text

    pairs = []
    discarded = 0
    for chunk in _QUESTION_MARK.split(text):
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
        if not question or not answer:
            discarded += 1
            continue
        pairs.append(QAPair(doc_id=doc_id, task=task, question=question, answer=answer, options=options,
                            answer_label=label))
    if not pairs:
        raise ParseError(f"no question/answer blocks found (discarded {discarded})")
    return ParsedResponse(pairs=pairs, discarded=discarded)
