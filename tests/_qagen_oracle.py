"""One request, and one document, at a time: `complete` and
`generate_for_document` as `docstudy.qagen` had them before `gen-qa` ran
every document through `generate_corpus`. Copied, not imported, and built
on the client's public `prepare`/`send`/`wait`/`read`/`retry` and on
`lookup_document`, so the tests that call them check that API."""

from __future__ import annotations

from docstudy.errors import DataError
from docstudy.jsonio import encode_line
from docstudy.qagen import ChatError, ParsedResponse, lookup_document, parse_qa_response

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


def _for_document(exc: DataError, doc) -> DataError:
    return type(exc)(f"{exc} (document {doc.id!r})")


def _record(doc, task: str, request: dict, response) -> tuple[ParsedResponse, bytes]:
    """(parsed, the log line that records them) of the reply to `request`."""
    try:
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
    except DataError as exc:
        raise _for_document(exc, doc) from exc
    return parsed, line


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
