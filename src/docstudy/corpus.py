"""Canonical document model and JSONL corpus ingestion.

A corpus is a JSONL file of single-paragraph documents with stable,
unique ids, read one document at a time. Ingestion normalizes
whitespace, strips wiki-style header decoration from titles, and
truncates bodies to their first paragraph.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import DataError, MalformedLineError
from .jsonio import iter_jsonl, reject_lone_surrogates

_WIKI_SUFFIX = " - Wikipedia"
_PARA_BREAK = re.compile(r"\n[ \t]*\n")
_BLANK_RUN = re.compile(r"[ \t]+")
_TEXT_KEYS = ("id", "title", "body", "source", "collected_at")


class HeaderError(DataError):
    """Header stripped down to an empty title."""


class DuplicateIdError(MalformedLineError):
    def __init__(self, path, doc_id: str, first_line: int, second_line: int):
        super().__init__(path, second_line, f"duplicate document id {doc_id!r} on lines {first_line} and {second_line}")
        self.doc_id = doc_id
        self.lines = (first_line, second_line)


def parse_header(header: str) -> str:
    """Extract the bare title from a ``<Title - Wikipedia>`` header line.

    Inputs without surrounding angle brackets are returned trimmed and
    otherwise untouched, which makes the function idempotent.
    """
    title = header.strip()
    while title.startswith("<") and title.endswith(">") and len(title) >= 2:
        inner = title[1:-1].rstrip()
        if inner.endswith(_WIKI_SUFFIX):
            inner = inner[: -len(_WIKI_SUFFIX)]
        title = inner.strip()
    if not title:
        raise HeaderError(f"header {header!r} leaves an empty title")
    return title


def first_paragraph(article_text: str) -> str:
    """Text up to (excluding) the first blank-line separator."""
    if not article_text:
        raise DataError("first_paragraph: empty article text")
    match = _PARA_BREAK.search(article_text)
    if match:
        return article_text[: match.start()]
    return article_text


def normalize_text(text: str) -> str:
    """Collapse space/tab runs inside lines, keep newlines, trim edges."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    # a run never spans a newline; without a tab or two spaces every run is one space
    if "\t" in text or "  " in text:
        text = _BLANK_RUN.sub(" ", text)
    return "\n".join([line.strip() for line in text.split("\n")]).strip("\n")


def content_id(title: str, body: str) -> str:
    """Deterministic lowercase-hex id derived from title and body."""
    import hashlib  # loads libcrypto, so a corpus whose records carry ids never pays for it

    digest = hashlib.sha256()
    digest.update(title.encode("utf-8"))
    digest.update(b"\x1e")
    digest.update(body.encode("utf-8"))
    return digest.hexdigest()[:16]


class RawDocument(namedtuple("RawDocument", "id title body source collected_at")):
    """A titled article body (its first paragraph) plus provenance."""

    __slots__ = ()

    def __new__(cls, id: str, title: str, body: str, source: str = "", collected_at: str | None = None):
        if not id:
            raise DataError("document id must be non-empty")
        if not title or "\n" in title:
            raise DataError(f"bad title for document {id!r}")
        if not body.strip():
            raise DataError(f"empty body for document {id!r}")
        return tuple.__new__(cls, (id, title, body, source, collected_at))

    def to_record(self) -> dict:
        record = {"id": self.id, "title": self.title, "body": self.body}
        if self.source:
            record["source"] = self.source
        if self.collected_at is not None:
            record["collected_at"] = self.collected_at
        return record


def document_from_record(record: dict) -> RawDocument:
    """Build a normalized document from one JSONL record.

    A string id is kept as given; an absent or null one becomes the content hash.
    """
    title_raw = record.get("title")
    body_raw = record.get("body")
    if not isinstance(title_raw, str) or not isinstance(body_raw, str):
        raise DataError("record needs string 'title' and 'body' fields")
    doc_id = record.get("id")
    if doc_id is not None and (not isinstance(doc_id, str) or not doc_id):
        raise DataError(f"'id' must be a non-empty string or null, got {doc_id!r}")
    for key in ("source", "collected_at"):
        if not isinstance(record.get(key), (str, type(None))):
            raise DataError(f"{key!r} must be a string or null, got {type(record[key]).__name__}")
    reject_lone_surrogates({key: record.get(key) for key in _TEXT_KEYS})
    if "\n" in title_raw.strip("\n"):
        raise DataError("title must be a single line")
    title = parse_header(normalize_text(title_raw))
    body = first_paragraph(normalize_text(body_raw)) if body_raw.strip() else ""
    if not body:
        raise DataError("body is empty after normalization")
    return RawDocument(
        id=content_id(title, body) if doc_id is None else doc_id,
        title=title,
        body=body,
        source=record.get("source", "") or "",
        collected_at=record.get("collected_at"),
    )


def iter_documents(path):
    """Yield the documents of a one-record-per-line JSONL corpus in order.

    Ids are taken from the records when present, otherwise derived from
    the content hash. A duplicate id is rejected with both line numbers;
    only an id-to-line map is kept for that check.
    """
    seen: dict[str, int] = {}
    for line_no, record in iter_jsonl(path):
        try:
            doc = document_from_record(record)
        except DataError as exc:
            raise MalformedLineError(path, line_no, str(exc)) from exc
        if doc.id in seen:
            raise DuplicateIdError(path, doc.id, seen[doc.id], line_no)
        seen[doc.id] = line_no
        yield doc


def ingest_jsonl(path, seed: int = 0) -> list[RawDocument]:
    """Every document of a JSONL corpus, in order (see `iter_documents`).

    `seed` changes nothing; it is accepted for callers that still pass it.
    """
    return list(iter_documents(path))
