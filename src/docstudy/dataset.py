"""Versioned dataset manifests and train/test splitting.

Manifests are canonical JSONL (sorted keys, LF) closed by a checksum
footer, so identical inputs always produce identical bytes. Splitting
guarantees structurally disjoint documents and titles; n-gram overlap
between sides is reported, never enforced.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from itertools import count, repeat
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

from .errors import DataError
from .jsonio import OutputSet, canonical_object, encode_line, parse_object
from .rng import Stream, mix_key
from .vocab import ANSWER_ONLY, FULL_SEQUENCE, loss_policy, tokenize_words

if TYPE_CHECKING:
    from .corpus import RawDocument

KIND_DOC = "doc"
KIND_TASK = "task"
KIND_QA = "qa"


class DegenerateSplitError(DataError):
    pass


class ManifestError(DataError):
    def __init__(self, path, reason: str, record: int | None = None):
        super().__init__(f"{path}: {reason}" + ("" if record is None else f" (record {record})"))
        self.reason, self.record = reason, record


def split_corpus(
    docs: list[RawDocument], test_fraction: float, seed: int
) -> tuple[list[RawDocument], list[RawDocument]]:
    """Partition by seeded shuffle; both sides keep the original order.

    ``split`` checks the fraction and ``iter_documents`` the ids; titles
    must be distinct too, so no document or title lands on both sides.
    """
    n = len(docs)
    if n < 2:
        raise DegenerateSplitError("need at least 2 documents to split")
    dupes = sorted(title for title, count in Counter(doc.title for doc in docs).items() if count > 1)
    if dupes:
        raise DataError(f"duplicate titles prevent a zero-overlap split: {dupes}")

    n_test = math.ceil(test_fraction * n)
    if n_test >= n or n_test < 1:
        raise DegenerateSplitError(f"fraction {test_fraction} of {n} documents empties one side")
    order = list(range(n))
    Stream(mix_key(seed, "split")).shuffle(order)
    test_idx = set(order[:n_test])
    train = [doc for i, doc in enumerate(docs) if i not in test_idx]
    test = [doc for i, doc in enumerate(docs) if i in test_idx]
    return train, test


def _grams(packed: bytes, width: int, step: int):
    """Every `width`-byte slice of `packed` that starts on a `step` boundary."""
    starts = range(0, len(packed) - width + 1, step)
    return map(packed.__getitem__, map(slice, starts, range(width, len(packed) + 1, step)))


def overlap_report(train: list[RawDocument], test: list[RawDocument], ngram_size: int = 8) -> dict:
    """Advisory report of word n-grams shared across the split: for each
    test document, how many of its distinct n-grams some train document holds.

    Only the test side is indexed. Each distinct test word gets its own
    positive id, the count of test words read when it first appears, so
    ids need not be consecutive. A body becomes its ids packed as
    fixed-width bytes, and an n-gram is one slice of them, exact because
    ids and test words are one-to-one. A train word the test side lacks
    packs as 0, which no test n-gram holds, so the report's memory grows
    with the test side only.
    """
    from array import array  # only split builds the report, so no other command loads it

    if ngram_size < 1:
        raise DataError(f"n-gram size {ngram_size} is not at least 1")
    ids: dict[str, int] = {}
    step = array("I").itemsize
    width = ngram_size * step
    test_grams = []
    fresh = count(1)
    for doc in test:
        # a word seen before keeps its id; the count moves on regardless
        packed = array("I", map(ids.setdefault, tokenize_words(doc.body), fresh)).tobytes()
        test_grams.append(set(_grams(packed, width, step)))
    indexed = set().union(*test_grams)
    seen = set()
    for doc in train:
        packed = array("I", map(ids.get, tokenize_words(doc.body), repeat(0))).tobytes()
        seen |= indexed.intersection(_grams(packed, width, step))
    shared = []
    for doc, grams in zip(test, test_grams):
        hits = len(grams & seen)
        if hits:
            shared.append({"doc_id": doc.id, "count": hits})
    return {
        "ngram_size": ngram_size,
        "documents_with_overlap": len(shared),
        "details": sorted(shared, key=lambda d: d["doc_id"]),
    }


# each builder stamps its record's loss policy, so `attach_loss_policy` passes it on uncopied
def doc_record(doc) -> dict:
    return {"kind": KIND_DOC, "loss_policy": FULL_SEQUENCE, "payload": doc.to_record()}


def task_record(example) -> dict:
    return {"kind": KIND_TASK, "loss_policy": loss_policy(example.kind), "payload": example.to_record()}


def qa_record(pair) -> dict:
    return {"kind": KIND_QA, "loss_policy": ANSWER_ONLY, "payload": pair.to_record()}


def attach_loss_policy(record: dict) -> dict:
    """Stamp the loss policy implied by the record kind; idempotent.

    Any policy the record already holds is replaced, never trusted.
    """
    kind = record.get("kind")
    if kind not in (KIND_DOC, KIND_TASK, KIND_QA):
        raise DataError(f"unknown record kind {kind!r}")
    payload = record.get("payload")
    if not isinstance(payload, dict):
        raise DataError(f"{kind} record has a payload that is not an object")
    if kind == KIND_TASK:
        policy = loss_policy(payload.get("kind"))
    else:
        policy = FULL_SEQUENCE if kind == KIND_DOC else ANSWER_ONLY
    if record.get("loss_policy") == policy:
        return record
    stamped = dict(record)
    stamped["loss_policy"] = policy
    return stamped


def record_line(record: dict) -> bytes:
    """The canonical manifest line of `record`, its loss policy stamped."""
    return encode_line(attach_loss_policy(record))


@contextmanager
def manifest_writer(handle, seed: int = 0):
    """Yield `add(line)`, which hashes and writes one canonical record line
    to the binary `handle`.

    Give it `record_line(record)`, or a line known to equal it: the
    `encode_line` of a record built with its policy stamped (as `doc_record`,
    `task_record` and `qa_record` build them), or a line already verified
    as that.
    `add` returns the footer so far; a clean exit gives it the checksum and
    writes it as the last line. Replacing the output is the caller's job,
    so a command can write every footer before its `OutputSet` renames any.
    """
    import hashlib  # loads libcrypto, so only a command that hashes pays for it

    digest = hashlib.sha256()
    footer = {"checksum": None, "count": 0, "seed": seed}

    def add(line: bytes) -> dict:
        digest.update(line)
        handle.write(line)
        footer["count"] += 1
        return footer

    yield add
    if not footer["count"]:
        raise DataError("manifest needs at least one record")
    footer["checksum"] = digest.hexdigest()
    handle.write(encode_line(footer))


def write_manifest(records, name: str, split: str, path, seed: int = 0) -> dict:
    """Write `records` as one manifest and return its footer; `name` and `split` are not stored."""
    with OutputSet() as outputs, manifest_writer(outputs.open(path), seed) as add:
        for record in records:
            footer = add(record_line(record))
    return footer


def _refusal(path, text: str, index: int) -> ManifestError:
    """Why `canonical_object` refused record line `text`."""
    try:
        parse_object(text)
    except ValueError as exc:
        return ManifestError(path, f"unparseable record: {exc}", index)
    return ManifestError(path, "non-canonical record encoding", index)


def _canonical_footer(footer: dict, text: str) -> bool:
    """Whether `text` is the footer line `manifest_writer` writes: exactly a
    string checksum, an int count and an int seed, canonically encoded."""
    if footer.keys() != {"checksum", "count", "seed"}:
        return False
    checksum, count, seed = footer["checksum"], footer["count"], footer["seed"]
    # bool is an int subclass; three exact types leave one canonical spelling
    if type(checksum) is not str or type(count) is not int or type(seed) is not int:
        return False
    return text == '{"checksum":%s,"count":%d,"seed":%d}\n' % (encode_basestring(checksum), count, seed)


class ManifestReader:
    """The (record, line) pairs of a manifest, parsed, checked and hashed in one pass.

    Each record line must be the canonical encoding of a JSON object; the
    last line is the footer, the canonical line of exactly a string
    checksum, an int count and an int seed, whose count (at least one) and
    checksum must match the body. Those footer checks run after the last
    record, and set `footer` once they pass. Raises ManifestError at the
    first fault.
    """

    def __init__(self, path):
        self.path = path
        self.footer: dict | None = None

    def __iter__(self):
        import hashlib

        path = self.path
        count = 0
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            line = handle.readline()
            # one line of lookahead: a line is a record only if another follows it
            for following in handle:
                try:
                    text = line.decode("utf-8")
                except ValueError as exc:
                    raise ManifestError(path, f"unparseable record: {exc}", count) from None
                record = canonical_object(text)
                if record is None:
                    raise _refusal(path, text, count)
                digest.update(line)
                yield record, line
                count += 1
                line = following
        if not line:
            raise ManifestError(path, "empty file", 0)
        try:
            text = line.decode("utf-8")
            footer = parse_object(text)
        except ValueError as exc:
            raise ManifestError(path, f"unparseable footer: {exc}", count) from None
        expected = footer.get("count")
        if "checksum" not in footer or not isinstance(expected, int):
            raise ManifestError(path, "missing checksum footer", count)
        if not _canonical_footer(footer, text):
            raise ManifestError(path, "non-canonical footer", count)
        if count > expected:
            raise ManifestError(path, "more records than footer count", expected)
        if count < expected:
            raise ManifestError(path, f"truncated: {count} of {expected} records", max(count - 1, 0))
        # manifest_writer never writes one, and a stage rendered from one would be empty
        if not count:
            raise ManifestError(path, "no records before the footer")
        if digest.hexdigest() != footer["checksum"]:
            raise ManifestError(path, "checksum mismatch")
        self.footer = footer


def verify_manifest(path) -> dict:
    """Make every check `ManifestReader` makes on a manifest; return its footer."""
    reader = ManifestReader(path)
    for _ in reader:
        pass
    return reader.footer

