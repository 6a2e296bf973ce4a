"""Versioned dataset manifests and train/test splitting.

Manifests are canonical JSONL (sorted keys, LF) closed by a checksum
footer, so identical inputs always produce identical bytes. Splitting
guarantees structurally disjoint documents and titles; n-gram overlap
between sides is reported, never enforced.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import tokenize_words
from .corpus import Corpus
from .errors import DataError
from .rng import Stream, mix_key
from .taskgen import ANSWER_ONLY, FULL_SEQUENCE

KIND_DOC = "doc"
KIND_TASK = "task"
KIND_QA = "qa"


class DegenerateSplitError(DataError):
    pass


class ManifestError(DataError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    seed: int
    ngram_size: int = 8

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise DataError(f"test fraction {self.test_fraction} outside (0,1)")


def split_corpus(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Partition by seeded shuffle; both sides keep the original order."""
    n = len(corpus)
    if n < 2:
        raise DegenerateSplitError("need at least 2 documents to split")
    titles = corpus.titles()
    if len(set(titles)) != len(titles):
        dupes = sorted({t for t in titles if titles.count(t) > 1})
        raise DataError(f"duplicate titles prevent a zero-overlap split: {dupes}")

    n_test = math.ceil(spec.test_fraction * n)
    if n_test >= n or n_test < 1:
        raise DegenerateSplitError(
            f"fraction {spec.test_fraction} of {n} documents empties one side"
        )
    order = list(range(n))
    Stream(mix_key(spec.seed, "split")).shuffle(order)
    test_idx = set(order[:n_test])
    train_docs = [doc for i, doc in enumerate(corpus) if i not in test_idx]
    test_docs = [doc for i, doc in enumerate(corpus) if i in test_idx]
    train = Corpus(name=f"{corpus.name}_train", seed=corpus.seed, documents=tuple(train_docs))
    test = Corpus(name=f"{corpus.name}_test", seed=corpus.seed, documents=tuple(test_docs))
    return train, test


def _ngrams(body: str, n: int) -> set[tuple[str, ...]]:
    words = tokenize_words(body)
    return {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}


def overlap_report(train: Corpus, test: Corpus, ngram_size: int = 8) -> dict:
    """Advisory report of word n-grams shared across the split."""
    train_grams: set[tuple[str, ...]] = set()
    for doc in train:
        train_grams |= _ngrams(doc.body, ngram_size)
    shared = []
    for doc in test:
        hits = _ngrams(doc.body, ngram_size) & train_grams
        if hits:
            shared.append({"doc_id": doc.id, "count": len(hits)})
    return {
        "ngram_size": ngram_size,
        "documents_with_overlap": len(shared),
        "details": sorted(shared, key=lambda d: d["doc_id"]),
    }


def doc_record(doc) -> dict:
    return {"kind": KIND_DOC, "payload": doc.to_record()}


def task_record(example) -> dict:
    return {
        "kind": KIND_TASK,
        "payload": example.to_record(),
        "loss_policy": example.loss_policy,
    }


def qa_record(pair) -> dict:
    return {"kind": KIND_QA, "payload": pair.to_record()}


def attach_loss_policy(record: dict) -> dict:
    """Stamp the loss policy implied by the record kind; idempotent."""
    kind = record.get("kind")
    if kind == KIND_DOC:
        policy = FULL_SEQUENCE
    elif kind == KIND_TASK:
        # memorization tasks carry full-sequence loss, the rest answer-only
        policy = record.get("loss_policy") or (
            FULL_SEQUENCE
            if record.get("payload", {}).get("kind") == "memorization"
            else ANSWER_ONLY
        )
    elif kind == KIND_QA:
        policy = ANSWER_ONLY
    else:
        raise DataError(f"unknown record kind {kind!r}")
    if record.get("loss_policy") == policy:
        return record
    stamped = dict(record)
    stamped["loss_policy"] = policy
    return stamped


def _canonical_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    split: str
    records: tuple[dict, ...]
    checksum: str
    seed: int

    def __len__(self):
        return len(self.records)


def build_manifest(records, name: str, split: str, seed: int = 0) -> DatasetManifest:
    if not records:
        raise DataError("manifest needs at least one record")
    stamped = tuple(attach_loss_policy(dict(r)) for r in records)
    digest = hashlib.sha256()
    for record in stamped:
        digest.update(_canonical_line(record).encode("utf-8"))
        digest.update(b"\n")
    return DatasetManifest(
        name=name, split=split, records=stamped, checksum=digest.hexdigest(), seed=seed
    )


def manifest_bytes(manifest: DatasetManifest) -> bytes:
    lines = [_canonical_line(record) for record in manifest.records]
    footer = _canonical_line(
        {"checksum": manifest.checksum, "count": len(manifest.records), "seed": manifest.seed}
    )
    return ("\n".join(lines + [footer]) + "\n").encode("utf-8")


def write_manifest(records, name: str, split: str, path, seed: int = 0) -> DatasetManifest:
    manifest = build_manifest(records, name=name, split=split, seed=seed)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(manifest_bytes(manifest))
    tmp.replace(target)
    return manifest


def read_manifest(path, name: str | None = None, split: str = "") -> DatasetManifest:
    path = Path(path)
    lines = path.read_text("utf-8").splitlines()
    if not lines:
        raise ManifestError(f"{path}: empty manifest")
    records = []
    for line_no, line in enumerate(lines[:-1], 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
    try:
        footer = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}:{len(lines)}: invalid footer ({exc.msg})") from exc
    if not isinstance(footer, dict) or "checksum" not in footer:
        raise ManifestError(f"{path}: missing checksum footer")
    return DatasetManifest(
        name=name or path.stem,
        split=split,
        records=tuple(records),
        checksum=footer["checksum"],
        seed=footer.get("seed", 0),
    )


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""
    first_divergence: int | None = None


def verify_manifest(path) -> VerifyResult:
    """Recompute the checksum and compare against the stored footer."""
    path = Path(path)
    raw_lines = path.read_text("utf-8").splitlines()
    if not raw_lines:
        return VerifyResult(False, "empty file", 0)
    try:
        footer = json.loads(raw_lines[-1])
    except json.JSONDecodeError:
        return VerifyResult(False, "unparseable footer", len(raw_lines) - 1)
    if not isinstance(footer, dict) or "checksum" not in footer or "count" not in footer:
        return VerifyResult(False, "missing checksum footer", len(raw_lines) - 1)

    body = raw_lines[:-1]
    expected_count = footer["count"]
    digest = hashlib.sha256()
    for index, line in enumerate(body):
        if index >= expected_count:
            return VerifyResult(False, "more records than footer count", expected_count)
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return VerifyResult(False, "unparseable record", index)
        if _canonical_line(record) != line:
            return VerifyResult(False, "non-canonical record encoding", index)
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    if len(body) < expected_count:
        return VerifyResult(
            False,
            f"truncated: {len(body)} of {expected_count} records",
            max(len(body) - 1, 0),
        )
    if digest.hexdigest() != footer["checksum"]:
        return VerifyResult(False, "checksum mismatch", None)
    return VerifyResult(True)
