"""Training recipes as data: ordered stage plans over dataset manifests.

The ten method presets live in a versioned fixture file; `plan` validates
that every referenced manifest is supplied. Rendering streams one
trainer-consumable manifest per stage: `scan_refs` checks each ref once,
and `stage_lines` copies its verified lines per stage, without holding
its records. This package never trains anything.
"""

from __future__ import annotations

import heapq
import json
from functools import lru_cache
from importlib import resources
from itertools import chain, islice

from .dataset import (
    KIND_DOC,
    KIND_QA,
    KIND_TASK,
    ManifestReader,
    attach_loss_policy,
    record_line,
)
from .errors import DataError, UsageError
from .jsonio import canonical_object
from .rng import Stream, mix_key

MIX_CONCAT = "concat"
MIX_INTERLEAVE = "interleave"
MIX_PREFIX_PAIR = "prefix_pair"

# the record kind every manifest behind a preset ref must hold
REF_KINDS = {
    "train_doc": KIND_DOC,
    "test_doc": KIND_DOC,
    "train_doc_reading": KIND_DOC,
    "train_self": KIND_TASK,
    "train_qa": KIND_QA,
}
# the payload key rendering reads from a record of each kind, which must be a string
_PAYLOAD_KEYS = {KIND_DOC: "id", KIND_TASK: "kind"}


@lru_cache(maxsize=1)
def load_presets() -> dict:
    text = resources.files("docstudy").joinpath("data", "method_presets.json").read_text("utf-8")
    return json.loads(text)


def required_refs(preset: str, cross_domain: bool = False) -> set[str]:
    spec = _preset_spec(preset, cross_domain)
    names: set[str] = set()
    for stage in spec:
        names.update(stage["refs"])
        if "replay" in stage:
            names.add(stage["replay"]["source"])
    return names


def _preset_spec(preset: str, cross_domain: bool) -> list[dict]:
    presets = load_presets()
    if preset not in presets:
        raise UsageError(
            f"unknown preset {preset!r}; valid presets: {', '.join(sorted(presets))}"
        )
    entry = presets[preset]
    if cross_domain and "cross_domain_stages" in entry:
        return entry["cross_domain_stages"]
    return entry["stages"]


def plan(preset: str, refs: dict, seed: int = 0, cross_domain: bool = False) -> dict:
    """Instantiate a preset against the supplied manifest references.

    The result is the plan object `stageplan.schema.json` describes:
    `{"method", "stages": [{"index", "epochs", "mix", "refs", "replay"?}]}`.
    """
    spec = _preset_spec(preset, cross_domain)
    missing = sorted(required_refs(preset, cross_domain) - set(refs))
    if missing:
        raise DataError(f"preset {preset!r} is missing manifest refs: {', '.join(missing)}")
    stages = []
    for i, entry in enumerate(spec, start=1):
        stage = {"index": i, "epochs": entry["epochs"], "mix": entry["mix"], "refs": list(entry["refs"])}
        if "replay" in entry:
            replay = entry["replay"]
            stage["replay"] = {"source": replay["source"], "size": replay["size"], "seed": seed}
        stages.append(stage)
    return {"method": preset, "stages": stages}


def _fault(record: dict, name: str, needs: str, key: str | None) -> str | None:
    """Why rendering cannot read `record` from ref `name`, or None if it can."""
    if record.get("kind") != needs:
        return f"is kind {record.get('kind')!r}; ref {name} needs {needs!r}"
    payload = record.get("payload")
    if not isinstance(payload, dict):
        return "has a payload that is not an object"
    if key is not None and not isinstance(payload.get(key), str):
        return f"has no string payload {key!r}"
    return None


class RefScan:
    """What rendering keeps of one ref's manifest after its first pass: the
    record count and checksum, whether its lines need the loss policy
    stamped again, and, for a pairing stage, a doc ref's payload ids in
    order or another ref's lines by payload `doc_id`."""

    def __init__(self, path, count: int, checksum: str, restamp: bool, by_doc: dict | None, doc_ids: list | None):
        self.path, self.count, self.checksum = path, count, checksum
        self.restamp, self.by_doc, self.doc_ids = restamp, by_doc, doc_ids


def scan_ref(name: str, path, pairing: bool = False) -> RefScan:
    """Check the manifest behind ref `name` as `ManifestReader` does, and
    refuse a record of another kind or one whose payload rendering cannot
    read, holding no record; with `pairing`, keep a doc ref's payload ids in
    order, or index another ref's lines by payload `doc_id`."""
    needs = REF_KINDS[name]
    key = _PAYLOAD_KEYS.get(needs)
    fault = None
    restamp = False
    doc_ids = [] if pairing and needs == KIND_DOC else None
    by_doc = {} if pairing and needs != KIND_DOC else None
    reader = ManifestReader(path)
    for index, (record, line) in enumerate(reader):
        if fault is not None:
            continue
        fault = _fault(record, name, needs, key)
        if fault is not None:
            fault = f"{path}: record {index} {fault}"
            continue
        stamped = attach_loss_policy(record) is record
        restamp = restamp or not stamped
        if doc_ids is not None:
            doc_ids.append(record["payload"]["id"])
        elif by_doc is not None:
            doc_id = record["payload"].get("doc_id")
            if not isinstance(doc_id, str):
                fault = f"{path}: record {index} has no string payload 'doc_id'"
                continue
            by_doc.setdefault(doc_id, []).append(line if stamped else record_line(record))
    # read on past a bad record: a fault of the manifest, which may show only at its end, comes first
    if fault is not None:
        raise DataError(fault)
    return RefScan(path, reader.footer["count"], reader.footer["checksum"], restamp, by_doc, doc_ids)


def scan_refs(stage_plan: dict, refs: dict) -> dict[str, RefScan]:
    """`scan_ref` over every ref a plan renders, in name order."""
    names, pairing = set(), set()
    for stage in stage_plan["stages"]:
        names.update(stage["refs"])
        if "replay" in stage:
            names.add(stage["replay"]["source"])
        if stage["mix"] == MIX_PREFIX_PAIR:
            pairing.update(stage["refs"])
    return {name: scan_ref(name, refs[name], name in pairing) for name in sorted(names)}


def _changed(path) -> DataError:
    return DataError(f"{path}: changed since it was verified")


def _verified(scan: RefScan, line: bytes) -> dict:
    """The record on a line the first pass proved canonical; any other line
    means the ref changed since."""
    try:
        record = canonical_object(line.decode("utf-8"))
    except ValueError:
        record = None
    if record is None:
        raise _changed(scan.path)
    return record


def _lines(scan: RefScan):
    """A ref's record lines read again, each hashed against the checksum of
    the first pass and stamped again if the ref needs it."""
    import hashlib  # loads libcrypto, so only a command that hashes pays for it

    digest = hashlib.sha256()
    with open(scan.path, "rb") as handle:
        for line in islice(handle, scan.count):
            digest.update(line)
            if scan.restamp:
                try:
                    line = record_line(_verified(scan, line))
                except DataError:
                    raise _changed(scan.path) from None
            yield line
    if digest.hexdigest() != scan.checksum:
        raise _changed(scan.path)


def _doc_lines(scan: RefScan):
    """(doc id, line) for each line `_lines` yields from a doc ref, with the
    ids of the first pass: the checksum check that ends `_lines` proves the
    lines are the ones that pass read."""
    ids = iter(scan.doc_ids)
    for line in _lines(scan):
        yield next(ids), line


def _pick(items, picks: list[int]):
    """The items at the ascending positions `picks`; reads `items` to its end."""
    picks = iter(picks)
    want = next(picks, None)
    for r, item in enumerate(items):
        if r == want:
            yield item
            want = next(picks, None)


def _keyed(g: int, n: int, items):
    for r, item in enumerate(items):
        yield (r + 0.5) / n, g, r, item


def _interleave(groups):
    """Proportional merge of (n, items) pairs: item r of a group of n goes
    at (r + 0.5) / n, ties to the earlier group."""
    merged = heapq.merge(*[_keyed(g, n, items) for g, (n, items) in enumerate(groups) if n])
    return (item for _, _, _, item in merged)


def _prefix_pair(docs, by_doc: dict):
    """Each document preceded by its own QA/task records, documents in order;
    `docs` yields (doc id, document), and `by_doc` maps a doc id to its records."""
    paired = set()
    for doc_id, doc in docs:
        own = by_doc.get(doc_id)
        if own is not None:
            if doc_id in paired:
                raise DataError(f"document id {doc_id!r} occurs twice in pairing mode")
            paired.add(doc_id)
            yield from own
        yield doc
    for doc_id in by_doc:
        if doc_id not in paired:
            raise DataError(f"record references unknown document id {doc_id!r} in pairing mode")


def stage_lines(stage: dict, scans: dict[str, RefScan]):
    """The record lines of one plan stage's manifest per its mixing mode and
    replay, streamed again from the refs `scan_refs` checked; a ref whose
    lines changed since is a DataError."""
    names = stage["refs"]
    mix = stage["mix"]
    if mix == MIX_CONCAT:
        rendered = chain.from_iterable(_lines(scans[name]) for name in names)
    elif mix == MIX_INTERLEAVE:
        rendered = _interleave([(scans[name].count, _lines(scans[name])) for name in names])
    elif mix == MIX_PREFIX_PAIR:
        docs = chain.from_iterable(_doc_lines(scans[name]) for name in names if REF_KINDS[name] == KIND_DOC)
        by_doc: dict[str, list[bytes]] = {}
        for name in names:
            if REF_KINDS[name] != KIND_DOC:
                for doc_id, lines in scans[name].by_doc.items():
                    by_doc.setdefault(doc_id, []).extend(lines)
        rendered = _prefix_pair(docs, by_doc)
    else:
        raise DataError(f"unknown mixing mode {mix!r}")

    replay = stage.get("replay")
    if replay is None:
        return rendered
    source, size = scans[replay["source"]], replay["size"]
    if size > source.count:
        raise DataError(f"replay size {size} exceeds manifest of {source.count} records")
    # a seeded sample without replacement, kept in the source's order
    picks = Stream(mix_key(replay["seed"], "replay")).sample_indices(source.count, size)
    n = sum(scans[name].count for name in names)
    return _interleave([(n, rendered), (size, _pick(_lines(source), picks))])
