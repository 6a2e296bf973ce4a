"""Training recipes as data: ordered stage plans over dataset manifests.

The ten method presets live in a versioned fixture file; planning
validates that every referenced manifest is supplied, and rendering
materializes one trainer-consumable record list per stage. This package
never trains anything.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .dataset import KIND_DOC, KIND_QA, KIND_TASK, read_manifest
from .errors import DataError, UsageError
from .rng import Stream, mix_key

MIX_CONCAT = "concat"
MIX_INTERLEAVE = "interleave"
MIX_PREFIX_PAIR = "prefix_pair"

TEST_DOC_REF = "test_doc"

# the record kind every manifest behind a preset ref must hold
REF_KINDS = {
    "train_doc": KIND_DOC,
    TEST_DOC_REF: KIND_DOC,
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


def preset_ids() -> tuple[str, ...]:
    return tuple(load_presets().keys())


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


def read_ref(name: str, path) -> list[dict]:
    """The records of the manifest behind ref `name`, refusing a record of
    another kind or one whose payload rendering cannot read."""
    records = read_manifest(path)
    needs = REF_KINDS[name]
    key = _PAYLOAD_KEYS.get(needs)
    for index, record in enumerate(records):
        if record.get("kind") != needs:
            raise DataError(
                f"{path}: record {index} is kind {record.get('kind')!r}; ref {name} needs {needs!r}"
            )
        payload = record.get("payload")
        if not isinstance(payload, dict):
            raise DataError(f"{path}: record {index} has a payload that is not an object")
        if key is not None and not isinstance(payload.get(key), str):
            raise DataError(f"{path}: record {index} has no string payload {key!r}")
    return records


def fairness_epochs(stage_plan: dict, test_ref: str = TEST_DOC_REF) -> int:
    """Total epochs over stages whose refs include the test-document set."""
    return sum(s["epochs"] for s in stage_plan["stages"] if test_ref in s["refs"])


def sample_replay(records: list[dict], size: int, seed: int) -> list[dict]:
    """Seeded sample without replacement, stable in original order."""
    n = len(records)
    if size > n:
        raise DataError(f"replay size {size} exceeds manifest of {n} records")
    indices = Stream(mix_key(seed, "replay")).sample_indices(n, size)
    return [records[i] for i in indices]


def _interleave(groups: list[list[dict]]) -> list[dict]:
    """Proportional merge: record r of a group of n sorts at (r + 0.5) / n."""
    keyed = []
    for g_index, group in enumerate(groups):
        n = len(group)
        if n == 0:
            continue
        for r_index, record in enumerate(group):
            keyed.append(((r_index + 0.5) / n, g_index, r_index, record))
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed]


def _prefix_pair(groups: list[list[dict]]) -> list[dict]:
    """Each document preceded by its own QA/task records, documents in order."""
    docs: list[dict] = []
    others: list[dict] = []
    for group in groups:
        for record in group:
            (docs if record.get("kind") == KIND_DOC else others).append(record)
    doc_ids = [rec["payload"]["id"] for rec in docs]
    known = set(doc_ids)
    by_doc: dict[str, list[dict]] = {doc_id: [] for doc_id in doc_ids}
    for record in others:
        doc_id = record.get("payload", {}).get("doc_id")
        if doc_id not in known:
            raise DataError(f"record references unknown document id {doc_id!r} in pairing mode")
        by_doc[doc_id].append(record)
    paired: list[dict] = []
    for doc_id, doc in zip(doc_ids, docs):
        paired.extend(by_doc[doc_id])
        paired.append(doc)
    return paired


def render_stage_inputs(stage: dict, records: dict[str, list[dict]]) -> list[dict]:
    """Materialize one plan stage as a flat record list per its mixing mode;
    `records` maps each ref to its manifest's records."""
    replay = stage.get("replay")
    missing = [name for name in stage["refs"] if name not in records]
    if replay and replay["source"] not in records:
        missing.append(replay["source"])
    if missing:
        raise DataError(f"missing manifests for stage {stage['index']}: {', '.join(missing)}")

    groups = [records[name] for name in stage["refs"]]
    mix = stage["mix"]
    if mix == MIX_CONCAT:
        rendered = [record for group in groups for record in group]
    elif mix == MIX_INTERLEAVE:
        rendered = _interleave(groups)
    elif mix == MIX_PREFIX_PAIR:
        rendered = _prefix_pair(groups)
    else:
        raise DataError(f"unknown mixing mode {mix!r}")

    if replay is not None:
        sampled = sample_replay(records[replay["source"]], replay["size"], replay["seed"])
        rendered = _interleave([rendered, sampled])
    return rendered


def plan_schema() -> dict:
    text = resources.files("docstudy").joinpath("data", "stageplan.schema.json").read_text("utf-8")
    return json.loads(text)
