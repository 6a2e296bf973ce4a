"""Reference oracle: stage rendering as it was before the streaming renderer.

`docstudy.curriculum` renders a stage as a stream: a `heapq.merge` over
the refs for interleaving and one pass over the replay source. This module
keeps the earlier list code, which sorts every record of the stage on its
`((r + 0.5) / n, g, r)` key and indexes the replay sample. It is kept only
to check the streaming renderer against, the way `_analysis_oracle.py`
keeps the three-pass analysis. Its rules are copied, not imported, so a
change to a rule in `docstudy.curriculum` shows up as a difference.

It also holds the plan helpers only tests read: the preset ids, the
packaged plan schema and the fairness rule's epoch count.
"""

from __future__ import annotations

import json
from importlib import resources

from docstudy.curriculum import load_presets
from docstudy.errors import DataError
from docstudy.rng import Stream, mix_key


def preset_ids() -> tuple[str, ...]:
    return tuple(load_presets().keys())


def plan_schema() -> dict:
    text = resources.files("docstudy").joinpath("data", "stageplan.schema.json").read_text("utf-8")
    return json.loads(text)


def fairness_epochs(stage_plan: dict, test_ref: str = "test_doc") -> int:
    """Total epochs over stages whose refs include the test-document set."""
    return sum(s["epochs"] for s in stage_plan["stages"] if test_ref in s["refs"])


def sample_replay(records: list[dict], size: int, seed: int) -> list[dict]:
    """Seeded sample without replacement, stable in original order."""
    n = len(records)
    if size > n:
        raise DataError(f"replay size {size} exceeds manifest of {n} records")
    indices = Stream(mix_key(seed, "replay")).sample_indices(n, size)
    return [records[i] for i in indices]


def interleave(groups: list[list[dict]]) -> list[dict]:
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


def prefix_pair(groups: list[list[dict]]) -> list[dict]:
    """Each document preceded by its own QA/task records, documents in order."""
    docs: list[dict] = []
    others: list[dict] = []
    for group in groups:
        for record in group:
            (docs if record.get("kind") == "doc" else others).append(record)
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
    """One plan stage as a flat record list, built in memory."""
    groups = [records[name] for name in stage["refs"]]
    mix = stage["mix"]
    if mix == "concat":
        rendered = [record for group in groups for record in group]
    elif mix == "interleave":
        rendered = interleave(groups)
    elif mix == "prefix_pair":
        rendered = prefix_pair(groups)
    else:
        raise DataError(f"unknown mixing mode {mix!r}")
    replay = stage.get("replay")
    if replay is not None:
        sampled = sample_replay(records[replay["source"]], replay["size"], replay["seed"])
        rendered = interleave([rendered, sampled])
    return rendered
