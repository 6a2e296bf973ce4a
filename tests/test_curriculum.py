import hashlib
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstudy.cli import main
from docstudy.corpus import document_from_record
from docstudy.curriculum import REF_KINDS, plan, required_refs, scan_ref, scan_refs, stage_lines
from docstudy.dataset import (
    ManifestReader,
    attach_loss_policy,
    doc_record,
    qa_record,
    verify_manifest,
    write_manifest,
)
from docstudy.errors import DataError, UsageError
from docstudy.jsonio import encode_json, encode_line, read_json
from docstudy.qagen import QAPair

import _curriculum_oracle as oracle
from _curriculum_oracle import fairness_epochs, plan_schema, preset_ids
from _synth import synthetic_records

ALL_PRESETS = (
    "continued_pretraining",
    "standard_instruction_tuning",
    "standard_it_wo_forgetting",
    "pit",
    "pit_plus_plus",
    "mixed_training",
    "self_tuning",
    "self_tuning_wo_review",
    "self_tuning_via_reading",
    "self_tuning_pre_review",
)

REFS = {
    "train_doc": "train_doc.jsonl",
    "train_qa": "train_qa.jsonl",
    "train_self": "train_self.jsonl",
    "train_doc_reading": "train_doc_reading.jsonl",
    "test_doc": "test_doc.jsonl",
}


def _manifest(tmp_path, records, name, seed=0):
    path = tmp_path / f"{name}.jsonl"
    write_manifest(records, name=name, split="train", path=path, seed=seed)
    return [record for record, _ in ManifestReader(path)]


def _doc_manifest(tmp_path, n, seed=0, name="docs"):
    records = [doc_record(document_from_record(r)) for r in synthetic_records(n, seed=seed)]
    return _manifest(tmp_path, records, name, seed)


def _qa_manifest(tmp_path, doc_ids, per_doc=2, name="qa"):
    records = []
    for doc_id in doc_ids:
        for k in range(per_doc):
            records.append(
                qa_record(
                    QAPair(doc_id=doc_id, task="generation", question=f"Q{k} about {doc_id}?", answer=f"A{k}.")
                )
            )
    return _manifest(tmp_path, records, name)


class TestPresetCoverage:
    def test_ten_presets_exist(self):
        assert set(preset_ids()) == set(ALL_PRESETS)

    def test_golden_plans(self, golden_plans):
        for preset in ALL_PRESETS:
            built = plan(preset, REFS, seed=0)
            assert built == golden_plans[preset], preset

    def test_every_preset_ref_declares_its_record_kind(self):
        refs = set()
        for preset in ALL_PRESETS:
            refs |= required_refs(preset) | required_refs(preset, cross_domain=True)
        assert refs == set(REF_KINDS)

    def test_cross_domain_tail_schedule(self, golden_plans):
        built = plan("self_tuning", REFS, seed=0, cross_domain=True)
        assert built == golden_plans["self_tuning_cross_domain"]
        epochs = [s["epochs"] for s in built["stages"]]
        assert epochs == [2, 2, 1]

    def test_fairness_rule(self):
        for preset in ALL_PRESETS:
            total = fairness_epochs(plan(preset, REFS, seed=0))
            if preset == "continued_pretraining":
                assert total == 5
            elif preset == "standard_it_wo_forgetting":
                # stage bullets are encoded verbatim: 3 + 1
                assert total == 4
            else:
                assert total == 3

    def test_replay_sizes(self):
        pit = plan("pit", REFS, seed=3)
        st = plan("self_tuning", REFS, seed=3)
        assert pit["stages"][-1]["replay"]["size"] == 64
        assert st["stages"][-1]["replay"]["size"] == 128
        assert st["stages"][-1]["replay"]["seed"] == 3
        for preset in ALL_PRESETS:
            if preset in ("pit", "self_tuning"):
                continue
            assert all("replay" not in s for s in plan(preset, REFS, seed=3)["stages"])

    def test_unknown_preset_lists_valid_ids(self):
        with pytest.raises(UsageError) as err:
            plan("bogus", REFS)
        for preset in ALL_PRESETS:
            assert preset in str(err.value)

    def test_missing_ref_named(self):
        refs = dict(REFS)
        del refs["train_self"]
        with pytest.raises(DataError) as err:
            plan("self_tuning", refs)
        assert "train_self" in str(err.value)

    def test_required_refs(self):
        assert required_refs("continued_pretraining") == {"test_doc"}
        assert required_refs("self_tuning") == {"train_doc", "train_self", "train_qa", "test_doc"}

    def test_plans_validate_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = plan_schema()
        for preset in ALL_PRESETS:
            built = plan(preset, REFS, seed=1)
            (tmp_path / "p.json").write_bytes(encode_json(built))
            payload = json.loads((tmp_path / "p.json").read_text("utf-8"))
            jsonschema.validate(payload, schema)

    def test_plan_json_round_trip(self, tmp_path):
        refs = []
        for name in required_refs("self_tuning"):
            (tmp_path / REFS[name]).touch()
            refs.append(f"--ref={name}={tmp_path / REFS[name]}")
        assert main(["--seed", "2", "--out", str(tmp_path / "o"), "plan", "--preset", "self_tuning", *refs]) == 0
        assert read_json(tmp_path / "o" / "self_tuning_plan.json") == plan("self_tuning", REFS, seed=2)


def _rendered(stage: dict, paths: dict) -> list[dict]:
    """The records `stage_lines` streams for `stage` from the manifests at `paths`."""
    return [json.loads(line) for line in stage_lines(stage, scan_refs({"stages": [stage]}, paths))]


class TestReadRef:
    def test_matching_kind_loads(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        manifest = _qa_manifest(tmp_path, ["a", "b"])
        write_manifest(manifest, name="qa", split="train", path=path)
        scan = scan_ref("train_qa", path)
        assert scan.count == len(manifest)
        assert _rendered({"mix": "concat", "refs": ["train_qa"]}, {"train_qa": path}) == manifest

    def test_first_record_of_another_kind_is_named(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        docs = _doc_manifest(tmp_path, 2)
        write_manifest(_qa_manifest(tmp_path, ["a"]) + docs, name="mixed", split="train", path=path)
        with pytest.raises(DataError, match=r"record 2 is kind 'doc'; ref train_qa needs 'qa'"):
            scan_ref("train_qa", path)

    @pytest.mark.parametrize(
        "ref, record, reason",
        [
            ("train_doc", {"kind": "doc", "payload": {"title": "T"}}, "has no string payload 'id'"),
            ("test_doc", {"kind": "doc", "payload": {"id": 7, "title": "T"}}, "has no string payload 'id'"),
            ("train_self", {"kind": "task", "payload": {"question": "Q?"}}, "has no string payload 'kind'"),
            ("train_self", {"kind": "task", "payload": "oops"}, "has a payload that is not an object"),
            ("train_qa", {"kind": "qa", "payload": ["oops"]}, "has a payload that is not an object"),
        ],
        ids=["doc-without-id", "doc-int-id", "task-without-kind", "task-payload-string", "qa-payload-list"],
    )
    def test_payload_rendering_cannot_read_is_named(self, tmp_path, ref, record, reason):
        # checksummed by hand: write_manifest cannot stamp a string payload
        line = encode_line(record)
        path = tmp_path / "bad.jsonl"
        footer = {"checksum": hashlib.sha256(line).hexdigest(), "count": 1, "seed": 0}
        path.write_bytes(line + encode_line(footer))
        assert verify_manifest(path) == footer
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: record 0 {re.escape(reason)}$"):
            scan_ref(ref, path)


def _sample_replay(tmp_path, size: int, seed: int) -> list[dict]:
    """The replay records a stage of one test document streams with a
    `size` sample of the QA manifest `_qa_manifest` last wrote."""
    _doc_manifest(tmp_path, 1, name="test_doc")
    stage = {"mix": "concat", "refs": ["test_doc"], "replay": {"source": "train_qa", "size": size, "seed": seed}}
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("test_doc", "train_qa")}
    return [record for record in _rendered(stage, paths) if record["kind"] == "qa"]


class TestSampleReplay:
    def test_sixty_four_distinct_from_large_manifest(self, tmp_path):
        _qa_manifest(tmp_path, [f"doc-{i:05d}" for i in range(3068)], per_doc=2, name="train_qa")
        sampled = _sample_replay(tmp_path, 64, seed=5)
        assert len(sampled) == 64
        keys = [json.dumps(r, sort_keys=True) for r in sampled]
        assert len(set(keys)) == 64

    def test_full_set_in_original_order(self, tmp_path):
        manifest = _qa_manifest(tmp_path, ["a", "b", "c"], per_doc=1, name="train_qa")
        sampled = _sample_replay(tmp_path, 3, seed=9)
        assert sampled == manifest

    def test_stable_order_by_original_index(self, tmp_path):
        manifest = _qa_manifest(tmp_path, [f"d{i}" for i in range(50)], per_doc=1, name="train_qa")
        sampled = _sample_replay(tmp_path, 10, seed=4)
        positions = [manifest.index(r) for r in sampled]
        assert positions == sorted(positions)

    def test_same_seed_identical(self, tmp_path):
        _qa_manifest(tmp_path, [f"d{i}" for i in range(40)], per_doc=1, name="train_qa")
        assert _sample_replay(tmp_path, 8, seed=6) == _sample_replay(tmp_path, 8, seed=6)

    def test_size_exceeds_error(self, tmp_path):
        _qa_manifest(tmp_path, ["a"], per_doc=1, name="train_qa")
        with pytest.raises(DataError):
            _sample_replay(tmp_path, 2, seed=0)


class TestRender:
    def _manifests(self, tmp_path, n_docs=6):
        docs = _doc_manifest(tmp_path, n_docs, name="train_doc")
        doc_ids = [r["payload"]["id"] for r in docs]
        qa = _qa_manifest(tmp_path, doc_ids, per_doc=2, name="train_qa")
        test_docs = _doc_manifest(tmp_path, 3, seed=99, name="test_doc")
        return {"train_doc": docs, "train_qa": qa, "test_doc": test_docs}

    @staticmethod
    def _checked_render(tmp_path, stage, manifests):
        """`_rendered` from the manifests' files, checked against the oracle's list render."""
        records = _rendered(stage, {name: tmp_path / f"{name}.jsonl" for name in manifests})
        assert records == oracle.render_stage_inputs(stage, manifests)
        return records

    def test_concat_is_a_plus_b(self, tmp_path):
        manifests = self._manifests(tmp_path)
        stage = {"index": 1, "epochs": 1, "mix": "concat", "refs": ["train_doc", "test_doc"]}
        records = self._checked_render(tmp_path, stage, manifests)
        expected = manifests["train_doc"] + manifests["test_doc"]
        assert records == expected

    def test_interleave_conserves_and_is_deterministic(self, tmp_path):
        manifests = self._manifests(tmp_path)
        stage = {"index": 1, "epochs": 1, "mix": "interleave", "refs": ["train_doc", "train_qa"]}
        a = self._checked_render(tmp_path, stage, manifests)
        b = self._checked_render(tmp_path, stage, manifests)
        assert a == b
        assert len(a) == len(manifests["train_doc"]) + len(manifests["train_qa"])

    def test_pit_pairing_places_qa_immediately_before_doc(self, tmp_path):
        manifests = self._manifests(tmp_path)
        pit = plan("pit", REFS, seed=0)
        records = self._checked_render(tmp_path, pit["stages"][0], manifests)
        assert len(records) == len(manifests["train_doc"]) + len(manifests["train_qa"])
        for pos, record in enumerate(records):
            if record["kind"] != "qa":
                continue
            # the next doc record downstream is this QA record's own doc
            for later in records[pos + 1 :]:
                if later["kind"] == "doc":
                    assert later["payload"]["id"] == record["payload"]["doc_id"]
                    break
            else:
                pytest.fail("qa record with no following document")
        # each doc is directly preceded by its own qa block
        doc_ids = [r["payload"]["id"] for r in manifests["train_doc"]]
        for doc_id in doc_ids:
            doc_pos = next(
                i for i, r in enumerate(records)
                if r["kind"] == "doc" and r["payload"]["id"] == doc_id
            )
            assert records[doc_pos - 1]["kind"] == "qa"
            assert records[doc_pos - 1]["payload"]["doc_id"] == doc_id

    def test_pairing_with_dangling_doc_id_errors(self, tmp_path):
        manifests = self._manifests(tmp_path)
        orphan = qa_record(
            QAPair(doc_id="missing-doc", task="generation", question="Q?", answer="A.")
        )
        manifests["train_qa"] = _manifest(tmp_path, manifests["train_qa"] + [orphan], "train_qa")
        pit = plan("pit", REFS, seed=0)
        with pytest.raises(DataError) as err:
            _rendered(pit["stages"][0], {name: tmp_path / f"{name}.jsonl" for name in manifests})
        assert "missing-doc" in str(err.value)

    def test_replay_merged_into_final_stage(self, tmp_path):
        manifests = self._manifests(tmp_path, n_docs=100)
        assert len(manifests["train_qa"]) == 200
        st = plan("self_tuning", {**REFS}, seed=1)
        records = self._checked_render(tmp_path, st["stages"][2], manifests)
        qa_records = [r for r in records if r["kind"] == "qa"]
        assert len(qa_records) == 128
        doc_count = len(manifests["test_doc"])
        assert len(records) == doc_count + 128


_TAG_PAYLOADS = {"doc": lambda r: {"id": f"d{r}"}, "task": lambda r: {"kind": "cloze"}, "qa": lambda r: {"doc_id": "d"}}


def _tagged(name: str, group: str, n: int) -> list[dict]:
    """`n` records of ref `name`'s kind, each tagged with `group` and its position."""
    kind = REF_KINDS[name]
    return [attach_loss_policy({"kind": kind, "payload": {**_TAG_PAYLOADS[kind](r), "group": group, "r": r}})
            for r in range(n)]


def _assert_near_shares(groups: list[str], sizes: dict[str, int]) -> None:
    """Every prefix of k records holds c_g records of each group g within
    1/2 + (G - 2) * n_g / 2N of its share k * n_g / N, where G counts the
    non-empty groups and N their records.

    Each c_g is within 1/2 of t * n_g for the prefix's last key t, which gives
    that slack; it is at most 1 for up to three groups, as in every preset,
    and 4 groups of 1, 1, 3 and 29 records reach 1.35.
    """
    total = sum(sizes.values())
    nonempty = sum(1 for n in sizes.values() if n)
    seen = Counter()
    for k, group in enumerate(groups, 1):
        seen[group] += 1
        for name, n in sizes.items():
            slack = 0.5 + max(nonempty - 2, 0) * n / (2 * total)
            assert abs(seen[name] - k * n / total) <= slack + 1e-9, (name, k, dict(seen))


_SIZES = st.lists(st.integers(0, 60), min_size=1, max_size=4)
# (records in the replay source, sample size, seed); the size is cut to the source
_REPLAYS = st.none() | st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 2**32))


@pytest.fixture(scope="module")
def tagged_manifest(tmp_path_factory):
    """`path(name, group, n)`: a manifest of `_tagged(name, group, n)`, written once per module."""
    root = tmp_path_factory.mktemp("tagged")
    paths = {}

    def path(name: str, group: str, n: int):
        if (name, group, n) not in paths:
            paths[name, group, n] = root / f"{name}-{group}-{n}.jsonl"
            write_manifest(_tagged(name, group, n), name=name, split="train", path=paths[name, group, n])
        return paths[name, group, n]

    return path


def _stage(mix: str, sizes: list[int], replay, tagged_manifest) -> tuple[dict, dict, list[bytes]]:
    """(stage, records by ref, the lines `stage_lines` streams for it): the
    oracle's stage over groups of `sizes` records, ref names in `REF_KINDS`
    order and the last for the replay source. The streamed stage leaves out
    the empty groups and empty replay source that no manifest can hold."""
    names = list(REF_KINDS)
    groups = {name: (name, n) for name, n in zip(names, sizes)}  # ref: (group tag, records)
    stage = {"index": 1, "epochs": 1, "mix": mix, "refs": names[: len(sizes)]}
    if replay is not None:
        source_n, size, seed = replay
        groups[names[-1]] = ("replay", source_n)
        stage["replay"] = {"source": names[-1], "size": min(size, source_n), "seed": seed}
    records = {name: _tagged(name, tag, n) for name, (tag, n) in groups.items()}
    paths = {name: tagged_manifest(name, tag, n) for name, (tag, n) in groups.items() if n}
    streamed = {**stage, "refs": [name for name in stage["refs"] if name in paths]}
    if replay is not None and names[-1] not in paths:
        del streamed["replay"]
    return stage, records, list(stage_lines(streamed, scan_refs({"stages": [streamed]}, paths)))


class TestStreamingRender:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mix=st.sampled_from(["interleave", "concat"]), sizes=_SIZES, replay=_REPLAYS)
    def test_equals_the_global_sort_oracle(self, tagged_manifest, mix, sizes, replay):
        stage, records, lines = _stage(mix, sizes, replay, tagged_manifest)
        assert lines == [encode_line(record) for record in oracle.render_stage_inputs(stage, records)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sizes=_SIZES, replay=_REPLAYS)
    def test_every_prefix_holds_each_group_near_its_share(self, tagged_manifest, sizes, replay):
        stage, records, lines = _stage("interleave", sizes, replay, tagged_manifest)
        groups = [json.loads(line)["payload"]["group"] for line in lines]
        _assert_near_shares([g for g in groups if g != "replay"], {name: len(records[name]) for name in stage["refs"]})
        if replay is not None:
            # the replay sample is merged with the stage as a second group
            n = sum(len(records[name]) for name in stage["refs"])
            _assert_near_shares(["replay" if g == "replay" else "stage" for g in groups],
                                {"stage": n, "replay": stage["replay"]["size"]})


class TestFairnessHelper:
    def test_counts_only_test_doc_stages(self):
        built = plan("self_tuning", REFS, seed=0)
        assert fairness_epochs(built) == 3
        assert fairness_epochs(built, test_ref="train_qa") == 3
