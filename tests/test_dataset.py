import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docstudy.analysis import analyze_document
from docstudy.corpus import RawDocument, document_from_record, ingest_jsonl
from docstudy.dataset import (
    DegenerateSplitError,
    ManifestError,
    ManifestReader,
    attach_loss_policy,
    doc_record,
    overlap_report,
    qa_record,
    split_corpus,
    task_record,
    verify_manifest,
    write_manifest,
)
from docstudy.errors import DataError
from docstudy.jsonio import encode_line
from docstudy.qagen import QAPair
from docstudy.taskgen import build_suite
from docstudy.vocab import tokenize_words

import _dataset_oracle as dataset_oracle
from _synth import synthetic_records, write_jsonl


def make_corpus(n, seed=0):
    return [document_from_record(r) for r in synthetic_records(n, seed=seed)]


def ids(docs):
    return {doc.id for doc in docs}


class TestSplit:
    def test_paper_sized_split(self):
        corpus = make_corpus(1263)
        train, test = split_corpus(corpus, test_fraction=0.1, seed=42)
        assert (len(train), len(test)) == (1136, 127)

    def test_two_docs_half(self):
        corpus = make_corpus(2)
        train, test = split_corpus(corpus, test_fraction=0.5, seed=1)
        assert len(train) == 1 and len(test) == 1

    def test_duplicate_title_rejected_before_split(self):
        records = synthetic_records(4)
        records[3]["title"] = records[0]["title"]
        docs = [document_from_record(r) for r in records]
        with pytest.raises(DataError):
            split_corpus(docs, test_fraction=0.5, seed=1)

    def test_degenerate_split_rejected(self):
        corpus = make_corpus(2)
        with pytest.raises(DegenerateSplitError):
            split_corpus(corpus, test_fraction=0.95, seed=1)
        with pytest.raises(DegenerateSplitError):
            split_corpus(make_corpus(1), test_fraction=0.5, seed=1)

    def test_disjoint_conserving_deterministic(self):
        corpus = make_corpus(100, seed=3)
        train_a, test_a = split_corpus(corpus, test_fraction=0.2, seed=7)
        train_b, test_b = split_corpus(corpus, test_fraction=0.2, seed=7)
        assert [d.id for d in train_a] == [d.id for d in train_b]
        assert [d.id for d in test_a] == [d.id for d in test_b]
        assert ids(train_a) & ids(test_a) == set()
        assert {d.title for d in train_a} & {d.title for d in test_a} == set()
        assert len(train_a) + len(test_a) == len(corpus)
        assert ids(train_a) | ids(test_a) == ids(corpus)

    def test_order_preserved_within_sides(self):
        corpus = make_corpus(50, seed=5)
        train, test = split_corpus(corpus, test_fraction=0.3, seed=11)
        original = [d.id for d in corpus]
        assert [d.id for d in train] == [i for i in original if i in ids(train)]
        assert [d.id for d in test] == [i for i in original if i in ids(test)]

    @pytest.mark.parametrize("ngram_size", [0, -3])
    def test_ngram_size_validated(self, ngram_size):
        train, test = split_corpus(make_corpus(4), test_fraction=0.5, seed=1)
        with pytest.raises(DataError, match=f"^n-gram size {ngram_size} is not at least 1$"):
            overlap_report(train, test, ngram_size=ngram_size)

    def test_overlap_report_advisory(self):
        records = synthetic_records(6, seed=9)
        # force a shared 8-gram across the split by copying a long clause
        shared = "they walked along the harbor road toward the old lighthouse keeper"
        records[0]["body"] += f" {shared}."
        records[5]["body"] += f" {shared}."
        corpus = [document_from_record(r) for r in records]
        train, test = split_corpus(corpus, test_fraction=0.34, seed=2)
        report = overlap_report(train, test, ngram_size=8)
        assert report["ngram_size"] == 8
        sides = {r["id"] for r in (records[0], records[5])}
        if sides & ids(train) and sides & ids(test):
            assert report["documents_with_overlap"] >= 1


_TOKENS = ["a", "b", "Ab", "42", "x9", "a_b", "_", "é", "e\u0301", "ß", "STRASSE", "straße", "İ", "İstanbul",
           "Σ", "ΟΔΟΣ", "ΟΔΟΣ'Α", "ᾼ", "ǅ"]
_SEPARATORS = [" ", ", ", ". ", "'", "-", "\n"]
_ASCII_TOKENS = ["a", "b", "Ab", "AB", "42", "x9", "Q0q", "a_b", "_", "__x", "Z"]
_ASCII_SEPARATORS = [" ", ", ", ". ", "'", "-", "\n", "\t", "_", "!?", "~"]


@st.composite
def _bodies(draw, tokens=_TOKENS, separators=_SEPARATORS):
    """Text from a small vocabulary, so n-grams repeat within and across bodies."""
    words = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=14))
    seps = draw(st.lists(st.sampled_from(separators), min_size=len(words), max_size=len(words)))
    text = "".join(word + sep for word, sep in zip(words, seps))
    return text * draw(st.integers(1, 3))


def _docs(prefix, bodies):
    return [RawDocument(id=f"{prefix}{i}", title=f"{prefix} {i}", body=body) for i, body in enumerate(bodies)]


class TestOverlapReport:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(train=st.lists(_bodies(), max_size=5), test=st.lists(_bodies(), min_size=1, max_size=5),
           ngram_size=st.integers(1, 12))
    def test_report_equals_the_oracle(self, train, test, ngram_size):
        train, test = _docs("r", train), _docs("t", test)
        assert overlap_report(train, test, ngram_size) == dataset_oracle.overlap_report(train, test, ngram_size)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(_bodies(), st.text()))
    def test_tokenize_words_equals_the_per_match_oracle(self, text):
        assert tokenize_words(text) == dataset_oracle.tokenize_words(text)

    # ASCII text is scanned with [a-z0-9]+ and test bodies are packed with
    # map; both against the code they replaced
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.one_of(_bodies(_ASCII_TOKENS, _ASCII_SEPARATORS), st.text(st.characters(max_codepoint=127))))
    def test_ascii_tokenize_words_equals_the_findall_oracle(self, text):
        assert tokenize_words(text) == dataset_oracle.findall_tokenize_words(text)
        assert tokenize_words(text) == dataset_oracle.tokenize_words(text)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(train=st.lists(st.one_of(_bodies(_ASCII_TOKENS, _ASCII_SEPARATORS), _bodies()), max_size=5),
           test=st.lists(st.one_of(_bodies(_ASCII_TOKENS, _ASCII_SEPARATORS), _bodies()), min_size=1, max_size=5),
           ngram_size=st.integers(1, 6))
    def test_report_equals_the_consecutive_id_oracle(self, train, test, ngram_size):
        train, test = _docs("r", train), _docs("t", test)
        expected = dataset_oracle.consecutive_id_report(train, test, ngram_size)
        assert overlap_report(train, test, ngram_size) == expected

    @pytest.mark.parametrize("text, words", [
        ("ΟΔΟΣ'Α", ["οδος", "α"]),
        ("İstanbul", ["i\u0307stanbul"]),
        ("The Old_Pier, 1907!", ["the", "old", "pier", "1907"]),
    ])
    def test_each_match_is_lowercased_alone(self, text, words):
        assert tokenize_words(text) == words

    def test_memory_grows_with_the_test_side_only(self):
        corpus = make_corpus(820, seed=4)
        test = corpus[:20]

        def peak(n_train):
            tracemalloc.start()
            try:
                overlap_report(corpus[20 : 20 + n_train], test)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # loads what the first call imports
        # measured: about 5 bytes per train document, against about 4 KB for
        # a report that holds every train n-gram
        assert peak(800) - peak(200) < 600 * 100


class TestLossPolicy:
    def test_doc_full_sequence(self):
        record = {"kind": "doc", "payload": {"id": "x"}}
        assert attach_loss_policy(record)["loss_policy"] == "full_sequence"

    def test_memorization_task_full_sequence(self):
        record = {"kind": "task", "payload": {"kind": "memorization"}}
        assert attach_loss_policy(record)["loss_policy"] == "full_sequence"

    def test_other_task_answer_only(self):
        record = {"kind": "task", "payload": {"kind": "cloze"}}
        assert attach_loss_policy(record)["loss_policy"] == "answer_only"

    def test_qa_answer_only(self):
        record = {"kind": "qa", "payload": {}}
        assert attach_loss_policy(record)["loss_policy"] == "answer_only"

    @pytest.mark.parametrize(
        "record, policy",
        [
            ({"kind": "task", "loss_policy": "bogus", "payload": {"kind": "cloze"}}, "answer_only"),
            ({"kind": "task", "loss_policy": "answer_only", "payload": {"kind": "memorization"}}, "full_sequence"),
            ({"kind": "doc", "loss_policy": "bogus", "payload": {"id": "x"}}, "full_sequence"),
        ],
        ids=["task-bogus", "task-wrong", "doc-bogus"],
    )
    def test_claimed_policy_is_replaced(self, record, policy):
        assert attach_loss_policy(record)["loss_policy"] == policy

    def test_idempotent(self):
        record = attach_loss_policy({"kind": "qa", "payload": {}})
        assert attach_loss_policy(record) is record

    def test_unknown_kind_error(self):
        with pytest.raises(DataError):
            attach_loss_policy({"kind": "mystery"})

    @pytest.mark.parametrize("kind", ["doc", "task", "qa"])
    @pytest.mark.parametrize("payload", ["oops", ["oops"], None], ids=["string", "list", "null"])
    def test_payload_not_an_object_error(self, tmp_path, kind, payload):
        with pytest.raises(DataError, match=f"^{kind} record has a payload that is not an object$"):
            write_manifest([{"kind": kind, "payload": payload}], "m", "train", tmp_path / "m.jsonl")
        assert list(tmp_path.iterdir()) == []


class TestManifests:
    def _records(self, n=5, seed=0):
        records = []
        for record in synthetic_records(n, seed=seed):
            doc = document_from_record(record)
            records.append(doc_record(doc))
            suite = build_suite(analyze_document(doc), seed=seed)
            records.extend(task_record(ex) for ex in suite.examples[:2])
        return records

    def test_byte_identical_across_runs(self, tmp_path):
        records = self._records()
        a = write_manifest(records, "m", "train", tmp_path / "a.jsonl", seed=4)
        b = write_manifest(records, "m", "train", tmp_path / "b.jsonl", seed=4)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert a["checksum"] == b["checksum"]

    def test_single_record_manifest(self, tmp_path):
        records = self._records(1)[:1]
        footer = write_manifest(records, "m", "train", tmp_path / "m.jsonl")
        assert footer["count"] == 1
        assert verify_manifest(tmp_path / "m.jsonl") == footer

    def test_empty_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_manifest([], "m", "train", tmp_path / "m.jsonl")

    def test_every_record_has_one_policy(self, tmp_path):
        write_manifest(self._records(), "m", "train", tmp_path / "m.jsonl")
        for record, _ in ManifestReader(tmp_path / "m.jsonl"):
            assert record["loss_policy"] in ("full_sequence", "answer_only")

    def test_footer_schema(self, tmp_path):
        write_manifest(self._records(), "m", "train", tmp_path / "m.jsonl", seed=9)
        last = (tmp_path / "m.jsonl").read_text("utf-8").splitlines()[-1]
        footer = json.loads(last)
        assert set(footer) == {"checksum", "count", "seed"}
        assert footer["seed"] == 9

    def test_read_round_trip(self, tmp_path):
        records = self._records()
        footer = write_manifest(records, "m", "train", tmp_path / "m.jsonl", seed=1)
        loaded = [r for r, _ in ManifestReader(tmp_path / "m.jsonl")]
        assert loaded == [attach_loss_policy(record) for record in records]
        assert verify_manifest(tmp_path / "m.jsonl") == footer
        write_manifest(loaded, "m", "train", tmp_path / "again.jsonl", seed=footer["seed"])
        assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "m.jsonl").read_bytes()


class TestVerify:
    def _write(self, tmp_path, n=6):
        records = []
        for record in synthetic_records(n, seed=1):
            records.append(doc_record(document_from_record(record)))
        path = tmp_path / "m.jsonl"
        write_manifest(records, "m", "train", path)
        return path

    def _rejected(self, path):
        """verify's error, after checking that reading the records refuses the file for the same reason."""
        with pytest.raises(ManifestError) as verified:
            verify_manifest(path)
        with pytest.raises(ManifestError) as err:
            [r for r, _ in ManifestReader(path)]
        assert (err.value.reason, err.value.record) == (verified.value.reason, verified.value.record)
        return verified.value

    def test_untouched_ok(self, tmp_path):
        path = self._write(tmp_path)
        assert verify_manifest(path) == json.loads(path.read_text("utf-8").splitlines()[-1])

    def test_truncated_reports_last_index(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(lines[:3] + lines[-1:]) + "\n", "utf-8")
        result = self._rejected(path)
        assert "truncated" in result.reason
        assert result.record == 2

    def test_flipped_byte_rejected(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        target = raw.find(b"doc-00002")
        raw[target] = ord("X")
        path.write_bytes(bytes(raw))
        assert self._rejected(path).reason == "checksum mismatch"

    def test_reordered_records_rejected(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text("utf-8").splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        path.write_text("\n".join(lines) + "\n", "utf-8")
        self._rejected(path)

    def test_non_canonical_record_localized(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text("utf-8").splitlines()
        lines[3] = json.dumps(json.loads(lines[3]))
        path.write_text("\n".join(lines) + "\n", "utf-8")
        result = self._rejected(path)
        assert (result.reason, result.record) == ("non-canonical record encoding", 3)

    def test_footer_only_manifest_rejected(self, tmp_path):
        # the footer is self-consistent: zero records, and the checksum of no bytes
        path = tmp_path / "m.jsonl"
        path.write_bytes(encode_line({"checksum": hashlib.sha256(b"").hexdigest(), "count": 0, "seed": 0}))
        result = self._rejected(path)
        assert (result.reason, result.record) == ("no records before the footer", None)

    @pytest.mark.parametrize(
        "footer",
        [
            # spaces, unsorted keys, an extra key, a string seed and no final LF
            '{{"count": 1, "checksum": "{checksum}", "seed": "x", "note": [1]}}',
            # bool is an int subclass, but no writer spells a count `true`
            '{{"checksum":"{checksum}","count":true,"seed":0}}\n',
            '{{"checksum":"{checksum}","count":1,"seed":false}}\n',
            '{{"checksum":"{checksum}","count":1}}\n',
            '{{"checksum":"{checksum}","count":1,"seed":0}}\r\n',
            '{{"checksum":"{checksum}","count":1,"seed":0.0}}\n',
            '{{"checksum":"{checksum}","count":1,"seed":-0}}\n',
            '{{"checksum":"{escaped}","count":1,"seed":0}}\n',
        ],
        ids=["spelled", "bool-count", "bool-seed", "no-seed", "crlf", "float-seed", "minus-zero", "escaped"],
    )
    def test_footer_must_be_the_line_the_writer_writes(self, tmp_path, footer):
        path = self._write(tmp_path, n=1)
        record, written = path.read_bytes().splitlines(keepends=True)
        checksum = json.loads(written)["checksum"]
        escaped = "\\u%04x" % ord(checksum[0]) + checksum[1:]
        path.write_bytes(record + footer.format(checksum=checksum, escaped=escaped).encode("utf-8"))
        result = self._rejected(path)
        assert (result.reason, result.record) == ("non-canonical footer", 1)

    def test_escaped_lone_surrogate_is_non_canonical(self, tmp_path):
        # no canonical line spells U+D800: raw, it cannot be UTF-8
        line = b'{"a":"\\ud800"}\n'
        path = tmp_path / "m.jsonl"
        path.write_bytes(line + encode_line({"checksum": hashlib.sha256(line).hexdigest(), "count": 1, "seed": 0}))
        result = self._rejected(path)
        assert (result.reason, result.record) == ("non-canonical record encoding", 0)

    def test_unparseable_record_localized(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text("utf-8").splitlines()
        lines[4] = "garbage{"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        assert self._rejected(path).record == 4


class TestSideFollowing:
    def test_qa_and_tasks_follow_document_side(self, tmp_path):
        records = synthetic_records(30, seed=8)
        path = tmp_path / "c.jsonl"
        write_jsonl(records, path)
        corpus = ingest_jsonl(path)
        train, test = split_corpus(corpus, test_fraction=0.25, seed=13)
        pairs = [
            QAPair(doc_id=rec["id"], task="generation", question="Q?", answer="A.")
            for rec in records
        ]
        train_ids, test_ids = ids(train), ids(test)
        routed_train = [p for p in pairs if p.doc_id in train_ids]
        routed_test = [p for p in pairs if p.doc_id in test_ids]
        assert len(routed_train) + len(routed_test) == len(pairs)
        assert {p.doc_id for p in routed_train} <= train_ids
        assert {p.doc_id for p in routed_test} <= test_ids


class TestRecordBuilders:
    def test_task_record_carries_policy(self):
        doc = document_from_record(synthetic_records(1)[0])
        suite = build_suite(analyze_document(doc), seed=0)
        memorization = suite.by_kind("memorization")[0]
        record = attach_loss_policy(task_record(memorization))
        assert record["loss_policy"] == "full_sequence"
        assert record["payload"]["kind"] == "memorization"

    def test_qa_record_shape(self):
        pair = QAPair(doc_id="d", task="generation", question="Q?", answer="A.")
        record = attach_loss_policy(qa_record(pair))
        assert record["kind"] == "qa"
        assert record["loss_policy"] == "answer_only"

    def test_built_records_carry_their_policy_uncopied(self):
        doc = document_from_record(synthetic_records(1)[0])
        suite = build_suite(analyze_document(doc), seed=0)
        pair = QAPair(doc_id="d", task="generation", question="Q?", answer="A.")
        records = [doc_record(doc), qa_record(pair), *map(task_record, suite.examples)]
        assert {r["payload"]["kind"] for r in records[2:]} >= {"memorization", "cloze"}
        for record in records:
            assert attach_loss_policy(record) is record
