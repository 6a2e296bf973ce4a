"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Reference implementations used as oracles here are written
independently of the production code paths they check."""

import hashlib
import json
import random
import re
import string
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import DATA, ROBERT_BODY, ROBERT_TITLE
from docstudy.analysis import analyze_document
from docstudy.cli import main as cli_main
from docstudy.corpus import document_from_record, ingest_jsonl
from docstudy.curriculum import plan, scan_refs, stage_lines
from docstudy.dataset import ManifestReader, doc_record, qa_record, split_corpus, write_manifest
from docstudy.metrics import (
    aggregate_ppl,
    rouge_l,
    score_items,
    LogProbRecord,
)
from docstudy.qagen import QAPair, parse_qa_response
from docstudy.taskgen import build_suite

import _analysis_oracle as analysis_oracle
import _curriculum_oracle as oracle
from _curriculum_oracle import fairness_epochs, preset_ids
from _synth import synthetic_records, write_jsonl


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def _run(*argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


GIST_SET = {
    "United States",
    "American",
    "Alan Greenspan",
    "George W. Bush",
    "Robert Alexander Anderson",
    "1946",
}
DOC_TEXT = f"<{ROBERT_TITLE} - Wikipedia> {ROBERT_BODY}"
KEYWORDS = (
    "Robert Alexander Anderson; 1946; American; George W. Bush; "
    "Alan Greenspan; United States"
)


def _structural_checks(doc, suite):
    body = doc.body
    cloze = suite.by_kind("cloze")[0]
    blanked = cloze.question.removeprefix(f"<{doc.title}> ")
    assert blanked.count("--") - body.count("--") == 1
    s, e = cloze.provenance["entity_start"], cloze.provenance["entity_end"]
    assert body[s:e] == cloze.answer
    assert blanked == body[:s] + "--" + body[e:]

    multi = suite.by_kind("multichoice")[0]
    q_body = multi.question.split("\nOptions:\n")[0].removeprefix(f"<{doc.title}> ")
    ms, me = multi.provenance["entity_start"], multi.provenance["entity_end"]
    assert q_body == body[:ms] + "--" + body[me:]
    assert len(multi.options) == 4
    assert len(set(multi.options)) == 4
    assert multi.options.count(multi.answer) == 1

    completion = suite.by_kind("completion")[0]
    sent_index = completion.provenance["sentence_index"]
    prefix = completion.question.removeprefix(f"<{doc.title}> ").removesuffix(":")
    adoc = analyze_document(doc)
    span = adoc.sentences[sent_index]
    sentence = body[span.start : span.end]
    assert sentence == prefix + " " + completion.answer + "."


def test_criterion_1_appendix_fixture_reproduction(robert_corpus, robert_adoc):
    with criterion("criterion 1: fixture reproduction byte-for-byte, < 1 s"):
        start = time.perf_counter()
        suite = build_suite(robert_adoc, seed=7)

        assert suite.by_kind("memorization")[0].answer == DOC_TEXT
        summarization = suite.by_kind("summarization")[0]
        assert summarization.question == f"Write a title: {DOC_TEXT}"
        assert summarization.answer == ROBERT_TITLE
        teaching = suite.by_kind("teaching")[0]
        assert teaching.question == "Tell me about Robert Anderson (artist)."
        assert teaching.answer == ROBERT_BODY
        flashcards = suite.by_kind("flashcards")[0]
        assert flashcards.question == (
            "Generate a concrete description about Robert Anderson (artist) "
            f"based on the following keywords:\n{KEYWORDS}"
        )
        gist = suite.by_kind("gist")[0]
        assert set(gist.answer.split("; ")) == GIST_SET

        _structural_checks(robert_corpus[0], suite)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_reconstruction_suite():
    with criterion("criterion 2: inverse-edit invariants on 1,000 synthetic docs, < 10 s"):
        records = synthetic_records(1000, seed=77)
        start = time.perf_counter()
        checked_false = 0
        for record in records:
            doc = document_from_record(record)
            adoc = analyze_document(doc)
            suite = build_suite(adoc, seed=101)
            _structural_checks(doc, suite)

            nli = suite.by_kind("nli")
            if len(nli) == 2:
                checked_false += 1
                false = nli[1]
                prov = false.provenance
                span = adoc.sentences[prov["sentence_index"]]
                original = doc.body[span.start : span.end]
                stmt = false.question.split("\n")[1].removeprefix(f"<{doc.title}> ")
                # differs from the true statement in exactly the recorded span
                ts, te = prov["target_start"], prov["target_end"]
                repl = prov["replacement_surface"]
                assert stmt == original[:ts] + repl + original[te:]
                assert stmt[:ts] == original[:ts]
                assert stmt[ts + len(repl):] == original[te:]
                assert repl != prov["original_surface"]
                homes = {
                    analysis_oracle.sentence_of_entity(adoc, e)
                    for e in adoc.entities
                    if e.surface == repl
                }
                assert homes - {prov["sentence_index"]}
        elapsed = time.perf_counter() - start
        assert checked_false == 1000, "every synthetic doc should admit a corruption"
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


# --- independent metric references (bag intersection + full-matrix LCS) ---

def _ref_normalize(text):
    text = "".join(ch for ch in text.lower() if ch not in string.punctuation)
    text = re.sub(r"\b(a|an|the)\b", " ", text)
    return " ".join(text.split())


def _ref_bag_common(a, b):
    pool = list(b)
    hits = 0
    for token in a:
        if token in pool:
            pool.remove(token)
            hits += 1
    return hits


def _ref_f1(pred, gold):
    p = _ref_normalize(pred).split()
    g = _ref_normalize(gold).split()
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    common = _ref_bag_common(p, g)
    if common == 0:
        return 0.0
    precision, recall = common / len(p), common / len(g)
    return 2 * precision * recall / (precision + recall)


def _ref_recall(pred, gold):
    p = _ref_normalize(pred).split()
    g = _ref_normalize(gold).split()
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    return _ref_bag_common(p, g) / len(g)


def _ref_em(pred, gold):
    return int(_ref_normalize(pred) == _ref_normalize(gold))


def _ref_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def _ref_rouge(pred, gold):
    p = "".join(ch for ch in pred.lower() if ch not in string.punctuation).split()
    g = "".join(ch for ch in gold.lower() if ch not in string.punctuation).split()
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    lcs = _ref_lcs(p, g)
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(p), lcs / len(g)
    return 2 * precision * recall / (precision + recall)


def test_criterion_3_metric_oracle_equivalence():
    with criterion("criterion 3: metrics vs brute-force reference, tol 1e-9; PPL exact"):
        rng = random.Random(2024)
        vocab = ["alpha", "beta", "the", "1946", "gamma", "delta", "a", "omega", "paris."]
        predictions, references = {}, {}
        for i in range(200):
            predictions[f"i{i:03d}"] = " ".join(rng.choices(vocab, k=rng.randint(0, 10)))
            references[f"i{i:03d}"] = {"golds": [" ".join(rng.choices(vocab, k=rng.randint(1, 10)))]}
        judgments, _ = score_items(predictions, references)
        for judgment in judgments:
            pred, (gold,) = predictions[judgment.item_id], references[judgment.item_id]["golds"]
            assert abs(judgment.em - _ref_em(pred, gold)) <= 1e-9
            assert abs(judgment.f1 - _ref_f1(pred, gold)) <= 1e-9
            assert abs(judgment.recall - _ref_recall(pred, gold)) <= 1e-9
            assert abs(judgment.rouge_l - _ref_rouge(pred, gold)) <= 1e-9
            assert abs(rouge_l(pred, gold) - _ref_rouge(pred, gold)) <= 1e-9

        import math

        assert aggregate_ppl([LogProbRecord("d", [math.log(0.5)] * 4)]) == 2.0
        assert aggregate_ppl([LogProbRecord("d", [0.0] * 5)]) == 1.0

        logprobs = [-rng.random() * 4 for _ in range(300)]
        pooled = aggregate_ppl([LogProbRecord("all", logprobs)])
        for _ in range(50):
            cuts = sorted(rng.sample(range(1, 300), rng.randint(1, 9)))
            parts, prev = [], 0
            for cut in cuts + [300]:
                parts.append(LogProbRecord(f"p{prev}", logprobs[prev:cut]))
                prev = cut
            assert abs(aggregate_ppl(parts) - pooled) <= 1e-12


def test_criterion_4_curriculum_golden_files(golden_plans, tmp_path):
    with criterion("criterion 4: ten preset plans match goldens; pairing sound"):
        refs = {
            "train_doc": "train_doc.jsonl",
            "train_qa": "train_qa.jsonl",
            "train_self": "train_self.jsonl",
            "train_doc_reading": "train_doc_reading.jsonl",
            "test_doc": "test_doc.jsonl",
        }
        assert len(preset_ids()) == 10
        for preset in preset_ids():
            built = plan(preset, refs, seed=0)
            assert built == golden_plans[preset], preset
            total = fairness_epochs(built)
            if preset == "continued_pretraining":
                assert total == 5
            elif preset == "standard_it_wo_forgetting":
                assert total == 4  # verbatim stage bullets; known fairness exception
            else:
                assert total == 3
        pit = plan("pit", refs, seed=0)
        assert pit["stages"][-1]["replay"]["size"] == 64
        st = plan("self_tuning", refs, seed=0)
        assert st["stages"][-1]["replay"]["size"] == 128

        # rendered PIT stage 1: every QA record directly precedes its document
        docs = [doc_record(document_from_record(r)) for r in synthetic_records(12, seed=3)]
        write_manifest(docs, name="train_doc", split="train", path=tmp_path / "train_doc.jsonl")
        doc_manifest = [r for r, _ in ManifestReader(tmp_path / "train_doc.jsonl")]
        qa_records = []
        for record in synthetic_records(12, seed=3):
            for k in range(2):
                qa_records.append(
                    qa_record(QAPair(doc_id=record["id"], task="generation",
                                     question=f"Q{k}?", answer="A."))
                )
        write_manifest(qa_records, name="train_qa", split="train", path=tmp_path / "train_qa.jsonl")
        qa_manifest = [r for r, _ in ManifestReader(tmp_path / "train_qa.jsonl")]
        stage = pit["stages"][0]
        paths = {name: tmp_path / f"{name}.jsonl" for name in stage["refs"]}
        rendered = [json.loads(line) for line in stage_lines(stage, scan_refs({"stages": [stage]}, paths))]
        assert rendered == oracle.render_stage_inputs(stage, {"train_doc": doc_manifest, "train_qa": qa_manifest})
        for pos, record in enumerate(rendered):
            if record["kind"] != "qa":
                continue
            following_docs = [r for r in rendered[pos + 1:] if r["kind"] == "doc"]
            assert following_docs
            assert following_docs[0]["payload"]["id"] == record["payload"]["doc_id"]


def test_criterion_5_split_guarantee():
    with criterion("criterion 5: 100 seeded splits of 1,000 docs, disjoint and reproducible"):
        docs = [document_from_record(r) for r in synthetic_records(1000, seed=55)]
        all_ids = {d.id for d in docs}
        for seed in range(100):
            train_a, test_a = split_corpus(docs, test_fraction=0.1, seed=seed)
            train_b, test_b = split_corpus(docs, test_fraction=0.1, seed=seed)
            assert [d.id for d in train_a] == [d.id for d in train_b]
            assert [d.id for d in test_a] == [d.id for d in test_b]
            assert {d.id for d in train_a} & {d.id for d in test_a} == set()
            assert {d.title for d in train_a} & {d.title for d in test_a} == set()
            assert len(train_a) + len(test_a) == 1000
            assert {d.id for d in train_a} | {d.id for d in test_a} == all_ids


def _pipeline(workdir: Path, raw: Path, seed: int):
    out = workdir
    _run("--seed", seed, "--out", out, "ingest", "--corpus", raw, "--name", "c")
    _run("--seed", seed, "--out", out, "gen-tasks", "--corpus", out / "c.jsonl", "--name", "c", "--reading")
    _run("--seed", seed, "--out", out, "split", "--corpus", out / "c.jsonl", "--name", "c", "--fraction", 0.2)
    refs = {
        "train_doc": str(out / "c_train.jsonl"),
        "train_self": str(out / "c_tasks.jsonl"),
        "train_qa": str(out / "c_tasks.jsonl"),
        "test_doc": str(out / "c_test.jsonl"),
    }
    refs_path = workdir.parent / f"refs_{workdir.name}.json"
    refs_path.write_text(json.dumps(refs), "utf-8")
    _run("--seed", seed, "--out", out, "plan", "--preset", "self_tuning", "--refs-file", refs_path)


def test_criterion_6_pipeline_determinism(tmp_path):
    with criterion("criterion 6: same-seed runs byte-identical; seed changes cloze spans"):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(synthetic_records(40, seed=21), raw)
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            (tmp_path / name).mkdir()
            _pipeline(tmp_path / name, raw, seed)

        def tree(root: Path):
            return {
                str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        assert tree(tmp_path / "a") == tree(tmp_path / "b")

        def cloze_spans(root: Path):
            return [
                (r["payload"]["doc_id"], r["payload"]["provenance"])
                for r, _ in ManifestReader(root / "c_tasks.jsonl")
                if r["payload"].get("kind") == "cloze"
            ]

        assert cloze_spans(tmp_path / "a") != cloze_spans(tmp_path / "c")


def test_criterion_7_prompt_fidelity():
    with criterion("criterion 7: prompt templates hash-match goldens; 4 NLI pairs parsed"):
        from importlib import resources

        for asset, golden in (
            ("qa_generation.txt", "golden_generation_prompt.txt"),
            ("qa_nli.txt", "golden_nli_prompt.txt"),
        ):
            packaged = resources.files("docstudy").joinpath("data", "prompts", asset).read_text("utf-8")
            expected = (DATA / golden).read_text("utf-8")
            assert (
                hashlib.sha256(packaged.encode()).hexdigest()
                == hashlib.sha256(expected.encode()).hexdigest()
            )

        raw = (DATA / "sawyer_nli_response.txt").read_text("utf-8")
        parsed = parse_qa_response(raw, "nli", doc_id="sawyer")
        assert len(parsed.pairs) == 4
        assert [p.answer_label for p in parsed.pairs] == ["Yes", "No", "Yes", "No"]
