import errno
import functools
import hashlib
import http.server
import json
import os
import ssl
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import deque
from pathlib import Path

import pytest

import docstudy
from conftest import DATA, LOOPBACK_CERT, FakePool, _CountingServer, wait_for
from docstudy import curriculum, dataset, jsonio, qagen
from docstudy.cli import JOBS_ENV, _resolve, main
from docstudy.corpus import iter_documents
from docstudy.curriculum import plan
from docstudy.dataset import (
    ManifestReader,
    attach_loss_policy,
    doc_record,
    qa_record,
    verify_manifest,
    write_manifest,
)
from docstudy.jsonio import encode_line
from docstudy.qagen import QAPair

import _curriculum_oracle as oracle
from _qagen_oracle import SETTINGS
from _synth import long_record, synthetic_records, write_jsonl


def run(*argv) -> int:
    return main([str(a) for a in argv])


def tree_bytes(root: Path, exclude=("refs.json",)) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in exclude
    }


def _on_a_full_disk(monkeypatch, fault: dict) -> dict:
    """Wrap every output handle so that write number `fault["write"]` of the
    run, and the close of output number `fault["close"]` in the order the
    outputs are opened, find the disk full (both from 0; None fails none).
    Return the live counts of writes and outputs, which a caller may reset."""
    seen = {"writes": 0, "outputs": 0}
    fdopen = os.fdopen

    class Handle:
        def __init__(self, handle):
            self.handle, self.index = handle, seen["outputs"]
            seen["outputs"] += 1

        # a context manager, as a file is, whose exit is its close
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.close()

        def write(self, data):
            if seen["writes"] == fault["write"]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            seen["writes"] += 1
            return self.handle.write(data)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

        def close(self):
            # as a buffered file does, it closes its descriptor, then reports the failed flush
            self.handle.close()
            if self.index == fault["close"]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(jsonio.os, "fdopen", lambda *a, **k: Handle(fdopen(*a, **k)))
    return seen


def _each_write_on_a_full_disk(monkeypatch, capsys, tmp_path, out, argv) -> int:
    """Run `argv` once into `tmp_path / "clean"`, counting the writes to its
    output handles, then once into `out` for each of those writes and once
    for each output's close, with that write or close finding the disk full:
    every such run must exit 3, leave `out` as it was and leave no temp
    file. Return the number of writes."""
    before = tree_bytes(out)
    fault = {"write": None, "close": None}
    seen = _on_a_full_disk(monkeypatch, fault)
    assert run("--out", tmp_path / "clean", *argv) == 0
    writes, outputs = seen["writes"], seen["outputs"]
    # every file of the clean run is an output, and each is closed once
    assert outputs == len(tree_bytes(tmp_path / "clean"))
    for kind, count in (("write", writes), ("close", outputs)):
        for at in range(count):
            fault.update({"write": None, "close": None, kind: at})
            seen.update(writes=0, outputs=0)
            capsys.readouterr()
            assert run("--out", out, *argv) == 3
            assert capsys.readouterr().err.startswith("i/o error: [Errno 28]")
            assert tree_bytes(out) == before, (kind, at)
            assert not list(out.glob(".*.tmp"))
    return writes


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "raw.jsonl"
    write_jsonl(synthetic_records(24, seed=6), path)
    return path


def _peaks(tmp_path, *command, runs=1):
    """tracemalloc peaks of one command on 100- and 400-document corpora: of
    the last of `runs` runs into one output directory."""
    def peak(n):
        corpus = tmp_path / f"raw{n}.jsonl"
        write_jsonl(synthetic_records(n, seed=2), corpus)
        argv = ("--out", tmp_path / f"o{n}", command[0], "--corpus", corpus, *command[1:])
        for _ in range(runs - 1):
            assert run(*argv) == 0
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # loads the lexicons and prompt assets once
    return peak(100), peak(400)


# sha256 over the sorted (name, sha256) pairs of the hash-seed flow's output tree
FLOW_TREE_SHA256 = "e8bdf04d8f64c7fc4436d0854fb1d427854ea496a872df37f8d47a2045bd43ab"
# sha256 of gen-tasks --reading's two manifests for one long, entity- and date-dense document
LONG_DOCUMENT_SHA256 = {
    "l_tasks.jsonl": "b92c3b82cfe38b46949e1f52d6b2f4f67e258946232d8c070400c55c969e15bb",
    "l_reading.jsonl": "48a32cb499ec9f0528cc4117bc181ad48a65da26916ff53ea7de1cbb7b4a5caf",
}


@pytest.fixture(scope="class")
def hash_seed_trees(tmp_path_factory):
    """{name: sha256} of the output tree of ingest -> gen-tasks -> split ->
    stats -> plan --render, run in one child interpreter per PYTHONHASHSEED."""
    work = tmp_path_factory.mktemp("hash_seed")
    write_jsonl(synthetic_records(24, seed=6), work / "raw.jsonl")
    flow = [
        ["ingest", "--corpus", str(work / "raw.jsonl"), "--name", "c"],
        ["gen-tasks", "--corpus", "c.jsonl", "--name", "c", "--reading"],
        ["split", "--corpus", "c.jsonl", "--name", "c", "--fraction", "0.25"],
        ["stats", "--corpus", "c.jsonl", "--name", "c"],
        ["plan", "--preset", "continued_pretraining", "--ref", "test_doc=c_reading.jsonl", "--render"],
    ]
    # the whole flow in one child interpreter, run in the output directory
    script = (
        "import json, sys\nfrom docstudy.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n    assert main(['--seed', '5', '--out', '.', *argv]) == 0, argv\n"
    )
    trees = []
    for hash_seed in ("0", "1"):
        out = work / f"hash{hash_seed}"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(docstudy.__file__).parents[1]), "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, "-c", script, json.dumps(flow)], cwd=out, env=env, check=True,
                       capture_output=True)
        trees.append({name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()})
    return trees


class TestPipeline:
    def test_full_pipeline_and_idempotence(self, tmp_path, corpus_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run("--seed", 5, "--out", out, "ingest", "--corpus", corpus_path, "--name", "c") == 0
            assert run("--seed", 5, "--out", out, "gen-tasks", "--corpus", out / "c.jsonl", "--name", "c", "--reading") == 0
            assert run("--seed", 5, "--out", out, "split", "--corpus", out / "c.jsonl", "--name", "c", "--fraction", 0.25) == 0
            refs = {
                "train_doc": str(out / "c_train.jsonl"),
                "train_self": str(out / "c_tasks.jsonl"),
                "train_qa": str(out / "c_tasks.jsonl"),
                "test_doc": str(out / "c_test.jsonl"),
            }
            (out / "refs.json").write_text(json.dumps(refs), "utf-8")
            assert run("--seed", 5, "--out", out, "plan", "--preset", "self_tuning", "--refs-file", out / "refs.json") == 0
            assert run("--out", out, "stats", "--corpus", out / "c.jsonl", "--name", "c") == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

        # re-running in place is byte-stable too
        before = tree_bytes(out_a)
        assert run("--seed", 5, "--out", out_a, "gen-tasks", "--corpus", out_a / "c.jsonl", "--name", "c", "--reading") == 0
        assert tree_bytes(out_a) == before

    def test_outputs_do_not_depend_on_the_hash_seed(self, hash_seed_trees):
        assert "continued_pretraining_stage1.jsonl" in hash_seed_trees[0] and "c_stats.json" in hash_seed_trees[0]
        assert hash_seed_trees[0] == hash_seed_trees[1]

    def test_outputs_match_the_committed_digest(self, hash_seed_trees):
        # CI runs this on Python 3.10 to 3.13, so every interpreter writes the same bytes
        digest = hashlib.sha256()
        for name, file_hash in sorted(hash_seed_trees[0].items()):
            digest.update(f"{name}\0{file_hash}\n".encode("utf-8"))
        assert digest.hexdigest() == FLOW_TREE_SHA256

    def test_split_outputs_are_corpora(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        assert run("--seed", 1, "--out", out, "split", "--corpus", corpus_path, "--name", "s") == 0
        train = (out / "s_train.jsonl").read_text("utf-8").strip().splitlines()
        test = (out / "s_test.jsonl").read_text("utf-8").strip().splitlines()
        assert len(train) + len(test) == 24
        overlap = json.loads((out / "s_overlap.json").read_text("utf-8"))
        assert overlap["ngram_size"] == 8

    def test_split_routes_qa(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        qa_path = tmp_path / "qa.jsonl"
        rows = [
            {"doc_id": f"doc-{i:05d}", "task": "generation", "question": "Q?", "answer": "A."}
            for i in range(24)
        ]
        qa_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
        assert run("--seed", 2, "--out", out, "split", "--corpus", corpus_path, "--name", "s", "--qa", qa_path) == 0
        routed = []
        for side in ("train", "test"):
            for line in (out / f"s_qa_{side}.jsonl").read_text("utf-8").splitlines():
                routed.append(json.loads(line)["doc_id"])
        assert sorted(routed) == sorted(r["doc_id"] for r in rows)

    def test_split_qa_error_keeps_old_outputs(self, tmp_path, capsys, corpus_path):
        out, qa_path, fewer = tmp_path / "o", tmp_path / "qa.jsonl", tmp_path / "fewer.jsonl"
        rows = [{"doc_id": f"doc-{i:05d}", "task": "generation", "question": "Q?", "answer": "A."} for i in range(24)]
        write_jsonl(rows, qa_path)
        assert run("--seed", 2, "--out", out, "split", "--corpus", corpus_path, "--name", "s", "--qa", qa_path) == 0
        before = tree_bytes(out)
        assert set(before) == {f"s_{part}" for part in ("train.jsonl", "test.jsonl", "overlap.json", "qa_train.jsonl", "qa_test.jsonl")}
        # a changed corpus that no longer holds doc-00020, which a QA row names
        lines = corpus_path.read_text("utf-8").splitlines(keepends=True)
        fewer.write_text("".join(lines[:20]), "utf-8")
        capsys.readouterr()
        assert run("--seed", 2, "--out", out, "split", "--corpus", fewer, "--name", "s", "--qa", qa_path) == 2
        assert capsys.readouterr().err == f"data error: {qa_path}:21: QA pair references unknown document id 'doc-00020'\n"
        assert tree_bytes(out) == before

    @pytest.mark.parametrize(
        "argv, reason",
        [(["--fraction", "nan"], "test fraction nan outside (0,1)"), (["--ngram", "0"], "n-gram size 0 is not at least 1"),
         (["--fraction", "0"], "test fraction 0.0 outside (0,1)"), (["--fraction", "1"], "test fraction 1.0 outside (0,1)")],
        ids=["fraction-nan", "ngram-0", "fraction-0", "fraction-1"],
    )
    def test_split_bad_argument_keeps_old_outputs(self, tmp_path, capsys, corpus_path, argv, reason):
        out = tmp_path / "o"
        assert run("--seed", 2, "--out", out, "split", "--corpus", corpus_path, "--name", "s") == 0
        before = tree_bytes(out)
        capsys.readouterr()
        assert run("--seed", 3, "--out", out, "split", "--corpus", corpus_path, "--name", "s", *argv) == 1
        assert capsys.readouterr().err == f"usage error: {reason}\n"
        assert tree_bytes(out) == before

    def test_split_failed_write_keeps_every_old_output(self, tmp_path, capsys, monkeypatch, corpus_path):
        out, qa_path = tmp_path / "o", tmp_path / "qa.jsonl"
        write_jsonl([{"doc_id": f"doc-{i:05d}", "task": "generation", "question": "Q?", "answer": "A."}
                     for i in range(24)], qa_path)
        argv = ["split", "--corpus", corpus_path, "--name", "s", "--qa", qa_path]
        assert run("--seed", 1, "--out", out, *argv) == 0
        before = tree_bytes(out)
        # seed 2 puts other documents on each side, so every output would change
        assert _each_write_on_a_full_disk(monkeypatch, capsys, tmp_path, out, ["--seed", 2, *argv]) == 24 + 1 + 24
        clean = tree_bytes(tmp_path / "clean")
        assert clean.keys() == before.keys() and all(data != before[name] for name, data in clean.items())

    def test_split_failed_close_of_its_first_output_keeps_every_old_output(self, tmp_path, capsys, monkeypatch,
                                                                          corpus_path):
        out = tmp_path / "o"
        argv = ["--out", out, "split", "--corpus", corpus_path, "--name", "s"]
        assert run("--seed", 1, *argv) == 0
        before = tree_bytes(out)
        # the train side, opened first, finds the disk full as it is closed;
        # seed 2 would change every output, so no mix of old and new may show
        _on_a_full_disk(monkeypatch, {"write": None, "close": 0})
        capsys.readouterr()
        assert run("--seed", 2, *argv) == 3
        assert capsys.readouterr().err.startswith("i/o error: [Errno 28]")
        assert tree_bytes(out) == before
        assert not list(out.glob(".*.tmp"))

    def test_gen_tasks_failed_write_keeps_every_old_output(self, tmp_path, capsys, monkeypatch, corpus_path):
        out, fewer = tmp_path / "o", tmp_path / "fewer.jsonl"
        fewer.write_text("".join(corpus_path.read_text("utf-8").splitlines(keepends=True)[:20]), "utf-8")
        argv = ["gen-tasks", "--name", "c", "--reading", "--corpus"]
        assert run("--seed", 1, "--out", out, *argv, fewer) == 0
        before = tree_bytes(out)
        # four more documents, so every output would change
        reached = _each_write_on_a_full_disk(monkeypatch, capsys, tmp_path, out, ["--seed", 1, *argv, corpus_path])
        clean = tree_bytes(tmp_path / "clean")
        # every line of both manifests, footers included, and the stats
        assert reached == len(clean["c_tasks.jsonl"].splitlines()) + len(clean["c_reading.jsonl"].splitlines()) + 1
        assert clean.keys() == before.keys() and all(data != before[name] for name, data in clean.items())

    def test_gen_tasks_stats_percentages(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        assert run("--seed", 3, "--out", out, "gen-tasks", "--corpus", corpus_path, "--name", "c") == 0
        payload = json.loads((out / "c_tasks_stats.json").read_text("utf-8"))
        assert set(payload["counts"]) == {
            "memorization", "summarization", "gist", "nli", "teaching",
            "flashcards", "cloze", "multichoice", "completion",
        }
        assert abs(sum(payload["percent"].values()) - 100.0) <= 0.05

    def test_gen_tasks_analyzer_overrides(self, tmp_path):
        corpus = tmp_path / "one.jsonl"
        body = "Alice Becker lived in Oslo. Later Hugo Keller moved to Dublin."
        write_jsonl([{"id": "d", "title": "D", "body": body}], corpus)
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("nowhere\n", "utf-8")
        abbreviations = tmp_path / "abbreviations.txt"
        abbreviations.write_text("Oslo.\n", "utf-8")

        def counts(*flags):
            out = tmp_path / "-".join(("o",) + tuple(Path(f).stem for f in flags))
            assert run("--out", out, "gen-tasks", "--corpus", corpus, "--name", "c", *flags) == 0
            return json.loads((out / "c_tasks_stats.json").read_text("utf-8"))["counts"]

        default = counts()
        assert default["completion"] == 1 and default["nli"] == 2
        # no lexicon word occurs, so no sentence can be completed
        assert counts("--lexicon", lexicon)["completion"] == 0
        # "Oslo." no longer ends a sentence: one sentence, no corrupted NLI
        assert counts("--abbreviations", abbreviations)["nli"] == 1

    def test_gen_tasks_peak_memory_does_not_grow_with_the_corpus(self, tmp_path):
        small, large = _peaks(tmp_path, "gen-tasks", "--reading")
        # holding the outputs costs about 24 KB a document; the duplicate-id
        # map, the one thing kept per document, about 0.2 KB
        assert (large - small) / 300 < 2048, (small, large)

    def test_gen_tasks_holds_one_document_at_a_time(self, tmp_path):
        record = long_record(500, seed=4, doc_id="a")

        def peak(records, name):
            corpus = tmp_path / f"{name}.jsonl"
            write_jsonl(records, corpus)
            tracemalloc.start()
            try:
                assert run("--out", tmp_path / name, "gen-tasks", "--corpus", corpus, "--reading") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([record], "warm")  # loads the lexicons once
        one = peak([record], "one")
        two = peak([record, {**record, "id": "b"}], "two")
        # the first document's suite and reading text must die before the
        # second is analysed; kept alive, they made two copies peak at 1.48 times one
        assert two <= 1.15 * one, (one, two)

    def test_gen_tasks_long_document_bytes(self, tmp_path):
        corpus = tmp_path / "long.jsonl"
        write_jsonl([long_record(300, seed=9)], corpus)
        assert run("--seed", 3, "--out", tmp_path, "gen-tasks", "--corpus", corpus, "--name", "l", "--reading") == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("l_tasks.jsonl", "l_reading.jsonl")}
        assert digests == LONG_DOCUMENT_SHA256

    def test_verify_command(self, tmp_path, capsys, corpus_path):
        out = tmp_path / "o"
        assert run("--seed", 3, "--out", out, "gen-tasks", "--corpus", corpus_path, "--name", "c") == 0
        manifest = out / "c_tasks.jsonl"
        capsys.readouterr()
        assert run("verify", manifest) == 0
        assert capsys.readouterr().out == f"{manifest}: ok\n"
        lines = manifest.read_bytes().splitlines(keepends=True)
        raw = bytearray(manifest.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        manifest.write_bytes(bytes(raw))
        assert run("verify", manifest) == 2
        assert capsys.readouterr().out.startswith(f"{manifest}: MISMATCH ")
        manifest.write_bytes(b"".join(lines[:3] + lines[-1:]))
        assert run("verify", manifest) == 2
        assert capsys.readouterr().out == f"{manifest}: MISMATCH truncated: 3 of {len(lines) - 1} records (record 2)\n"

    def test_verify_refuses_a_footer_only_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "zero.jsonl"
        manifest.write_bytes(encode_line({"checksum": hashlib.sha256(b"").hexdigest(), "count": 0, "seed": 0}))
        assert run("verify", manifest) == 2
        assert capsys.readouterr().out == f"{manifest}: MISMATCH no records before the footer\n"

    def test_verify_refuses_an_escaped_lone_surrogate_without_a_traceback(self, tmp_path, capsys):
        manifest, line = tmp_path / "sur.jsonl", b'{"a":"\\ud800"}\n'
        manifest.write_bytes(line + encode_line({"checksum": hashlib.sha256(line).hexdigest(), "count": 1, "seed": 0}))
        assert run("verify", manifest) == 2
        assert capsys.readouterr() == (f"{manifest}: MISMATCH non-canonical record encoding (record 0)\n",
                                       "data error: 1 manifest(s) failed verification\n")

    @pytest.mark.parametrize(
        "footer",
        [
            # spaces, unsorted keys, an extra key, a string seed and no final LF
            '{{"count": 1, "checksum": "{checksum}", "seed": "x", "note": [1]}}',
            '{{"checksum":"{checksum}","count":true,"seed":0}}\n',
        ],
        ids=["spelled", "bool-count"],
    )
    def test_verify_and_render_refuse_a_footer_the_writer_never_writes(self, tmp_path, capsys, corpus_path, footer):
        refs = _write_refs(tmp_path, _ref_records(tmp_path, corpus_path))
        # train_qa keeps its first record, so the count 1 (or true) and the checksum hold
        qa = refs["train_qa"]
        line = qa.read_bytes().split(b"\n")[0] + b"\n"
        qa.write_bytes(line + footer.format(checksum=hashlib.sha256(line).hexdigest()).encode("utf-8"))
        capsys.readouterr()
        assert run("verify", qa) == 2
        assert capsys.readouterr() == (f"{qa}: MISMATCH non-canonical footer (record 1)\n",
                                       "data error: 1 manifest(s) failed verification\n")
        out = tmp_path / "o"
        assert run("--out", out, *_render_argv("pit", refs)) == 2
        assert capsys.readouterr().err == f"data error: {qa}: non-canonical footer (record 1)\n"
        assert not list(out.glob("pit_stage*.jsonl"))

    def test_jobs_flag_matches_serial(self, tmp_path, corpus_path):
        out_serial = tmp_path / "s"
        out_parallel = tmp_path / "p"
        assert run("--seed", 9, "--out", out_serial, "gen-tasks", "--corpus", corpus_path, "--name", "c") == 0
        assert run("--seed", 9, "--jobs", 4, "--out", out_parallel, "gen-tasks", "--corpus", corpus_path, "--name", "c") == 0
        assert (out_serial / "c_tasks.jsonl").read_bytes() == (out_parallel / "c_tasks.jsonl").read_bytes()


class TestEval:
    def test_fixture_report(self, tmp_path, eval_fixture):
        out = tmp_path / "o"
        preds = tmp_path / "p.jsonl"
        refs = tmp_path / "r.jsonl"
        preds.write_text(
            "\n".join(json.dumps(r) for r in eval_fixture["predictions"]) + "\n", "utf-8"
        )
        refs.write_text(
            "\n".join(json.dumps(r) for r in eval_fixture["references"]) + "\n", "utf-8"
        )
        assert run("--out", out, "eval", "--predictions", preds, "--references", refs) == 0
        report = json.loads((out / "eval_report.json").read_text("utf-8"))
        assert report["metrics"] == eval_fixture["expected_metrics"]
        assert report["count"] == 10

    def test_missing_ids_listed(self, tmp_path, eval_fixture):
        out = tmp_path / "o"
        preds = tmp_path / "p.jsonl"
        refs = tmp_path / "r.jsonl"
        preds.write_text(
            "\n".join(json.dumps(r) for r in eval_fixture["predictions"][:8]) + "\n", "utf-8"
        )
        refs.write_text(
            "\n".join(json.dumps(r) for r in eval_fixture["references"]) + "\n", "utf-8"
        )
        assert run("--out", out, "eval", "--predictions", preds, "--references", refs) == 2

    def test_logprobs_only_ppl_report(self, tmp_path):
        out = tmp_path / "o"
        lp = tmp_path / "lp.jsonl"
        rows = [
            {"doc_id": "d1", "logprobs": [-0.6931471805599453, -0.6931471805599453]},
        ]
        lp.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
        assert run("--out", out, "eval", "--logprobs", lp) == 0
        report = json.loads((out / "eval_report.json").read_text("utf-8"))
        assert report["ppl"] == pytest.approx(2.0)
        assert report["metrics"] == {}

    def test_eval_without_inputs_is_usage_error(self, tmp_path):
        assert run("--out", tmp_path / "o", "eval") == 1

    def test_fixture_report_golden_bytes(self, tmp_path, eval_fixture):
        # sha256 of the whole report (every metric, count, item and ppl), recorded
        # when each mean got its item count: scoring or rendering drift shows here
        paths = {}
        for key in ("predictions", "references", "logprobs"):
            paths[key] = tmp_path / f"{key}.jsonl"
            paths[key].write_text(
                "".join(json.dumps(r) + "\n" for r in eval_fixture[key]), "utf-8"
            )
        out = tmp_path / "o"
        assert run(
            "--out", out, "eval",
            "--predictions", paths["predictions"],
            "--references", paths["references"],
            "--logprobs", paths["logprobs"],
            "--name", "fixture",
        ) == 0
        digest = hashlib.sha256((out / "fixture_report.json").read_bytes()).hexdigest()
        assert digest == "6e5fa2fce56eb7b45649bb79b42992188e9bd4d7a1ee5e57f9d70301d804a71a"


class TestStats:
    def test_nli_label_distribution(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        qa_path = tmp_path / "qa.jsonl"
        rows = [
            {"doc_id": "doc-00000", "task": "nli", "question": "Q1.", "answer": "Yes",
             "options": ["Yes", "It's impossible to say", "No"], "answer_label": "Yes"},
            {"doc_id": "doc-00001", "task": "nli", "question": "Q2.", "answer": "Yes",
             "options": ["Yes", "It's impossible to say", "No"], "answer_label": "Yes"},
            {"doc_id": "doc-00002", "task": "nli", "question": "Q3.", "answer": "No",
             "options": ["Yes", "It's impossible to say", "No"], "answer_label": "No"},
        ]
        qa_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
        assert run("--out", out, "stats", "--corpus", corpus_path, "--qa", qa_path, "--name", "c") == 0
        payload = json.loads((out / "c_stats.json").read_text("utf-8"))
        assert payload["docs"] == 24
        assert payload["nli_label_distribution"] == {"Yes": 66.67, "No": 33.33, "Impossible": 0.0}

    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path):
        small, large = _peaks(tmp_path, "stats")
        # holding the documents costs about 0.6 KB a document; the duplicate-id
        # map about 0.16 KB
        assert (large - small) / 300 < 384, (small, large)


    def test_peak_memory_does_not_grow_with_the_qa_rows(self, tmp_path, corpus_path):
        def peak(n):
            qa = tmp_path / f"qa{n}.jsonl"
            write_jsonl([{"doc_id": f"doc-{i % 24:05d}", "task": "generation", "question": f"Question {i}?",
                          "answer": f"Answer {i} is a sentence of some length."} for i in range(n)], qa)
            tracemalloc.start()
            try:
                assert run("--out", tmp_path / f"o{n}", "stats", "--corpus", corpus_path, "--qa", qa) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)
        small, large = peak(200), peak(1600)
        # holding the pairs cost about 0.4 KB a row; read one at a time, nothing grows
        assert (large - small) / 1400 < 64, (small, large)


class TestErrors:
    def test_unknown_preset_exit_1_and_lists_ids(self, tmp_path, capsys):
        assert run("--out", tmp_path, "plan", "--preset", "nonsense") == 1
        err = capsys.readouterr().err
        assert "self_tuning" in err and "pit" in err

    def test_data_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n", "utf-8")
        assert run("--out", tmp_path / "o", "ingest", "--corpus", bad) == 2

    @pytest.mark.parametrize(
        "argv",
        [["plan", "--preset", "nope"], ["plan", "--preset", "continued_pretraining", "--ref", "bad"], ["eval"],
         ["eval", "--logprobs", "bad.jsonl", "--predictions", "p.jsonl"],
         ["eval", "--logprobs", "bad.jsonl", "--references", "nonexistent.jsonl"],
         ["split", "--corpus", "bad.jsonl", "--fraction", "nan"],
         ["--config", "c.json", "ingest", "--corpus", "bad.jsonl"],
         ["--config", "out-null.json", "ingest", "--corpus", "bad.jsonl"],
         ["--config", "out-object.json", "ingest", "--corpus", "bad.jsonl"],
         ["--seed", "18446744073709551616", "gen-tasks", "--corpus", "bad.jsonl"],
         ["--seed", "-1", "plan", "--preset", "continued_pretraining", "--ref", "test_doc=bad.jsonl", "--render"],
         ["--config", "seed-big.json", "split", "--corpus", "bad.jsonl"]],
        ids=["unknown-preset", "ref-without-path", "eval-without-inputs", "predictions-without-references",
             "references-without-predictions", "split-fraction-nan", "config-unknown-keys", "config-out-null",
             "config-out-object", "seed-above-64-bits", "seed-negative", "config-seed-above-64-bits"],
    )
    def test_a_usage_error_makes_no_output_directory(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text("{not json}\n", "utf-8")
        (tmp_path / "p.jsonl").write_text('{"item_id": "i1", "prediction": "A."}\n', "utf-8")
        (tmp_path / "c.json").write_text('{"sede": 5}', "utf-8")
        (tmp_path / "out-null.json").write_text('{"out": null}', "utf-8")
        (tmp_path / "out-object.json").write_text('{"out": {"x": 1}}', "utf-8")
        (tmp_path / "seed-big.json").write_text('{"seed": 18446744073709551623}', "utf-8")
        assert run("--out", tmp_path / "o", *argv) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["ingest", "gen-tasks", "gen-qa", "split", "plan", "eval", "stats"])
    def test_an_out_under_a_regular_file_is_an_io_error(self, tmp_path, capsys, monkeypatch, workdir, command):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"a file, not a directory")
        monkeypatch.chdir(workdir)
        inputs = tree_bytes(workdir, exclude=())
        # the inputs are whole, so only the output directory can fail
        assert run("--out", blocker / "o", *COMMAND_ARGV[command][2:]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1, err
        assert tree_bytes(workdir, exclude=()) == inputs
        assert list(tmp_path.iterdir()) == [blocker]

    def test_io_error_exit_3(self, tmp_path, corpus_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a dir", "utf-8")
        assert run("--out", blocker, "ingest", "--corpus", corpus_path) == 3
        assert run("--out", blocker / "sub", "ingest", "--corpus", corpus_path) == 3

    @pytest.mark.parametrize(
        "flag, rows, line",
        [
            ("predictions", [{"item_id": "i1", "prediction": "x"}, {"item_id": "i2"}], 2),
            ("predictions", [{"item_id": "i1", "prediction": 3}], 1),
            ("predictions", [{"prediction": "x"}], 1),
            ("references", [{"item_id": "i1", "golds": ["x"]}, ["item_id", "golds"]], 2),
            ("logprobs", [{"doc_id": "d1", "logprobs": [-0.1]}, {"logprobs": [-0.2]}], 2),
            ("logprobs", [{"doc_id": "d1", "logprobs": -0.1}], 1),
            ("logprobs", ["d1"], 1),
            ("references", [{"item_id": "i1", "golds": [1]}], 1),
            ("references", [{"item_id": "i1", "golds": "x"}], 1),
            ("logprobs", [{"doc_id": "d1", "logprobs": [-0.1, float("nan")]}], 1),
            ("logprobs", [{"doc_id": "d1", "logprobs": [-0.1]}, {"doc_id": "d2", "logprobs": [float("-inf")]}], 2),
            ("logprobs", [{"doc_id": "d1", "logprobs": [-0.1]}, {"doc_id": "d2", "logprobs": ["x"]}], 2),
            ("logprobs", [{"doc_id": "d1", "logprobs": [-0.1]}, {"doc_id": "d2", "logprobs": [0.5]}], 2),
            ("logprobs", [{"doc_id": "d1", "logprobs": [-0.1]}, {"doc_id": "d2", "logprobs": ["-1.5", -0.5]}], 2),
            ("logprobs", [{"doc_id": "d1", "logprobs": [False, -0.5]}], 1),
            ("logprobs", [{"doc_id": "d1", "logprobs": [-(10**400)]}], 1),
            ("references", [{"item_id": "i1", "golds": ["x"]}, {"item_id": "i1", "golds": ["y"]}], 2),
            ("predictions", [{"item_id": "i1", "prediction": "x"}, {"item_id": "i1", "prediction": "y"}], 2),
            ("references", [{"item_id": "i1", "golds": ["y"], "gold_label": "Maybe"}], 1),
            ("references", [{"item_id": "i1", "golds": ["x"]}, {"item_id": "b", "golds": []}], 2),
        ],
        ids=[
            "no-prediction", "prediction-not-str", "no-item-id", "array-row",
            "no-doc-id", "logprobs-not-list", "string-row", "golds-item-not-str", "golds-str",
            "logprob-nan", "logprob-minus-infinity", "logprob-not-numeric", "logprob-positive",
            "logprob-numeric-string", "logprob-bool", "logprob-int-beyond-float",
            "duplicate-reference", "duplicate-prediction", "gold-label-unknown", "no-gold",
        ],
    )
    def test_malformed_eval_row_names_file_and_line(self, tmp_path, capsys, flag, rows, line):
        inputs = {
            "predictions": [{"item_id": "i1", "prediction": "x"}],
            "references": [{"item_id": "i1", "golds": ["x"]}],
            "logprobs": [{"doc_id": "d1", "logprobs": [-0.1]}],
            flag: rows,
        }
        argv = ["--out", tmp_path / "o", "eval"]
        for key, key_rows in inputs.items():
            path = tmp_path / f"{key}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in key_rows), "utf-8")
            argv += [f"--{key}", path]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / flag}.jsonl:{line}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, content, argv, code, where",
        [
            ("qa.jsonl", '{"doc_id": "d1", "question": "Q?", "answer": "A."}\n',
             ["split", "--corpus", "{corpus}", "--qa", "{file}"], 2, "{file}:1: "),
            ("qa.jsonl", '{"doc_id": "d1", "task": "generation", "question": "Q?", "answer": "A."}\n{\n',
             ["split", "--corpus", "{corpus}", "--qa", "{file}"], 2, "{file}:2: "),
            ("qa.jsonl", "not json\n", ["stats", "--corpus", "{corpus}", "--qa", "{file}"], 2, "{file}:1: "),
            ("cache/generation.jsonl", '{"pairs": [\n',
             ["gen-qa", "--corpus", "{one}", "--task", "generation", "--cache-dir", "{dir}"], 2,
             "{file}:1: invalid JSON ("),
            ("cache/generation.jsonl", '{"discarded":0,"doc_id":"d1","pairs":{},"request":{}}\n',
             ["gen-qa", "--corpus", "{one}", "--task", "generation", "--cache-dir", "{dir}"], 2,
             "{file}:1: a cache entry needs "),
            ("task.json", "{", ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"], 2, "{file}: "),
            ("task.json", "[]", ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"], 2, "{file}: "),
            ("refs.json", "{", ["plan", "--preset", "pit", "--refs-file", "{file}"], 2, "{file}: "),
            ("refs.json", '["train_qa"]', ["plan", "--preset", "pit", "--refs-file", "{file}"], 2, "{file}: "),
            ("config.json", "\udcff{}", ["--config", "{file}", "ingest", "--corpus", "{corpus}"], 1,
             "config file {file}: "),
            ("unused.txt", "", ["--jobs", "0", "gen-qa", "--corpus", "{corpus}", "--task", "nli"], 1,
             "jobs must be at least 1"),
            ("config.json", '{"seed": "x"}', ["--config", "{file}", "ingest", "--corpus", "{corpus}"], 1,
             "config key 'seed': "),
            ("task.json", '{"option_count": "x"}', ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"],
             2, "{file}: "),
            ("task.json", '{"multiplicity": {"nli": "x"}}',
             ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"], 2, "{file}: "),
            ("task.json", '{"templates": {"gist": 5}}',
             ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"], 2, "{file}: "),
            ("raw.jsonl", '{"title": "<  - Wikipedia>", "body": "A b."}\n', ["ingest", "--corpus", "{file}"], 2,
             "{file}:1: header "),
            ("raw.jsonl", '{"title": "T", "body": "A \\ud800 b."}\n', ["ingest", "--corpus", "{file}"], 2,
             "{file}:1: 'body' holds a lone surrogate"),
            ("qa.jsonl", '{"doc_id": "a", "task": "generation", "question": "Q \\ud800?", "answer": "A."}\n',
             ["split", "--corpus", "{corpus}", "--qa", "{file}"], 2, "{file}:1: 'question' holds a lone surrogate"),
            ("task.json", '{"option_count": 2.5}', ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"],
             2, "{file}: "),
            ("task.json", '{"option_count": true}', ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"],
             2, "{file}: "),
            ("task.json", '{"option_count": "4"}', ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"],
             2, "{file}: "),
            ("config.json", '{"jobs": 2.9}',
             ["--config", "{file}", "gen-qa", "--corpus", "{corpus}", "--task", "nli"], 1,
             "config key 'jobs': cannot read 2.9 as int"),
            ("config.json", '{"seed": true}', ["--config", "{file}", "ingest", "--corpus", "{corpus}"], 1,
             "config key 'seed': cannot read True as int"),
            ("config.json", '{"seed": 18446744073709551623}',
             ["--config", "{file}", "gen-tasks", "--corpus", "{corpus}"], 1,
             "seed 18446744073709551623 is outside 0..2**64-1\n"),
            ("unused.txt", "", ["--seed", "18446744073709551616", "ingest", "--corpus", "{corpus}"], 1,
             "seed 18446744073709551616 is outside 0..2**64-1\n"),
            ("unused.txt", "", ["--seed", "-1", "split", "--corpus", "{corpus}"], 1,
             "seed -1 is outside 0..2**64-1\n"),
            ("unused.txt", "", ["--seed", "-7", "plan", "--preset", "pit"], 1, "seed -7 is outside 0..2**64-1\n"),
            ("config.json", '{"sede": 5, "jobz": 3}', ["--config", "{file}", "ingest", "--corpus", "{corpus}"], 1,
             "config file {file}: unknown keys ['jobz', 'sede']; valid keys: jobs, out, seed\n"),
            ("config.json", '{"out": null}', ["--config", "{file}", "ingest", "--corpus", "{corpus}"], 1,
             "config key 'out': cannot read None as str\n"),
            ("config.json", '{"out": {"x": 1}}', ["--config", "{file}", "ingest", "--corpus", "{corpus}"], 1,
             "config key 'out': cannot read {{'x': 1}} as str\n"),
            ("task.json", '{"option_cout": 5}', ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"],
             2, "{file}: unknown task config keys ['option_cout']"),
            ("task.json", '{"multiplicity": {"nil": 0}}',
             ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"], 2, "{file}: "),
            ("task.json", '{"templates": {"bogus": "x"}}',
             ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"], 2, "{file}: "),
            ("task.json", '{"multiplicity": {"cloze": -3}}',
             ["gen-tasks", "--corpus", "{corpus}", "--task-config", "{file}"], 2, "{file}: "),
            ("words.txt", "\udcffof\n", ["gen-tasks", "--corpus", "{corpus}", "--lexicon", "{file}"], 2,
             "{file}: not UTF-8"),
            ("words.txt", "\udcffDr.\n", ["gen-tasks", "--corpus", "{corpus}", "--abbreviations", "{file}"], 2,
             "{file}: not UTF-8"),
            ("unused.txt", "", ["split", "--corpus", "{corpus}", "--ngram", "0"], 1, "n-gram size 0 "),
            ("unused.txt", "", ["split", "--corpus", "{corpus}", "--ngram", "-3"], 1, "n-gram size -3 "),
            ("qa.jsonl", '{"doc_id": "d1", "task": "generation", "question": "Q?", "answer": "A."}\n'
             '{"doc_id": "zzz", "task": "generation", "question": "Q?", "answer": "A."}\n',
             ["split", "--corpus", "{corpus}", "--qa", "{file}"], 2,
             "{file}:2: QA pair references unknown document id 'zzz'"),
            ("raw.jsonl", '{"id": {"x": 1}, "title": "T", "body": "A b."}\n', ["ingest", "--corpus", "{file}"], 2,
             "{file}:1: 'id' must be a non-empty string or null, got {{'x': 1}}"),
            ("raw.jsonl", '{"id": 0, "title": "T", "body": "A b."}\n', ["ingest", "--corpus", "{file}"], 2,
             "{file}:1: 'id' must be a non-empty string or null, got 0"),
            ("raw.jsonl", '{"id": false, "title": "T", "body": "A b."}\n', ["ingest", "--corpus", "{file}"], 2,
             "{file}:1: 'id' must be a non-empty string or null, got False"),
            ("raw.jsonl", '{"id": 7, "title": "T", "body": "A b."}\n', ["ingest", "--corpus", "{file}"], 2,
             "{file}:1: 'id' must be a non-empty string or null, got 7"),
            ("raw.jsonl", '{"id": "", "title": "T", "body": "A b."}\n', ["ingest", "--corpus", "{file}"], 2,
             "{file}:1: 'id' must be a non-empty string or null, got ''"),
            ("raw.jsonl", '{"id": "a", "title": "T", "body": "A b.", "source": 5}\n', ["ingest", "--corpus", "{file}"],
             2, "{file}:1: 'source' must be a string or null, got int"),
            ("raw.jsonl", '{"id": "a", "title": "T", "body": "A b.", "collected_at": {"x": [1]}}\n',
             ["gen-tasks", "--corpus", "{file}"], 2, "{file}:1: 'collected_at' must be a string or null, got dict"),
            ("qa.jsonl", '{"doc_id": "d1", "task": "generation", "question": "Q?", "answer": "A.", "answer_label": 5}\n',
             ["split", "--corpus", "{corpus}", "--qa", "{file}"], 2,
             "{file}:1: QA record 'answer_label' must be a string or null"),
            ("qa.jsonl",
             '{"doc_id": "d1", "task": "generation", "question": "Q?", "answer": "A.", "options": ["x", 3, null]}\n',
             ["stats", "--corpus", "{corpus}", "--qa", "{file}"], 2,
             "{file}:1: QA record 'options' must be a list of strings or null"),
        ],
        ids=[
            "qa-row-without-task", "qa-line-not-json", "stats-qa-line-not-json", "truncated-qa-cache",
            "qa-cache-pairs-not-list", "task-config-not-json", "task-config-list", "refs-file-not-json",
            "refs-file-list", "config-not-utf8", "jobs-0", "config-seed-not-int", "task-config-option-count-not-int",
            "task-config-multiplicity-not-int", "task-config-template-not-str",
            "header-leaves-empty-title", "lone-surrogate-in-body", "lone-surrogate-in-qa-row",
            "task-config-option-count-float", "task-config-option-count-bool", "task-config-option-count-str",
            "config-jobs-float", "config-seed-bool", "config-seed-above-64-bits", "seed-above-64-bits",
            "split-seed-negative", "plan-seed-negative", "config-unknown-keys", "config-out-null", "config-out-object",
            "task-config-unknown-key",
            "task-config-multiplicity-unknown-kind", "task-config-template-unknown-kind",
            "task-config-multiplicity-negative", "lexicon-not-utf8", "abbreviations-not-utf8",
            "split-ngram-0", "split-ngram-negative", "qa-row-unknown-document",
            "corpus-id-object", "corpus-id-zero", "corpus-id-false", "corpus-id-int", "corpus-id-empty",
            "corpus-source-int", "corpus-collected-at-object", "qa-answer-label-int", "qa-options-not-strings",
        ],
    )
    def test_malformed_input_names_file(self, tmp_path, capsys, monkeypatch, name, content, argv, code, where):
        monkeypatch.delenv("DOCSTUDY_CHAT_ENDPOINT", raising=False)
        corpus = tmp_path / "corpus.jsonl"
        one = tmp_path / "one.jsonl"
        docs = [{"id": f"d{i}", "title": f"T{i}", "body": "Alice Becker lived in Oslo."} for i in (1, 2)]
        write_jsonl(docs, corpus)
        write_jsonl(docs[:1], one)
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(content.encode("utf-8", "surrogateescape"))
        fill = {"corpus": corpus, "one": one, "file": path, "dir": path.parent}
        assert run("--out", tmp_path / "o", *[arg.format(**fill) for arg in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith(("usage" if code == 1 else "data") + " error: " + where.format(**fill))
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, key",
        [('{"enabled": {"cloze": 1}}', "enabled"), ('{"multiplicity": [["nli", 1]]}', "multiplicity"),
         ('{"enabled": "cloze"}', "enabled"), ('{"enabled": null}', "enabled")],
        ids=["enabled-object", "multiplicity-pairs", "enabled-string", "enabled-null"],
    )
    def test_a_mistyped_task_config_field_is_refused(self, tmp_path, capsys, corpus_path, content, key):
        path = tmp_path / "task.json"
        path.write_text(content, "utf-8")
        assert run("--out", tmp_path / "o", "gen-tasks", "--corpus", corpus_path, "--task-config", path) == 2
        kind = "a list of strings" if key == "enabled" else "a JSON object"
        assert capsys.readouterr().err == f"data error: {path}: task config key {key!r} must be {kind}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", ['{"enabled": ["cloze", "nli"]}', '{"multiplicity": {"memorization": 0}}'],
                             ids=["memorization-disabled", "memorization-capped-at-0"])
    def test_reading_without_memorization_is_refused_before_any_output(self, tmp_path, capsys, corpus_path, content):
        path = tmp_path / "task.json"
        path.write_text(content, "utf-8")
        out = tmp_path / "o"
        argv = ["--out", out, "gen-tasks", "--corpus", corpus_path, "--task-config", path]
        assert run(*argv, "--reading") == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: --reading needs memorization enabled with a cap of at least 1\n"
        )
        assert not out.exists()
        # without --reading the same config runs
        assert run(*argv) == 0

    def test_environment_seed_not_int_is_usage_error(self, tmp_path, capsys, monkeypatch, corpus_path):
        monkeypatch.setenv("DOCSTUDY_SEED", "abc")
        assert run("--out", tmp_path / "o", "ingest", "--corpus", corpus_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: DOCSTUDY_SEED: ")
        assert "Traceback" not in err

    # mix_key reads a seed as 64 bits: -1 would alias 2**64-1, and 2**64+7 would alias 7
    @pytest.mark.parametrize("seed, code", [("-1", 1), ("18446744073709551616", 1), ("18446744073709551615", 0),
                                            ("0", 0)])
    def test_an_environment_seed_must_fit_64_bits(self, tmp_path, capsys, monkeypatch, corpus_path, seed, code):
        monkeypatch.setenv("DOCSTUDY_SEED", seed)
        assert run("--out", tmp_path / "o", "gen-tasks", "--corpus", corpus_path) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"usage error: seed {seed} is outside 0..2**64-1\n")
        assert (tmp_path / "o").exists() == (code == 0)

    def test_unicode_line_breaks_survive_the_pipeline(self, tmp_path, capsys):
        # U+2028 and U+0085 stay raw inside canonical lines; only "\n" may end one
        corpus = tmp_path / "raw.jsonl"
        body = "Alice Becker lived in Oslo.\u2028Later Hugo Keller moved\x85to Dublin."
        write_jsonl([{"id": "d", "title": "D", "body": body}], corpus)
        out = tmp_path / "o"
        assert run("--out", out, "gen-tasks", "--corpus", corpus, "--name", "c", "--reading") == 0
        assert "\u2028" in (out / "c_reading.jsonl").read_text("utf-8")
        reading = f"test_doc={out / 'c_reading.jsonl'}"
        assert run("--out", out, "plan", "--preset", "continued_pretraining", "--ref", reading, "--render") == 0
        manifests = [out / "c_tasks.jsonl", out / "c_reading.jsonl", out / "continued_pretraining_stage1.jsonl"]
        capsys.readouterr()
        assert run("verify", *manifests) == 0
        assert capsys.readouterr().out == "".join(f"{m}: ok\n" for m in manifests)

    def test_environment_jobs_string_still_parses(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert _resolve(None, {}, "jobs", JOBS_ENV, 1, int) == 3

    def test_render_refuses_a_ref_of_the_wrong_kind(self, tmp_path, capsys, corpus_path):
        out = tmp_path / "o"
        assert run("--out", out, "gen-tasks", "--corpus", corpus_path, "--name", "c") == 0
        tasks = out / "c_tasks.jsonl"
        capsys.readouterr()
        code = run("--out", out, "plan", "--preset", "continued_pretraining", "--ref", f"test_doc={tasks}", "--render")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: {tasks}: record 0 is kind 'task'; ref test_doc needs 'doc'\n"
        assert not (out / "continued_pretraining_stage1.jsonl").exists()

    @pytest.mark.parametrize(
        "preset, bad_ref, record, reason",
        [
            ("pit", "train_doc", {"kind": "doc", "payload": {"title": "T"}}, "has no string payload 'id'"),
            ("self_tuning", "train_self", {"kind": "task", "payload": "oops"}, "has a payload that is not an object"),
        ],
        ids=["doc-without-id", "task-payload-string"],
    )
    def test_render_refuses_a_payload_it_cannot_read(self, tmp_path, capsys, corpus_path, preset, bad_ref, record, reason):
        out = tmp_path / "o"
        assert run("--seed", 1, "--out", out, "gen-tasks", "--corpus", corpus_path, "--name", "c") == 0
        docs = [doc_record(doc) for doc in iter_documents(corpus_path)]
        qa = [qa_record(QAPair(doc_id=d["payload"]["id"], task="generation", question="Q?", answer="A.")) for d in docs]
        refs = {"train_doc": tmp_path / "train_doc.jsonl", "test_doc": tmp_path / "test_doc.jsonl",
                "train_qa": tmp_path / "train_qa.jsonl", "train_self": out / "c_tasks.jsonl"}
        write_manifest(docs[:20], name="train", split="train", path=refs["train_doc"])
        write_manifest(docs[20:], name="test", split="test", path=refs["test_doc"])
        write_manifest(qa[:20], name="qa", split="train", path=refs["train_qa"])
        # checksummed by hand, as write_manifest cannot stamp a string payload
        bad, line = tmp_path / "bad.jsonl", encode_line(record)
        bad.write_bytes(line + encode_line({"checksum": hashlib.sha256(line).hexdigest(), "count": 1, "seed": 0}))
        refs[bad_ref] = bad
        assert run("verify", bad) == 0
        names = ("train_doc", "train_qa", "test_doc") + (("train_self",) if preset == "self_tuning" else ())
        capsys.readouterr()
        code = run("--out", out, "plan", "--preset", preset, "--render", *[f"--ref={n}={refs[n]}" for n in names])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {bad}: record 0 {reason}\n"
        assert not list(out.glob(f"{preset}_stage*.jsonl"))

    @pytest.mark.parametrize(
        "bad_line", ["{not json}", '{"id": "doc-00002", "title": "Again", "body": "A b."}'],
        ids=["malformed-line", "duplicate-id"],
    )
    def test_data_error_mid_corpus_keeps_old_outputs(self, tmp_path, capsys, bad_line):
        good, bad, out = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(12, seed=4), good)
        lines = good.read_text("utf-8").splitlines(keepends=True)
        bad.write_text("".join(lines[:9]) + bad_line + "\n" + "".join(lines[9:]), "utf-8")
        commands = (["ingest", "--name", "c"], ["gen-tasks", "--name", "c", "--reading"], ["split", "--name", "c"])
        for command in commands:
            assert run("--out", out, *command, "--corpus", good) == 0
        before = tree_bytes(out)
        assert {"c.jsonl", "c_tasks.jsonl", "c_reading.jsonl", "c_train.jsonl"} <= set(before)
        # the tenth document fails after nine were written to the temp files
        for command in commands:
            assert run("--out", out, *command, "--corpus", bad) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not list(out.glob(".*.tmp"))
        assert tree_bytes(out) == before

    @pytest.mark.parametrize(
        "preset, qa_count, reason",
        [
            ("self_tuning", 6, "replay size 128 exceeds manifest of 6 records"),
            ("pit_plus_plus", 0, "{train_qa}: no records before the footer"),
        ],
        ids=["replay-exceeds-manifest", "empty-first-stage"],
    )
    def test_render_failure_keeps_every_old_output(self, tmp_path, capsys, corpus_path, preset, qa_count, reason):
        inputs, out = tmp_path / "in", tmp_path / "o"
        assert run("--seed", 1, "--out", inputs, "gen-tasks", "--corpus", corpus_path, "--name", "c") == 0
        docs = [doc_record(doc) for doc in iter_documents(corpus_path)]
        # 140 QA records on the train side, enough for self_tuning's replay of 128
        qa = [qa_record(QAPair(doc_id=d["payload"]["id"], task="generation", question=f"Q{k}?", answer="A."))
              for d in docs[:20] for k in range(7)]
        refs = {"train_doc": inputs / "train_doc.jsonl", "test_doc": inputs / "test_doc.jsonl",
                "train_qa": inputs / "train_qa.jsonl", "train_self": inputs / "c_tasks.jsonl"}
        write_manifest(docs[:20], name="train", split="train", path=refs["train_doc"])
        write_manifest(docs[20:], name="test", split="test", path=refs["test_doc"])
        write_manifest(qa, name="qa", split="train", path=refs["train_qa"])
        argv = ["plan", "--preset", preset, "--render", *[f"--ref={n}={p}" for n, p in refs.items()]]
        assert run("--out", out, *argv) == 0
        before = tree_bytes(out)
        assert set(before) == {f"{preset}_plan.json", *(f"{preset}_stage{i}.jsonl" for i in (1, 2, 3))}
        if qa_count:
            write_manifest(qa[:qa_count], name="qa", split="train", path=refs["train_qa"])
        else:
            # checksummed by hand, as write_manifest refuses an empty manifest
            empty = {"checksum": hashlib.sha256(b"").hexdigest(), "count": 0, "seed": 0}
            refs["train_qa"].write_bytes(encode_line(empty))
        capsys.readouterr()
        # another seed, so the plan itself would change as well
        assert run("--seed", 1, "--out", out, *argv) == 2
        assert capsys.readouterr().err == f"data error: {reason.format(**refs)}\n"
        assert not list(out.glob(".*.tmp"))
        assert tree_bytes(out) == before

    def test_missing_manifest_refs(self, tmp_path):
        code = run("--out", tmp_path / "o", "plan", "--preset", "continued_pretraining",
                   "--ref", "test_doc=/nonexistent/path.jsonl")
        assert code == 2


def _hand_manifest(path: Path, records: list[dict]) -> None:
    """A manifest checksummed by hand, so each record keeps the loss policy it holds, or none."""
    body = b"".join(encode_line(record) for record in records)
    footer = {"checksum": hashlib.sha256(body).hexdigest(), "count": len(records), "seed": 0}
    path.write_bytes(body + encode_line(footer))


def _ref_records(tmp_path: Path, corpus: Path, train: int = 20, qa_per_doc: int = 7) -> dict:
    """The records of every ref `pit` and `self_tuning` read: the first `train`
    documents of the corpus with `qa_per_doc` QA pairs each, the rest as test
    documents, and the corpus' study tasks."""
    assert run("--seed", 1, "--out", tmp_path / "tasks", "gen-tasks", "--corpus", corpus, "--name", "c") == 0
    docs = [doc_record(doc) for doc in iter_documents(corpus)]
    qa = [qa_record(QAPair(doc_id=d["payload"]["id"], task="generation", question=f"Q{k}?", answer="A."))
          for d in docs[:train] for k in range(qa_per_doc)]
    return {"train_doc": docs[:train], "test_doc": docs[train:], "train_qa": qa,
            "train_self": [r for r, _ in ManifestReader(tmp_path / "tasks" / "c_tasks.jsonl")]}


def _write_refs(tmp_path: Path, records: dict) -> dict:
    refs = {name: tmp_path / f"{name}.jsonl" for name in records}
    for name, path in refs.items():
        write_manifest(records[name], name=name, split="train", path=path)
    return refs


def _render_argv(preset: str, refs: dict) -> list:
    return ["plan", "--preset", preset, "--render", *[f"--ref={n}={p}" for n, p in refs.items()]]


class TestRender:
    @pytest.mark.parametrize("preset", ["pit", "self_tuning"])
    def test_records_without_their_policy_are_stamped(self, tmp_path, corpus_path, preset):
        records = _ref_records(tmp_path, corpus_path)
        # of every three records, one lacks its policy, one holds the wrong one,
        # and one holds its own: every ref takes the decode-stamp-encode path
        for ref in records.values():
            for i, record in enumerate(ref):
                record.pop("loss_policy", None)
                if i % 3 == 1:
                    record["loss_policy"] = "answer_only" if record["kind"] == "doc" else "full_sequence"
                elif i % 3 == 2:
                    record.update(attach_loss_policy(record))
        refs = {name: tmp_path / f"{name}.jsonl" for name in records}
        for name, path in refs.items():
            _hand_manifest(path, records[name])
        out = tmp_path / "o"
        assert run("--seed", 3, "--out", out, *_render_argv(preset, refs)) == 0
        for stage in plan(preset, refs, seed=3)["stages"]:
            lines = (out / f"{preset}_stage{stage['index']}.jsonl").read_bytes().splitlines(keepends=True)
            expected = [encode_line(attach_loss_policy(r)) for r in oracle.render_stage_inputs(stage, records)]
            assert lines[:-1] == expected

    @pytest.mark.parametrize("change", ["edit", "truncate", "garble-restamped", "edit-doc-id-under-pit"])
    def test_a_ref_that_changes_after_its_first_pass_is_refused(self, tmp_path, capsys, monkeypatch,
                                                                corpus_path, change):
        # pit pairs each train_doc line with the doc id its first pass read
        preset, ref = ("pit", "train_doc") if change == "edit-doc-id-under-pit" else ("self_tuning", "train_qa")
        records = _ref_records(tmp_path, corpus_path)
        if change == "garble-restamped":
            for record in records["train_qa"]:
                record.pop("loss_policy", None)
        refs = _write_refs(tmp_path, records)
        _hand_manifest(refs["train_qa"], records["train_qa"])
        out = tmp_path / "o"
        assert run("--out", out, *_render_argv("self_tuning", refs)) == 0
        before = tree_bytes(out)

        scan_refs = curriculum.scan_refs

        def scan_then_change(stage_plan, paths):
            scans = scan_refs(stage_plan, paths)
            data = refs[ref].read_bytes()
            if change == "edit":
                data = data.replace(b"Q3?", b"Q4?", 1)
            elif change == "edit-doc-id-under-pit":
                data = data.replace(b'"id":"', b'"id":"x', 1)
            elif change == "truncate":
                data = data[: data.index(b"\n") + 1]
            else:
                data = b"{" * data.index(b"\n") + data[data.index(b"\n"):]
            refs[ref].write_bytes(data)
            return scans

        monkeypatch.setattr(curriculum, "scan_refs", scan_then_change)
        capsys.readouterr()
        assert run("--seed", 1, "--out", out, *_render_argv(preset, refs)) == 2
        assert capsys.readouterr().err == f"data error: {refs[ref]}: changed since it was verified\n"
        # no stage file of the refused run, and no temp file
        assert not list(out.glob(".*.tmp"))
        assert tree_bytes(out) == before

    def test_every_line_long_or_short_gets_the_c_encoders_verdict(self, tmp_path):
        corpus = tmp_path / "raw.jsonl"
        docs = [long_record(n, seed=n, doc_id=f"long-{n}") for n in (40, 90)] + synthetic_records(6, seed=3)
        # characters the quoter must escape, or pass through, in a long string
        docs[1]["body"] += ' Vera said "later" \\ é\u2028 \U0001f600 at 5 p.m.\tThen\nshe left.'
        write_jsonl(docs, corpus)
        # enough QA records for both presets' replay
        refs = _write_refs(tmp_path, _ref_records(tmp_path, corpus, train=6, qa_per_doc=22))
        for preset in ("pit", "self_tuning"):
            assert run("--out", tmp_path / "o", *_render_argv(preset, refs)) == 0

        def c_only(text):
            try:
                obj, _ = jsonio._scan(text, 0)
            except (StopIteration, ValueError):
                return None
            return obj if isinstance(obj, dict) and "".join(jsonio._encode(obj, 0)) + "\n" == text else None

        lengths = []
        for path in sorted(tmp_path.rglob("*.jsonl")):
            for raw in path.read_bytes().splitlines(keepends=True):
                line = raw.decode("utf-8")
                lengths.append(len(line))
                # the line, and the line with its first and its last space escaped
                first, last = line.find(" "), line.rfind(" ")
                for text in (line, line[:first] + "\\u0020" + line[first + 1:], line[:last] + "\\u0020" + line[last + 1:]):
                    assert jsonio.canonical_object(text) == c_only(text), (path.name, len(text))
        assert min(lengths) < jsonio._LONG_LINE <= max(lengths)

    def test_render_encodes_each_ref_record_once(self, tmp_path, monkeypatch, corpus_path):
        refs = _write_refs(tmp_path, _ref_records(tmp_path, corpus_path))
        records = sum(verify_manifest(path)["count"] for path in refs.values())
        encoded = []
        encode = jsonio._encode

        def counting(obj, level):
            encoded.append(obj)
            return encode(obj, level)

        # the codec's one encoder, which both the canonical check and encode_line call
        monkeypatch.setattr(jsonio, "_encode", counting)
        assert run("--out", tmp_path / "o", *_render_argv("self_tuning", refs)) == 0
        # the canonical check of each record read, and each of the 3 stage footers
        assert len(encoded) == records + 3
        assert [obj for obj in encoded if "checksum" in obj] == encoded[-3:]

    def test_render_failed_write_keeps_every_old_output(self, tmp_path, capsys, monkeypatch, corpus_path):
        refs = _write_refs(tmp_path, _ref_records(tmp_path, corpus_path))
        out = tmp_path / "o"
        assert run("--seed", 1, "--out", out, *_render_argv("self_tuning", refs)) == 0
        before = tree_bytes(out)
        # another seed, so the replay draw, every footer and the plan would change
        argv = ["--seed", 2, *_render_argv("self_tuning", refs)]
        reached = _each_write_on_a_full_disk(monkeypatch, capsys, tmp_path, out, argv)
        clean = tree_bytes(tmp_path / "clean")
        # every line of the three stages, footers included, and the plan
        assert reached == sum(len(clean[f"self_tuning_stage{i}.jsonl"].splitlines()) for i in (1, 2, 3)) + 1
        assert clean.keys() == before.keys() and all(data != before[name] for name, data in clean.items())

    def test_self_tuning_peak_memory_does_not_grow_with_the_corpus(self, tmp_path):
        def peak(n):
            corpus = tmp_path / f"raw{n}.jsonl"
            write_jsonl(synthetic_records(n, seed=2), corpus)
            refs = _write_refs(tmp_path / f"in{n}", _ref_records(tmp_path / f"in{n}", corpus, n * 9 // 10, 2))
            tracemalloc.start()
            try:
                assert run("--out", tmp_path / f"o{n}", *_render_argv("self_tuning", refs)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # loads the presets once
        small, large = peak(100), peak(400)
        # holding the records cost about 23 KB a document; what is left is about
        # 0.01 KB, now that the replay's draw no longer pools every QA index
        assert (large - small) / 300 < 1024, (small, large)


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    hits = 0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        json.loads(self.rfile.read(length))
        type(self).hits += 1
        body = json.dumps(
            {
                "choices": [
                    {
                        "message": {"content": "Question: Who is this about?\nAnswer: A person."},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {"prompt_tokens": 5, "completion_tokens": 7},
            }
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _chat_reply(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}, "finish_reason": "stop"}]}).encode("utf-8")


_REPLY = {"choices": [{"message": {"content": "Question: Q?\nAnswer: A."}}]}  # a chat reply's body, decoded


_ENTRY_SHAPE = (
    "a cache entry needs a string 'doc_id', a string 'request_sha256' (or, in the older format, an object"
    " 'request') and an object 'response' with a string 'text'"
)


def _log_ids(out: Path) -> list:
    """The doc id of each line of `out`'s generation log."""
    return [json.loads(line)["doc_id"] for line in (out / "qa_cache" / "generation.jsonl").read_bytes().splitlines()]


class _PacedHandler(http.server.BaseHTTPRequestHandler):
    """Chat replies over HTTP/1.1 whose answer is a hash of the prompt, each
    after 1-8 ms drawn from the server's seed and the prompt. The server
    counts the requests it serves at once, answers the requests numbered
    in `fail` with a 503, and holds the reply to the one numbered `hold` until
    `release` is set."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 5

    def do_POST(self):
        server = self.server
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["messages"][0]["content"]
        with server.lock:
            server.requests += 1
            number = server.requests
            server.busy += 1
            server.peak = max(server.peak, server.busy)
        time.sleep((1 + hashlib.sha256(f"{server.seed}:{prompt}".encode()).digest()[0] % 8) / 1000)
        if number == server.hold:
            server.release.wait(20)
        answer = hashlib.sha256(prompt.encode()).hexdigest()[:8]
        body = _chat_reply(f"Question: Q?\nAnswer: {answer}.")
        with server.lock:  # before the reply goes out, so the client cannot have sent its next request yet
            server.busy -= 1
        try:
            self.send_response(503 if number in server.fail else 200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:  # the client is gone
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture()
def paced_server(monkeypatch):
    """Starts `_PacedHandler` servers that count connections:
    `paced_server(seed=0, fail=(), hold=None, tls=False)`; read `requests`,
    `peak` and `connections`, set `release`. A TLS server's certificate is
    trusted through SSL_CERT_FILE."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    servers = []

    def start(seed: int = 0, fail=(), hold: int | None = None, tls: bool = False):
        server = _CountingServer(("127.0.0.1", 0), _PacedHandler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(LOOPBACK_CERT, DATA / "loopback_key.pem")
            server.socket = context.wrap_socket(server.socket, server_side=True)
            monkeypatch.setenv("SSL_CERT_FILE", str(LOOPBACK_CERT))
            monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        server.seed, server.fail, server.hold = seed, fail, hold
        server.lock, server.release = threading.Lock(), threading.Event()
        server.requests = server.busy = server.peak = 0
        server.url = f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}/v1/chat/completions"
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.release.set()
        server.shutdown()
        server.server_close()


class TestGenQa:
    def test_against_local_endpoint_then_cache_replay(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(3, seed=1), corpus)
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            endpoint = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
            out = tmp_path / "o"
            code = run(
                "--out", out, "gen-qa", "--corpus", corpus, "--task", "generation",
                "--name", "c", "--endpoint", endpoint, "--cache-dir", tmp_path / "cache",
            )
            assert code == 0
            assert _ChatHandler.hits == 3
            lines = (out / "c_qa_generation.jsonl").read_text("utf-8").strip().splitlines()
            assert len(lines) == 3
            first = json.loads(lines[0])
            assert first["answer"] == "A person."

            # cache replay: endpoint not needed, server not hit again
            code = run(
                "--out", out, "gen-qa", "--corpus", corpus, "--task", "generation",
                "--name", "c", "--cache-dir", tmp_path / "cache",
            )
            assert code == 0
            assert _ChatHandler.hits == 3
        finally:
            server.shutdown()
            server.server_close()

    # an HTML 502 is retried (tests/test_qagen.py); these fail at once
    @pytest.mark.parametrize("status", [200, 400])
    def test_html_response_is_a_data_error(self, tmp_path, capsys, chat_server, status):
        chat_server.script = [(status, "text/html", b"<html><body>gateway says no</body></html>")]
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(1, seed=1), corpus)
        code = run("--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", chat_server.url)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "gateway says no" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc_id", ["../x", "a\u0000b", "a/b", ".."], ids=["parent-dir", "nul", "slash", "dot-dot"])
    def test_an_id_that_is_not_a_file_name_is_cached_in_the_log(self, tmp_path, chat_server, doc_id):
        ids = ["ok", doc_id]
        chat_server.script = [(200, "application/json", _chat_reply(f"Question: Q{i}?\nAnswer: A{i}.")) for i in range(2)]
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl([{"id": name, "title": f"T{i}", "body": f"Person {i} lives in Oslo."}
                     for i, name in enumerate(ids)], corpus)
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c",
                "--endpoint", chat_server.url)
        assert run(*argv) == 0
        assert _log_ids(out) == ids
        first = tree_bytes(out)
        assert run(*argv) == 0
        assert len(chat_server.seen) == 2
        assert tree_bytes(out) == first
        assert [p for p in tmp_path.rglob("*") if p != out and out not in p.parents] == [corpus]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_requests_reuse_at_most_jobs_connections(self, tmp_path, loopback_server, jobs):
        server = loopback_server()
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(8, seed=3), corpus)
        assert run("--jobs", jobs, "--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", server.url) == 0
        assert len(server.seen) == 8
        assert 1 <= server.connections <= jobs

    def test_jobs_bounds_requests_in_flight(self, tmp_path, monkeypatch):
        # each reply begins after 0-2 more waits, so requests overlap
        pool = FakePool(lambda payload: (200, _REPLY, len(payload["messages"][0]["content"]) % 3))
        monkeypatch.setattr(qagen, "_http_pool", lambda: pool)
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(8, seed=3), corpus)
        code = run("--jobs", 2, "--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", "http://chat.test")
        assert code == 0
        assert len(pool.sent) == 8
        assert pool.peak == 2
        assert pool.in_flight == 0

    def test_lone_surrogate_in_reply_is_a_data_error(self, tmp_path, capsys, chat_server):
        body = b'{"choices": [{"message": {"content": "Question: Q?\\nAnswer: A \\ud800."}}]}'
        chat_server.script = [(200, "application/json", body)]
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(1, seed=1), corpus)
        code = run("--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", chat_server.url)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: 'answer' holds a lone surrogate")
        assert err.endswith(" (document 'doc-00000')\n")
        assert "Traceback" not in err

    def test_lone_surrogate_outside_the_pairs_is_a_data_error(self, tmp_path, capsys, chat_server):
        # the pairs parse, but the raw reply cannot be logged as UTF-8
        body = b'{"choices": [{"message": {"content": "Question: Q?\\nAnswer: A.\\nQuestion: \\ud800"}}]}'
        chat_server.script = [(200, "application/json", body)]
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(1, seed=1), corpus)
        code = run("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--endpoint", chat_server.url)
        assert code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "data error: the reply holds a lone surrogate, which UTF-8 cannot encode (document 'doc-00000')\n"
        )
        assert "Traceback" not in err
        assert (out / "qa_cache" / "generation.jsonl").read_bytes() == b""

    def test_unparseable_reply_names_its_document(self, tmp_path, capsys, chat_server):
        body = b'{"choices": [{"message": {"content": "I cannot help with that."}}]}'
        chat_server.script = [(200, "application/json", body)]
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(1, seed=1), corpus)
        code = run("--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", chat_server.url)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "data error: no question/answer blocks found (discarded 1) (document 'doc-00000')\n"

    def test_unchanged_request_replays_with_no_request(self, tmp_path, chat_server):
        chat_server.script = [(200, "application/json", _chat_reply("Question: Q?\nAnswer: A."))] * 2
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(2, seed=1), corpus)
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c",
                "--endpoint", chat_server.url, "--model", "m1")
        assert run(*argv) == 0
        first = tree_bytes(out)
        assert run(*argv) == 0
        assert len(chat_server.seen) == 2
        assert tree_bytes(out) == first

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--model", "m2", "model"), ("--temperature", 0.5, "temperature"), ("--max-tokens", 64, "max_tokens")],
    )
    def test_changed_request_refetches(self, tmp_path, capsys, chat_server, monkeypatch, flag, value, key):
        monkeypatch.delenv("DOCSTUDY_CHAT_ENDPOINT", raising=False)
        chat_server.script = [(200, "application/json", _chat_reply(f"Question: Q{i}?\nAnswer: A{i}.")) for i in range(4)]
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(2, seed=1), corpus)
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c")
        assert run(*argv, "--endpoint", chat_server.url) == 0
        assert run(*argv, "--endpoint", chat_server.url, flag, value) == 0
        assert len(chat_server.seen) == 4
        assert [payload[key] for _, _, payload in chat_server.seen[2:]] == [value, value]
        # the new requests are appended; each id's last line holds its new request's digest
        last = {}
        for line in (out / "qa_cache" / "generation.jsonl").read_bytes().splitlines():
            entry = json.loads(line)
            last[entry["doc_id"]] = entry["request_sha256"]
        assert list(last) == ["doc-00000", "doc-00001"]
        settings = {**SETTINGS, key: value}
        assert list(last.values()) == [
            qagen.request_sha256({"prompt": qagen.build_generation_prompt(doc), **settings})
            for doc in iter_documents(corpus)
        ]
        answers = [json.loads(line)["answer"] for line in (out / "c_qa_generation.jsonl").read_text("utf-8").splitlines()]
        assert answers == ["A2.", "A3."]
        # with no endpoint, an entry made by another request is not replayed
        before = tree_bytes(out)
        capsys.readouterr()
        assert run(*argv) == 1
        assert "no cached response to this request" in capsys.readouterr().err
        assert tree_bytes(out) == before

    def test_an_undecodable_model_name_matches_no_line(self, tmp_path, capsys, chat_server, monkeypatch):
        monkeypatch.delenv("DOCSTUDY_CHAT_ENDPOINT", raising=False)
        chat_server.script = [(200, "application/json", _chat_reply("Question: Q?\nAnswer: A."))]
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(1, seed=1), corpus)
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation")
        assert run(*argv, "--endpoint", chat_server.url) == 0
        capsys.readouterr()
        # argv bytes that are not UTF-8 reach Python as lone surrogates, which no logged request holds
        assert run(*argv, "--model", "m\udcff") == 1
        assert "no cached response to this request" in capsys.readouterr().err

    def test_a_torn_tail_is_truncated_and_refetched(self, tmp_path, chat_server):
        replies = [(200, "application/json", _chat_reply(f"Question: Q{i}?\nAnswer: A{i}.")) for i in range(3)]
        chat_server.script = list(replies)
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        records = synthetic_records(3, seed=1)
        write_jsonl(records, corpus)
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c",
                "--endpoint", chat_server.url)
        assert run(*argv) == 0
        log = out / "qa_cache" / "generation.jsonl"
        whole, qa = log.read_bytes(), (out / "c_qa_generation.jsonl").read_bytes()
        # a kill cut the last append short
        log.write_bytes(whole[:-20])
        chat_server.script = replies[2:]
        assert run(*argv) == 0
        assert len(chat_server.seen) == 4
        assert records[2]["title"] in chat_server.seen[3][2]["messages"][0]["content"]
        assert log.read_bytes() == whole
        assert (out / "c_qa_generation.jsonl").read_bytes() == qa

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (b'{"doc_id":"doc-00000","pairs":[\n', "invalid JSON (Expecting value: line 2 column 1 (char 32))"),
            (b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (b"\n", "invalid JSON (Expecting value: line 2 column 1 (char 1))"),
            (b"[1]\n", "expected a JSON object, got list"),
            (b'{"doc_id":"doc-00000","pairs":[],"request":{}}\n', _ENTRY_SHAPE),
            (b'{"response": {"text": "Q"}, "doc_id": "doc-00000", "request_sha256": "0"}\n', None),
            (b'{"discarded":true,"doc_id":"doc-00000","pairs":[],"request":{}}\n', _ENTRY_SHAPE),
            (b'{"doc_id":7,"request_sha256":"0","response":{"text":"Q"}}\n', _ENTRY_SHAPE),
            (b'{"discarded":0,"doc_id":"doc-00000","pairs":[1],"request":{}}\n', _ENTRY_SHAPE),
            (b'{"doc_id":"doc-00000","request":"p","response":{"text":"Q"}}\n', _ENTRY_SHAPE),
            (b'{"doc_id":"doc-00000","request_sha256":7,"response":{"text":"Q"}}\n', _ENTRY_SHAPE),
            (b'{"doc_id":"doc-00000","response":{"text":"Q"}}\n', _ENTRY_SHAPE),
            (b'{"doc_id":"doc-00000","request_sha256":"0"}\n', _ENTRY_SHAPE),
            (b'{"doc_id":"doc-00000","request_sha256":"0","response":{"text":null}}\n', _ENTRY_SHAPE),
            # the older format is read whatever its pairs and discard count hold: only its response is used
            (b'{"discarded":null,"doc_id":"doc-00000","pairs":[1],"request":{},"response":{"text":"Q"}}\n', None),
        ],
        ids=["cut-json", "not-utf8", "blank", "list", "no-discarded", "valid-spaced-unsorted", "discarded-bool",
             "doc-id-int", "pair-not-object", "request-not-object", "digest-not-string", "no-request",
             "no-response", "text-not-string", "older-format"],
    )
    def test_a_malformed_complete_line_sends_nothing(self, tmp_path, capsys, chat_server, bad, reason):
        chat_server.script = [(200, "application/json", _chat_reply("Question: Q?\nAnswer: A."))] * 4
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(2, seed=1), corpus)
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c",
                "--endpoint", chat_server.url)
        assert run(*argv) == 0
        log = out / "qa_cache" / "generation.jsonl"
        log.write_bytes(log.read_bytes() + bad)
        before = tree_bytes(out)
        capsys.readouterr()
        # a changed request would refetch both documents
        code = run(*argv, "--model", "m2")
        err = capsys.readouterr().err
        if reason is None:  # the control: a well-shaped line is accepted, canonical or not
            assert code == 0
            return
        assert code == 2
        assert err == f"data error: {log}:3: {reason}\n"
        assert len(chat_server.seen) == 2
        assert tree_bytes(out) == before

    def test_one_failed_document_costs_only_itself(self, tmp_path, capsys, chat_server):
        ok = [(200, "application/json", _chat_reply(f"Question: Q{i}?\nAnswer: A{i}.")) for i in range(3)]
        unparseable = (200, "application/json", _chat_reply("I cannot help with that."))
        chat_server.script = [ok[0], unparseable, ok[2]]
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(3, seed=1), corpus)
        out.mkdir()
        old_qa = out / "c_qa_generation.jsonl"
        old_qa.write_bytes(b"an earlier run's QA pairs\n")
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c",
                "--endpoint", chat_server.url)
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            "data error: no question/answer blocks found (discarded 1) (document 'doc-00001')\n"
        )
        assert _log_ids(out) == ["doc-00000", "doc-00002"]
        assert old_qa.read_bytes() == b"an earlier run's QA pairs\n"
        # the rerun bills only the failed document
        chat_server.script = [ok[1]]
        assert run(*argv) == 0
        assert len(chat_server.seen) == 4
        assert _log_ids(out) == ["doc-00000", "doc-00002", "doc-00001"]
        answers = [json.loads(line)["answer"] for line in old_qa.read_bytes().splitlines()]
        assert answers == ["A0.", "A1.", "A2."]

    def test_every_failed_document_is_named_in_corpus_order(self, tmp_path, capsys, chat_server):
        unparseable = (200, "application/json", _chat_reply("I cannot help with that."))
        ok = (200, "application/json", _chat_reply("Question: Q?\nAnswer: A."))
        chat_server.script = [unparseable, ok, unparseable]
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(3, seed=1), corpus)
        assert run("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", chat_server.url) == 2
        assert capsys.readouterr().err == "".join(
            f"data error: no question/answer blocks found (discarded 1) (document 'doc-0000{i}')\n" for i in (0, 2)
        )
        assert _log_ids(out) == ["doc-00001"]

    def test_jobs_1_fetches_on_the_calling_thread(self, tmp_path, monkeypatch):
        threads = threading.active_count()
        seen = []

        def reply(payload):
            seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
            return 200, _REPLY

        monkeypatch.setattr(qagen, "_http_pool", lambda: FakePool(reply))
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(6, seed=3), corpus)
        assert run("--jobs", 1, "--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", "http://chat.test") == 0
        # no pool: every request is sent from the main thread, and no thread is started
        assert seen == [(True, threads)] * 6

    def test_a_replay_starts_no_thread(self, tmp_path, monkeypatch):
        calls = []

        def reply(payload):
            calls.append(payload)
            return 200, _REPLY

        monkeypatch.setattr(qagen, "_http_pool", lambda: FakePool(reply))
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(6, seed=3), corpus)
        argv = ("--jobs", 2, "--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c",
                "--endpoint", "http://chat.test")
        assert run(*argv) == 0
        first = tree_bytes(out)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        assert run(*argv) == 0
        assert started == []
        assert len(calls) == 6
        assert tree_bytes(out) == first

    def test_jobs_do_not_change_the_log_or_the_pairs(self, tmp_path, monkeypatch):
        def reply(payload):
            digest = hashlib.sha256(payload["messages"][0]["content"].encode("utf-8")).digest()
            body = {"choices": [{"message": {"content": f"Question: Q?\nAnswer: {digest.hex()[:8]}."}}]}
            return 200, body, digest[0] % 4  # uneven latencies reorder completions

        pools = []
        monkeypatch.setattr(qagen, "_http_pool", lambda: pools.append(FakePool(reply)) or pools[-1])
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(24, seed=5), corpus)
        outputs = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            assert run("--jobs", jobs, "--out", out, "gen-qa", "--corpus", corpus, "--task", "generation",
                       "--name", "c", "--endpoint", "http://chat.test") == 0
            outputs.append(tree_bytes(out))
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == ["c_qa_generation.jsonl", "qa_cache/generation.jsonl"]
        assert pools[0].read_order == pools[0].sent
        assert pools[1].read_order != pools[1].sent  # some reply was read before one sent ahead of it

    def test_jobs_requests_share_jobs_connections_and_change_no_byte(self, tmp_path, monkeypatch, paced_server):
        sleeps = []
        monkeypatch.setattr(qagen, "ChatClient", functools.partial(qagen.ChatClient, sleep=sleeps.append,
                                                                  clock=lambda: sum(sleeps)))
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(24, seed=5), corpus)
        outputs = []
        for jobs in (1, 2, 4):
            server = paced_server(seed=7, fail={20})
            sleeps.clear()
            out = tmp_path / f"jobs{jobs}"
            assert run("--jobs", jobs, "--out", out, "gen-qa", "--corpus", corpus, "--task", "generation",
                       "--name", "c", "--endpoint", server.url) == 0
            assert server.requests == 25  # the 503 costs one retry, after the first backoff
            assert sleeps == [0.5]
            assert server.peak == jobs
            assert 1 <= server.connections <= jobs
            outputs.append(tree_bytes(out))
        assert outputs[0] == outputs[1] == outputs[2]
        assert sorted(outputs[0]) == ["c_qa_generation.jsonl", "qa_cache/generation.jsonl"]

    def test_backoffs_of_documents_in_flight_together_overlap(self, tmp_path, monkeypatch, paced_server):
        sleeps = []
        monkeypatch.setattr(qagen, "ChatClient", functools.partial(qagen.ChatClient, sleep=sleeps.append,
                                                                  clock=lambda: sum(sleeps)))
        server = paced_server(fail={1, 2, 3, 4})
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(8, seed=5), corpus)
        assert run("--jobs", 4, "--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", server.url) == 0
        assert server.requests == 12
        assert sleeps == [0.5]  # four 503s, one backoff: waited out one after another they would take 2 s
        assert server.peak == 4
        assert server.connections <= 4

    def test_a_tls_session_ticket_is_not_the_start_of_a_reply(self, paced_server):
        from docstudy.transport import HttpPool

        server = paced_server(hold=1, tls=True)
        pool = HttpPool()
        try:
            sock = pool.send(pool.encode(server.url, {}, {"messages": [{"content": "p"}]}), 5)
            # the server's TLS 1.3 session tickets make the new socket readable; the reply is held
            assert pool.wait([sock], 0.2) == []
            server.release.set()
            assert pool.wait([sock], 5) == [sock]
            assert pool.read(sock)[0] == 200
        finally:
            pool.close()

    def test_cold_https_requests_overlap(self, tmp_path, paced_server):
        server = paced_server(hold=1, tls=True)
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(8, seed=5), corpus)
        sent = []

        def release_once_all_are_sent():  # while the first reply is held, the second connection serves the rest
            try:
                wait_for(lambda: server.requests == 8, seconds=10)
                sent.append(server.requests)
            finally:
                server.release.set()

        helper = threading.Thread(target=release_once_all_are_sent)
        helper.start()
        try:
            assert run("--jobs", 2, "--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                       "--endpoint", server.url) == 0
        finally:
            helper.join(30)
        assert not helper.is_alive()
        assert sent == [8]
        assert server.peak == 2
        assert server.connections == 2

    def test_a_killed_run_keeps_every_reply_it_has_settled(self, tmp_path, paced_server):
        server = paced_server(hold=4)
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        records = synthetic_records(8, seed=2)
        write_jsonl(records, corpus)
        env = {**os.environ, "PYTHONPATH": str(Path(docstudy.__file__).parents[1])}
        argv = ["--jobs", "1", "--out", str(out), "gen-qa", "--corpus", str(corpus), "--task", "generation",
                "--endpoint", server.url]
        child = subprocess.Popen([sys.executable, "-c", "import sys; from docstudy.cli import main; main(sys.argv[1:])",
                                  *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        log = out / "qa_cache" / "generation.jsonl"
        try:
            # the fourth reply is held: the first three are logged while the run waits for it
            wait_for(lambda: log.exists() and log.read_bytes().count(b"\n") >= 3, seconds=30)
        finally:
            child.kill()
            child.wait(10)
        assert server.requests == 4
        assert _log_ids(out) == [record["id"] for record in records[:3]]

    def test_no_jobs_starts_a_thread(self, tmp_path, monkeypatch, loopback_server):
        server = loopback_server()
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(12, seed=3), corpus)
        starters = []  # the thread that starts each thread; the server's serving thread starts its handlers
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starters.append(threading.current_thread()) or start(thread))
        for jobs in (1, 4):
            assert run("--jobs", jobs, "--out", tmp_path / f"o{jobs}", "gen-qa", "--corpus", corpus,
                       "--task", "generation", "--endpoint", server.url) == 0
        assert len(server.seen) == 24 and starters
        assert threading.main_thread() not in starters

    def test_a_held_log_fails_at_once(self, tmp_path, capsys, chat_server):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(2, seed=1), corpus)
        log = out / "qa_cache" / "generation.jsonl"
        with qagen.ResponseLog(log):
            code = run("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation",
                       "--endpoint", chat_server.url)
        assert code == 3
        assert capsys.readouterr().err == f"i/o error: {log} is in use by another gen-qa run\n"
        assert chat_server.seen == []
        assert tree_bytes(out) == {"qa_cache/generation.jsonl": b""}

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("endpoint", [True, False], ids=["endpoint", "no-endpoint"])
    def test_a_non_finite_temperature_is_refused_before_any_file_is_opened(self, tmp_path, capsys, chat_server,
                                                                         monkeypatch, endpoint, value):
        monkeypatch.delenv("DOCSTUDY_CHAT_ENDPOINT", raising=False)
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(2, seed=1), corpus)
        argv = ["--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation", "--temperature", value]
        assert run(*argv, *(["--endpoint", chat_server.url] if endpoint else [])) == 1
        assert capsys.readouterr().err == f"usage error: temperature must be a finite number, got {value}\n"
        assert chat_server.seen == []
        assert list(tmp_path.iterdir()) == [corpus]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_interrupt_logs_every_response_paid_for(self, tmp_path, monkeypatch, jobs):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        records = synthetic_records(12, seed=2)
        write_jsonl(records, corpus)
        # the third request's reading is interrupted
        replies = [(200, {"choices": [{"message": {"content": f"Question: Q?\nAnswer: A{n}."}}]}) for n in range(12)]
        replies[2] = KeyboardInterrupt()
        pool = FakePool(replies)
        monkeypatch.setattr(qagen, "_http_pool", lambda: pool)
        with pytest.raises(KeyboardInterrupt):
            run("--jobs", jobs, "--out", out, "gen-qa", "--corpus", corpus, "--task", "generation",
                "--endpoint", "http://chat.test")

        def index(payload):
            return next(k for k, record in enumerate(records) if record["title"] in payload["messages"][0]["content"])

        calls = [index(payload) for payload in pool.read_order]  # the corpus index of each reply read
        failed = calls[2]
        if jobs == 1:
            # one request in flight: none is sent ahead of the one interrupted
            assert calls == [0, 1, 2]
            assert [index(payload) for payload in pool.sent] == [0, 1, 2]
        else:
            # the window of 4 × jobs documents ends at most that far past the failed document
            assert 3 <= len(calls) <= 4 * jobs + failed
            assert len(pool.sent) <= 4 * jobs + failed
        assert _log_ids(out) == [records[k]["id"] for k in sorted(calls) if k != failed]
        assert not (out / "c_qa_generation.jsonl").exists()

    def test_an_interrupt_logs_a_reply_read_but_not_yet_parsed(self, tmp_path, loopback_server, monkeypatch):
        server = loopback_server()
        lookup = qagen.lookup_document
        looked_up = []

        def interrupted(doc, *args):
            # the third look-up follows the first reply's read and the second request's send
            looked_up.append(doc.id)
            if len(looked_up) == 3:
                raise KeyboardInterrupt
            return lookup(doc, *args)

        monkeypatch.setattr(qagen, "lookup_document", interrupted)
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        records = synthetic_records(6, seed=2)
        write_jsonl(records, corpus)
        with pytest.raises(KeyboardInterrupt):
            run("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--endpoint", server.url)
        # the first reply is parsed and logged; the second request, still in flight, is dropped
        assert _log_ids(out) == [records[0]["id"]]
        # the server thread records the second request when it reads it, which may be after the interrupt
        wait_for(lambda: len(server.seen) == 2)
        wait_for(lambda: server.closed == server.connections == 1)

    def test_an_interrupt_closes_the_kept_alive_connection(self, tmp_path, loopback_server, monkeypatch):
        server = loopback_server()
        parse = qagen.parse_qa_response
        parsed = []

        def interrupted(raw, task, doc_id=""):
            # the fourth request is in flight: it goes out before the third reply is parsed
            parsed.append(doc_id)
            if len(parsed) == 3:
                raise KeyboardInterrupt
            return parse(raw, task, doc_id)

        monkeypatch.setattr(qagen, "parse_qa_response", interrupted)
        corpus = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(6, seed=2), corpus)
        with pytest.raises(KeyboardInterrupt):
            run("--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "generation",
                "--endpoint", server.url)
        wait_for(lambda: server.closed == server.connections == 1)

    def test_a_malformed_endpoint_fails_before_any_request(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qagen, "_http_pool", lambda: pytest.fail("no request may be sent"))
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(2), corpus)
        code = run("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation",
                   "--endpoint", "http://127.0.0.1:99999/v1/chat/completions")
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: chat endpoint")
        assert not (out / "qa_cache").exists()

    @pytest.mark.parametrize("runs", [1, 2], ids=["cold", "replay"])
    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path, monkeypatch, runs):
        pool = FakePool(lambda payload: (200, _REPLY))
        pool.sent, pool.read_order = deque(maxlen=1), deque(maxlen=1)  # the pool keeps no payloads
        monkeypatch.setattr(qagen, "_http_pool", lambda: pool)
        small, large = _peaks(tmp_path, "gen-qa", "--task", "generation", "--endpoint", "http://chat.test", runs=runs)
        # holding the corpus and its pairs cost 1.2 KB (cold) and 1.5 KB (replay)
        # a document; the log's index and the duplicate-id map, 0.17 KB (cold) and 0.25 KB (replay)
        assert (large - small) / 300 < 512, (small, large)

    def test_a_replayed_reply_with_discarded_blocks_prints_no_warning(self, tmp_path, capsys, monkeypatch):
        text = "Question: Q?\nAnswer: A.\nQuestion: dangling"
        pool = FakePool(lambda payload: (200, {"choices": [{"message": {"content": text}}]}))
        monkeypatch.setattr(qagen, "_http_pool", lambda: pool)
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(3, seed=1), corpus)
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c",
                "--endpoint", "http://chat.test")
        assert run(*argv) == 0
        cold, first = capsys.readouterr(), tree_bytes(out)
        assert cold.err == "".join(
            f"warning: discarded 1 malformed block(s) (document 'doc-0000{i}')\n" for i in range(3)
        )
        assert run(*argv) == 0
        replay = capsys.readouterr()
        assert len(pool.sent) == 3
        assert replay.out == cold.out and "(3 blocks discarded)" in replay.out
        assert replay.err == ""
        assert tree_bytes(out) == first

    def test_a_log_of_the_older_format_replays_with_no_request(self, tmp_path, capsys, monkeypatch):
        text = "Question: Q?\nAnswer: A.\nQuestion: dangling"
        reply = {"choices": [{"message": {"content": text}, "finish_reason": "stop"}], "usage": {"total_tokens": 9}}
        monkeypatch.setattr(qagen, "_http_pool", lambda: FakePool(lambda payload: (200, reply)))
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(4, seed=1), corpus)
        argv = ("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c")
        assert run(*argv, "--endpoint", "http://chat.test", "--cache-dir", tmp_path / "cold") == 0
        capsys.readouterr()
        cold_qa = (out / "c_qa_generation.jsonl").read_bytes()
        assert run(*argv, "--cache-dir", tmp_path / "cold") == 0
        replay = capsys.readouterr()
        # the log as the older format wrote it: every line holds its request and parsed pairs
        old_log = tmp_path / "old" / "generation.jsonl"
        old_log.parent.mkdir()
        lines = []
        for doc in iter_documents(corpus):
            parsed = qagen.parse_qa_response(text, "generation", doc_id=doc.id)
            lines.append(encode_line({
                "discarded": parsed.discarded,
                "doc_id": doc.id,
                "pairs": [pair.to_record() for pair in parsed.pairs],
                "request": {"prompt": qagen.build_generation_prompt(doc), **SETTINGS},
                "response": {"text": text, "finish_reason": "stop", "usage": {"total_tokens": 9}},
            }))
        old_log.write_bytes(b"".join(lines))
        (out / "c_qa_generation.jsonl").unlink()
        monkeypatch.delenv("DOCSTUDY_CHAT_ENDPOINT", raising=False)
        monkeypatch.setattr(qagen, "_http_pool", lambda: pytest.fail("a replay sends no request"))
        assert run(*argv, "--cache-dir", old_log.parent) == 0
        assert capsys.readouterr() == replay  # stdout and stderr, which is empty
        assert replay.err == ""
        assert (out / "c_qa_generation.jsonl").read_bytes() == cold_qa
        assert old_log.read_bytes() == b"".join(lines)

    def test_a_logged_reply_that_no_longer_parses_names_its_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DOCSTUDY_CHAT_ENDPOINT", raising=False)
        corpus, out = tmp_path / "c.jsonl", tmp_path / "o"
        write_jsonl(synthetic_records(2, seed=1), corpus)
        log = out / "qa_cache" / "generation.jsonl"
        log.parent.mkdir(parents=True)
        texts = ["Question: Q?\nAnswer: A.", "I cannot help with that."]
        log.write_bytes(b"".join(
            encode_line({"doc_id": doc.id, "response": {"text": text},
                         "request_sha256": qagen.request_sha256({"prompt": qagen.build_generation_prompt(doc),
                                                                 **SETTINGS})})
            for doc, text in zip(iter_documents(corpus), texts)
        ))
        assert run("--out", out, "gen-qa", "--corpus", corpus, "--task", "generation", "--name", "c") == 2
        assert capsys.readouterr().err == (
            f"data error: {log}:2: no question/answer blocks found (discarded 1) (document 'doc-00001')\n"
        )
        assert not (out / "c_qa_generation.jsonl").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "bad_line", ["{not json}", '{"id": "doc-00002", "title": "Again", "body": "A b."}'],
        ids=["malformed-line", "duplicate-id"],
    )
    def test_a_bad_corpus_line_ends_the_run_after_the_documents_before_it(self, tmp_path, capsys, monkeypatch,
                                                                         bad_line, jobs):
        pool = FakePool(lambda payload: (200, _REPLY))
        monkeypatch.setattr(qagen, "_http_pool", lambda: pool)
        good, bad, out = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "o"
        records = synthetic_records(12, seed=4)
        write_jsonl(records, good)
        lines = good.read_text("utf-8").splitlines(keepends=True)
        bad.write_text("".join(lines[:9]) + bad_line + "\n" + "".join(lines[9:]), "utf-8")
        out.mkdir()
        old_qa = out / "c_qa_generation.jsonl"
        old_qa.write_bytes(b"an earlier run's QA pairs\n")
        argv = ("--jobs", jobs, "--out", out, "gen-qa", "--task", "generation", "--name", "c",
                "--endpoint", "http://chat.test")
        assert run(*argv, "--corpus", bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}:10: ") and err.count("\n") == 1, err
        # the nine documents before the bad line are fetched and logged; no QA JSONL is written
        assert _log_ids(out) == [record["id"] for record in records[:9]]
        assert len(pool.sent) == 9
        assert old_qa.read_bytes() == b"an earlier run's QA pairs\n"
        assert not list(out.glob(".*.tmp"))
        # once the corpus is mended, a rerun sends only the other three requests
        assert run(*argv, "--corpus", good) == 0
        assert len(pool.sent) == 12
        assert _log_ids(out) == [record["id"] for record in records]
        assert len(old_qa.read_bytes().splitlines()) == 12

    def test_a_missing_corpus_fails_before_the_log_is_made(self, tmp_path, capsys):
        out = tmp_path / "o"
        # with no endpoint and no log, the run would be a usage error before it reads the corpus
        assert run("--out", out, "gen-qa", "--corpus", tmp_path / "none.jsonl", "--task", "generation",
                   "--endpoint", "http://chat.test") == 3
        assert capsys.readouterr().err.startswith("i/o error: [Errno 2] No such file or directory")
        assert list(out.iterdir()) == []

    def test_without_endpoint_or_cache_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DOCSTUDY_CHAT_ENDPOINT", raising=False)
        # an empty corpus too: the run ends before it reads the corpus
        for docs in (1, 0):
            corpus = tmp_path / f"c{docs}.jsonl"
            write_jsonl(synthetic_records(docs), corpus)
            assert run("--out", tmp_path / "o", "gen-qa", "--corpus", corpus, "--task", "nli") == 1
            assert capsys.readouterr().err.startswith("usage error: no chat endpoint configured")
            # no output directory, so no empty response log in it
            assert not (tmp_path / "o").exists()


# modules each command must not load (as docstudy.<name>); gen-qa replays its
# cache, with or without an endpoint, so no command loads an HTTP client, no
# command loads a thread pool, and split and stats read QA pairs without qagen
IMPORT_BUDGETS = {
    "ingest": ("analysis", "taskgen", "dataset", "qagen", "transport", "metrics", "curriculum", "stats"),
    "gen-tasks": ("qagen", "transport", "metrics", "curriculum"),
    "gen-qa": ("transport", "metrics", "curriculum", "dataset", "stats"),
    "gen-qa --endpoint": ("transport", "metrics", "curriculum", "dataset", "stats"),
    "split": ("qagen", "transport", "metrics", "curriculum"),
    "stats": ("qagen", "transport", "metrics", "curriculum"),
    "plan": ("analysis", "taskgen", "qagen", "transport", "metrics", "stats"),
    "verify": ("analysis", "taskgen", "qagen", "transport", "metrics", "stats"),
    "eval": ("analysis", "corpus", "taskgen", "dataset", "qagen", "transport", "curriculum", "stats"),
}
COMMAND_ARGV = {
    "ingest": ["--out", "ingest", "ingest", "--corpus", "raw.jsonl", "--name", "c"],
    "gen-tasks": ["--out", "gen-tasks", "gen-tasks", "--corpus", "c.jsonl", "--name", "c", "--reading"],
    "gen-qa": ["--out", "gen-qa", "gen-qa", "--corpus", "c.jsonl", "--task", "generation", "--name", "c",
               "--cache-dir", "qa_cache"],
    "gen-qa --endpoint": ["--out", "gen-qa", "gen-qa", "--corpus", "c.jsonl", "--task", "generation", "--name", "c",
                          "--cache-dir", "qa_cache", "--endpoint", "http://chat.test"],
    "split": ["--out", "split", "split", "--corpus", "c.jsonl", "--name", "c", "--qa", "c_qa_generation.jsonl"],
    "stats": ["--out", "stats", "stats", "--corpus", "c.jsonl", "--qa", "c_qa_generation.jsonl"],
    "plan": ["--out", "plan", "plan", "--preset", "continued_pretraining", "--ref", "test_doc=c_reading.jsonl",
             "--render"],
    "verify": ["verify", "c_tasks.jsonl", "c_reading.jsonl"],
    "eval": ["--out", "eval", "eval", "--predictions", "p.jsonl", "--references", "r.jsonl", "--logprobs", "l.jsonl"],
}
# the commands that hash nothing, so load no libcrypto (its module is _hashlib):
# ingest's records carry ids, and eval and stats write no checksum
HASHLESS = {"ingest", "stats", "eval"}
_PROBE = "import sys; from docstudy.cli import main; code = main(sys.argv[1:]); print(code, *sorted(sys.modules))"


def probe_modules(cwd, argv, **env) -> set:
    """The modules `main(argv)` loads in a fresh interpreter in `cwd`, with
    no chat endpoint in its environment; the run must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(docstudy.__file__).parents[1]), **env}
    env.pop("DOCSTUDY_CHAT_ENDPOINT", None)
    result = subprocess.run([sys.executable, "-c", _PROBE, *map(str, argv)], cwd=cwd, env=env,
                            capture_output=True, text=True, check=True)
    code, *loaded = result.stdout.splitlines()[-1].split()
    assert code == "0", result.stderr
    return set(loaded)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Inputs for every command: a corpus, its tasks, a QA cache and eval rows."""
    work = tmp_path_factory.mktemp("budget")
    write_jsonl(synthetic_records(6, seed=1), work / "raw.jsonl")
    assert run("--out", work, "ingest", "--corpus", work / "raw.jsonl", "--name", "c") == 0
    assert run("--out", work, "gen-tasks", "--corpus", work / "c.jsonl", "--name", "c", "--reading") == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qagen, "_http_pool", lambda: FakePool(lambda payload: (200, _REPLY)))
        assert run("--out", work, "gen-qa", "--corpus", work / "c.jsonl", "--task", "generation",
                   "--name", "c", "--cache-dir", work / "qa_cache", "--endpoint", "http://chat.test") == 0
    write_jsonl([{"item_id": "i1", "prediction": "A."}], work / "p.jsonl")
    write_jsonl([{"item_id": "i1", "golds": ["A."]}], work / "r.jsonl")
    write_jsonl([{"doc_id": "d1", "logprobs": [-0.5, -1.0]}], work / "l.jsonl")
    return work


class TestImportBudget:
    @pytest.mark.parametrize("command", list(IMPORT_BUDGETS))
    def test_command_loads_only_what_it_runs(self, workdir, command):
        loaded = probe_modules(workdir, COMMAND_ARGV[command])
        forbidden = {f"docstudy.{name}" for name in IMPORT_BUDGETS[command]} | {
            "urllib.request", "http.client", "ssl", "email", "logging", "concurrent.futures", "dataclasses"}
        assert sorted(forbidden & loaded) == []
        # every other command hashes, verify most of all, so the probe sees _hashlib when it loads
        assert ("_hashlib" in loaded) == (command not in HASHLESS)

    def test_ingest_hashes_a_record_without_an_id(self, tmp_path):
        records = [{"title": r["title"], "body": r["body"]} for r in synthetic_records(3, seed=1)]
        write_jsonl(records, tmp_path / "raw.jsonl")
        assert "_hashlib" in probe_modules(tmp_path, COMMAND_ARGV["ingest"])
        docs = [json.loads(line) for line in (tmp_path / "ingest" / "c.jsonl").read_text("utf-8").splitlines()]
        assert len(docs) == len(records)
        for doc in docs:
            assert doc["id"] == hashlib.sha256(f"{doc['title']}\x1e{doc['body']}".encode("utf-8")).hexdigest()[:16]

    def test_no_module_loads_dataclasses(self):
        # every docstudy module at once, as perfbench's set-up probe loads them
        probe = ("import importlib, pkgutil, sys, docstudy\n"
                 "for module in pkgutil.walk_packages(docstudy.__path__, 'docstudy.'):\n"
                 "    importlib.import_module(module.name)\n"
                 "print(*sorted(sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(docstudy.__file__).parents[1])}
        loaded = set(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                                    check=True).stdout.split())
        assert {"docstudy.cli", "docstudy.metrics", "docstudy.transport"} <= loaded
        assert "dataclasses" not in loaded
        assert "_hashlib" not in loaded

    @staticmethod
    def cold_gen_qa(workdir, tmp_path, server, jobs=1, **env) -> set:
        """The modules a cold gen-qa against `server` loads, in a fresh interpreter."""
        endpoint = server.url if "http_proxy" not in {**os.environ, **env} else "http://chat.test/v1/chat/completions"
        argv = ["--jobs", jobs, "--out", tmp_path / "o", "gen-qa", "--corpus", "c.jsonl", "--task", "generation",
                "--name", "c", "--cache-dir", tmp_path / "qa_cache", "--endpoint", endpoint]
        return probe_modules(workdir, argv, **env)

    # a cold gen-qa loads the transport, and only what its route needs
    @pytest.mark.parametrize("route, needed", [("http", set()), ("http_proxy", {"urllib.request"}), ("https", {"ssl"})])
    def test_a_cold_gen_qa_loads_only_what_its_route_needs(self, workdir, tmp_path, loopback_server, route, needed):
        server = loopback_server(tls=route == "https")
        env = {"SSL_CERT_FILE": str(LOOPBACK_CERT)}
        if route == "http_proxy":
            env["http_proxy"] = f"http://127.0.0.1:{server.server_port}"
        loaded = self.cold_gen_qa(workdir, tmp_path, server, **env)
        assert len(server.seen) == 6 and server.connections == 1
        assert {"docstudy.transport", *needed} <= loaded
        forbidden = {"concurrent.futures", "logging"}  # no command starts a pool
        if route != "http_proxy":  # urllib.request itself loads http.client, email and ssl
            forbidden |= {"urllib.request", "http.client", "email", "ssl"} - needed
        assert sorted(forbidden & loaded) == []

    def test_a_cold_gen_qa_above_one_job_loads_no_pool(self, workdir, tmp_path, loopback_server):
        server = loopback_server()
        loaded = self.cold_gen_qa(workdir, tmp_path, server, jobs=2)
        assert len(server.seen) == 6 and 1 <= server.connections <= 2
        assert "docstudy.transport" in loaded
        assert sorted({"concurrent.futures", "logging", "urllib.request", "http.client", "email", "ssl"} & loaded) == []
