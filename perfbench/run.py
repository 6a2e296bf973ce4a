#!/usr/bin/env python3
"""End-to-end benchmark of the docstudy command sequence.

    python3 perfbench/run.py --workload short_docs --seed 1 --seconds 35 --trace 0

Run from the root of a docstudy checkout. It generates a seeded corpus for
the workload, then repeats the user's command sequence (ingest, gen-tasks
--reading, gen-qa cold and replayed against a loopback stub, split --qa,
the manifest bridge, plan --render for self_tuning and pit, verify, stats,
eval) in fresh child processes until --seconds have passed. Every output
is checked; the last stdout line is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1),
as named in BENCHMARK.json. Full results go to
.perfbench_work/BENCH_<workload>_seed<seed>_trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import string
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpora
import tracer
from stub import ChatStub

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
SPEC = ROOT / "BENCHMARK.json"
NAME = "c"
# The program's own --seed stays fixed, so `split` puts the same corpus
# positions on the test side for every benchmark seed and the amount of
# work does not depend on it; the benchmark seed varies the content.
PROGRAM_SEED = 7
MIN_ITERATIONS = 3
# Wall time of reference.py when the machine runs at full speed. Timings
# are reported in seconds at that speed; see Speed.
REFERENCE_S = 0.09
CHILD_TIMEOUT_S = 150
ROUGE_SAMPLE = 16
# gold answers up to this many tokens count as short items
SHORT_ITEM_TOKENS = 16
KINDS = ("memorization", "summarization", "gist", "nli", "teaching", "flashcards", "cloze", "multichoice", "completion")
# the CLI commands of a pipeline, each with cli.* per-layer metrics; all but
# stats also have an end-to-end <step>_s metric
CLI_STEPS = ("ingest", "gen_tasks", "gen_qa", "gen_qa_replay", "split", "plan_render", "verify", "stats", "eval")
# traced names the per-layer metrics read; missing ones are reported absent
REQUIRED_SPANS = (
    "corpus.ingest_jsonl", "analysis.analyze_document", "analysis.segment_sentences",
    "analysis.extract_entities", "analysis.find_prepositions", "analysis.sentence_tokens",
    "analysis.load_lexicon", "taskgen.build_suite", "taskgen.format_reading_comprehension",
    "rng.mix_key", "dataset.build_manifest", "dataset.manifest_bytes", "dataset.write_manifest",
    "dataset.verify_manifest", "dataset.read_manifest", "dataset.split_corpus",
    "dataset.overlap_report", "curriculum.plan", "curriculum.render_stage_inputs",
    "curriculum.sample_replay", "qagen.ChatClient.complete", "qagen.parse_qa_response",
    "qagen.generate_for_document", "metrics.score_items", "metrics.exact_match",
    "metrics.lcs_length", "metrics.normalize_answer", "metrics.build_report",
    "metrics.aggregate_ppl", "stats.suite_stats", "stats.corpus_stats",
)


class Checks:
    """Failed-operation accounting: every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


@dataclass
class Iteration:
    traced: bool
    times: dict = field(default_factory=dict)
    # times divided by the machine's slowdown around each child (see Speed)
    norm: dict = field(default_factory=dict)
    rss: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        return sum(self.times.values())


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float]:
    """Run one child to completion; return (exit code, wall seconds)."""
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def footer(path: Path) -> dict:
    """The manifest's closing line, or {} when it is missing or unreadable."""
    try:
        with open(path, "rb") as handle:
            handle.seek(max(0, path.stat().st_size - 4096))
            last = handle.read().decode("utf-8", "replace").rstrip("\n").rsplit("\n", 1)[-1]
        value = json.loads(last)
    except (OSError, ValueError):
        return {}
    return value if isinstance(value, dict) else {}


def count_lines(path: Path) -> int:
    """Non-blank lines of a JSONL output, or -1 when it was not written."""
    if not path.exists():
        return -1
    with open(path, encoding="utf-8", errors="replace") as handle:
        return sum(1 for line in handle if line.strip())


_PUNCT = str.maketrans("", "", string.punctuation)


def rouge_oracle(pred: str, gold: str, lcs) -> float:
    """Rouge-L F1 recomputed outside the metrics module's own tokenizer."""
    p = pred.lower().translate(_PUNCT).split()
    g = gold.lower().translate(_PUNCT).split()
    if not p and not g:
        return 1.0
    if not p or not g:
        return 0.0
    ids: dict[str, int] = {}
    length = lcs([ids.setdefault(t, len(ids)) for t in p], [ids.setdefault(t, len(ids)) for t in g])
    if length == 0:
        return 0.0
    precision, recall = length / len(p), length / len(g)
    return 2 * precision * recall / (precision + recall)


def lcs_dp(a: list[int], b: list[int]) -> int:
    """Fallback oracle, used only if metrics.lcs_length_python is gone."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b):
            curr.append(prev[j] + 1 if x == y else max(prev[j + 1], curr[j]))
        prev = curr
    return prev[-1]


class Bench:
    def __init__(self, args, workload: corpora.Workload, work: Path, stub: ChatStub, program, checks: Checks,
                 speed: "Speed | None"):
        self.args = args
        self.workload = workload
        self.work = work
        self.stub = stub
        self.program = program
        self.raw = work / "raw.jsonl"
        self.checks = checks
        self.speed = speed
        self.reference: dict | None = None

    # ------------------------------------------------------------ pipeline

    def run(self, index: int, traced: bool) -> Iteration:
        out = self.work / f"iter{index}"
        out.mkdir()
        it = Iteration(traced=traced)
        seed, jobs = str(PROGRAM_SEED), str(self.workload.jobs)
        corpus = out / f"{NAME}.jsonl"
        qa = out / f"{NAME}_qa_generation.jsonl"

        def step(key: str, argv: list[str], mode: str = "cli") -> str:
            log = out / f"{key}.{sum(1 for _ in out.glob(key + '.*.log'))}.log"
            rss, spans = log.with_suffix(".rss"), log.with_suffix(".spans")
            cmd = [sys.executable, str(CHILD), mode, "--rss", str(rss)]
            if traced:
                cmd += ["--spans", str(spans)]
            cmd += ["--"] + argv if mode == "cli" else argv
            code, seconds = spawn(cmd, log)
            it.times[key] = it.times.get(key, 0.0) + seconds
            if self.speed is not None:
                it.norm[key] = it.norm.get(key, 0.0) + seconds / self.speed.slowdown()
            peak_mb = int(rss.read_text("ascii")) / 1024.0 if rss.exists() else 0.0
            it.rss[key] = max(it.rss.get(key, 0.0), peak_mb)
            if traced and spans.exists():
                it.traces.setdefault(key, []).append(tracer.Trace(tracer.load(spans)))
            text = log.read_text("utf-8", "replace")
            self.checks.check(code == 0, f"{key} exited {code}: {text[-300:]}")
            return text

        common = ["--seed", seed, "--out", str(out)]
        step("ingest", common + ["ingest", "--corpus", str(self.raw), "--name", NAME])
        step("gen_tasks", common + ["--jobs", jobs, "gen-tasks", "--corpus", str(corpus), "--name", NAME, "--reading"])

        qa_argv = ["--jobs", jobs, "--out", str(out), "gen-qa", "--corpus", str(corpus), "--task", "generation",
                   "--name", NAME, "--endpoint", self.stub.endpoint]
        self.stub.reset()
        cold = step("gen_qa", qa_argv)
        served = (self.stub.requests, self.stub.pairs, self.stub.malformed)
        cold_hash = sha256(qa) if qa.exists() else None
        self.stub.reset()
        step("gen_qa_replay", qa_argv)
        replay_requests = self.stub.requests

        step("split", common + ["split", "--corpus", str(corpus), "--name", NAME,
                                "--fraction", str(self.workload.fraction), "--qa", str(qa)])
        step("bridge", ["--dir", str(out), "--name", NAME, "--seed", seed], mode="bridge")
        ref = {
            "train_doc": out / f"{NAME}_train_doc.jsonl",
            "test_doc": out / f"{NAME}_test_doc.jsonl",
            "train_qa": out / f"{NAME}_train_qa.jsonl",
            "train_self": out / f"{NAME}_tasks.jsonl",
        }
        for preset, names in (("self_tuning", ("train_doc", "train_self", "train_qa", "test_doc")),
                              ("pit", ("train_qa", "train_doc", "test_doc"))):
            refs = [arg for n in names for arg in ("--ref", f"{n}={ref[n]}")]
            step("plan_render", common + ["plan", "--preset", preset, *refs, "--render"])

        manifests = [out / f"{NAME}_tasks.jsonl", out / f"{NAME}_reading.jsonl", ref["train_doc"],
                     ref["test_doc"], ref["train_qa"]]
        manifests += sorted(out.glob("self_tuning_stage*.jsonl")) + sorted(out.glob("pit_stage*.jsonl"))
        verified = step("verify", ["verify", *map(str, manifests)])
        step("stats", ["--out", str(out), "stats", "--corpus", str(corpus), "--qa", str(qa), "--name", NAME])
        try:
            inputs = corpora.write_eval_inputs(out, NAME, self.args.seed)
        except (OSError, ValueError, KeyError) as exc:
            self.checks.check(False, f"eval inputs could not be derived: {exc!r}")
            inputs = None
        if inputs is not None:
            step("eval", ["--out", str(out), "eval", "--predictions", str(inputs["predictions"]),
                          "--references", str(inputs["references"]), "--logprobs", str(inputs["logprobs"]),
                          "--name", NAME])

        self.verify_outputs(out, it, manifests, verified, cold, served, cold_hash, replay_requests, inputs)
        shutil.rmtree(out)
        return it

    # ------------------------------------------------------------- checks

    def verify_outputs(self, out, it, manifests, verified, cold, served, cold_hash, replay_requests, inputs):
        check = self.checks.check
        qa = out / f"{NAME}_qa_generation.jsonl"
        for path in manifests:
            check(f"{path}: ok" in verified.splitlines(), f"verify rejected {path.name}")

        facts = it.facts
        docs = count_lines(out / f"{NAME}.jsonl")
        facts["docs"] = docs
        try:
            stats = json.loads((out / f"{NAME}_tasks_stats.json").read_text("utf-8"))
            tasks_count = footer(out / f"{NAME}_tasks.jsonl")["count"]
            check(stats["examples"] == tasks_count, f"stats examples {stats['examples']} != tasks count {tasks_count}")
            facts["examples"] = tasks_count
            facts["skipped"] = self.skipped(out / f"{NAME}_tasks.jsonl", docs)
        except (OSError, ValueError, KeyError) as exc:
            check(False, f"task statistics unreadable: {exc!r}")

        requests, pairs, malformed = served
        written = count_lines(qa)
        check(requests == docs, f"stub served {requests} requests for {docs} documents")
        check(written == pairs, f"gen-qa wrote {written} pairs, stub served {pairs}")
        match = re.search(r"\((\d+) blocks discarded\)", cold)
        discarded = int(match.group(1)) if match else -1
        check(discarded == malformed, f"gen-qa discarded {discarded} blocks, stub sent {malformed} malformed")
        check(replay_requests == 0, f"cache replay sent {replay_requests} requests")
        check(cold_hash is not None and qa.exists() and sha256(qa) == cold_hash, "replayed QA bytes differ from the cold run")
        facts.update(requests=requests, discarded=max(discarded, 0))

        written_manifests = [p for p in manifests if p.exists()]
        stages = [p for p in written_manifests if "_stage" in p.name]
        facts["records_written"] = sum(footer(p).get("count", 0) for p in written_manifests)
        facts["bytes_written"] = sum(p.stat().st_size for p in written_manifests)
        facts["records_rendered"] = sum(footer(p).get("count", 0) for p in stages)

        if inputs is not None:
            facts["items"] = inputs["items"]
            self.check_rouge(out / f"{NAME}_report.json", inputs)

        hashes = {
            str(p.relative_to(out)): sha256(p)
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.suffix not in (".log", ".spans", ".rss") and not p.name.startswith("eval_")
        }
        it.hashes = hashes
        if self.reference is None:
            self.reference = hashes
        else:
            for name in sorted(set(hashes) | set(self.reference)):
                check(hashes.get(name) == self.reference.get(name), f"{name} differs between runs of one seed")

    def skipped(self, tasks: Path, docs: int) -> dict:
        produced: dict[str, set] = {kind: set() for kind in KINDS}
        with open(tasks, encoding="utf-8") as handle:
            for line in handle:
                payload = json.loads(line).get("payload")
                if payload and payload.get("kind") in produced:
                    produced[payload["kind"]].add(payload["doc_id"])
        return {kind: docs - len(ids) for kind, ids in produced.items()}

    def check_rouge(self, report_path: Path, inputs: dict) -> None:
        try:
            items = {item["item_id"]: item for item in json.loads(report_path.read_text("utf-8"))["items"]}
        except (OSError, ValueError, KeyError) as exc:
            self.checks.check(False, f"eval report unreadable: {exc!r}")
            return
        lcs = getattr(self.program["metrics"], "lcs_length_python", None) or lcs_dp
        rng = random.Random(f"{self.args.seed}:rouge")
        ids = sorted(inputs["golds"])
        for item_id in rng.sample(ids, min(ROUGE_SAMPLE, len(ids))):
            expected = max(rouge_oracle(inputs["preds"][item_id], g, lcs) for g in inputs["golds"][item_id])
            got = items.get(item_id, {}).get("rouge_l")
            self.checks.check(
                isinstance(got, (int, float)) and abs(got - round(expected, 6)) <= 1e-6,
                f"rouge_l of {item_id}: report {got}, oracle {expected:.6f}",
            )


# ----------------------------------------------------------------- metrics


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def distribution(values: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    summary = {"median": median(values), "n": n, "min": values[0], "max": values[-1]}
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        summary[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return summary


def probe(script: Path, args: list[str], work: Path, checks: Checks) -> float:
    """Wall time of one fresh interpreter running a benchmark script."""
    log = work / f"{script.stem}.log"
    code, seconds = spawn([sys.executable, str(script), *args], log)
    checks.check(code == 0, f"{script.name} probe: " + log.read_text("utf-8", "replace")[-300:])
    return seconds


def setup_probe(work: Path, checks: Checks) -> float:
    """A fresh interpreter importing docstudy and loading its assets."""
    return probe(CHILD, ["setup"], work, checks)


class Speed:
    """How much slower than full speed the machine runs right now.

    On a shared VM the host's load changes how fast everything runs, in
    episodes that can outlast a run. A reference.py probe, which never
    touches docstudy, runs before the first timed child and after every
    one; a child's slowdown is the mean of the probes on either side of it
    over REFERENCE_S.
    """

    def __init__(self, work: Path, checks: Checks):
        self.work = work
        self.checks = checks
        self.probes = [self.probe()]

    def probe(self) -> float:
        return probe(REFERENCE, [], self.work, self.checks)

    def slowdown(self) -> float:
        """Probe again; the slowdown of the child timed since the last probe."""
        self.probes.append(self.probe())
        return (self.probes[-2] + self.probes[-1]) / (2 * REFERENCE_S)


def end_to_end(iterations: list[Iteration], setup: list[float], setup_norm: list[float],
               probes: list[float]) -> tuple[dict, dict]:
    """Medians over the run of speed-normalised times, and of peak RSS.

    Each timing is in seconds at the reference speed (see Speed). The raw
    series and the reference probes go to the result file as well.
    """
    raw = {"setup_s": setup, "pipeline_s": [it.pipeline_s for it in iterations]}
    series = {"setup_s": setup_norm, "pipeline_s": [sum(it.norm.values()) for it in iterations]}
    for key in CLI_STEPS:
        if key != "stats":
            raw[f"{key}_s"] = [it.times.get(key, 0.0) for it in iterations]
            series[f"{key}_s"] = [it.norm.get(key, 0.0) for it in iterations]
    series["peak_rss_mb"] = [max(it.rss.values()) for it in iterations]
    values = {name: median(v) for name, v in series.items()}
    raw["reference_s"] = probes
    return values, {"normalised": series, "raw": raw}


def fit_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(sentences)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def per_item_us(agg: tracer.Aggregate) -> tuple[float, float]:
    """Mean scoring time per item, short and long golds apart.

    An item's time is the sum of score_items' direct children from one
    exact_match call (which opens each item) up to the next.
    """
    short, long_ = [], []
    for trace, span in agg.spans("metrics.score_items"):
        size, total = None, 0.0
        for child in sorted((s for s in trace.spans if s[1] == span[0]), key=lambda s: s[3]):
            if trace.names[child[2]] == "metrics.exact_match":
                if size is not None:
                    (short if size <= SHORT_ITEM_TOKENS else long_).append(total)
                size, total = child[5], 0.0
            total += child[4] - child[3]
        if size is not None:
            (short if size <= SHORT_ITEM_TOKENS else long_).append(total)
    mean = lambda xs: 1e6 * sum(xs) / len(xs) if xs else 0.0
    return mean(short), mean(long_)


def layer_metrics(it: Iteration, input_bytes: int) -> tuple[dict, list[str]]:
    traces = [t for ts in it.traces.values() for t in ts]
    agg = tracer.Aggregate(traces)
    absent = sorted(set(REQUIRED_SPANS) - agg.wrapped())
    absent += [f"module {m}" for m in sorted({m for t in traces for m in t.absent_modules})]
    total = lambda name: agg.total.get(name, 0.0)
    calls = lambda name: agg.calls.get(name, 0)
    ratio = lambda a, b: a / b if b else 0.0
    facts = it.facts
    docs = facts.get("docs", 0)
    analyses = agg.spans("analysis.analyze_document")
    sentences = sum(span[5] for _, span in analyses)
    short_us, long_us = per_item_us(agg)
    replay = tracer.Aggregate(it.traces.get("gen_qa_replay", []))
    hits = replay.calls.get("qagen.generate_for_document", 0) - replay.calls.get("qagen.ChatClient.complete", 0)

    m = {
        "corpus.ingest_jsonl_s": total("corpus.ingest_jsonl"),
        "corpus.ingest_calls": calls("corpus.ingest_jsonl"),
        "corpus.docs": docs,
        "corpus.input_mb": input_bytes / 1e6,
        "analysis.analyze_document_s": total("analysis.analyze_document"),
        "analysis.segment_sentences_s": total("analysis.segment_sentences"),
        "analysis.extract_entities_s": total("analysis.extract_entities"),
        "analysis.find_prepositions_s": total("analysis.find_prepositions"),
        "analysis.us_per_sentence": 1e6 * ratio(total("analysis.analyze_document"), sentences),
        "analysis.length_exponent": fit_exponent([(span[5], span[4] - span[3]) for _, span in analyses]),
        "analysis.segment_calls_per_doc": ratio(calls("analysis.segment_sentences"), len(analyses)),
        "analysis.sentence_tokens_calls_per_sentence": ratio(calls("analysis.sentence_tokens"), sentences),
        "analysis.load_lexicon_calls": calls("analysis.load_lexicon"),
        "taskgen.build_suite_s": total("taskgen.build_suite"),
        "taskgen.format_reading_s": total("taskgen.format_reading_comprehension"),
        "taskgen.examples": facts.get("examples", 0),
        "rng.mix_key_calls_per_doc": ratio(calls("rng.mix_key"), docs),
        "rng.s": sum(v for k, v in agg.own.items() if k.startswith("rng.")),
        "dataset.build_manifest_s": total("dataset.build_manifest"),
        "dataset.manifest_bytes_s": total("dataset.manifest_bytes"),
        "dataset.write_manifest_s": total("dataset.write_manifest"),
        "dataset.verify_manifest_s": total("dataset.verify_manifest"),
        "dataset.verify_mb_per_s": ratio(facts.get("bytes_written", 0) / 1e6, total("dataset.verify_manifest")),
        "dataset.read_manifest_s": total("dataset.read_manifest"),
        "dataset.split_corpus_s": total("dataset.split_corpus"),
        "dataset.overlap_report_s": total("dataset.overlap_report"),
        "dataset.records_written": facts.get("records_written", 0),
        "dataset.bytes_written_mb": facts.get("bytes_written", 0) / 1e6,
        "curriculum.plan_s": total("curriculum.plan"),
        "curriculum.render_stage_inputs_s": total("curriculum.render_stage_inputs"),
        "curriculum.sample_replay_s": total("curriculum.sample_replay"),
        "curriculum.records_rendered": facts.get("records_rendered", 0),
        "qagen.requests": facts.get("requests", 0),
        "qagen.complete_s": total("qagen.ChatClient.complete"),
        "qagen.parse_qa_response_s": total("qagen.parse_qa_response"),
        "qagen.generate_for_document_s": total("qagen.generate_for_document"),
        "qagen.cache_hit_ratio": ratio(hits, docs),
        "qagen.discarded_blocks": facts.get("discarded", 0),
        "metrics.score_items_s": total("metrics.score_items"),
        "metrics.us_per_item_short": short_us,
        "metrics.us_per_item_long": long_us,
        "metrics.lcs_length_s": total("metrics.lcs_length"),
        "metrics.lcs_calls": calls("metrics.lcs_length"),
        "metrics.normalize_calls_per_item": ratio(calls("metrics.normalize_answer"), facts.get("items", 0)),
        "metrics.build_report_s": total("metrics.build_report"),
        "metrics.aggregate_ppl_s": total("metrics.aggregate_ppl"),
        "stats.suite_stats_s": total("stats.suite_stats"),
        "stats.corpus_stats_s": total("stats.corpus_stats"),
    }
    for kind in KINDS:
        m[f"taskgen.skipped.{kind}"] = facts.get("skipped", {}).get(kind, 0)
    for key in CLI_STEPS:
        m[f"cli.{key}_self_s"] = sum(trace.self_time(span) for trace in it.traces.get(key, [])
                                      for span in trace.spans if span[1] == -1)
    return m, absent


def kernel_metrics(metrics_module, seed: int, checks: Checks) -> dict:
    """The LCS kernel comparison: active backend and pure-Python DP, in us per pair."""
    rng = random.Random(f"{seed}:lcs")
    out = {}
    kernels = {"active": getattr(metrics_module, "lcs_length", None),
               "python": getattr(metrics_module, "lcs_length_python", None)}
    for length, pairs in ((16, 400), (256, 8)):
        vocab = max(8, length // 8)
        data = [([rng.randrange(vocab) for _ in range(length)], [rng.randrange(vocab) for _ in range(length)])
                for _ in range(pairs)]
        sums = set()
        for label, kernel in kernels.items():
            if kernel is None:
                out[f"metrics.lcs_{label}_us_{length}"] = 0.0
                continue
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                total = sum(kernel(a, b) for a, b in data)
                best = min(best, time.perf_counter() - start)
            sums.add(total)
            out[f"metrics.lcs_{label}_us_{length}"] = 1e6 * best / pairs
        checks.check(len(sums) <= 1, f"LCS kernels disagree at length {length}")
    return out


# -------------------------------------------------------------------- main


def load_program():
    sys.path.insert(0, str(SRC))
    import docstudy
    from docstudy import metrics

    return {"docstudy": docstudy, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "docstudy" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no docstudy sources under {SRC}; run from a docstudy checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text("utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    program = load_program()

    base = ROOT / ".perfbench_work"
    # fixed-length paths, so argument sizes do not differ between runs
    work = base / f"run-{os.getpid():07d}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        workload = corpora.build(args.workload, args.seed)
        input_bytes = workload.write(work / "raw.jsonl")
        checks = Checks()
        setup_probe(work, checks)  # fill the bytecode cache
        setup: list[float] = []
        setup_norm: list[float] = []
        speed = None if args.trace else Speed(work, checks)

        iterations: list[Iteration] = []
        with ChatStub(workload.discard_share) as stub:
            bench = Bench(args, workload, work, stub, program, checks, speed)
            # stop before a round that would overrun --seconds, but measure
            # at least MIN_ITERATIONS pipelines (one traced pair with --trace)
            modes = (False, True) if args.trace else (False,)
            minimum = 1 if args.trace else MIN_ITERATIONS
            start = time.perf_counter()
            while True:
                begun = time.perf_counter()
                for traced in modes:
                    iterations.append(bench.run(len(iterations), traced=traced))
                if speed is not None:
                    setup.append(setup_probe(work, checks))
                    setup_norm.append(setup[-1] / speed.slowdown())
                now = time.perf_counter()
                if len(iterations) >= minimum * len(modes) and now + (now - begun) - start > args.seconds:
                    break

        plain = [it for it in iterations if not it.traced]
        traced = [it for it in iterations if it.traced]
        if args.trace:
            per_iter, absent = [], []
            for it in traced:
                values, absent = layer_metrics(it, input_bytes)
                per_iter.append(values)
            values = {name: median(v[name] for v in per_iter) for name in per_iter[0]}
            values.update(kernel_metrics(program["metrics"], args.seed, checks))
            for key in CLI_STEPS:
                values[f"cli.rss_{key}_mb"] = median(it.rss.get(key, 0.0) for it in plain)
            overhead = median(t.pipeline_s - p.pipeline_s for p, t in zip(plain, traced))
            values["trace.overhead_s"] = overhead
            values["trace.overhead_ratio"] = overhead / median(p.pipeline_s for p in plain)
            series = {}
        else:
            absent = []
            values, series = end_to_end(plain, setup, setup_norm, speed.probes)

        error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
        metadata = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "docstudy_version": getattr(program["docstudy"], "__version__", "absent"),
            "lcs_backend": getattr(program["metrics"], "LCS_BACKEND", "absent"),
            "jobs": workload.jobs,
            "input": {"docs": len(workload.records), "sentences": workload.sentences, "bytes": input_bytes},
            "iterations": len(iterations),
            "absent": absent,
            "outputs_sha256": iterations[0].hashes,
        }
        unit = {m["name"]: m["unit"] for m in wanted}
        report(metadata, values, series, unit, checks, error_rate)
        missing = sorted(set(unit) - set(values))
        if missing:
            raise RuntimeError(f"metrics named in BENCHMARK.json were not measured: {missing}")
        result = {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": values[name], "unit": unit[name]} for name in unit},
        }
        bench_file = base / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
        bench_file.write_text(json.dumps({
            "metadata": metadata,
            "error_rate": error_rate,
            "failures": checks.messages,
            "series": series,
            "metrics": values,
        }, indent=2, sort_keys=True) + "\n", "utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(metadata, values, series, unit, checks, error_rate) -> None:
    print("perfbench " + " ".join(f"{k}={metadata[k]}" for k in (
        "workload", "seed", "trace", "nproc", "python", "docstudy_version", "lcs_backend", "jobs", "iterations")))
    print("input " + " ".join(f"{k}={v}" for k, v in metadata["input"].items()))
    if metadata["absent"]:
        print("absent spans: " + ", ".join(metadata["absent"]))
    normalised, raw = series.get("normalised", {}), series.get("raw", {})
    if raw:
        probes = raw["reference_s"]
        print(f"reference.py probes: median={median(probes):.4g} s min={min(probes):.4g} "
              f"max={max(probes):.4g} n={len(probes)} (full speed: {REFERENCE_S} s)")
    for name in unit:
        line = f"{name:<34} {values.get(name, float('nan')):.6g} {unit[name]}"
        if name in normalised:
            line += "  (" + " ".join(f"{k}={v:.6g}" for k, v in distribution(normalised[name]).items()) + ")"
        if name in raw:
            line += f"  raw median={median(raw[name]):.6g}"
        print(line)
    print(f"{'error_rate':<34} {error_rate:.6g} ratio ({checks.failed} failed / {checks.attempted} attempted)")
    for message in checks.messages:
        print(f"failed: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
