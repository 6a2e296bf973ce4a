"""Operator command surface: ingest, gen-tasks, gen-qa, split, plan, eval,
stats, verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 I/O error. Every
command overwrites byte-identical outputs when re-run on identical inputs;
all randomness flows from --seed. Each command imports the modules it
runs when it starts, so a process loads no layer it does not use.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import typing
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from .errors import DataError, MalformedLineError, UsageError
from .jsonio import OutputSet, encode_json, encode_line, iter_jsonl, read_json, write_jsonl
from .vocab import FULL_SEQUENCE, TASK_GENERATION, TASK_NLI

SEED_ENV = "DOCSTUDY_SEED"
JOBS_ENV = "DOCSTUDY_JOBS"
OUT_ENV = "DOCSTUDY_OUT"
# each --config key and the type its value is read as
CONFIG_KEYS = {"jobs": int, "out": str, "seed": int}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        config = read_json(path)
    except DataError as exc:
        raise UsageError(f"config file {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(config) - set(CONFIG_KEYS))
    if unknown:
        raise UsageError(f"config file {path}: unknown keys {unknown}; valid keys: {', '.join(CONFIG_KEYS)}")
    # every value is read here, so a bad one is refused even where a flag overrides it
    return {key: _cast(f"config key {key!r}", value, CONFIG_KEYS[key]) for key, value in config.items()}


def _cast(source: str, value, cast):
    """`value` read as `cast`; a usage error naming `source` if it cannot be."""
    try:
        # int() would truncate 2.9 and read true as 1, and str() reads any value
        if (cast is int and isinstance(value, (bool, float))) or (cast is str and not isinstance(value, str)):
            raise ValueError
        return cast(value)
    except (TypeError, ValueError):
        raise UsageError(f"{source}: cannot read {value!r} as {cast.__name__}") from None


def _resolve(flag_value, config: dict, key: str, env: str | None, default, cast):
    """Precedence: command-line flag > config file (read by `_load_config`) >
    environment > default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    if env and os.environ.get(env):
        return _cast(env, os.environ[env], cast)
    return default


def _seed(args, config) -> int:
    """The run's seed. Streams key on it as 64 bits, so a seed outside
    0..2**64-1 would give the outputs of one inside; it is refused."""
    seed = _resolve(args.seed, config, "seed", SEED_ENV, 0, int)
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"seed {seed} is outside 0..2**64-1")
    return seed


def _out(args, config) -> Path:
    """The output directory; the first `OutputSet.open` in it makes it."""
    return Path(_resolve(args.out, config, "out", OUT_ENV, ".", str))


def _name(args) -> str:
    """Output name: --name, else the corpus file's stem."""
    return args.name or Path(args.corpus).stem


def cmd_ingest(args, config) -> int:
    from .corpus import iter_documents

    # the seed changes no ingested byte; it is resolved to refuse a bad value
    _seed(args, config)
    out = _out(args, config)
    target = out / f"{_name(args)}.jsonl"
    count = write_jsonl(target, (doc.to_record() for doc in iter_documents(args.corpus)))
    print(f"ingested {count} documents -> {target}")
    return 0


def cmd_gen_tasks(args, config) -> int:
    from . import analysis, dataset, stats, taskgen
    from .corpus import iter_documents

    seed = _seed(args, config)
    out = _out(args, config)
    task_config = (
        taskgen.TaskConfig.from_file(args.task_config) if args.task_config else taskgen.DEFAULT_CONFIG
    )
    overrides = {}
    if args.lexicon:
        overrides["lexicon"] = analysis.load_lexicon(args.lexicon)
    if args.abbreviations:
        overrides["abbreviations"] = analysis.load_abbreviations(args.abbreviations)
    name = _name(args)
    manifest_path = out / f"{name}_tasks.jsonl"
    counts = Counter()
    docs = 0

    def write_document(doc) -> dict:
        """Write one document's records and return its per-kind counts, the
        one thing that outlives its analysis, suite and reading text: they
        die here, before the next document is read."""
        suite = taskgen.build_suite(analysis.analyze_document(doc, **overrides), task_config, seed=seed)
        # every record is built from the body, so its length picks the
        # encoder; both records come with their loss policy stamped
        length = len(doc.body)
        for example in suite.examples:
            add_task(encode_line(dataset.task_record(example), length))
        kind_counts = suite.counts
        if args.reading:
            text = taskgen.format_reading_comprehension(suite)
            # the examples, most of them the body's size, die before the
            # document's largest line is encoded: on a long document that
            # line sets gen-tasks' peak memory
            del suite
            reading = {"kind": dataset.KIND_DOC, "loss_policy": FULL_SEQUENCE,
                       "payload": {"id": doc.id, "title": doc.title, "body": text}}
            add_reading(encode_line(reading, length))
        return kind_counts

    # the manifests' footers are written inside the set, before it renames any output
    with OutputSet() as outputs:
        stats_file = outputs.open(out / f"{name}_tasks_stats.json")
        readings = (dataset.manifest_writer(outputs.open(out / f"{name}_reading.jsonl"), seed)
                    if args.reading else nullcontext())
        with dataset.manifest_writer(outputs.open(manifest_path), seed) as add_task, readings as add_reading:
            for doc in iter_documents(args.corpus):
                counts.update(write_document(doc))
                docs += 1
        stats_file.write(encode_json(stats.suite_stats(counts)))
    print(f"generated {sum(counts.values())} task records over {docs} documents -> {manifest_path}")
    return 0


def cmd_gen_qa(args, config) -> int:
    from . import qagen
    from .corpus import iter_documents

    jobs = _resolve(args.jobs, config, "jobs", JOBS_ENV, 1, int)
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    if not math.isfinite(args.temperature):  # JSON has no NaN or infinity to send it as
        raise UsageError(f"temperature must be a finite number, got {args.temperature}")
    out = _out(args, config)
    cache_dir = Path(args.cache_dir) if args.cache_dir else out / "qa_cache"

    # an entry replays only if it holds the request this run would send
    settings = {"model": args.model, "temperature": args.temperature, "max_tokens": args.max_tokens}
    client = None
    if args.endpoint or os.environ.get(qagen.ENDPOINT_ENV):
        client = qagen.ChatClient(endpoint=args.endpoint, api_key=args.api_key)
    log_path = cache_dir / f"{args.task}.jsonl"
    if client is None and not log_path.exists():
        # a usage error before any file is made, even on an empty corpus
        raise UsageError(f"no chat endpoint configured (set {qagen.ENDPOINT_ENV}) and no response log at {log_path}")

    target = out / f"{_name(args)}_qa_{args.task}.jsonl"
    pairs = discarded = 0

    def write(parsed) -> None:
        """Write one document's pairs, in corpus order, as it settles."""
        nonlocal pairs, discarded
        pairs += len(parsed.pairs)
        discarded += parsed.discarded
        qa.writelines(encode_line(pair.to_record()) for pair in parsed.pairs)

    with OutputSet() as outputs:
        qa = outputs.open(target)
        open(args.corpus, "rb").close()  # a corpus that cannot be read fails before the log is made
        with nullcontext() if client is None else client, qagen.ResponseLog(log_path) as log:
            failures = qagen.generate_corpus(iter_documents(args.corpus), args.task, client, log, settings, write, jobs)
        if failures:
            # no QA JSONL: raising the last failure drops the temp file, and
            # main prints it after the others; a rerun fetches only these
            for exc in failures[:-1]:
                print(f"data error: {exc}", file=sys.stderr)
            raise failures[-1]
    print(f"collected {pairs} QA pairs ({discarded} blocks discarded) -> {target}")
    return 0


def cmd_split(args, config) -> int:
    from . import dataset, qapairs
    from .corpus import iter_documents

    seed = _seed(args, config)
    if not 0 < args.fraction < 1:  # written so that NaN fails it too
        raise UsageError(f"test fraction {args.fraction} outside (0,1)")
    if args.ngram < 1:
        raise UsageError(f"n-gram size {args.ngram} is not at least 1")
    out = _out(args, config)
    name = _name(args)
    with OutputSet() as outputs:
        def output(suffix: str):
            return outputs.open(out / f"{name}_{suffix}")

        train_file = output("train.jsonl")  # opened before the corpus is read
        docs = list(iter_documents(args.corpus))
        train, test = dataset.split_corpus(docs, args.fraction, seed)
        train_file.writelines(encode_line(doc.to_record()) for doc in train)
        output("test.jsonl").writelines(encode_line(doc.to_record()) for doc in test)
        output("overlap.json").write(encode_json(dataset.overlap_report(train, test, args.ngram)))
        if args.qa:
            # each QA row goes straight to the file of its document's side
            side = dict.fromkeys((doc.id for doc in train), output("qa_train.jsonl"))
            side.update(dict.fromkeys((doc.id for doc in test), output("qa_test.jsonl")))
            for line_no, pair in qapairs.iter_qa_jsonl(args.qa):
                if pair.doc_id not in side:
                    raise MalformedLineError(
                        args.qa, line_no, f"QA pair references unknown document id {pair.doc_id!r}"
                    )
                side[pair.doc_id].write(encode_line(pair.to_record()))

    print(f"split {len(docs)} documents into {len(train)} train / {len(test)} test")
    return 0


def _parse_refs(args) -> dict:
    for item in args.ref or []:  # a usage error, so found before the refs file is read
        if "=" not in item:
            raise UsageError(f"--ref expects name=path, got {item!r}")
    refs = read_json(args.refs_file) if args.refs_file else {}
    if not isinstance(refs, dict) or not all(isinstance(v, str) for v in refs.values()):
        raise DataError(f"{args.refs_file}: expected a JSON object of name -> path strings")
    refs.update(item.partition("=")[::2] for item in args.ref or [])
    return refs


def cmd_plan(args, config) -> int:
    from . import curriculum, dataset

    seed = _seed(args, config)
    out = _out(args, config)
    needed = curriculum.required_refs(args.preset, args.cross_domain)  # refuses an unknown preset
    refs = _parse_refs(args)
    missing_files = [name for name in sorted(needed) if name in refs and not Path(refs[name]).exists()]
    if missing_files:
        raise DataError(f"referenced manifest files do not exist: {', '.join(missing_files)}")
    stage_plan = curriculum.plan(args.preset, refs, seed=seed, cross_domain=args.cross_domain)
    target = out / f"{args.preset}_plan.json"
    with OutputSet() as outputs:
        plan_file = outputs.open(target)
        if args.render:
            scans = curriculum.scan_refs(stage_plan, refs)
            for stage in stage_plan["stages"]:
                path = out / f"{args.preset}_stage{stage['index']}.jsonl"
                with dataset.manifest_writer(outputs.open(path), seed) as add:
                    for line in curriculum.stage_lines(stage, scans):
                        add(line)
        plan_file.write(encode_json(stage_plan))
    print(f"planned {args.preset}: {len(stage_plan['stages'])} stages -> {target}")
    return 0


def _read_jsonl(path, fields: dict, optional: dict | None = None):
    """Yield (line number, row) for each row of a JSONL file: each a JSON
    object holding `fields` keys, and `optional` keys unless absent or
    null, of those types (`list[str]` checks the items too)."""
    checks = [
        (key, key in fields, typing.get_origin(kind) or kind, typing.get_args(kind), kind)
        for key, kind in {**fields, **(optional or {})}.items()
    ]
    for line_no, row in iter_jsonl(path):
        for key, required, outer, items, kind in checks:
            value = row.get(key)
            if value is None and not required:
                continue
            if key not in row:
                raise MalformedLineError(path, line_no, f"missing key {key!r}")
            if not isinstance(value, outer) or (items and not all(isinstance(v, items) for v in value)):
                want, got = kind if items else kind.__name__, type(value).__name__
                raise MalformedLineError(path, line_no, f"{key!r} must be a {want}, got {got}")
        yield line_no, row


def _rows_by_item_id(path, fields: dict, optional: dict | None = None, check=None) -> dict:
    """`_read_jsonl` rows keyed by `item_id`, which no two rows may share;
    `check(row)` may refuse a row with a DataError."""
    rows = {}
    for line_no, row in _read_jsonl(path, {"item_id": str, **fields}, optional):
        if row["item_id"] in rows:
            raise MalformedLineError(path, line_no, f"duplicate item_id {row['item_id']!r}")
        if check is not None:
            try:
                check(row)
            except DataError as exc:
                raise MalformedLineError(path, line_no, str(exc)) from exc
        rows[row["item_id"]] = row
    return rows


def cmd_eval(args, config) -> int:
    from . import metrics

    if not args.predictions and not args.logprobs:
        raise UsageError("eval needs --predictions/--references and/or --logprobs")
    if args.predictions and not args.references:
        raise UsageError("--predictions requires --references")
    if args.references and not args.predictions:
        raise UsageError("--references requires --predictions")
    target = _out(args, config) / f"{args.name}_report.json"
    with OutputSet() as outputs:
        report = outputs.open(target)
        ppl = None
        if args.logprobs:
            records = []
            for line_no, row in _read_jsonl(args.logprobs, {"doc_id": str, "logprobs": list}):
                try:
                    records.append(metrics.LogProbRecord(doc_id=row["doc_id"], logprobs=row["logprobs"]))
                except DataError as exc:
                    raise MalformedLineError(args.logprobs, line_no, str(exc)) from exc
            ppl = metrics.aggregate_ppl(records)

        judgments, diagnostics = [], {}
        if args.predictions:
            predictions = {
                item_id: row["prediction"]
                for item_id, row in _rows_by_item_id(args.predictions, {"prediction": str}).items()
            }
            references = _rows_by_item_id(
                args.references, {}, {"golds": list[str], "gold_label": str}, metrics.check_reference
            )
            judgments, diagnostics = metrics.score_items(predictions, references)
        report.write(encode_json(metrics.build_report(judgments, ppl=ppl, diagnostics=diagnostics)))
    print(f"evaluation report -> {target}")
    return 0


def cmd_stats(args, config) -> int:
    from . import qapairs, stats
    from .corpus import iter_documents

    name = _name(args)
    target = _out(args, config) / f"{name}_stats.json"
    with OutputSet() as outputs:
        report = outputs.open(target)
        qa_pairs = (pair for _, pair in qapairs.iter_qa_jsonl(args.qa)) if args.qa else None
        report.write(encode_json(stats.corpus_stats(name, iter_documents(args.corpus), qa_pairs)))
    print(f"statistics -> {target}")
    return 0


def cmd_verify(args, config) -> int:
    from . import dataset

    failures = 0
    for path in args.paths:
        try:
            dataset.verify_manifest(path)
        except dataset.ManifestError as exc:
            failures += 1
            where = "" if exc.record is None else f" (record {exc.record})"
            print(f"{path}: MISMATCH {exc.reason}{where}")
        else:
            print(f"{path}: ok")
    if failures:
        raise DataError(f"{failures} manifest(s) failed verification")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="docstudy", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument("--jobs", type=int, default=None, help="concurrent gen-qa requests")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a raw JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-tasks", help="generate study-task manifests")
    p.add_argument("--corpus", required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--task-config", default=None)
    p.add_argument("--reading", action="store_true", help="also emit reading-format documents")
    p.add_argument("--lexicon", default=None, help="override preposition lexicon file")
    p.add_argument("--abbreviations", default=None, help="override abbreviation list file")
    p.set_defaults(func=cmd_gen_tasks)

    p = sub.add_parser("gen-qa", help="generate QA pairs via a chat endpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", choices=[TASK_GENERATION, TASK_NLI], required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--api-key", default=None)
    p.add_argument("--model", default="gpt-4")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-tokens", type=int, default=2048)
    p.set_defaults(func=cmd_gen_qa)

    p = sub.add_parser("split", help="train/test split with zero document overlap")
    p.add_argument("--corpus", required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--ngram", type=int, default=8)
    p.add_argument("--qa", default=None, help="QA JSONL routed by document side")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("plan", help="emit a training-stage plan for a method preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--ref", action="append", help="name=path manifest reference")
    p.add_argument("--refs-file", default=None)
    p.add_argument("--cross-domain", action="store_true")
    p.add_argument("--render", action="store_true", help="materialize per-stage manifests")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("eval", help="score model outputs")
    p.add_argument("--predictions", default=None)
    p.add_argument("--references", default=None)
    p.add_argument("--logprobs", default=None)
    p.add_argument("--name", default="eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="corpus and QA statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--qa", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="verify manifest checksums")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
