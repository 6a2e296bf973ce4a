"""One benchmark step in a fresh interpreter.

    child.py cli [--spans PATH] [--rss PATH] -- <docstudy arguments>
        run docstudy.cli.main, optionally traced, and exit with its code
    child.py bridge [--spans PATH] [--rss PATH] --dir DIR --name NAME --seed N
        build doc/qa manifests from `split` outputs (see NOTES.md)
    child.py setup
        import docstudy and load the packaged lexicon, abbreviations,
        presets and prompt assets, as every CLI call does

--rss writes this process's peak RSS in kB (VmHWM, Linux) at exit. The
parent cannot use wait4's ru_maxrss: it also counts the forked copy of
the parent's own memory before exec.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def bridge(out: Path, name: str, seed: int) -> int:
    from docstudy import corpus, dataset, qagen

    for side in ("train", "test"):
        docs = corpus.ingest_jsonl(out / f"{name}_{side}.jsonl", seed=seed)
        dataset.write_manifest(
            [dataset.doc_record(doc) for doc in docs],
            name=f"{name}_{side}_doc", split=side, path=out / f"{name}_{side}_doc.jsonl", seed=seed,
        )
    pairs = qagen.read_qa_jsonl(out / f"{name}_qa_train.jsonl")
    dataset.write_manifest(
        [dataset.qa_record(pair) for pair in pairs],
        name=f"{name}_train_qa", split="train", path=out / f"{name}_train_qa.jsonl", seed=seed,
    )
    return 0


def setup() -> int:
    import docstudy.cli  # noqa: F401  (imports every module a command uses)
    from docstudy import analysis, curriculum, qagen
    from docstudy.corpus import RawDocument

    doc = RawDocument(id="probe", title="Probe", body="Probe text.")
    loaders = (
        getattr(analysis, "load_lexicon", None),
        getattr(analysis, "load_abbreviations", None),
        getattr(curriculum, "load_presets", None),
        lambda: qagen.build_generation_prompt(doc),
        lambda: qagen.build_nli_prompt(doc),
    )
    for load in loaders:
        if load is not None:
            load()
    return 0


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cli", "bridge", "setup"))
    parser.add_argument("--spans", default=None)
    parser.add_argument("--rss", default=None)
    parser.add_argument("--dir", default=None)
    parser.add_argument("--name", default=None)
    parser.add_argument("--seed", type=int, default=0)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, rest = parser.parse_args(argv[:cut]), argv[cut + 1 :]
    if args.mode == "setup":
        return setup()

    if args.mode == "cli":
        from docstudy.cli import main as cli_main

        call, call_args, root = cli_main, (rest,), "cli.main"
    else:
        call, call_args, root = bridge, (Path(args.dir), args.name, args.seed), "bridge"

    try:
        if args.spans is None:
            return call(*call_args)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return tracer.run_root(root, call, *call_args)
        finally:
            tracer.dump(args.spans)
    finally:
        if args.rss:
            Path(args.rss).write_text(str(peak_rss_kb()), "ascii")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
