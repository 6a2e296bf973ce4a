"""Reference oracle: the NLI, multichoice and completion draws as they were
before they were counted instead of listed.

`docstudy.taskgen.gen_nli_pair` counts the (target, replacement) pairs per
target and walks to the drawn one; this module builds every pair.
`gen_completion` here slices every sentence to test it, and `gen_multichoice`
filters the option pool instead of removing the answer from it. The three
generators are copied, not imported, so a change to a draw in
`docstudy.taskgen` shows up as a difference; the unchanged helpers and
value types are imported. An NLI question here renders its document and
its options block anew, as every NLI question once did. `fill_by_parts`
is `vocab.fill` as it was before it became one printf-style format.
"""

from __future__ import annotations

import re

from docstudy.analysis import AnalyzedDocument
from docstudy.taskgen import (
    COMPLETION,
    DEFAULT_CONFIG,
    MULTICHOICE,
    NLI,
    TaskConfig,
    TaskExample,
    _blank_body,
    render_document,
)
from docstudy.vocab import NLI_OPTIONS, fill, options_block


def fill_by_parts(template: str, **values) -> str:
    parts = re.split(r"\{(\w+)\}", template)
    for i in range(1, len(parts), 2):
        name = parts[i]
        parts[i] = str(values[name]) if name in values else f"{{{name}}}"
    return "".join(parts)


def _nli_question(adoc, statement, config):
    return fill(
        config.template(NLI),
        document=render_document(adoc, config),
        title=adoc.doc.title,
        statement=statement,
        options=options_block(NLI_OPTIONS),
    )


def _gist_keywords(adoc: AnalyzedDocument) -> list[str]:
    return list(dict.fromkeys(entity.surface for entity in adoc.entities))


def gen_nli_pair(adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG) -> list[TaskExample]:
    """True statement from a sampled sentence, plus a corrupted false one
    when a same-kind entity from another sentence can substitute in."""
    if not adoc.sentences:
        return []
    sent_index = rng.below(len(adoc.sentences))
    span = adoc.sentences[sent_index]
    statement = adoc.doc.body[span.start : span.end]

    examples = [
        TaskExample(
            kind=NLI,
            question=_nli_question(adoc, statement, config),
            answer="Yes",
            doc_id=adoc.doc.id,
            options=NLI_OPTIONS,
            provenance={"sentence_index": sent_index, "corrupted": False},
        )
    ]

    lo, hi = adoc.entity_range(sent_index)
    inside = adoc.entities[lo:hi]
    outside = adoc.entities[:lo] + adoc.entities[hi:]
    candidates = [
        (target, repl)
        for target in inside
        for repl in outside
        if repl.kind == target.kind and repl.surface != target.surface
    ]
    if len(adoc.sentences) >= 2 and candidates:
        target, repl = candidates[rng.below(len(candidates))]
        rel_start = target.start - span.start
        rel_end = target.end - span.start
        corrupted = statement[:rel_start] + repl.surface + statement[rel_end:]
        examples.append(
            TaskExample(
                kind=NLI,
                question=_nli_question(adoc, corrupted, config),
                answer="No",
                doc_id=adoc.doc.id,
                options=NLI_OPTIONS,
                provenance={
                    "sentence_index": sent_index,
                    "corrupted": True,
                    "target_start": rel_start,
                    "target_end": rel_end,
                    "original_surface": target.surface,
                    "replacement_surface": repl.surface,
                },
            )
        )
    return examples


def gen_multichoice(adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG) -> TaskExample | None:
    surfaces = _gist_keywords(adoc)
    if len(surfaces) < config.option_count:
        return None
    entity = adoc.entities[rng.below(len(adoc.entities))]
    pool = [s for s in surfaces if s != entity.surface]
    picked = rng.sample_indices(len(pool), config.option_count - 1)
    options = [entity.surface] + [pool[i] for i in picked]
    rng.shuffle(options)
    question = fill(
        config.template(MULTICHOICE),
        title=adoc.doc.title,
        blanked=_blank_body(adoc, entity),
        options=options_block(options),
    )
    return TaskExample(
        kind=MULTICHOICE,
        question=question,
        answer=entity.surface,
        doc_id=adoc.doc.id,
        options=tuple(options),
        provenance={"entity_start": entity.start, "entity_end": entity.end},
    )


def _completion_split(sentence: str, prep_end: int | None) -> tuple[int, str] | None:
    """Character split point after the final preposition, which ends at
    ``prep_end``, or None if there is none or the sentence cannot be
    rebuilt as ``prefix + " " + answer + "."``."""
    if prep_end is None or not sentence.endswith("."):
        return None
    if prep_end >= len(sentence.rstrip(".")):
        return None
    prefix = sentence[:prep_end]
    rest = sentence[prep_end:]
    if not rest.startswith(" "):
        return None
    answer = rest[1:-1]
    if not answer.strip() or "\n" in rest or sentence != prefix + " " + answer + ".":
        return None
    return prep_end, answer


def gen_completion(adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG) -> TaskExample | None:
    qualifying = []
    for span in adoc.sentences:
        sentence = adoc.doc.body[span.start : span.end]
        split = _completion_split(sentence, adoc.final_preposition_ends[span.index])
        if split is not None:
            qualifying.append((span.index, sentence, split))
    if not qualifying:
        return None
    sent_index, sentence, (cut, answer) = qualifying[rng.below(len(qualifying))]
    question = fill(config.template(COMPLETION), title=adoc.doc.title, prefix=sentence[:cut])
    return TaskExample(
        kind=COMPLETION,
        question=question,
        answer=answer,
        doc_id=adoc.doc.id,
        provenance={"sentence_index": sent_index, "split_offset": cut},
    )
