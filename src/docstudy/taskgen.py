"""Generate the nine self-supervised study tasks for one document.

One record per kind per document (the NLI generator may add a corrupted
false statement as a second record). `GENERATORS` declares each kind
once, in `KIND_ORDER`: its generator, whether that generator samples, and
whether it reads the document's keywords (its unique entity surfaces).
All sampling draws from per-document streams keyed by (corpus seed,
doc id, kind), so suites are a pure function of (seed, document, config).
`build_suite` folds the seed and doc id into a key once per document, and
builds the keywords once for the three kinds that read them.
A kind also fixes its loss policy (`vocab.loss_policy`).
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain, islice
from operator import attrgetter

from .analysis import AnalyzedDocument, EntitySpan
from .errors import DataError
from .jsonio import read_json
from .rng import mix_key, stream_for
from .vocab import MEMORIZATION, NLI_OPTIONS, fill, loss_policy, options_block

SUMMARIZATION = "summarization"
GIST = "gist"
NLI = "nli"
TEACHING = "teaching"
FLASHCARDS = "flashcards"
CLOZE = "cloze"
MULTICHOICE = "multichoice"
COMPLETION = "completion"

KIND_ORDER = (
    MEMORIZATION,
    SUMMARIZATION,
    GIST,
    NLI,
    TEACHING,
    FLASHCARDS,
    CLOZE,
    MULTICHOICE,
    COMPLETION,
)

BLANK = "--"
_NON_BLANK = re.compile(r"\S")

TEMPLATES = {
    MEMORIZATION: "<{title} - Wikipedia> {body}",
    SUMMARIZATION: "Write a title: {document}",
    GIST: "Highlight the key information within the article: {document}",
    NLI: (
        "{document} Based on the article above can we conclude that\n"
        "<{title}> {statement}\nOptions:\n{options}"
    ),
    TEACHING: "Tell me about {title}.",
    FLASHCARDS: (
        "Generate a concrete description about {title} "
        "based on the following keywords:\n{keywords}"
    ),
    CLOZE: "<{title}> {blanked}",
    MULTICHOICE: "<{title}> {blanked}\nOptions:\n{options}",
    COMPLETION: "<{title}> {prefix}:",
}


class TaskConfig(namedtuple("TaskConfig", "enabled option_count multiplicity templates")):
    __slots__ = ()

    def __new__(
        cls, enabled: tuple[str, ...] = KIND_ORDER, option_count: int = 4,
        multiplicity: dict | None = None, templates: dict | None = None,
    ):
        multiplicity = {} if multiplicity is None else multiplicity
        templates = {} if templates is None else templates
        unknown = [k for k in (*enabled, *multiplicity, *templates) if k not in KIND_ORDER]
        if unknown:
            raise DataError(f"unknown task kinds in config: {unknown}")
        # `type(x) is int`, unlike isinstance, also refuses true and false
        if type(option_count) is not int or option_count < 2:
            raise DataError(f"option_count must be an integer of at least 2: {option_count!r}")
        if not all(type(cap) is int and cap >= 0 for cap in multiplicity.values()):
            raise DataError("multiplicity values must be non-negative integers")
        if not all(isinstance(template, str) for template in templates.values()):
            raise DataError("templates must be strings")
        return tuple.__new__(cls, (enabled, option_count, multiplicity, templates))

    def template(self, kind: str) -> str:
        return self.templates.get(kind, TEMPLATES[kind])

    def cap(self, kind: str) -> int:
        return self.multiplicity.get(kind, 2 if kind == NLI else 1)

    @classmethod
    def from_file(cls, path) -> "TaskConfig":
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise DataError(f"{path}: task config must be a JSON object")
        unknown = sorted(set(raw) - set(cls._fields))
        if unknown:
            raise DataError(f"{path}: unknown task config keys {unknown}")
        try:
            return cls(
                enabled=tuple(raw.get("enabled", KIND_ORDER)),
                option_count=raw.get("option_count", 4),
                multiplicity=dict(raw.get("multiplicity", {})),
                templates=dict(raw.get("templates", {})),
            )
        except (TypeError, ValueError, DataError) as exc:
            raise DataError(f"{path}: bad task config ({exc})") from exc


DEFAULT_CONFIG = TaskConfig()


class TaskExample(namedtuple("TaskExample", "kind question answer doc_id options provenance")):
    __slots__ = ()

    def __new__(
        cls, kind: str, question: str, answer: str, doc_id: str,
        options: tuple[str, ...] | None = None, provenance: dict | None = None,
    ):
        if not answer:
            raise DataError(f"{kind} example for {doc_id} has empty answer")
        wants_options = kind in (NLI, MULTICHOICE)
        if wants_options != (options is not None):
            raise DataError(f"options presence mismatch for kind {kind}")
        return tuple.__new__(cls, (kind, question, answer, doc_id, options, {} if provenance is None else provenance))

    @property
    def loss_policy(self) -> str:
        return loss_policy(self.kind)

    def to_record(self) -> dict:
        record = {
            "kind": self.kind,
            "question": self.question,
            "answer": self.answer,
            "doc_id": self.doc_id,
            "provenance": self.provenance,
        }
        if self.options is not None:
            record["options"] = list(self.options)
        return record


class TaskSuite(namedtuple("TaskSuite", "doc_id examples counts")):
    __slots__ = ()

    def by_kind(self, kind: str) -> list[TaskExample]:
        return [ex for ex in self.examples if ex.kind == kind]


def render_document(adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG) -> str:
    template = config.template(MEMORIZATION)
    return fill(template, title=adoc.doc.title, body=adoc.doc.body)


def _gist_keywords(adoc: AnalyzedDocument) -> list[str]:
    return list(dict.fromkeys(map(attrgetter("surface"), adoc.entities)))


def gen_memorization(adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG) -> TaskExample:
    return TaskExample(
        kind=MEMORIZATION,
        question="",
        answer=render_document(adoc, config),
        doc_id=adoc.doc.id,
    )


def gen_summarization(adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG) -> TaskExample:
    question = fill(config.template(SUMMARIZATION), document=render_document(adoc, config))
    return TaskExample(
        kind=SUMMARIZATION,
        question=question,
        answer=adoc.doc.title,
        doc_id=adoc.doc.id,
    )


def gen_gist(
    adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, *, keywords: list[str] | None = None,
) -> TaskExample | None:
    """`keywords`, if given, are `_gist_keywords(adoc)`, built by the caller."""
    if keywords is None:
        keywords = _gist_keywords(adoc)
    if not keywords:
        return None
    question = fill(config.template(GIST), document=render_document(adoc, config))
    return TaskExample(
        kind=GIST,
        question=question,
        answer="; ".join(keywords),
        doc_id=adoc.doc.id,
    )


def _nli_question(adoc, statement, config):
    return fill(
        config.template(NLI),
        document=render_document(adoc, config),
        title=adoc.doc.title,
        statement=statement,
        options=options_block(NLI_OPTIONS),
    )


def gen_nli_pair(adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG) -> list[TaskExample]:
    """True statement from a sampled sentence, plus a corrupted false one
    when a same-kind entity from another sentence can substitute in.

    The corruption is drawn uniformly from the (target, replacement) pairs:
    a target entity of the sentence, in order, and an entity of another
    sentence, in document order, of the target's kind but another surface.
    The pairs are counted per target, not listed, and the draw walks to
    the chosen one: O(E) for E entities, whatever the sentence holds.
    """
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
    if len(adoc.sentences) < 2 or lo == hi:
        return examples
    entities = adoc.entities
    inside = entities[lo:hi]
    # the entities outside the sentence, counted per kind, and per (kind,
    # surface) for the targets' surfaces only
    surfaces = {target.surface for target in inside}
    by_kind: dict[str, int] = {}
    by_surface: dict[tuple[str, str], int] = {}
    for entity in chain(islice(entities, lo), islice(entities, hi, None)):
        kind = entity.kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if entity.surface in surfaces:
            key = kind, entity.surface
            by_surface[key] = by_surface.get(key, 0) + 1
    weights = [by_kind.get(t.kind, 0) - by_surface.get((t.kind, t.surface), 0) for t in inside]
    total = sum(weights)
    if total:
        pick = rng.below(total)
        for target, weight in zip(inside, weights):
            if pick < weight:
                break
            pick -= weight
        for repl in chain(islice(entities, lo), islice(entities, hi, None)):
            if repl.kind == target.kind and repl.surface != target.surface:
                if not pick:
                    break
                pick -= 1
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


def gen_teaching(adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG) -> TaskExample:
    return TaskExample(
        kind=TEACHING,
        question=fill(config.template(TEACHING), title=adoc.doc.title),
        answer=adoc.doc.body,
        doc_id=adoc.doc.id,
    )


def gen_flashcards(
    adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, *, keywords: list[str] | None = None,
) -> TaskExample | None:
    """`keywords`, if given, are `_gist_keywords(adoc)`, built by the caller."""
    if keywords is None:
        keywords = _gist_keywords(adoc)
    if not keywords:
        return None
    question = fill(
        config.template(FLASHCARDS), title=adoc.doc.title, keywords="; ".join(keywords)
    )
    return TaskExample(
        kind=FLASHCARDS,
        question=question,
        answer=adoc.doc.body,
        doc_id=adoc.doc.id,
    )


def _blank_body(adoc: AnalyzedDocument, entity: EntitySpan) -> str:
    body = adoc.doc.body
    return body[: entity.start] + BLANK + body[entity.end :]


def gen_cloze(adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG) -> TaskExample | None:
    if not adoc.entities:
        return None
    entity = adoc.entities[rng.below(len(adoc.entities))]
    question = fill(
        config.template(CLOZE), title=adoc.doc.title, blanked=_blank_body(adoc, entity)
    )
    return TaskExample(
        kind=CLOZE,
        question=question,
        answer=entity.surface,
        doc_id=adoc.doc.id,
        provenance={"entity_start": entity.start, "entity_end": entity.end},
    )


def gen_multichoice(
    adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG, *, keywords: list[str] | None = None,
) -> TaskExample | None:
    """`keywords`, if given, are `_gist_keywords(adoc)`, built by the caller;
    they are not changed."""
    if keywords is None:
        keywords = _gist_keywords(adoc)
    if len(keywords) < config.option_count:
        return None
    entity = adoc.entities[rng.below(len(adoc.entities))]
    # the distractor pool: surfaces are unique, so this takes out only the answer
    surfaces = keywords.copy()
    surfaces.remove(entity.surface)
    picked = rng.sample_indices(len(surfaces), config.option_count - 1)
    options = [entity.surface] + [surfaces[i] for i in picked]
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


def gen_completion(adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG) -> TaskExample | None:
    """A sentence cut after its final preposition, drawn uniformly from the
    sentences that read back as ``prefix + " " + answer + "."`` with a
    one-line, non-blank answer.

    Each sentence is tested in place in the body, and only the drawn one
    is sliced.
    """
    body = adoc.doc.body
    ends = adoc.final_preposition_ends
    qualifying = []
    for span in adoc.sentences:
        cut = ends[span.index]
        if cut is None or body[span.end - 1] != ".":
            continue
        cut += span.start
        # a space after the preposition, no line break, and something to answer
        if (
            body.startswith(" ", cut, span.end)
            and body.find("\n", cut, span.end) == -1
            and _NON_BLANK.search(body, cut + 1, span.end - 1)
        ):
            qualifying.append(span)
    if not qualifying:
        return None
    span = qualifying[rng.below(len(qualifying))]
    cut = ends[span.index]
    sentence = body[span.start : span.end]
    question = fill(config.template(COMPLETION), title=adoc.doc.title, prefix=sentence[:cut])
    return TaskExample(
        kind=COMPLETION,
        question=question,
        answer=sentence[cut + 1 : -1],
        doc_id=adoc.doc.id,
        provenance={"sentence_index": span.index, "split_offset": cut},
    )


# kind -> (generator, whether it samples from the kind's rng stream,
# whether it reads the document's keywords); build_suite runs them in this
# order, which is KIND_ORDER
GENERATORS = {
    MEMORIZATION: (gen_memorization, False, False),
    SUMMARIZATION: (gen_summarization, False, False),
    GIST: (gen_gist, False, True),
    NLI: (gen_nli_pair, True, False),
    TEACHING: (gen_teaching, False, False),
    FLASHCARDS: (gen_flashcards, False, True),
    CLOZE: (gen_cloze, True, False),
    MULTICHOICE: (gen_multichoice, True, True),
    COMPLETION: (gen_completion, True, False),
}


def build_suite(adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, seed: int = 0) -> TaskSuite:
    """Run every enabled generator in fixed order, honoring skip rules."""
    doc_id = adoc.doc.id
    # a kind's stream key is mix_key(seed, doc_id, kind), that is mix_key(doc_key, kind)
    doc_key = mix_key(seed, doc_id)
    keywords = _gist_keywords(adoc)
    examples: list[TaskExample] = []
    counts = {kind: 0 for kind in config.enabled}
    for kind, (generate, samples, reads_keywords) in GENERATORS.items():
        cap = config.cap(kind)
        if kind not in counts or cap < 1:
            continue
        args = (adoc, stream_for(doc_key, kind), config) if samples else (adoc, config)
        produced = generate(*args, keywords=keywords) if reads_keywords else generate(*args)
        # NLI yields a list; the others one example, or None on a skip
        if not isinstance(produced, list):
            produced = [] if produced is None else [produced]
        produced = produced[:cap]
        examples.extend(produced)
        counts[kind] = len(produced)
    return TaskSuite(doc_id=doc_id, examples=tuple(examples), counts=counts)


READING_PREAMBLE = "Answer the questions based on the article:"


def format_reading_comprehension(suite: TaskSuite) -> str:
    """Concatenate the document and its Q/A blocks into one training text.

    Questions that embed the full document rendering (summarization, gist,
    NLI) drop it, since the article already opens the text.
    """
    # examples are in KIND_ORDER, so the one memorization example leads
    examples = suite.examples
    if not examples or examples[0].kind != MEMORIZATION:
        raise DataError(f"suite for {suite.doc_id} has no memorization example")
    doc_text = examples[0].answer

    blocks = [doc_text, READING_PREAMBLE]
    for example in examples[1:]:
        question = example.question
        if question.endswith(doc_text):
            question = question[: -len(doc_text)].rstrip()
        elif question.startswith(doc_text):
            question = question[len(doc_text) :].lstrip()
        blocks.append(f"Question: {question}\nAnswer:{example.answer}")
    return "\n\n".join(blocks)
