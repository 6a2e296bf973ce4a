"""Generate the nine self-supervised study tasks for one document.

One record per kind per document (the NLI generator may add a corrupted
false statement as a second record). `GENERATORS` declares each kind
once, in `KIND_ORDER`. Every generator is ``generate(ctx, template)``: it
reads the document's `DocumentContext` and fills its kind's template,
and returns a list of examples, empty when the kind is skipped. A
generator that samples keys its own stream, ``Stream(mix_key(ctx.key,
kind))``, that is ``stream_for(seed, doc_id, kind)``, so suites are a pure
function of (seed, document, config). A kind also fixes its loss policy
(`vocab.loss_policy`).

Cost contract for ``build_suite``:

- once per distinct config value: `suite_plan` resolves the config into
  (kind, generator, template, cap) steps, one for each enabled kind whose
  cap is at least 1, plus the template every document is rendered with. Each kind's tag is hashed once per process
  (`rng.mix_key`). The NLI options block is a constant.
- once per document: `SuitePlan.context` folds the seed and doc id into
  one key (one sha256), renders the document, and lists and joins its
  keywords (unique entity surfaces). Only a kind that samples keys a
  stream from that key.
- once per example: its question is filled from its template with one
  printf-style ``%`` (`vocab.fill`, which converts each template once per
  process), and `TaskExample` checks it. A draw is one call,
  `Stream.below`. NLI counts its corruptions in O(E) for E entities, and
  completion tests each sentence in place.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
from types import MappingProxyType

from .analysis import AnalyzedDocument, EntitySpan
from .errors import DataError
from .jsonio import read_json
from .rng import Stream, mix_key
from .vocab import MEMORIZATION, NLI_OPTIONS, fill, options_block

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
    """Read-only once made: `enabled` is a tuple and `multiplicity` and
    `templates` are read-only copies, so equal configs share one plan."""

    __slots__ = ()

    def __new__(
        cls, enabled: tuple[str, ...] = KIND_ORDER, option_count: int = 4,
        multiplicity: dict | None = None, templates: dict | None = None,
    ):
        enabled = tuple(enabled)
        multiplicity = MappingProxyType(dict(multiplicity or {}))
        templates = MappingProxyType(dict(templates or {}))
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

    def __hash__(self) -> int:
        return hash((self.enabled, self.option_count,
                     frozenset(self.multiplicity.items()), frozenset(self.templates.items())))

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
        enabled = raw.get("enabled", [])
        if not (isinstance(enabled, list) and all(isinstance(kind, str) for kind in enabled)):
            raise DataError(f"{path}: task config key 'enabled' must be a list of strings")
        for key in ("multiplicity", "templates"):
            if not isinstance(raw.get(key, {}), dict):
                raise DataError(f"{path}: task config key {key!r} must be a JSON object")
        try:
            return cls(**raw)
        except DataError as exc:
            raise DataError(f"{path}: bad task config ({exc})") from exc


DEFAULT_CONFIG = TaskConfig()


_WITH_OPTIONS = (NLI, MULTICHOICE)


class TaskExample(namedtuple("TaskExample", "kind question answer doc_id options provenance")):
    __slots__ = ()

    def __new__(
        cls, kind: str, question: str, answer: str, doc_id: str,
        options: tuple[str, ...] | None = None, provenance: dict | None = None,
    ):
        if not answer:
            raise DataError(f"{kind} example for {doc_id} has empty answer")
        if (kind in _WITH_OPTIONS) != (options is not None):
            raise DataError(f"options presence mismatch for kind {kind}")
        return tuple.__new__(cls, (kind, question, answer, doc_id, options, {} if provenance is None else provenance))

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


_SURFACE = itemgetter(2)  # an EntitySpan's surface


def _gist_keywords(adoc: AnalyzedDocument) -> list[str]:
    return list(dict.fromkeys(map(_SURFACE, adoc.entities)))


class DocumentContext(namedtuple("DocumentContext", "adoc key rendered keywords joined option_count")):
    """What generators read of one document: the analysed document, its
    stream key ``mix_key(seed, doc_id)``, its rendering, its keywords
    (`_gist_keywords`) and those joined by "; ", and the config's
    `option_count`. `SuitePlan.context` builds it once per document."""

    __slots__ = ()


def gen_memorization(ctx: DocumentContext, template: str) -> list[TaskExample]:
    """The rendering, which the memorization template already filled."""
    return [TaskExample(MEMORIZATION, "", ctx.rendered, ctx.adoc.doc.id)]


def gen_summarization(ctx: DocumentContext, template: str) -> list[TaskExample]:
    doc = ctx.adoc.doc
    return [TaskExample(SUMMARIZATION, fill(template, document=ctx.rendered), doc.title, doc.id)]


def gen_gist(ctx: DocumentContext, template: str) -> list[TaskExample]:
    if not ctx.keywords:
        return []
    return [TaskExample(GIST, fill(template, document=ctx.rendered), ctx.joined, ctx.adoc.doc.id)]


# every NLI question lists the same options
_NLI_BLOCK = options_block(NLI_OPTIONS)


def _nli_question(template: str, rendered: str, title: str, statement: str) -> str:
    return fill(template, document=rendered, title=title, statement=statement, options=_NLI_BLOCK)


def gen_nli_pair(ctx: DocumentContext, template: str) -> list[TaskExample]:
    """True statement from a sampled sentence, plus a corrupted false one
    when a same-kind entity from another sentence can substitute in.

    The corruption is drawn uniformly from the (target, replacement) pairs:
    a target entity of the sentence, in order, and an entity of another
    sentence, in document order, of the target's kind but another surface.
    The pairs are counted per target, not listed, and the draw walks to
    the chosen one: O(E) for E entities, whatever the sentence holds.
    """
    adoc = ctx.adoc
    sentences = adoc.sentences
    if not sentences:
        return []
    doc = adoc.doc
    rendered = ctx.rendered
    rng = Stream(mix_key(ctx.key, NLI))
    sent_index = rng.below(len(sentences))
    span = sentences[sent_index]
    statement = doc.body[span.start : span.end]

    examples = [
        TaskExample(
            NLI, _nli_question(template, rendered, doc.title, statement), "Yes", doc.id, NLI_OPTIONS,
            {"sentence_index": sent_index, "corrupted": False},
        )
    ]

    lo, hi = adoc.entity_range(sent_index)
    if len(sentences) < 2 or lo == hi:
        return examples
    entities = adoc.entities
    inside = entities[lo:hi]
    # the entities outside the sentence, counted per kind, and per (kind,
    # surface) for the targets' surfaces only
    surfaces = set(map(_SURFACE, inside))
    by_kind: dict[str, int] = {}
    by_surface: dict[tuple[str, str], int] = {}
    for _, _, surface, kind in chain(islice(entities, lo), islice(entities, hi, None)):
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if surface in surfaces:
            key = kind, surface
            by_surface[key] = by_surface.get(key, 0) + 1
    weights = [by_kind.get(kind, 0) - by_surface.get((kind, surface), 0) for _, _, surface, kind in inside]
    total = sum(weights)
    if total:
        pick = rng.below(total)
        for target, weight in zip(inside, weights):
            if pick < weight:
                break
            pick -= weight
        _, _, surface, kind = target
        for repl in chain(islice(entities, lo), islice(entities, hi, None)):
            if repl[3] == kind and repl[2] != surface:
                if not pick:
                    break
                pick -= 1
        rel_start = target.start - span.start
        rel_end = target.end - span.start
        corrupted = statement[:rel_start] + repl.surface + statement[rel_end:]
        examples.append(
            TaskExample(
                NLI, _nli_question(template, rendered, doc.title, corrupted), "No", doc.id, NLI_OPTIONS,
                {
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


def gen_teaching(ctx: DocumentContext, template: str) -> list[TaskExample]:
    doc = ctx.adoc.doc
    return [TaskExample(TEACHING, fill(template, title=doc.title), doc.body, doc.id)]


def gen_flashcards(ctx: DocumentContext, template: str) -> list[TaskExample]:
    if not ctx.keywords:
        return []
    doc = ctx.adoc.doc
    return [TaskExample(FLASHCARDS, fill(template, title=doc.title, keywords=ctx.joined), doc.body, doc.id)]


def _blank_body(adoc: AnalyzedDocument, entity: EntitySpan) -> str:
    body = adoc.doc.body
    return body[: entity.start] + BLANK + body[entity.end :]


def gen_cloze(ctx: DocumentContext, template: str) -> list[TaskExample]:
    adoc = ctx.adoc
    if not adoc.entities:
        return []
    entity = adoc.entities[Stream(mix_key(ctx.key, CLOZE)).below(len(adoc.entities))]
    question = fill(template, title=adoc.doc.title, blanked=_blank_body(adoc, entity))
    return [TaskExample(
        CLOZE, question, entity.surface, adoc.doc.id, None,
        {"entity_start": entity.start, "entity_end": entity.end},
    )]


def gen_multichoice(ctx: DocumentContext, template: str) -> list[TaskExample]:
    """`ctx.keywords` are not changed."""
    keywords = ctx.keywords
    option_count = ctx.option_count
    if len(keywords) < option_count:
        return []
    adoc = ctx.adoc
    rng = Stream(mix_key(ctx.key, MULTICHOICE))
    entity = adoc.entities[rng.below(len(adoc.entities))]
    # the distractor pool: surfaces are unique, so this takes out only the answer
    surfaces = keywords.copy()
    surfaces.remove(entity.surface)
    picked = rng.sample_indices(len(surfaces), option_count - 1)
    options = [entity.surface] + [surfaces[i] for i in picked]
    rng.shuffle(options)
    question = fill(
        template, title=adoc.doc.title, blanked=_blank_body(adoc, entity), options=options_block(options)
    )
    return [TaskExample(
        MULTICHOICE, question, entity.surface, adoc.doc.id, tuple(options),
        {"entity_start": entity.start, "entity_end": entity.end},
    )]


def gen_completion(ctx: DocumentContext, template: str) -> list[TaskExample]:
    """A sentence cut after its final preposition, drawn uniformly from the
    sentences that read back as ``prefix + " " + answer + "."`` with a
    one-line, non-blank answer.

    Each sentence is tested in place in the body, and only the drawn one
    is sliced.
    """
    adoc = ctx.adoc
    body = adoc.doc.body
    ends = adoc.final_preposition_ends
    qualifying = []
    for span, cut in zip(adoc.sentences, ends):
        start, end, _ = span
        if cut is None or body[end - 1] != ".":
            continue
        cut += start
        # a space after the preposition, no line break, and something to answer
        if (
            body.startswith(" ", cut, end)
            and body.find("\n", cut, end) == -1
            and _NON_BLANK.search(body, cut + 1, end - 1)
        ):
            qualifying.append(span)
    if not qualifying:
        return []
    span = qualifying[Stream(mix_key(ctx.key, COMPLETION)).below(len(qualifying))]
    cut = ends[span.index]
    sentence = body[span.start : span.end]
    question = fill(template, title=adoc.doc.title, prefix=sentence[:cut])
    return [TaskExample(
        COMPLETION, question, sentence[cut + 1 : -1], adoc.doc.id, None,
        {"sentence_index": span.index, "split_offset": cut},
    )]


# kind -> generator, each called as generate(ctx, template) and returning
# a list, empty on a skip; build_suite runs them in this order, which is
# KIND_ORDER
GENERATORS = {
    MEMORIZATION: gen_memorization,
    SUMMARIZATION: gen_summarization,
    GIST: gen_gist,
    NLI: gen_nli_pair,
    TEACHING: gen_teaching,
    FLASHCARDS: gen_flashcards,
    CLOZE: gen_cloze,
    MULTICHOICE: gen_multichoice,
    COMPLETION: gen_completion,
}


class SuitePlan(namedtuple("SuitePlan", "steps rendering option_count")):
    """A config resolved for `build_suite`: its (kind, generator, template,
    cap) steps, one for each enabled kind whose cap is at least 1, in
    KIND_ORDER; the memorization template, which renders every document;
    and its `option_count`."""

    __slots__ = ()

    def context(self, adoc: AnalyzedDocument, seed: int = 0) -> DocumentContext:
        doc = adoc.doc
        keywords = _gist_keywords(adoc)
        return DocumentContext(
            adoc, mix_key(seed, doc.id), fill(self.rendering, title=doc.title, body=doc.body),
            keywords, "; ".join(keywords), self.option_count,
        )


# a run passes one config for every document, so it is resolved once
@lru_cache(maxsize=16)
def suite_plan(config: TaskConfig) -> SuitePlan:
    steps = []
    for kind, generate in GENERATORS.items():
        cap = config.cap(kind)
        if kind in config.enabled and cap >= 1:
            steps.append((kind, generate, config.template(kind), cap))
    return SuitePlan(tuple(steps), config.template(MEMORIZATION), config.option_count)


def build_suite(adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, seed: int = 0) -> TaskSuite:
    """Run every planned generator in order, each up to its kind's cap."""
    plan = suite_plan(config)
    ctx = plan.context(adoc, seed)
    examples: list[TaskExample] = []
    counts = dict.fromkeys(config.enabled, 0)
    for kind, generate, template, cap in plan.steps:
        produced = generate(ctx, template)[:cap]
        examples += produced
        counts[kind] = len(produced)
    return TaskSuite(adoc.doc.id, tuple(examples), counts)


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
