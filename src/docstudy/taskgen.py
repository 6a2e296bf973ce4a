"""Generate the nine self-supervised study tasks for one document.

One record per kind per document (the NLI generator may add a corrupted
false statement as a second record). `GENERATORS` declares each kind
once, in `KIND_ORDER`: its generator, and whether that generator samples.
All sampling draws from per-document streams keyed by (corpus seed,
doc id, kind), so suites are a pure function of (seed, document, config).
A kind also fixes its loss policy (`vocab.loss_policy`).

Cost contract for ``build_suite``:

- once per run: the config's enabled kinds, caps and generators are
  resolved into a plan, which is kept until a config that differs by value
  comes; each kind's tag is hashed once per process (`rng.mix_key`). The
  NLI options block is a constant.
- once per document: the seed and doc id are folded into one key (one
  sha256), and each sampling kind's stream is keyed from it. The document
  is rendered once, and its keywords (unique entity surfaces) are listed
  and joined once (`_Shared`), for every generator that reads them.
- once per example: its question is filled from its template with one
  printf-style ``%`` (`vocab.fill`, which converts each template once per
  process), and `TaskExample` checks it. A draw is one call,
  `Stream.below`. NLI counts its corruptions in O(E) for E entities, and
  completion tests each sentence in place.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain, islice
from operator import itemgetter

from .analysis import AnalyzedDocument, EntitySpan
from .errors import DataError
from .jsonio import read_json
from .rng import Stream, mix_key
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
        # a tuple, so neither the checks below nor a later change to the
        # caller's list can alter it: build_suite's plan compares it by value
        enabled = tuple(enabled)
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


_SURFACE = itemgetter(2)  # an EntitySpan's surface


def _gist_keywords(adoc: AnalyzedDocument) -> list[str]:
    return list(dict.fromkeys(map(_SURFACE, adoc.entities)))


class _Shared(namedtuple("_Shared", "rendered keywords joined")):
    """What several generators read from one document: its rendering
    (`render_document`), its keywords (`_gist_keywords`) and those joined
    by "; ". `build_suite` builds it once per document."""

    __slots__ = ()


def _shared(adoc: AnalyzedDocument, config: TaskConfig) -> _Shared:
    keywords = _gist_keywords(adoc)
    return _Shared(render_document(adoc, config), keywords, "; ".join(keywords))


def gen_memorization(
    adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> TaskExample:
    if shared is None:
        shared = _shared(adoc, config)
    return TaskExample(MEMORIZATION, "", shared.rendered, adoc.doc.id)


def gen_summarization(
    adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> TaskExample:
    if shared is None:
        shared = _shared(adoc, config)
    doc = adoc.doc
    question = fill(config.template(SUMMARIZATION), document=shared.rendered)
    return TaskExample(SUMMARIZATION, question, doc.title, doc.id)


def gen_gist(
    adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> TaskExample | None:
    if shared is None:
        shared = _shared(adoc, config)
    if not shared.keywords:
        return None
    question = fill(config.template(GIST), document=shared.rendered)
    return TaskExample(GIST, question, shared.joined, adoc.doc.id)


# every NLI question lists the same options
_NLI_BLOCK = options_block(NLI_OPTIONS)


def _nli_question(template: str, rendered: str, title: str, statement: str) -> str:
    return fill(template, document=rendered, title=title, statement=statement, options=_NLI_BLOCK)


def gen_nli_pair(
    adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> list[TaskExample]:
    """True statement from a sampled sentence, plus a corrupted false one
    when a same-kind entity from another sentence can substitute in.

    The corruption is drawn uniformly from the (target, replacement) pairs:
    a target entity of the sentence, in order, and an entity of another
    sentence, in document order, of the target's kind but another surface.
    The pairs are counted per target, not listed, and the draw walks to
    the chosen one: O(E) for E entities, whatever the sentence holds.
    """
    sentences = adoc.sentences
    if not sentences:
        return []
    doc = adoc.doc
    template = config.template(NLI)
    if shared is None:
        shared = _shared(adoc, config)
    rendered = shared.rendered
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


def gen_teaching(
    adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> TaskExample:
    doc = adoc.doc
    return TaskExample(TEACHING, fill(config.template(TEACHING), title=doc.title), doc.body, doc.id)


def gen_flashcards(
    adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> TaskExample | None:
    if shared is None:
        shared = _shared(adoc, config)
    if not shared.keywords:
        return None
    doc = adoc.doc
    question = fill(config.template(FLASHCARDS), title=doc.title, keywords=shared.joined)
    return TaskExample(FLASHCARDS, question, doc.body, doc.id)


def _blank_body(adoc: AnalyzedDocument, entity: EntitySpan) -> str:
    body = adoc.doc.body
    return body[: entity.start] + BLANK + body[entity.end :]


def gen_cloze(
    adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> TaskExample | None:
    if not adoc.entities:
        return None
    entity = adoc.entities[rng.below(len(adoc.entities))]
    question = fill(
        config.template(CLOZE), title=adoc.doc.title, blanked=_blank_body(adoc, entity)
    )
    return TaskExample(
        CLOZE, question, entity.surface, adoc.doc.id, None,
        {"entity_start": entity.start, "entity_end": entity.end},
    )


def gen_multichoice(
    adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> TaskExample | None:
    """`shared.keywords` are not changed."""
    if shared is None:
        shared = _shared(adoc, config)
    keywords = shared.keywords
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
        MULTICHOICE, question, entity.surface, adoc.doc.id, tuple(options),
        {"entity_start": entity.start, "entity_end": entity.end},
    )


def gen_completion(
    adoc: AnalyzedDocument, rng, config: TaskConfig = DEFAULT_CONFIG, shared: _Shared | None = None,
) -> TaskExample | None:
    """A sentence cut after its final preposition, drawn uniformly from the
    sentences that read back as ``prefix + " " + answer + "."`` with a
    one-line, non-blank answer.

    Each sentence is tested in place in the body, and only the drawn one
    is sliced.
    """
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
        return None
    span = qualifying[rng.below(len(qualifying))]
    cut = ends[span.index]
    sentence = body[span.start : span.end]
    question = fill(config.template(COMPLETION), title=adoc.doc.title, prefix=sentence[:cut])
    return TaskExample(
        COMPLETION, question, sentence[cut + 1 : -1], adoc.doc.id, None,
        {"sentence_index": span.index, "split_offset": cut},
    )


# kind -> (generator, whether it samples from the kind's rng stream);
# build_suite runs them in this order, which is KIND_ORDER. A generator
# takes (adoc, [rng,] config, shared), where shared is the document's
# _Shared values, or None to build what it reads of them itself.
GENERATORS = {
    MEMORIZATION: (gen_memorization, False),
    SUMMARIZATION: (gen_summarization, False),
    GIST: (gen_gist, False),
    NLI: (gen_nli_pair, True),
    TEACHING: (gen_teaching, False),
    FLASHCARDS: (gen_flashcards, False),
    CLOZE: (gen_cloze, True),
    MULTICHOICE: (gen_multichoice, True),
    COMPLETION: (gen_completion, True),
}

# a copy of the last config build_suite was given, and its plan: a run
# passes one config for every document, so that is resolved once. One
# tuple, read and replaced whole, so threads that race can only resolve a
# config again, never pair one config with another's plan.
_PLAN: tuple = ((), ((), {}))


def _plan(config: TaskConfig) -> tuple[tuple, dict]:
    """The config's (kind, generator, samples, cap) steps, one for each
    enabled kind whose cap is at least 1, in KIND_ORDER, and its zero
    counts. The last config is compared by value, so one whose dicts were
    changed in place is resolved again."""
    global _PLAN
    copy, plan = _PLAN
    if config != copy:
        enabled = config.enabled
        steps = []
        for kind, (generate, samples) in GENERATORS.items():
            cap = config.cap(kind)
            if kind in enabled and cap >= 1:
                steps.append((kind, generate, samples, cap))
        plan = tuple(steps), dict.fromkeys(enabled, 0)
        _PLAN = (enabled, config.option_count, dict(config.multiplicity), dict(config.templates)), plan
    return plan


def build_suite(adoc: AnalyzedDocument, config: TaskConfig = DEFAULT_CONFIG, seed: int = 0) -> TaskSuite:
    """Run every enabled generator in fixed order, honoring skip rules."""
    steps, counts = _plan(config)
    doc_id = adoc.doc.id
    # a kind's stream key is mix_key(seed, doc_id, kind), that is mix_key(doc_key, kind)
    doc_key = mix_key(seed, doc_id)
    shared = _shared(adoc, config)
    examples: list[TaskExample] = []
    counts = counts.copy()
    for kind, generate, samples, cap in steps:
        if samples:
            produced = generate(adoc, Stream(mix_key(doc_key, kind)), config, shared)
        else:
            produced = generate(adoc, config, shared)
        # NLI yields a list; the others one example, or None on a skip
        if produced is None:
            continue
        if type(produced) is list:
            produced = produced[:cap]
            examples += produced
            counts[kind] = len(produced)
        else:
            examples.append(produced)
            counts[kind] = 1
    return TaskSuite(doc_id, tuple(examples), counts)


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
