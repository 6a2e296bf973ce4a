"""Deterministic text analysis: sentences, entities, prepositions, words.

Rule-based replacements for statistical taggers so that task generation
is reproducible bit-for-bit. All offsets are Unicode scalar offsets into
the document body, never bytes.

Cost contract for ``analyze_document``: the body is segmented once and
each sentence is tokenized once; those tokens feed both entity candidates
and preposition detection and are dropped before the next sentence.
Overlapping entity candidates are resolved greedily against an occupancy
map of one byte per body character: O(E log E) to sort E candidates plus
O(n) character tests for a body of n characters, whatever the sentence
structure. Beyond that map and the sentence, entity and preposition lists
it returns, memory is O(longest sentence). The packaged lexicon and
abbreviations are read once per process.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .corpus import RawDocument

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October|November|December"
)
_DATE_PATTERNS = [
    re.compile(rf"\b(?:{_MONTHS}) \d{{1,2}}(?:, \d{{4}})?\b"),
    re.compile(rf"\b\d{{1,2}} (?:{_MONTHS}) \d{{4}}\b"),
    re.compile(r"\b[12]\d{3}\b"),
]
_NUMBER = re.compile(r"\d+(?:[.,]\d+)+|\d+")
_ACRONYM = re.compile(r"[A-Z]{2,6}")
_INITIAL = re.compile(r"[A-Z]\.")
_WORD = re.compile(r"[^\W_]+")
_TERMINAL = re.compile(r"[.?!]+")
_NEXT_AFTER_SPACE = re.compile(r"\s+(\S)")
_SPLIT_TRIGGER = "\"'“‘([0123456789"

_CONNECTORS = {
    "of", "the", "de", "del", "della", "di", "da", "du", "der", "den",
    "van", "von", "la", "le", "les", "los", "las", "dos", "bin", "al",
    "ter", "ten", "zu", "y", "e",
}

_LEAD_PUNCT = "([{<\"'“‘«"
_TRAIL_PUNCT = ")]}>\"'”’»,;:!?"


def _word_list(source) -> tuple[str, ...]:
    """Non-blank stripped lines of a file or a packaged data file."""
    text = source.read_text("utf-8")
    return tuple(line.strip() for line in text.split("\n") if line.strip())


@lru_cache(maxsize=None)
def _packaged_lexicon() -> frozenset[str]:
    words = _word_list(resources.files("docstudy") / "data" / "prepositions.txt")
    return frozenset(entry.lower() for entry in words)


@lru_cache(maxsize=None)
def _packaged_abbreviations() -> frozenset[str]:
    return frozenset(_word_list(resources.files("docstudy") / "data" / "abbreviations.txt"))


def load_lexicon(path=None) -> frozenset[str]:
    """Preposition lexicon; single words plus multiword units like 'as well as'.

    Without a path, the packaged lexicon: one frozenset shared per process.
    """
    if path is None:
        return _packaged_lexicon()
    return frozenset(entry.lower() for entry in _word_list(Path(path)))


def load_abbreviations(path=None) -> frozenset[str]:
    if path is None:
        return _packaged_abbreviations()
    return frozenset(_word_list(Path(path)))


@lru_cache(maxsize=8)
def _lowered(entries: frozenset[str]) -> frozenset[str]:
    return frozenset(entry.lower() for entry in entries)


@lru_cache(maxsize=8)
def _lexicon_split(lexicon: frozenset[str]) -> tuple[tuple[list[str], ...], frozenset[str]]:
    """(multiword units longest first, single words) of a lexicon; callers
    must not mutate the unit lists."""
    units = sorted((entry.split() for entry in lexicon if " " in entry), key=len, reverse=True)
    return tuple(units), frozenset(entry for entry in lexicon if " " not in entry)


@dataclass(frozen=True)
class SentenceSpan:
    start: int
    end: int
    index: int


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int
    surface: str
    kind: str  # name | date | number | acronym | other


@dataclass(frozen=True)
class Token:
    """One whitespace-delimited token with its punctuation-stripped core."""

    start: int
    end: int
    core_start: int
    core_end: int
    core: str


def sentence_tokens(text: str) -> list[Token]:
    tokens = []
    for match in re.finditer(r"\S+", text):
        raw = match.group()
        lead = 0
        while lead < len(raw) and raw[lead] in _LEAD_PUNCT:
            lead += 1
        trail = len(raw)
        while trail > lead and raw[trail - 1] in _TRAIL_PUNCT:
            trail -= 1
        core = raw[lead:trail]
        # keep a final period only for initials ("W.") and dotted
        # abbreviations ("U.S."), strip it from ordinary words
        while core.endswith(".") and not (_INITIAL.fullmatch(core) or "." in core[:-1]):
            core = core[:-1]
            trail -= 1
        tokens.append(
            Token(
                start=match.start(),
                end=match.end(),
                core_start=match.start() + lead,
                core_end=match.start() + trail,
                core=core,
            )
        )
    return tokens


def segment_sentences(body: str, abbreviations: frozenset[str] | None = None) -> list[SentenceSpan]:
    """Split on terminal punctuation followed by a new-sentence trigger.

    Protected: listed abbreviations, single-capital initials, and any
    candidate inside an open parenthesis. A body without terminal
    punctuation yields a single span.
    """
    if not body.strip():
        return []
    abbrevs = frozenset(abbreviations) if abbreviations is not None else load_abbreviations()
    abbrevs_lower = _lowered(abbrevs)

    boundaries = []
    depth = 0
    pos = 0
    for match in _TERMINAL.finditer(body):
        depth += body.count("(", pos, match.start()) - body.count(")", pos, match.start())
        pos = match.start()
        end = match.end()
        after = _NEXT_AFTER_SPACE.match(body, end)
        if after is None:
            continue  # end of text, or no whitespace after the punctuation
        nxt = after.group(1)
        if not (nxt.isupper() or nxt in _SPLIT_TRIGGER):
            continue
        if depth > 0:
            continue
        word_start = match.start()
        while word_start > 0 and not body[word_start - 1].isspace():
            word_start -= 1
        word = body[word_start:end]
        if word in abbrevs or word.lower() in abbrevs_lower:
            continue
        if _INITIAL.fullmatch(word):
            continue
        boundaries.append(end)

    spans = []
    cursor = 0
    for end in boundaries + [len(body)]:
        chunk = body[cursor:end]
        lead = len(chunk) - len(chunk.lstrip())
        trail = len(chunk) - len(chunk.rstrip())
        if chunk.strip():
            spans.append(
                SentenceSpan(start=cursor + lead, end=end - trail, index=len(spans))
            )
        cursor = end
    return spans


def _entity_candidates(
    text: str, offset: int, tokens: list[Token], sentence_initial_token: int = 0
):
    """Candidate (start, end, kind, rank) tuples for one sentence, given its tokens."""
    candidates = []
    for pattern in _DATE_PATTERNS:
        for match in pattern.finditer(text):
            candidates.append((offset + match.start(), offset + match.end(), "date", 0))

    def is_capword(tok: Token) -> bool:
        return bool(tok.core) and tok.core[0].isalpha() and tok.core[0].isupper() and not _INITIAL.fullmatch(tok.core)

    def is_initial(tok: Token) -> bool:
        return bool(_INITIAL.fullmatch(tok.core))

    def is_connector(tok: Token) -> bool:
        return tok.core.lower() in _CONNECTORS or is_initial(tok)

    n = len(tokens)
    # a run may only cross token joints with no stripped punctuation,
    # so "Baseball (MLB)" or "Anderson, George" never merge
    flows = [False] * n
    for j in range(1, n):
        flows[j] = (
            tokens[j - 1].core_end == tokens[j - 1].end
            and tokens[j].core_start == tokens[j].start
        )

    i = 0
    while i < n:
        tok = tokens[i]
        if is_capword(tok) or is_initial(tok):
            last = i
            j = i + 1
            while j < n and flows[j]:
                if is_capword(tokens[j]) or is_initial(tokens[j]):
                    last = j
                    j += 1
                elif is_connector(tokens[j]):
                    m = j
                    while m < n and flows[m] and is_connector(tokens[m]) and not is_capword(tokens[m]):
                        m += 1
                    if m < n and flows[m] and (is_capword(tokens[m]) or is_initial(tokens[m])):
                        last = m
                        j = m + 1
                    else:
                        break
                else:
                    break
            run = tokens[i : last + 1]
            has_word = any(
                len(t.core) >= 2 and not _INITIAL.fullmatch(t.core) for t in run
            )
            single = len(run) == 1
            forced_initial = i == sentence_initial_token and single
            if has_word and not forced_initial:
                start = run[0].core_start
                end = run[-1].core_end
                if single and _ACRONYM.fullmatch(run[0].core):
                    candidates.append((offset + start, offset + end, "acronym", 1))
                else:
                    candidates.append((offset + start, offset + end, "name", 2))
            i = j
        else:
            i += 1

    for tok in tokens:
        if _NUMBER.fullmatch(tok.core):
            candidates.append((offset + tok.core_start, offset + tok.core_end, "number", 3))
    return candidates


def extract_entities(
    body: str,
    abbreviations: frozenset[str] | None = None,
    sentences: Iterable[tuple[SentenceSpan, list[Token]]] | None = None,
) -> list[EntitySpan]:
    """Entities per fixed rules; overlaps resolved longest-match, then leftmost.

    A caller that has already segmented and tokenized ``body`` passes
    ``sentences``: an iterable of ``(span, tokens)`` pairs, one per
    ``segment_sentences`` span with that sentence's ``sentence_tokens``. It
    is read once, in order, so it may be a generator.
    """
    if not body.strip():
        return []
    if sentences is None:
        sentences = (
            (span, sentence_tokens(body[span.start : span.end]))
            for span in segment_sentences(body, abbreviations=abbreviations)
        )
    candidates = []
    for span, tokens in sentences:
        candidates.extend(_entity_candidates(body[span.start : span.end], span.start, tokens))

    candidates.sort(key=lambda c: (-(c[1] - c[0]), c[0], c[3]))
    # taken[i] is 1 where a chosen entity covers body[i]. Candidates of one
    # rule never overlap each other, so testing them all scans O(len(body))
    # characters in total.
    taken = bytearray(len(body))
    chosen: list[tuple[int, int, str]] = []
    for start, end, kind, _rank in candidates:
        if taken.find(1, start, end) != -1:
            continue
        taken[start:end] = b"\x01" * (end - start)
        chosen.append((start, end, kind))
    chosen.sort()
    return [
        EntitySpan(start=s, end=e, surface=body[s:e], kind=k) for s, e, k in chosen
    ]


def find_prepositions(
    sentence: str, lexicon: frozenset[str] | None = None, tokens: list[Token] | None = None
) -> list[int]:
    """Token positions of closed-class prepositions.

    Multiword units ("as well as") match as one unit whose recorded
    position is the final token; their member words are not re-matched.
    ``tokens`` skips re-tokenizing when the caller has ``sentence_tokens(sentence)``.
    """
    lex = frozenset(lexicon) if lexicon is not None else load_lexicon()
    units, singles = _lexicon_split(lex)

    if tokens is None:
        tokens = sentence_tokens(sentence)
    forms = [tok.core.lower() for tok in tokens]
    positions = []
    i = 0
    while i < len(forms):
        matched = False
        for unit in units:
            k = len(unit)
            if forms[i : i + k] == unit:
                positions.append(i + k - 1)
                i += k
                matched = True
                break
        if matched:
            continue
        if forms[i] in singles:
            positions.append(i)
        i += 1
    return positions


def tokenize_words(text: str) -> list[str]:
    """Lowercase word tokens: letters and digits kept, punctuation dropped."""
    return [match.group().lower() for match in _WORD.finditer(text)]


@dataclass(frozen=True)
class AnalyzedDocument:
    doc: RawDocument
    sentences: list[SentenceSpan] = field(default_factory=list)
    entities: list[EntitySpan] = field(default_factory=list)
    prepositions: list[list[int]] = field(default_factory=list)
    # per sentence: the end offset within the sentence of its final
    # preposition token, or None without prepositions
    final_preposition_ends: list[int | None] = field(default_factory=list)

    def entity_range(self, index: int) -> tuple[int, int]:
        """The [lo, hi) slice of ``entities`` inside sentence ``index``.

        Entities are sorted and disjoint, so their ends are sorted too, and
        none crosses a sentence boundary.
        """
        span = self.sentences[index]
        lo = bisect_left(self.entities, span.start, key=lambda e: e.start)
        return lo, bisect_right(self.entities, span.end, lo, key=lambda e: e.end)

    def entities_in_sentence(self, index: int) -> list[EntitySpan]:
        lo, hi = self.entity_range(index)
        return self.entities[lo:hi]

    def sentence_of_entity(self, entity: EntitySpan) -> int | None:
        i = bisect_right(self.sentences, entity.start, key=lambda span: span.start) - 1
        if i >= 0 and entity.end <= self.sentences[i].end:
            return self.sentences[i].index
        return None


def analyze_document(
    doc: RawDocument,
    lexicon: frozenset[str] | None = None,
    abbreviations: frozenset[str] | None = None,
) -> AnalyzedDocument:
    body = doc.body
    lexicon = lexicon if lexicon is not None else load_lexicon()
    sentences = segment_sentences(body, abbreviations=abbreviations)
    prepositions: list[list[int]] = []
    final_preposition_ends: list[int | None] = []

    def tokenized():
        # the one tokenization of each sentence: its prepositions are read
        # here and its tokens handed to extract_entities, then dropped
        for span in sentences:
            text = body[span.start : span.end]
            tokens = sentence_tokens(text)
            positions = find_prepositions(text, lexicon=lexicon, tokens=tokens)
            prepositions.append(positions)
            final_preposition_ends.append(tokens[positions[-1]].end if positions else None)
            yield span, tokens

    entities = extract_entities(body, sentences=tokenized())
    return AnalyzedDocument(
        doc=doc,
        sentences=sentences,
        entities=entities,
        prepositions=prepositions,
        final_preposition_ends=final_preposition_ends,
    )
