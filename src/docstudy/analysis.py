"""Deterministic text analysis: sentences, entities, prepositions.

Rule-based replacements for statistical taggers so that task generation
is reproducible bit-for-bit. All offsets are Unicode scalar offsets into
the document body, never bytes. ``analyze_document`` is the one entry
point.

Cost contract for ``analyze_document``: the body is segmented once and
the date patterns run once over it, each a prefix scan that sre runs in
C (a match glued to a word character before it is dropped afterwards).
Each sentence is then scanned once (``_scan``): every token is found
with one ``str.find`` and looked up by its text in the lexeme table, a
table of fixed size (see ``_LEXEMES_CAP``) shared by every call, which
keeps the first short token texts the process meets. A token in it was
stripped of its punctuation, lowercased and classified (a capitalised
word, an initial, a connector, a number or none of these) once per
process; any other token is classified at each occurrence. The lexicon
is not in the table: each occurrence's form is tested against the
lexicon passed to the call, so callers may pass different lexicons. The
scan's one record per token feeds both the name-run state machine and
preposition matching, which visit only the tokens the scan marked, and
it is dropped before the next sentence. The E entity candidates are
sorted once, O(E log E), and swept into clusters of candidates that
overlap; a candidate alone in its cluster is kept as it is, and only a
cluster of two or more runs the greedy rule on itself. The rules keep a
cluster to a handful of candidates, whatever the length of the body: at
most a name run, the dates that chain from its last word ("Alice May 12
May 1990"), and the numbers, years and words inside them. Beyond the
lexeme table and the candidates and the sentence, entity and
final-preposition lists it returns, memory is O(longest sentence). The
packaged lexicon and abbreviations are read once per process.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import lru_cache
from importlib import resources
from operator import itemgetter
from pathlib import Path

from .corpus import RawDocument
from .errors import DataError

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October|November|December"
)
# Without a leading \b, which would stop sre from scanning for a literal or
# charset prefix; _date_candidates tests the character before a match instead.
_DATE_PATTERNS = [
    re.compile(rf"(?:{_MONTHS}) \d{{1,2}}(?:, \d{{4}})?\b"),
    re.compile(rf"\d{{1,2}} (?:{_MONTHS}) \d{{4}}\b"),
    re.compile(r"[12]\d{3}\b"),
]
_NUMBER = re.compile(r"\d+(?:[.,]\d+)+|\d+")
_ACRONYM = re.compile(r"[A-Z]{2,6}")
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
    try:
        text = source.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{source}: not UTF-8 ({exc})") from None
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
def _lexicon_split(lexicon: frozenset[str]) -> tuple[dict[str, tuple[list[str], ...]], frozenset[str], frozenset[str]]:
    """(multiword units by first word, longest first; single words; every
    word a match can start with) of a lexicon. Callers must not mutate it."""
    units: dict[str, list[list[str]]] = {}
    for unit in sorted((entry.split() for entry in lexicon if " " in entry), key=len, reverse=True):
        units.setdefault(unit[0], []).append(unit)
    singles = frozenset(entry for entry in lexicon if " " not in entry)
    return {head: tuple(group) for head, group in units.items()}, singles, singles.union(units)


class SentenceSpan(namedtuple("SentenceSpan", "start end index")):
    __slots__ = ()


class EntitySpan(namedtuple("EntitySpan", "start end surface kind")):
    """``surface`` is ``body[start:end]``; ``kind`` is name, date, number, acronym or other."""

    __slots__ = ()


_START, _END = itemgetter(0), itemgetter(1)  # an EntitySpan's start and end


def _is_initial(word: str) -> bool:
    """One ASCII capital and a period, as in "W."."""
    return len(word) == 2 and word[1] == "." and "A" <= word[0] <= "Z"


# the class of a token, set by _scan; an entity may start at a token whose
# class is _CAPWORD or above
_OTHER, _CONNECTOR, _CAPWORD, _INITIAL, _NUMERAL = range(5)
_NAME_PART = (_CAPWORD, _INITIAL)
_JOINER = (_INITIAL, _CONNECTOR)


# The lexemes of the first _LEXEMES_CAP token texts of at most
# _LEXEME_KEY_MAX characters that the process meets, shared by every
# document. A full table stops growing and is never emptied, so a token
# missing from it costs one lookup more than classifying it, never an
# insertion or an eviction. Text meets its most frequent words early: the
# first 256 kept serve 84 to 96% of the token occurrences of perfbench's
# corpora and of tests/_synth.py's, and 32% of the 3.3 million tokens (253k
# distinct) of the docstrings of CPython 3.11's standard library. Full, it
# holds about 50 KB of such text (tracemalloc, about 200 B an entry) and
# 109 KB of 32-character tokens of "İ", whose lowercase is longer, which
# keeps gen-tasks' peak RSS within noise of classifying every occurrence;
# 4,096 entries held 0.8 MB and served 60% of those docstrings' tokens.
# The lexicon is not in it: a lexicon is a per-call argument, and its test
# stays in _scan.
_LEXEMES: dict[str, tuple] = {}
_LEXEMES_CAP = 256
_LEXEME_KEY_MAX = 32


def _scan(text: str, heads: frozenset[str]) -> tuple[list[tuple], list[int], list[int]]:
    """The one pass over a sentence's tokens: each is read once, and each
    token text in the lexeme table was classified once per process.

    Returns ``(tokens, marks, hits)``:
      tokens: one ``(start, end, core_start, core_end, core, form, kind,
        joined)`` tuple per whitespace-delimited token. ``core`` is the
        token with its lead and trail punctuation taken off, ``form`` its
        lowercase, ``kind`` its class, and ``joined`` says that no
        punctuation was taken off either side of its joint with the
        previous token.
      marks: the positions where an entity may start: capitalised words,
        initials and numbers.
      hits: the positions whose form is in ``heads``.
    """
    tokens = []
    marks = []
    hits = []
    end = 0
    bare_end = False
    table = _LEXEMES
    known = table.get
    room = _LEXEMES_CAP - len(table)
    for raw in text.split():
        # only whitespace lies between the previous token and this one
        start = text.find(raw, end)
        end = start + len(raw)
        lexeme = known(raw)
        if lexeme is None:
            # classify the token from its text alone
            kind = _OTHER
            if raw.isalnum():
                # no punctuation to take off, as for most tokens
                lead = 0
                core = raw
            else:
                core = raw.lstrip(_LEAD_PUNCT)
                lead = len(raw) - len(core)
                core = core.rstrip(_TRAIL_PUNCT)
                if core[-1:] == ".":
                    # keep a final period only for initials ("W.") and dotted
                    # abbreviations ("U.S."), strip it from ordinary words
                    if _is_initial(core):
                        kind = _INITIAL
                    elif core.find(".") == len(core) - 1:
                        core = core[:-1]
            form = core.lower()
            if kind == _OTHER:
                first = core[:1]
                if first.isalpha() and first.isupper():
                    kind = _CAPWORD
                elif form in _CONNECTORS:
                    kind = _CONNECTOR
                elif first.isdigit() and _NUMBER.fullmatch(core):
                    kind = _NUMERAL
            core_end = lead + len(core)
            if room > 0 and len(raw) <= _LEXEME_KEY_MAX:
                if form == core:
                    # one string for both, to keep the table small
                    form = core
                table[raw] = (lead, core_end, core, form, kind)
                # read afresh: threads that share the table may each add one
                # entry past the cap, never more, and no result depends on it
                room = _LEXEMES_CAP - len(table)
        else:
            lead, core_end, core, form, kind = lexeme
        if kind >= _CAPWORD:
            marks.append(len(tokens))
        if form in heads:
            hits.append(len(tokens))
        core_end += start
        tokens.append((start, end, start + lead, core_end, core, form, kind, bare_end and not lead))
        bare_end = core_end == end
    return tokens, marks, hits


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
        if _is_initial(word):
            continue
        boundaries.append(end)

    spans = []
    cursor = 0
    boundaries.append(len(body))
    # tuple.__new__ skips the namedtuple's generated __new__, a Python call per span
    new = tuple.__new__
    for end in boundaries:
        chunk = body[cursor:end]
        lead = len(chunk) - len(chunk.lstrip())
        # a chunk of only whitespace is no sentence
        if lead < len(chunk):
            trail = len(chunk) - len(chunk.rstrip())
            spans.append(new(SentenceSpan, (cursor + lead, end - trail, len(spans))))
        cursor = end
    return spans


def _date_candidates(body: str) -> list[tuple]:
    """Date (start, end, kind, rank) candidates of a whole body.

    A date holds no terminal punctuation and every sentence but the last
    ends in one, so no match crosses a sentence boundary, and one pass
    over the body finds what a pass over each sentence would.

    Every pattern starts with a word character, so a leading ``\\b`` holds
    exactly where the character before a match is not one (``\\w`` is
    ``str.isalnum()`` or "_"). A match that fails that test is dropped and
    the scan resumes at its end. That skips no valid match, because none
    can start inside a dropped one. Inside a match, the only word
    characters that follow a character that is not one are:

    - in "May 4, 1990": the digits of the day and the year, and a
      month-first match cannot start with a digit;
    - in "4 May 1990": the month, which a digit-first match cannot start
      with, and the year, where such a match needs a space after one or
      two digits and finds a third digit;
    - in "1990": none.
    """
    candidates = []
    for pattern in _DATE_PATTERNS:
        for match in pattern.finditer(body):
            start, end = match.span()
            if start:
                before = body[start - 1]
                if before.isalnum() or before == "_":
                    continue
            candidates.append((start, end, "date", 0))
    return candidates


def _entity_candidates(offset: int, tokens: list[tuple], marks: list[int]) -> list[tuple]:
    """Name, acronym and number (start, end, kind, rank) candidates of one
    sentence at ``offset``, given its scan."""
    candidates = []
    n = len(tokens)
    resume = 0
    for i in marks:
        _, _, core_start, core_end, core, _, kind, _ = tokens[i]
        if kind == _NUMERAL:
            candidates.append((offset + core_start, offset + core_end, "number", 3))
            continue
        if i < resume:
            continue
        # a run may only cross joined tokens, so "Baseball (MLB)" or
        # "Anderson, George" never merge; connectors ("of", "van", "W.")
        # stay in it only when a capitalised word follows them
        last = i
        j = i + 1
        while j < n and tokens[j][7]:
            if tokens[j][6] in _NAME_PART:
                last = j
                j += 1
            elif tokens[j][6] == _CONNECTOR:
                m = j
                while m < n and tokens[m][7] and tokens[m][6] in _JOINER:
                    m += 1
                if m < n and tokens[m][7] and tokens[m][6] in _NAME_PART:
                    last = m
                    j = m + 1
                else:
                    break
            else:
                break
        resume = j
        # a run needs a word of two or more characters that is not an
        # initial; a run of one word settles that on the word itself
        if last == i:
            # every sentence starts with a capital
            if i and len(core) >= 2 and kind != _INITIAL:
                if _ACRONYM.fullmatch(core):
                    candidates.append((offset + core_start, offset + core_end, "acronym", 1))
                else:
                    candidates.append((offset + core_start, offset + core_end, "name", 2))
        elif any(len(t[4]) >= 2 and t[6] != _INITIAL for t in tokens[i : last + 1]):
            candidates.append((offset + core_start, offset + tokens[last][3], "name", 2))
    return candidates


def _resolve_overlaps(body: str, candidates: list[tuple]) -> list[EntitySpan]:
    """Longest candidate first, then leftmost, then by rank; overlaps dropped.

    A candidate is kept when no candidate kept before it overlaps it, and
    every such candidate lies in its cluster: the candidates that overlap
    it directly or through others. So each cluster is resolved on its own,
    and a candidate that overlaps nothing is kept as it is. ``candidates``
    is used up: sorted, and closed with a sentinel.
    """
    candidates.sort()
    # a sentinel at the end of the body closes the last cluster
    candidates.append((len(body), len(body), "", 0))
    entities = []
    cluster: list[tuple] = []
    reach = 0
    # tuple.__new__ skips the namedtuple's generated __new__, a Python call per entity
    new = tuple.__new__
    for candidate in candidates:
        if candidate[0] < reach:
            cluster.append(candidate)
            if candidate[1] > reach:
                reach = candidate[1]
            continue
        for start, end, kind, _ in _greedy(cluster) if len(cluster) > 1 else cluster:
            entities.append(new(EntitySpan, (start, end, body[start:end], kind)))
        cluster = [candidate]
        reach = candidate[1]
    return entities


def _greedy(cluster: list[tuple]) -> list[tuple]:
    """The candidates the greedy rule keeps in a cluster, in order."""
    kept: list[tuple] = []
    for candidate in sorted(cluster, key=lambda c: (c[0] - c[1], c[0], c[3])):
        for other in kept:
            if candidate[0] < other[1] and other[0] < candidate[1]:
                break
        else:
            kept.append(candidate)
    return sorted(kept)


def _final_preposition(tokens: list[tuple], hits: list[int], units: dict, singles: frozenset[str]) -> int | None:
    """The position of a sentence's last preposition in its scan, or None:
    greedy left-to-right lexicon matching, where a multiword unit ("as well
    as") is one match at its final token and its words are not re-matched."""
    final = None
    free = 0  # tokens before this one belong to a matched unit
    for i in hits:
        if i < free:
            continue
        form = tokens[i][5]
        for unit in units.get(form, ()):
            k = len(unit)
            if [token[5] for token in tokens[i : i + k]] == unit:
                final = i + k - 1
                free = i + k
                break
        else:
            if form in singles:
                final = i
    return final


class AnalyzedDocument(namedtuple("AnalyzedDocument", "doc sentences entities final_preposition_ends")):
    """A document with its sentence and entity spans, and per sentence the
    end offset within the sentence of its final preposition token (None
    without prepositions)."""

    __slots__ = ()

    def entity_range(self, index: int) -> tuple[int, int]:
        """The [lo, hi) slice of ``entities`` inside sentence ``index``.

        Entities are sorted and disjoint, so their ends are sorted too, and
        none crosses a sentence boundary.
        """
        span = self.sentences[index]
        lo = bisect_left(self.entities, span.start, key=_START)
        return lo, bisect_right(self.entities, span.end, lo, key=_END)


def analyze_document(
    doc: RawDocument,
    lexicon: frozenset[str] | None = None,
    abbreviations: frozenset[str] | None = None,
) -> AnalyzedDocument:
    body = doc.body
    lexicon = frozenset(lexicon) if lexicon is not None else load_lexicon()
    units, singles, heads = _lexicon_split(lexicon)
    sentences = segment_sentences(body, abbreviations=abbreviations)
    candidates = _date_candidates(body)
    final_preposition_ends: list[int | None] = []
    # one scan of each sentence feeds its entity candidates and its final
    # preposition; its tokens are dropped before the next sentence
    for span in sentences:
        tokens, marks, hits = _scan(body[span.start : span.end], heads)
        candidates.extend(_entity_candidates(span.start, tokens, marks))
        final = _final_preposition(tokens, hits, units, singles)
        final_preposition_ends.append(None if final is None else tokens[final][1])
    return AnalyzedDocument(doc, sentences, _resolve_overlaps(body, candidates), final_preposition_ends)
