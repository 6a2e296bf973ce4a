"""Reference oracle: the per-token analysis as it was before the one-pass scanner.

`docstudy.analysis` reads each sentence's tokens once and classifies each
token once. This module keeps the earlier three-pass code: `sentence_tokens`
builds a `Token` per token, `find_prepositions` and `_entity_candidates`
walk those tokens again. It also keeps the date scan with a leading `\\b`
on each pattern, and the greedy resolver over an occupancy map of one byte
per body character. It is kept only to check the library against, the way
the two-row LCS DP is kept beside the bit-parallel kernel. Its rules are
copied, not imported, so a change to a rule in `docstudy.analysis` shows
up as a difference. `entities_in_sentence` and `sentence_of_entity` map
entities and sentences to each other for the tests; no library code needs
them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple

from docstudy.analysis import EntitySpan, load_lexicon, segment_sentences

# one whitespace-delimited token with its punctuation-stripped core
Token = namedtuple("Token", "start end core_start core_end core")

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

_CONNECTORS = {
    "of", "the", "de", "del", "della", "di", "da", "du", "der", "den",
    "van", "von", "la", "le", "les", "los", "las", "dos", "bin", "al",
    "ter", "ten", "zu", "y", "e",
}

_LEAD_PUNCT = "([{<\"'“‘«"
_TRAIL_PUNCT = ")]}>\"'”’»,;:!?"


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


def find_prepositions(sentence: str, lexicon: frozenset[str] | None = None) -> list[int]:
    """Token positions of closed-class prepositions.

    Multiword units ("as well as") match as one unit whose recorded
    position is the final token; their member words are not re-matched.
    """
    lex = frozenset(lexicon) if lexicon is not None else load_lexicon()
    units = sorted((entry.split() for entry in lex if " " in entry), key=len, reverse=True)
    singles = frozenset(entry for entry in lex if " " not in entry)

    forms = [tok.core.lower() for tok in sentence_tokens(sentence)]
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


def date_candidates(body: str) -> list[tuple]:
    """Date (start, end, kind, rank) candidates of a whole body, found by the
    patterns with their leading \\b."""
    return [
        (match.start(), match.end(), "date", 0)
        for pattern in _DATE_PATTERNS
        for match in pattern.finditer(body)
    ]


def occupancy_resolve(body: str, candidates: list[tuple]) -> list[EntitySpan]:
    """The global greedy rule over one occupancy byte per body character."""
    candidates = sorted(candidates, key=lambda c: (-(c[1] - c[0]), c[0], c[3]))
    taken = bytearray(len(body))
    chosen = []
    for start, end, kind, _rank in candidates:
        if taken.find(1, start, end) != -1:
            continue
        taken[start:end] = b"\x01" * (end - start)
        chosen.append((start, end, kind))
    chosen.sort()
    return [EntitySpan(start=s, end=e, surface=body[s:e], kind=k) for s, e, k in chosen]


def quadratic_entities(body: str) -> list[EntitySpan]:
    """The plain global greedy resolver over the old candidates, O(E^2)."""
    if not body.strip():
        return []
    candidates = []
    for span in segment_sentences(body):
        text = body[span.start : span.end]
        candidates.extend(_entity_candidates(text, span.start, sentence_tokens(text)))
    candidates.sort(key=lambda c: (-(c[1] - c[0]), c[0], c[3]))
    chosen, occupied = [], []
    for start, end, kind, _rank in candidates:
        if any(start < e and s < end for s, e in occupied):
            continue
        occupied.append((start, end))
        chosen.append((start, end, kind))
    chosen.sort()
    return [EntitySpan(start=s, end=e, surface=body[s:e], kind=k) for s, e, k in chosen]


def entities_in_sentence(adoc, index: int) -> list[EntitySpan]:
    lo, hi = adoc.entity_range(index)
    return adoc.entities[lo:hi]


def sentence_of_entity(adoc, entity: EntitySpan) -> int | None:
    i = bisect_right(adoc.sentences, entity.start, key=lambda span: span.start) - 1
    if i >= 0 and entity.end <= adoc.sentences[i].end:
        return adoc.sentences[i].index
    return None
