"""Reference n-gram overlap report: tuples of words, a per-match tokeniser,
and one set of every train n-gram. A copy of the code the packed-id report
replaced, not an import, so `docstudy.dataset.overlap_report` and
`docstudy.vocab.tokenize_words` are checked against code they do not share.

`findall_tokenize_words` and `consecutive_id_report` are the tokeniser and
the packed-id report as they were before the ASCII path scanned
`[a-z0-9]+` and test bodies were packed with `map`: ASCII text scanned
with `[^\\W_]+`, and test words numbered 1, 2, 3, ... in a Python loop.
"""

import re
from array import array
from itertools import repeat

from docstudy.dataset import _grams

_WORD = re.compile(r"[^\W_]+")


def tokenize_words(text: str) -> list[str]:
    return [match.group().lower() for match in _WORD.finditer(text)]


def _ngrams(body: str, n: int) -> set[tuple[str, ...]]:
    words = tokenize_words(body)
    return {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}


def overlap_report(train, test, ngram_size: int = 8) -> dict:
    if ngram_size < 1:
        raise ValueError(f"n-gram size {ngram_size} is not at least 1")
    train_grams: set[tuple[str, ...]] = set()
    for doc in train:
        train_grams |= _ngrams(doc.body, ngram_size)
    shared = []
    for doc in test:
        hits = _ngrams(doc.body, ngram_size) & train_grams
        if hits:
            shared.append({"doc_id": doc.id, "count": len(hits)})
    return {
        "ngram_size": ngram_size,
        "documents_with_overlap": len(shared),
        "details": sorted(shared, key=lambda d: d["doc_id"]),
    }


def findall_tokenize_words(text: str) -> list[str]:
    if text.isascii():
        return _WORD.findall(text.lower())
    return [word.lower() for word in _WORD.findall(text)]


def consecutive_id_report(train, test, ngram_size: int = 8) -> dict:
    ids: dict[str, int] = {}
    step = array("I").itemsize
    width = ngram_size * step
    test_grams = []
    for doc in test:
        words = findall_tokenize_words(doc.body)
        packed = array("I", [ids.setdefault(word, len(ids) + 1) for word in words]).tobytes()
        test_grams.append(set(_grams(packed, width, step)))
    indexed = set().union(*test_grams)
    seen = set()
    for doc in train:
        packed = array("I", map(ids.get, findall_tokenize_words(doc.body), repeat(0))).tobytes()
        seen |= indexed.intersection(_grams(packed, width, step))
    shared = []
    for doc, grams in zip(test, test_grams):
        if grams & seen:
            shared.append({"doc_id": doc.id, "count": len(grams & seen)})
    return {
        "ngram_size": ngram_size,
        "documents_with_overlap": len(shared),
        "details": sorted(shared, key=lambda d: d["doc_id"]),
    }
