"""Reference n-gram overlap report: tuples of words, a per-match tokeniser,
and one set of every train n-gram. A copy of the code the packed-id report
replaced, not an import, so `docstudy.dataset.overlap_report` and
`docstudy.vocab.tokenize_words` are checked against code they do not share."""

import re

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
