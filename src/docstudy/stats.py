"""Descriptive statistics over corpora, QA files, and task suites."""

from __future__ import annotations

from collections import Counter

from .vocab import NLI_LABELS, TASK_NLI, tokenize_words


def _mean(total: int, count: int) -> float:
    return round(total / count, 2) if count else 0.0


def corpus_stats(name: str, docs, qa_pairs=None) -> dict:
    """Counts, word-length means, and the NLI answer-label distribution.

    Lengths are whitespace-word counts, not model-tokenizer counts. `docs`
    and then `qa_pairs` (an iterable of `QAPair`s, or None for no QA
    statistics) are each read once, one item at a time, so iterators hold
    neither the corpus nor the pairs.
    """
    count = words = 0
    for doc in docs:
        count += 1
        words += len(tokenize_words(doc.body))
    stats: dict = {"name": name, "docs": count, "doc_words_mean": _mean(words, count)}
    if qa_pairs is not None:
        pairs = question_words = generation = answer_words = 0
        labels = Counter()  # NLI pairs by answer label
        for pair in qa_pairs:
            pairs += 1
            question_words += len(tokenize_words(pair.question))
            if pair.task == TASK_NLI:
                labels[pair.answer_label] += 1
            else:
                generation += 1
                answer_words += len(tokenize_words(pair.answer))
        stats["qa_pairs"] = pairs
        stats["question_words_mean"] = _mean(question_words, pairs)
        stats["answer_words_mean"] = _mean(answer_words, generation)
        nli = pairs - generation
        if nli:
            stats["nli_pairs"] = nli
            stats["nli_label_distribution"] = {label: round(100.0 * labels[label] / nli, 2) for label in NLI_LABELS}
    return stats


def suite_stats(counts: dict) -> dict:
    """Example total and per-kind percentages from per-kind example counts."""
    total = sum(counts.values())
    percent = {
        kind: round(100.0 * value / total, 2) if total else 0.0
        for kind, value in counts.items()
    }
    return {"examples": total, "counts": counts, "percent": percent}
