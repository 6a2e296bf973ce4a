"""Descriptive statistics over corpora, QA files, and task suites."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .vocab import NLI_LABELS, TASK_NLI, tokenize_words

if TYPE_CHECKING:
    from .qapairs import QAPair


def _mean(total: int, count: int) -> float:
    return round(total / count, 2) if count else 0.0


def corpus_stats(name: str, docs, qa_pairs: list[QAPair] | None = None) -> dict:
    """Counts, word-length means, and the NLI answer-label distribution.

    Lengths are whitespace-word counts, not model-tokenizer counts. `docs`
    is read once, one document at a time, so an iterator holds no corpus.
    """
    count = words = 0
    for doc in docs:
        count += 1
        words += len(tokenize_words(doc.body))
    stats: dict = {"name": name, "docs": count, "doc_words_mean": _mean(words, count)}
    if qa_pairs is not None:
        generation = [p for p in qa_pairs if p.task != TASK_NLI]
        nli = [p for p in qa_pairs if p.task == TASK_NLI]
        stats["qa_pairs"] = len(qa_pairs)
        stats["question_words_mean"] = _mean(
            sum(len(tokenize_words(p.question)) for p in qa_pairs), len(qa_pairs)
        )
        stats["answer_words_mean"] = _mean(
            sum(len(tokenize_words(p.answer)) for p in generation), len(generation)
        )
        if nli:
            total = len(nli)
            dist = {}
            for label in NLI_LABELS:
                hits = sum(1 for p in nli if p.answer_label == label)
                dist[label] = round(100.0 * hits / total, 2)
            stats["nli_pairs"] = total
            stats["nli_label_distribution"] = dist
    return stats


def suite_stats(counts: dict) -> dict:
    """Example total and per-kind percentages from per-kind example counts."""
    total = sum(counts.values())
    percent = {
        kind: round(100.0 * value / total, 2) if total else 0.0
        for kind, value in counts.items()
    }
    return {"examples": total, "counts": counts, "percent": percent}
