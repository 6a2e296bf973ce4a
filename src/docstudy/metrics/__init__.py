"""Knowledge-acquisition metrics over model output files.

EM/F1/Recall follow the open-QA convention (lowercase, strip punctuation,
drop articles, whitespace-split); Rouge-L keeps articles and uses an
LCS F-measure with equal precision/recall weighting. Perplexity pools
token-level negative log-likelihood over all records. A report's mean of
each score covers only the items that carry its gold. Reports come from
``score_items`` and ``build_report``.
"""

from __future__ import annotations

import math
import re
import string
import sys
from collections import Counter, namedtuple
from itertools import repeat

from ..errors import DataError
from ..vocab import NLI_LABELS
from ._lcs import lcs_length, lcs_length_python

__all__ = [
    "GenerationJudgment",
    "LogProbRecord",
    "aggregate_ppl",
    "build_report",
    "check_reference",
    "lcs_length",
    "lcs_length_python",
    "normalize_answer",
    "rouge_l",
    "score_items",
]

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    text = text.lower().translate(_PUNCT_TABLE)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def _overlap_tokens(text: str) -> list[str]:
    return normalize_answer(text).split()


def _rouge_tokens(text: str) -> list[str]:
    # articles stay: Rouge-L measures sequence overlap, not answer identity
    return " ".join(text.lower().translate(_PUNCT_TABLE).split()).split()


def _precision_recall(pred_tokens, gold_tokens) -> tuple[float, float]:
    if not pred_tokens and not gold_tokens:
        return 1.0, 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0, 0.0
    common = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    return common / len(pred_tokens), common / len(gold_tokens)


def _overlap_scores(pred_tokens: list[str], gold_tokens: list[list[str]]) -> tuple[int, float, float]:
    """(EM, token F1, token recall) of normalised tokens, best over the golds.

    Normalised answers are equal exactly when their tokens are, because
    normalising joins the tokens with single spaces.
    """
    em, f1, best_recall = 0, 0.0, 0.0
    for tokens in gold_tokens:
        em = em or int(pred_tokens == tokens)
        precision, recall = _precision_recall(pred_tokens, tokens)
        if precision + recall:
            f1 = max(f1, 2 * precision * recall / (precision + recall))
        best_recall = max(best_recall, recall)
    return em, f1, best_recall


def rouge_l(pred: str, gold: str) -> float:
    """LCS F-measure with beta = 1: F = 2PR / (P + R)."""
    pred_tokens = _rouge_tokens(pred)
    gold_tokens = _rouge_tokens(gold)
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    lcs = lcs_length(pred_tokens, gold_tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(pred_tokens)
    recall = lcs / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


_LABEL_TOKEN_FORMS = {
    "Yes": (("yes",),),
    "No": (("no",),),
    "Impossible": (("its", "impossible", "to", "say"), ("impossible",)),
}


def _find_subsequence(haystack: list[str], needle: tuple[str, ...]) -> int:
    k = len(needle)
    for i in range(len(haystack) - k + 1):
        if tuple(haystack[i : i + k]) == needle:
            return i
    return -1


def _parse_nli_tokens(tokens: list[str]) -> str | None:
    """Map normalised free-form output to one of the three labels, or None.

    When extra words surround an option, the earliest occurrence wins;
    ties prefer the longer option string.
    """
    hits = []
    for label, forms in _LABEL_TOKEN_FORMS.items():
        for form in forms:
            pos = _find_subsequence(tokens, form)
            if pos >= 0:
                hits.append((pos, -len(form), NLI_LABELS.index(label), label))
    if not hits:
        return None
    return min(hits)[3]


# the largest x for which math.exp(x) is a finite float
_MAX_EXP = math.log(sys.float_info.max)


_NOT_LOGPROBS = (str, bytes, bytearray, bool)


class LogProbRecord(namedtuple("LogProbRecord", "doc_id logprobs")):
    __slots__ = ()

    def __new__(cls, doc_id: str, logprobs):
        # each check is one map over a builtin, so it runs in C
        try:
            values = tuple(logprobs)
            # float() also reads a numeric string or a bool, neither a log-probability
            if any(map(isinstance, values, repeat(_NOT_LOGPROBS))):
                raise TypeError("a string or a bool")
            values = tuple(map(float, values))
        except (TypeError, ValueError) as exc:
            raise DataError(f"logprob record {doc_id!r} has a non-numeric value") from exc
        except OverflowError:  # an int beyond the float range
            raise DataError(f"logprob record {doc_id!r} has a non-finite value") from None
        if not values:
            raise DataError(f"logprob record {doc_id!r} has no tokens")
        if not all(map(math.isfinite, values)):
            raise DataError(f"logprob record {doc_id!r} has a non-finite value")
        if max(values) > 0:
            raise DataError(f"logprob record {doc_id!r} has positive values")
        return tuple.__new__(cls, (doc_id, values))


def aggregate_ppl(records) -> float:
    """exp of pooled mean token NLL; invariant under re-partitioning.

    The pooled sum is ``math.fsum`` over every value, exactly rounded, so
    neither how the values are split into records nor their order can
    change a bit of it.
    """
    records = list(records)
    try:
        total = math.fsum(x for r in records for x in r.logprobs)
    except OverflowError:  # the exact sum is past the float range: -inf, as plain addition gives
        total = -math.inf
    count = sum(len(r.logprobs) for r in records)
    if count == 0:
        raise DataError("no tokens to aggregate")
    mean_nll = -total / count
    if mean_nll > _MAX_EXP:
        raise DataError(f"perplexity exp({mean_nll:.6g}) is too large for a float")
    return math.exp(mean_nll)


class GenerationJudgment(namedtuple("GenerationJudgment", "item_id em f1 recall rouge_l nli_acc")):
    """One item's scores; a score whose gold the item lacks is None."""

    __slots__ = ()


def check_reference(ref: dict) -> None:
    """Raise DataError unless `ref` carries a gold: a non-empty `golds`, or
    a `gold_label` from NLI_LABELS. A `gold_label` outside them is refused."""
    gold_label = ref.get("gold_label")
    if gold_label is not None and gold_label not in NLI_LABELS:
        raise DataError(f"unknown gold label {gold_label!r}")
    if not ref.get("golds") and gold_label is None:
        raise DataError("a reference needs a non-empty 'golds' or a 'gold_label'")


def score_items(predictions: dict, references: dict) -> tuple[list[GenerationJudgment], dict]:
    """Score every reference item; missing predictions are a hard error."""
    if not references:
        raise DataError("no reference items to score")
    missing = sorted(set(references) - set(predictions))
    if missing:
        raise DataError(f"predictions missing for item ids: {', '.join(missing)}")
    diagnostics: dict = {"unparseable_nli": 0}
    judgments = []
    for item_id in sorted(references):
        pred = predictions[item_id]
        ref = references[item_id]
        check_reference(ref)
        golds = ref.get("golds")
        gold_label = ref.get("gold_label")
        # the prediction and each gold are normalised once, for every score
        pred_tokens = _overlap_tokens(pred)
        em = f1 = recall = rouge = nli = None
        if golds:
            em, f1, recall = _overlap_scores(pred_tokens, [_overlap_tokens(gold) for gold in golds])
            rouge = max(rouge_l(pred, g) for g in golds)
        if gold_label is not None:
            parsed = _parse_nli_tokens(pred_tokens)
            if parsed is None:
                diagnostics["unparseable_nli"] += 1
            nli = int(parsed == gold_label)
        judgments.append(GenerationJudgment(item_id, em, f1, recall, rouge, nli))
    return judgments, diagnostics


_METRICS = GenerationJudgment._fields[1:]  # every score: all fields but item_id


def build_report(judgments, ppl: float | None = None, diagnostics: dict | None = None) -> dict:
    """The eval report: each metric's percent mean (2 decimals) over the items
    that carry its gold, with that item count, and the items ordered by id."""
    judgments = sorted(judgments, key=lambda j: j.item_id)
    if not judgments and ppl is None:
        raise DataError("cannot build a report from zero judgments")
    scores: dict = {key: [] for key in _METRICS}
    items = []
    for j in judgments:
        entry = {"item_id": j.item_id}
        for key in _METRICS:
            value = getattr(j, key)
            if value is not None:
                scores[key].append(value)
                entry[key] = round(value, 6)  # an int score stays an int
        items.append(entry)
    report = {
        "metrics": {key: round(100.0 * sum(v) / len(v), 2) for key, v in scores.items() if v},
        "counts": {key: len(v) for key, v in scores.items() if v},
        "count": len(judgments),
        "items": items,
        "diagnostics": diagnostics or {},
    }
    if ppl is not None:
        report["ppl"] = round(ppl, 6)
    return report
