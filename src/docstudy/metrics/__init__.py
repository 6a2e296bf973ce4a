"""Knowledge-acquisition metrics over model output files.

EM/F1/Recall follow the open-QA convention (lowercase, strip punctuation,
drop articles, whitespace-split); Rouge-L keeps articles and uses an
LCS F-measure with equal precision/recall weighting. Perplexity pools
token-level negative log-likelihood over all records.
"""

from __future__ import annotations

import math
import re
import string
import sys
from collections import Counter, namedtuple

from ..errors import DataError
from ..vocab import NLI_LABELS
from ._lcs import lcs_length, lcs_length_python

__all__ = [
    "GenerationJudgment",
    "JudgeUnavailableError",
    "LogProbRecord",
    "MetricReport",
    "aggregate_ppl",
    "build_report",
    "exact_match",
    "judge_accuracy",
    "lcs_length",
    "lcs_length_python",
    "nli_accuracy",
    "normalize_answer",
    "rouge_l",
    "score_items",
    "token_f1",
    "token_recall",
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


def _require_golds(golds) -> list[str]:
    golds = list(golds)
    if not golds:
        raise DataError("at least one gold answer is required")
    return golds


def _gold_tokens(golds) -> list[list[str]]:
    return [_overlap_tokens(gold) for gold in _require_golds(golds)]


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


def exact_match(pred: str, golds) -> int:
    return _overlap_scores(_overlap_tokens(pred), _gold_tokens(golds))[0]


def token_f1(pred: str, golds) -> float:
    return _overlap_scores(_overlap_tokens(pred), _gold_tokens(golds))[1]


def token_recall(pred: str, golds) -> float:
    return _overlap_scores(_overlap_tokens(pred), _gold_tokens(golds))[2]


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


def parse_nli_prediction(pred: str) -> str | None:
    """Map free-form output to one of the three labels, or None.

    When extra words surround an option, the earliest occurrence wins;
    ties prefer the longer option string.
    """
    return _parse_nli_tokens(_overlap_tokens(pred))


def _parse_nli_tokens(tokens: list[str]) -> str | None:
    hits = []
    for label, forms in _LABEL_TOKEN_FORMS.items():
        for form in forms:
            pos = _find_subsequence(tokens, form)
            if pos >= 0:
                hits.append((pos, -len(form), NLI_LABELS.index(label), label))
    if not hits:
        return None
    return min(hits)[3]


def nli_accuracy(pred: str, gold_label: str, diagnostics: dict | None = None) -> int:
    return _nli_score(_overlap_tokens(pred), gold_label, diagnostics)


def _nli_score(pred_tokens: list[str], gold_label: str, diagnostics: dict | None) -> int:
    if gold_label not in NLI_LABELS:
        raise DataError(f"unknown gold label {gold_label!r}")
    parsed = _parse_nli_tokens(pred_tokens)
    if parsed is None:
        if diagnostics is not None:
            diagnostics["unparseable_nli"] = diagnostics.get("unparseable_nli", 0) + 1
        return 0
    return int(parsed == gold_label)


# the largest x for which math.exp(x) is a finite float
_MAX_EXP = math.log(sys.float_info.max)


class LogProbRecord(namedtuple("LogProbRecord", "doc_id logprobs")):
    __slots__ = ()

    def __new__(cls, doc_id: str, logprobs):
        try:
            values = tuple(logprobs)
            # float() also reads a numeric string or a bool, neither a log-probability
            if any(isinstance(x, (str, bytes, bytearray, bool)) for x in values):
                raise TypeError("a string or a bool")
            values = tuple(map(float, values))
        except (TypeError, ValueError) as exc:
            raise DataError(f"logprob record {doc_id!r} has a non-numeric value") from exc
        except OverflowError:  # an int beyond the float range
            raise DataError(f"logprob record {doc_id!r} has a non-finite value") from None
        if not values:
            raise DataError(f"logprob record {doc_id!r} has no tokens")
        if not all(math.isfinite(x) for x in values):
            raise DataError(f"logprob record {doc_id!r} has a non-finite value")
        if any(x > 0 for x in values):
            raise DataError(f"logprob record {doc_id!r} has positive values")
        return tuple.__new__(cls, (doc_id, values))


def aggregate_ppl(records) -> float:
    """exp of pooled mean token NLL; invariant under re-partitioning."""
    records = list(records)
    total = sum(sum(r.logprobs) for r in records)
    count = sum(len(r.logprobs) for r in records)
    if count == 0:
        raise DataError("no tokens to aggregate")
    mean_nll = -total / count
    if mean_nll > _MAX_EXP:
        raise DataError(f"perplexity exp({mean_nll:.6g}) is too large for a float")
    return math.exp(mean_nll)


class JudgeUnavailableError(DataError):
    """The injected entailment judge could not produce a verdict."""


def judge_accuracy(judge, pred: str, gold: str) -> int:
    """1 iff the judge asserts entailment in both directions."""
    if judge is None:
        raise JudgeUnavailableError("no judge supplied")
    try:
        forward = judge(pred, gold)
        backward = judge(gold, pred)
    except JudgeUnavailableError:
        raise
    except Exception as exc:
        raise JudgeUnavailableError(str(exc)) from exc
    return int(bool(forward) and bool(backward))


class GenerationJudgment(
    namedtuple("GenerationJudgment", "item_id em f1 recall rouge_l nli_acc acc", defaults=(None, None))
):
    __slots__ = ()


class MetricReport:
    __slots__ = ("metrics", "count", "items", "ppl", "diagnostics")

    def __init__(self, metrics: dict, count: int, items: list, ppl: float | None = None, diagnostics=None):
        self.metrics = metrics
        self.count = count
        self.items = items
        self.ppl = ppl
        self.diagnostics = {} if diagnostics is None else diagnostics

    def to_dict(self) -> dict:
        out = {
            "metrics": self.metrics,
            "count": self.count,
            "items": self.items,
            "diagnostics": self.diagnostics,
        }
        if self.ppl is not None:
            out["ppl"] = self.ppl
        return out


def score_items(predictions: dict, references: dict, judge=None) -> tuple[list[GenerationJudgment], dict]:
    """Score every reference item; missing predictions are a hard error."""
    missing = sorted(set(references) - set(predictions))
    if missing:
        raise DataError(f"predictions missing for item ids: {', '.join(missing)}")
    diagnostics: dict = {"judge_skipped": 0, "unparseable_nli": 0}
    judgments = []
    for item_id in sorted(references):
        pred = predictions[item_id]
        ref = references[item_id]
        golds = ref.get("golds") or []
        gold_label = ref.get("gold_label")
        # the prediction and each gold are normalised once, for every score
        pred_tokens = _overlap_tokens(pred)
        if golds:
            em, f1, recall = _overlap_scores(pred_tokens, _gold_tokens(golds))
            rouge = max(rouge_l(pred, g) for g in golds)
        else:
            em, f1, recall, rouge = 0, 0.0, 0.0, 0.0
        nli = None
        if gold_label is not None:
            nli = _nli_score(pred_tokens, gold_label, diagnostics)
        acc = None
        if judge is not None and golds:
            try:
                acc = judge_accuracy(judge, pred, golds[0])
            except JudgeUnavailableError:
                diagnostics["judge_skipped"] += 1
        judgments.append(
            GenerationJudgment(
                item_id=item_id,
                em=em,
                f1=f1,
                recall=recall,
                rouge_l=rouge,
                nli_acc=nli,
                acc=acc,
            )
        )
    return judgments, diagnostics


def _percent(values) -> float:
    values = list(values)
    return round(100.0 * sum(values) / len(values), 2)


def build_report(
    judgments, ppl: float | None = None, diagnostics: dict | None = None
) -> MetricReport:
    """Percent means with 2-decimal rendering, items ordered by id."""
    judgments = sorted(judgments, key=lambda j: j.item_id)
    if not judgments:
        raise DataError("cannot build a report from zero judgments")
    metrics = {
        "em": _percent(j.em for j in judgments),
        "f1": _percent(j.f1 for j in judgments),
        "recall": _percent(j.recall for j in judgments),
        "rouge_l": _percent(j.rouge_l for j in judgments),
    }
    nli_values = [j.nli_acc for j in judgments if j.nli_acc is not None]
    if nli_values:
        metrics["nli_acc"] = _percent(nli_values)
    acc_values = [j.acc for j in judgments if j.acc is not None]
    if acc_values:
        metrics["acc"] = _percent(acc_values)
    items = []
    for j in judgments:
        entry = {
            "item_id": j.item_id,
            "em": j.em,
            "f1": round(j.f1, 6),
            "recall": round(j.recall, 6),
            "rouge_l": round(j.rouge_l, 6),
        }
        if j.nli_acc is not None:
            entry["nli_acc"] = j.nli_acc
        if j.acc is not None:
            entry["acc"] = j.acc
        items.append(entry)
    return MetricReport(
        metrics=metrics,
        count=len(judgments),
        items=items,
        ppl=round(ppl, 6) if ppl is not None else None,
        diagnostics=diagnostics or {},
    )
