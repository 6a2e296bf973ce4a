import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docstudy.errors import DataError
from docstudy.metrics import (
    LogProbRecord,
    aggregate_ppl,
    build_report,
    lcs_length,
    lcs_length_python,
    normalize_answer,
    rouge_l,
    score_items,
)
from docstudy.vocab import NLI_LABELS

import _metrics_oracle as metrics_oracle


def judge(pred: str, golds=None, gold_label=None):
    """One item scored as `eval` scores it: its judgment and the diagnostics."""
    ref = {key: value for key, value in (("golds", golds), ("gold_label", gold_label)) if value is not None}
    (judgment,), diagnostics = score_items({"item": pred}, {"item": ref})
    return judgment, diagnostics


def overlap(pred: str, golds) -> tuple:
    """(EM, token F1, token recall) of one item, best over its golds."""
    judgment, _ = judge(pred, golds)
    return judgment.em, judgment.f1, judgment.recall


def nli(pred: str, gold_label: str) -> int:
    return judge(pred, gold_label=gold_label)[0].nli_acc


class TestNormalize:
    def test_date_string(self):
        assert normalize_answer("December 12, 1997.") == "december 12 1997"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_article_removal(self):
        assert normalize_answer("The Answer") == "answer"


class TestExactMatch:
    def test_normalization_oracle(self):
        assert judge("december 12 1997", ["December 12, 1997."])[0].em == 1

    def test_identical(self):
        assert judge("same", ["same"])[0].em == 1

    def test_mismatch(self):
        assert judge("1998", ["1997"])[0].em == 0

    def test_empty_golds_error(self):
        with pytest.raises(DataError, match="non-empty 'golds'"):
            judge("x", [])


class TestTokenOverlap:
    def test_hand_computed_f1_and_recall(self):
        _, f1, recall = overlap("born 1946 in texas", ["1946"])
        assert f1 == pytest.approx(0.4)
        assert recall == pytest.approx(1.0)

    def test_identical(self):
        assert overlap("a b c", ["a b c"])[1:] == (1.0, 1.0)

    def test_disjoint(self):
        assert overlap("x y", ["p q"])[1] == 0.0

    def test_empty_vs_empty(self):
        assert overlap("", [""])[1:] == (1.0, 1.0)

    def test_empty_vs_nonempty(self):
        assert overlap("", ["x"])[1] == 0.0
        assert overlap("x", [""])[1] == 0.0

    def test_max_over_golds_never_decreases(self):
        rng = random.Random(2)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        for _ in range(100):
            pred = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            golds = [" ".join(rng.choices(vocab, k=rng.randint(1, 6)))]
            before = overlap(pred, golds)
            golds.append(" ".join(rng.choices(vocab, k=rng.randint(1, 6))))
            after = overlap(pred, golds)
            assert all(b <= a for b, a in zip(before, after))

    def test_dominance_em_le_f1_le_one(self):
        rng = random.Random(3)
        vocab = ["red", "green", "blue", "cyan", "teal"]
        for _ in range(200):
            pred = " ".join(rng.choices(vocab, k=rng.randint(0, 5)))
            golds = [" ".join(rng.choices(vocab, k=rng.randint(1, 5)))]
            em, f1, recall = overlap(pred, golds)
            assert em <= f1 <= 1.0
            assert em <= recall <= 1.0


class TestRougeL:
    def test_hand_computed_example(self):
        assert rouge_l("the cat sat on mat", "the cat on the mat") == pytest.approx(0.8)

    def test_identity(self):
        assert rouge_l("a b c", "a b c") == 1.0

    def test_disjoint(self):
        assert rouge_l("x y", "p q") == 0.0

    def test_empty_cases(self):
        assert rouge_l("", "") == 1.0
        assert rouge_l("", "x") == 0.0
        assert rouge_l("x", "") == 0.0

    def test_symmetry_on_self(self):
        rng = random.Random(4)
        vocab = ["w1", "w2", "w3", "w4"]
        for _ in range(50):
            text = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
            assert rouge_l(text, text) == 1.0


_TOKEN_RUNS = st.integers(0, 200).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)
)


class TestLcsBackends:
    def test_python_reference_values(self):
        assert lcs_length_python([1, 2, 3], [1, 3]) == 2
        assert lcs_length_python([], [1]) == 0

    # a 4-token alphabet gives many repeats; the length is drawn first
    # because plain st.lists rarely exceeds ~30 items, and lengths up to
    # 200 take the match masks well past one 64-bit word
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=_TOKEN_RUNS, b=_TOKEN_RUNS)
    @example(a=[], b=[1, 2])
    @example(a=[0, 1], b=[])
    @example(a=[2] * 130, b=[2] * 200)
    @example(a="the cat and the hat".split(), b="a hat and the cat sat".split())
    def test_bit_parallel_matches_dp(self, a, b):
        assert lcs_length(a, b) == lcs_length_python(a, b)
        assert lcs_length(b, a) == lcs_length(a, b)

    def test_dispatcher_interns_tokens(self):
        assert lcs_length(["a", "b", "a"], ["b", "a"]) == 2


class TestNliAccuracy:
    def test_exact_labels(self):
        assert nli("Yes", "Yes") == 1
        assert nli("It's impossible to say", "Impossible") == 1
        assert nli("No", "No") == 1

    def test_embedded_option(self):
        assert nli("The answer is Yes.", "Yes") == 1

    def test_earliest_option_wins(self):
        pred = "No, it's impossible to say"
        assert [nli(pred, label) for label in NLI_LABELS] == [int(label == "No") for label in NLI_LABELS]

    def test_impossible_alias(self):
        judgment, diagnostics = judge("Impossible", gold_label="Impossible")
        assert judgment.nli_acc == 1
        assert diagnostics == {"unparseable_nli": 0}

    def test_unparseable_counts_diagnostic(self):
        judgment, diagnostics = judge("maybe", gold_label="No")
        assert judgment.nli_acc == 0
        assert diagnostics == {"unparseable_nli": 1}

    def test_unknown_gold_label_rejected(self):
        with pytest.raises(DataError, match="unknown gold label 'Sometimes'"):
            judge("Yes", gold_label="Sometimes")


class TestPerplexity:
    def test_uniform_half(self):
        record = LogProbRecord(doc_id="d", logprobs=[math.log(0.5)] * 2)
        assert aggregate_ppl([record]) == pytest.approx(2.0, abs=0)

    def test_perfect_prediction(self):
        record = LogProbRecord(doc_id="d", logprobs=[0.0, 0.0, 0.0])
        assert aggregate_ppl([record]) == 1.0

    def test_mixed_logprobs(self):
        record = LogProbRecord(doc_id="d", logprobs=[math.log(0.5), math.log(0.25)])
        assert aggregate_ppl([record]) == pytest.approx(2 ** 1.5)

    def test_partition_invariance(self):
        # summed per record and then over the records, these five read
        # 256849276.999719 split after the first value, 256849276.999718 whole
        pinned = [-4.26, -17.88, -16.92, -28.72, -29.04]
        split = [LogProbRecord(doc_id="a", logprobs=pinned[:1]), LogProbRecord(doc_id="b", logprobs=pinned[1:])]
        assert aggregate_ppl(split) == aggregate_ppl([LogProbRecord(doc_id="all", logprobs=pinned)])
        rng = random.Random(7)
        logprobs = [-rng.random() * 5 for _ in range(200)]
        pooled = aggregate_ppl([LogProbRecord(doc_id="all", logprobs=logprobs)])
        for trial in range(50):
            cuts = sorted(rng.sample(range(1, 200), rng.randint(1, 8)))
            parts = []
            prev = 0
            for cut in cuts + [200]:
                parts.append(LogProbRecord(doc_id=f"p{prev}", logprobs=logprobs[prev:cut]))
                prev = cut
            assert aggregate_ppl(parts) == pooled

    def test_positive_logprob_rejected(self):
        with pytest.raises(DataError):
            LogProbRecord(doc_id="d", logprobs=[0.1])

    def test_empty_record_rejected(self):
        with pytest.raises(DataError):
            LogProbRecord(doc_id="d", logprobs=[])

    @pytest.mark.parametrize("value", ["x", None, [-0.1], "-1.5", False, True, b"-1"])
    def test_non_numeric_logprob_rejected(self, value):
        with pytest.raises(DataError, match="non-numeric"):
            LogProbRecord(doc_id="d", logprobs=[-0.2, value])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.integers(-10**400, 10), st.floats(max_value=1.0), st.booleans(), st.text(max_size=3),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 2, -0.0, -(10**400), 10**309, b"-1", None]),
    ), max_size=8))
    def test_same_record_or_message_as_the_oracle(self, logprobs):
        try:
            expected = metrics_oracle.logprob_record("d", logprobs)
        except DataError as exc:
            with pytest.raises(DataError) as caught:
                LogProbRecord("d", logprobs)
            assert str(caught.value) == str(exc)
        else:
            record = LogProbRecord("d", logprobs)
            assert tuple(record) == expected
            assert list(map(type, record.logprobs)) == [float] * len(logprobs)

    def test_int_logprobs_are_floats(self):
        assert LogProbRecord(doc_id="d", logprobs=[-1, 0, -0.5]).logprobs == (-1.0, 0.0, -0.5)

    @pytest.mark.parametrize("logprobs", [[-1000.0], [-1e308, -1e308]], ids=["exp-overflows", "sum-overflows"])
    def test_overflowing_perplexity_rejected(self, logprobs):
        with pytest.raises(DataError, match="too large for a float"):
            aggregate_ppl([LogProbRecord(doc_id="d", logprobs=logprobs)])

    def test_zero_tokens_error(self):
        with pytest.raises(DataError):
            aggregate_ppl([])

    def test_ppl_at_least_one(self):
        rng = random.Random(8)
        for _ in range(20):
            record = LogProbRecord(
                doc_id="d", logprobs=[-rng.random() * 3 for _ in range(rng.randint(1, 9))]
            )
            assert aggregate_ppl([record]) >= 1.0


_REPORT_TEXT = st.lists(st.sampled_from(["yes", "no", "impossible", "alpha", "beta", "the"]), max_size=5).map(" ".join)
# rows of generation-only, NLI-only and both-kinds references: (kind, prediction, gold, gold label)
_REPORT_ROWS = st.lists(
    st.tuples(st.sampled_from(["generation", "nli", "both"]), _REPORT_TEXT, _REPORT_TEXT, st.sampled_from(NLI_LABELS)),
    min_size=1,
    max_size=12,
)


class TestReport:
    def test_two_item_em_mean(self):
        predictions = {"a": "yes", "b": "nope"}
        references = {"a": {"golds": ["yes"]}, "b": {"golds": ["yes"]}}
        judgments, diagnostics = score_items(predictions, references)
        report = build_report(judgments, diagnostics=diagnostics)
        assert report["metrics"]["em"] == 50.0
        assert report["count"] == 2

    def test_all_perfect(self):
        predictions = {"a": "x y", "b": "z"}
        references = {"a": {"golds": ["x y"]}, "b": {"golds": ["z"]}}
        judgments, _ = score_items(predictions, references)
        report = build_report(judgments)
        assert report["metrics"] == {
            "em": 100.0,
            "f1": 100.0,
            "recall": 100.0,
            "rouge_l": 100.0,
        }

    def test_hand_scored_fixture(self, eval_fixture):
        predictions = {r["item_id"]: r["prediction"] for r in eval_fixture["predictions"]}
        references = {r["item_id"]: r for r in eval_fixture["references"]}
        judgments, diagnostics = score_items(predictions, references)
        report = build_report(judgments, diagnostics=diagnostics)
        assert report["metrics"] == eval_fixture["expected_metrics"]
        by_id = {item["item_id"]: item for item in report["items"]}
        for expected in eval_fixture["expected_items"]:
            got = by_id[expected["item_id"]]
            for key in ("em", "f1", "recall", "rouge_l"):
                assert got[key] == pytest.approx(expected[key], abs=1e-6)

    def test_missing_predictions_listed(self):
        with pytest.raises(DataError) as err:
            score_items({"a": "x"}, {"a": {"golds": ["x"]}, "b": {"golds": ["y"]}, "c": {"golds": ["z"]}})
        assert "b" in str(err.value) and "c" in str(err.value)

    def test_empty_judgments_error(self):
        with pytest.raises(DataError):
            build_report([])
        with pytest.raises(DataError, match="no reference items"):
            score_items({"a": "x"}, {})

    def test_each_mean_covers_only_the_items_with_its_gold(self):
        predictions = {"a": "x", "b": "Yes"}
        references = {"a": {"golds": ["x"]}, "b": {"gold_label": "Yes"}}
        judgments, diagnostics = score_items(predictions, references)
        report = build_report(judgments, diagnostics=diagnostics)
        # the NLI-only item b once counted as a wrong answer in the extraction means
        assert report["metrics"] == {"em": 100.0, "f1": 100.0, "recall": 100.0, "rouge_l": 100.0, "nli_acc": 100.0}
        assert report["counts"] == {"em": 1, "f1": 1, "recall": 1, "rouge_l": 1, "nli_acc": 1}
        assert report["count"] == 2
        assert report["items"][1] == {"item_id": "b", "nli_acc": 1}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=_REPORT_ROWS)
    def test_each_mean_and_count_is_over_its_own_items(self, rows):
        predictions, references, expected = {}, {}, {}
        for i, (kind, pred, gold, label) in enumerate(rows):
            item_id = f"i{i:02d}"
            predictions[item_id], references[item_id] = pred, {}
            if kind != "nli":
                references[item_id]["golds"] = [gold]
                em, f1, recall = overlap(pred, [gold])
                scores = {"em": em, "f1": f1, "recall": recall, "rouge_l": rouge_l(pred, gold)}
                for key, value in scores.items():
                    expected.setdefault(key, []).append(value)
            if kind != "generation":
                references[item_id]["gold_label"] = label
                expected.setdefault("nli_acc", []).append(nli(pred, label))
        judgments, diagnostics = score_items(predictions, references)
        report = build_report(judgments, diagnostics=diagnostics)
        assert report["metrics"] == {key: round(100.0 * sum(v) / len(v), 2) for key, v in expected.items()}
        assert report["counts"] == {key: len(v) for key, v in expected.items()}
        assert report["count"] == len(rows)

    def test_em_implies_full_f1_and_recall(self):
        rng = random.Random(10)
        vocab = ["alpha", "beta", "gamma", "the", "a"]
        for _ in range(200):
            pred = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            golds = [" ".join(rng.choices(vocab, k=rng.randint(1, 5)))]
            em, f1, recall = overlap(pred, golds)
            if em == 1:
                assert (f1, recall) == (1.0, 1.0)
