import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA, ROBERT_BODY, ROBERT_TITLE
from docstudy import analysis
from docstudy.analysis import analyze_document
from docstudy.cli import main
from docstudy.corpus import RawDocument, document_from_record
from docstudy.errors import DataError
from docstudy.rng import stream_for
from docstudy import dataset, jsonio, rng, taskgen, vocab
from docstudy.taskgen import (
    KIND_ORDER,
    TEMPLATES,
    TaskConfig,
    build_suite,
    format_reading_comprehension,
    gen_cloze,
    gen_completion,
    gen_flashcards,
    gen_gist,
    gen_memorization,
    gen_multichoice,
    gen_nli_pair,
    gen_summarization,
    gen_teaching,
)

import _analysis_oracle as analysis_oracle
import _taskgen_oracle as oracle
from _synth import long_record, synthetic_records, write_jsonl
from test_analysis import BODIES

ROBERT_DOC_TEXT = f"<{ROBERT_TITLE} - Wikipedia> {ROBERT_BODY}"
GIST_ANSWER = (
    "Robert Alexander Anderson; 1946; American; George W. Bush; "
    "Alan Greenspan; United States"
)


def _adoc(body, title="T", doc_id="d1"):
    return analyze_document(RawDocument(id=doc_id, title=title, body=body))


def _ctx(adoc, seed=0, config=taskgen.DEFAULT_CONFIG):
    """The document context build_suite hands each generator."""
    return taskgen.suite_plan(config).context(adoc, seed)


def synth_adocs(n, seed=0):
    return [
        analyze_document(document_from_record(r)) for r in synthetic_records(n, seed=seed)
    ]


class TestFixtureRendering:
    def test_memorization_text(self, robert_adoc):
        [example] = gen_memorization(_ctx(robert_adoc), TEMPLATES["memorization"])
        assert example.answer == ROBERT_DOC_TEXT
        assert example.question == ""
        assert vocab.loss_policy(example.kind) == "full_sequence"

    def test_memorization_trivial_template(self):
        [example] = gen_memorization(_ctx(_adoc("B.", title="T")), TEMPLATES["memorization"])
        assert example.answer == "<T - Wikipedia> B."

    def test_summarization(self, robert_adoc):
        [example] = gen_summarization(_ctx(robert_adoc), TEMPLATES["summarization"])
        assert example.question == f"Write a title: {ROBERT_DOC_TEXT}"
        assert example.answer == ROBERT_TITLE

    def test_summarization_answer_depends_only_on_title(self):
        [a] = gen_summarization(_ctx(_adoc("Same body.", title="A")), TEMPLATES["summarization"])
        [b] = gen_summarization(_ctx(_adoc("Same body.", title="B")), TEMPLATES["summarization"])
        assert a.answer == "A" and b.answer == "B"

    def test_gist_answer(self, robert_adoc):
        [example] = gen_gist(_ctx(robert_adoc), TEMPLATES["gist"])
        assert example.answer == GIST_ANSWER
        assert example.question == (
            f"Highlight the key information within the article: {ROBERT_DOC_TEXT}"
        )

    def test_gist_single_entity(self):
        [example] = gen_gist(_ctx(_adoc("it happened in 1946 again")), TEMPLATES["gist"])
        assert example.answer == "1946"

    def test_gist_skip_without_entities(self):
        assert gen_gist(_ctx(_adoc("nothing to see here")), TEMPLATES["gist"]) == []

    def test_teaching(self, robert_adoc):
        [example] = gen_teaching(_ctx(robert_adoc), TEMPLATES["teaching"])
        assert example.question == "Tell me about Robert Anderson (artist)."
        assert example.answer == ROBERT_BODY

    def test_teaching_answer_is_body_over_corpus(self):
        for adoc in synth_adocs(100, seed=23):
            [example] = gen_teaching(_ctx(adoc), TEMPLATES["teaching"])
            [memorization] = gen_memorization(_ctx(adoc), TEMPLATES["memorization"])
            header = f"<{adoc.doc.title} - Wikipedia> "
            assert example.answer == adoc.doc.body
            assert memorization.answer == header + example.answer

    def test_flashcards(self, robert_adoc):
        [example] = gen_flashcards(_ctx(robert_adoc), TEMPLATES["flashcards"])
        assert example.question == (
            "Generate a concrete description about Robert Anderson (artist) "
            f"based on the following keywords:\n{GIST_ANSWER}"
        )
        assert example.answer == ROBERT_BODY

    def test_flashcards_keywords_equal_gist_answer(self):
        for adoc in synth_adocs(60, seed=29):
            [gist] = gen_gist(_ctx(adoc), TEMPLATES["gist"])
            [flash] = gen_flashcards(_ctx(adoc), TEMPLATES["flashcards"])
            assert flash.question.endswith("\n" + gist.answer)

    def test_flashcards_skip_without_entities(self):
        assert gen_flashcards(_ctx(_adoc("no names at all")), TEMPLATES["flashcards"]) == []


class TestNli:
    def test_single_sentence_doc_yields_true_only(self, robert_adoc):
        examples = gen_nli_pair(_ctx(robert_adoc, 0), TEMPLATES["nli"])
        assert len(examples) == 1
        example = examples[0]
        assert example.answer == "Yes"
        assert example.options == ("Yes", "It's impossible to say", "No")
        assert example.question == (
            f"{ROBERT_DOC_TEXT} Based on the article above can we conclude that\n"
            f"<{ROBERT_TITLE}> {ROBERT_BODY}\n"
            "Options:\n- Yes\n- It's impossible to say\n- No"
        )

    def test_corruption_membership_oracle(self):
        # all same-kind cross-sentence substitutions, enumerated by hand
        adoc = _adoc("Alice was born in 1980. Bob was born in 1991.")
        allowed = {
            0: "Alice was born in 1991.",
            1: "Bob was born in 1980.",
        }
        seen = set()
        for seed in range(40):
            examples = gen_nli_pair(_ctx(adoc, seed), TEMPLATES["nli"])
            assert len(examples) == 2
            false = examples[1]
            sent = false.provenance["sentence_index"]
            stmt_line = false.question.split("\n")[1]
            corrupted = stmt_line.removeprefix("<T> ")
            assert corrupted == allowed[sent]
            assert false.answer == "No"
            seen.add(sent)
        assert seen == {0, 1}

    def test_false_statement_differs_in_exactly_one_span(self):
        for adoc in synth_adocs(120, seed=31):
            examples = gen_nli_pair(_ctx(adoc, 5), TEMPLATES["nli"])
            if len(examples) < 2:
                continue
            false = examples[1]
            prov = false.provenance
            span = adoc.sentences[prov["sentence_index"]]
            original = adoc.doc.body[span.start : span.end]
            rebuilt = (
                original[: prov["target_start"]]
                + prov["replacement_surface"]
                + original[prov["target_end"] :]
            )
            stmt = false.question.split("\n")[1].removeprefix(f"<{adoc.doc.title}> ")
            assert stmt == rebuilt
            # replacement surface really lives in a different sentence
            homes = {
                analysis_oracle.sentence_of_entity(adoc, e)
                for e in adoc.entities
                if e.surface == prov["replacement_surface"]
            }
            assert homes - {prov["sentence_index"]}

    def test_single_entity_single_sentence_no_corruption(self):
        adoc = _adoc("only 1980 matters here")
        examples = gen_nli_pair(_ctx(adoc, 1), TEMPLATES["nli"])
        assert len(examples) == 1


class TestCloze:
    def test_reconstruction_oracle(self):
        for adoc in synth_adocs(100, seed=37):
            [example] = gen_cloze(_ctx(adoc, 2), TEMPLATES["cloze"])
            blanked = example.question.removeprefix(f"<{adoc.doc.title}> ")
            s, e = example.provenance["entity_start"], example.provenance["entity_end"]
            assert adoc.doc.body[s:e] == example.answer
            assert blanked == adoc.doc.body[:s] + "--" + adoc.doc.body[e:]
            assert blanked.count("--") == 1

    def test_forced_choice_single_entity(self):
        adoc = _adoc("the year 1980 was notable")
        [example] = gen_cloze(_ctx(adoc, 0), TEMPLATES["cloze"])
        assert example.answer == "1980"

    def test_skip_without_entities(self):
        assert gen_cloze(_ctx(_adoc("no caps"), 0), TEMPLATES["cloze"]) == []


class TestMultichoice:
    def test_option_soundness(self, robert_adoc):
        for seed in range(25):
            [example] = gen_multichoice(_ctx(robert_adoc, seed), TEMPLATES["multichoice"])
            assert len(example.options) == 4
            assert len(set(example.options)) == 4
            assert example.options.count(example.answer) == 1
            surfaces = {e.surface for e in robert_adoc.entities}
            assert set(example.options) <= surfaces

    def test_exactly_four_entities_forces_option_set(self):
        adoc = _adoc("Elena Fontaine met Hugo Keller and Petra Novak when visiting Oslo today.")
        surfaces = {e.surface for e in adoc.entities}
        assert len(surfaces) == 4
        [example] = gen_multichoice(_ctx(adoc, 3), TEMPLATES["multichoice"])
        assert set(example.options) == surfaces

    def test_skip_below_four_entities(self):
        adoc = _adoc("Alice Becker stayed in Oslo with Hugo Keller briefly")
        assert len({e.surface for e in adoc.entities}) == 3
        assert gen_multichoice(_ctx(adoc, 0), TEMPLATES["multichoice"]) == []

    def test_blank_in_question(self, robert_adoc):
        [example] = gen_multichoice(_ctx(robert_adoc, 1), TEMPLATES["multichoice"])
        assert example.question.count("--") == 1
        assert "\nOptions:\n- " in example.question


class TestCompletion:
    def test_fixture_final_preposition(self, robert_adoc):
        [example] = gen_completion(_ctx(robert_adoc, 0), TEMPLATES["completion"])
        assert example.question.endswith("as well as:")
        assert example.answer == "designing United States postage stamps"

    def test_trivial_single_preposition(self):
        adoc = _adoc("A book of poems.", title="T")
        [example] = gen_completion(_ctx(adoc, 0), TEMPLATES["completion"])
        assert example.question == "<T> A book of:"
        assert example.answer == "poems"

    def test_reconstruction_oracle(self):
        for adoc in synth_adocs(100, seed=41):
            [example] = gen_completion(_ctx(adoc, 4), TEMPLATES["completion"])
            span = adoc.sentences[example.provenance["sentence_index"]]
            sentence = adoc.doc.body[span.start : span.end]
            prefix = example.question.removeprefix(f"<{adoc.doc.title}> ").removesuffix(":")
            assert sentence == prefix + " " + example.answer + "."

    def test_skip_without_qualifying_sentence(self):
        adoc = _adoc("Nothing happened yesterday.")
        assert gen_completion(_ctx(adoc, 0), TEMPLATES["completion"]) == []


DRAWS = (
    (gen_nli_pair, oracle.gen_nli_pair, taskgen.NLI),
    (gen_multichoice, oracle.gen_multichoice, taskgen.MULTICHOICE),
    (gen_completion, oracle.gen_completion, taskgen.COMPLETION),
)


def _assert_draws_match_oracle(adoc, seed):
    for library, reference, kind in DRAWS:
        for option_count in (2, 4):
            config = TaskConfig(option_count=option_count)
            expected = reference(adoc, stream_for(seed, adoc.doc.id, kind), config)
            assert library(_ctx(adoc, seed, config), config.template(kind)) == expected, kind


class TestDrawsMatchOracle:
    """The counted NLI and completion draws and the multichoice pool against
    the listed ones in `_taskgen_oracle`, drawn from the same streams."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(BODIES, st.integers(0, 2**64 - 1))
    # completions whose answer would be blank, or span a line break
    @example("Alice went to Oslo. Becker came from  . Hugo sat in \xa0.", 0)
    @example("Alice went to Oslo. Becker came from  . Hugo sat in \xa0.", 5)
    @example("Alice went from the\nsea. Becker sat with Hugo.", 1)
    def test_short_bodies(self, body, seed):
        _assert_draws_match_oracle(_adoc(body), seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_long_document(self, seed):
        adoc = analyze_document(document_from_record(long_record(120, seed=seed)))
        for draw_seed in range(20):
            _assert_draws_match_oracle(adoc, draw_seed)


class TestBuildSuite:
    def test_robert_counts(self, robert_adoc):
        suite = build_suite(robert_adoc, seed=7)
        assert suite.counts == {
            "memorization": 1,
            "summarization": 1,
            "gist": 1,
            "nli": 1,
            "teaching": 1,
            "flashcards": 1,
            "cloze": 1,
            "multichoice": 1,
            "completion": 1,
        }
        assert sum(suite.counts.values()) == len(suite.examples)

    def test_entity_rich_single_sentence_doc_eight_examples(self):
        adoc = _adoc("Elena Fontaine met Hugo Keller and Petra Novak when visiting Oslo today.")
        suite = build_suite(adoc, seed=1)
        assert len(suite.examples) == 8
        assert suite.counts["completion"] == 0

    def test_zero_entity_doc_guard_table(self):
        adoc = _adoc("the quiet house stood empty near the river. nobody came to visit it.")
        suite = build_suite(adoc, seed=1)
        assert suite.counts["gist"] == 0
        assert suite.counts["flashcards"] == 0
        assert suite.counts["cloze"] == 0
        assert suite.counts["multichoice"] == 0
        assert suite.counts["memorization"] == 1
        assert suite.counts["summarization"] == 1
        assert suite.counts["teaching"] == 1
        assert suite.counts["nli"] == 1
        assert suite.counts["completion"] == 1

    def test_same_seed_identical_suites(self, robert_adoc):
        assert build_suite(robert_adoc, seed=11) == build_suite(robert_adoc, seed=11)

    def test_seed_changes_cloze_spans_somewhere(self):
        adocs = synth_adocs(30, seed=43)
        a = [build_suite(adoc, seed=1).by_kind("cloze")[0].provenance for adoc in adocs]
        b = [build_suite(adoc, seed=2).by_kind("cloze")[0].provenance for adoc in adocs]
        assert a != b

    def test_examples_in_fixed_kind_order(self):
        for adoc in synth_adocs(10, seed=47):
            suite = build_suite(adoc, seed=3)
            kinds = [ex.kind for ex in suite.examples]
            order = {k: i for i, k in enumerate(KIND_ORDER)}
            assert kinds == sorted(kinds, key=order.__getitem__)

    def test_loss_policy_partition(self):
        for adoc in synth_adocs(20, seed=53):
            for ex in build_suite(adoc, seed=5).examples:
                expected = "full_sequence" if ex.kind == "memorization" else "answer_only"
                assert vocab.loss_policy(ex.kind) == expected

    def test_disabling_one_kind_leaves_others_unchanged(self, robert_adoc):
        full = build_suite(robert_adoc, seed=9)
        partial_config = TaskConfig(enabled=tuple(k for k in KIND_ORDER if k != "nli"))
        partial = build_suite(robert_adoc, partial_config, seed=9)
        assert [ex for ex in full.examples if ex.kind != "nli"] == list(partial.examples)

    def test_template_override(self, robert_adoc):
        config = TaskConfig(templates={"teaching": "Describe {title} now."})
        suite = build_suite(robert_adoc, config, seed=0)
        assert suite.by_kind("teaching")[0].question == "Describe Robert Anderson (artist) now."

    def test_option_count_config(self, robert_adoc):
        config = TaskConfig(option_count=5)
        example = build_suite(robert_adoc, config, seed=0).by_kind("multichoice")[0]
        assert len(example.options) == 5

    def test_enabled_kinds_are_copied(self, robert_adoc):
        kinds = ["cloze", "teaching"]
        config = TaskConfig(enabled=kinds)
        before = build_suite(robert_adoc, config, seed=2)
        kinds.append("nli")
        assert config.enabled == ("cloze", "teaching")
        assert build_suite(robert_adoc, config, seed=2) == before
        assert before.counts == {"cloze": 1, "teaching": 1}
        assert TaskConfig(enabled=iter(kinds)).enabled == ("cloze", "teaching", "nli")

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            TaskConfig(enabled=("memorization", "bogus"))

    @pytest.mark.parametrize("option_count", [2.5, True, "4"])
    def test_option_count_must_be_an_integer(self, option_count):
        with pytest.raises(DataError, match="option_count must be an integer"):
            TaskConfig(option_count=option_count)

    def test_default_config_is_frozen(self):
        with pytest.raises(AttributeError):
            taskgen.DEFAULT_CONFIG.option_count = 5

    def test_generator_table_is_in_kind_order(self):
        assert tuple(taskgen.GENERATORS) == KIND_ORDER

    def test_loss_policy_follows_the_kind(self):
        assert [vocab.loss_policy(kind) for kind in KIND_ORDER] == ["full_sequence"] + ["answer_only"] * 8


def parse_reading(text):
    """Test-side parser: recover (question, answer) pairs from the format."""
    preamble = "\n\nAnswer the questions based on the article:\n\n"
    doc_text, sep, rest = text.partition(preamble)
    assert sep, "preamble missing"
    pairs = []
    for block in rest.split("\n\nQuestion: "):
        block = block.removeprefix("Question: ")
        question, _, answer = block.partition("\nAnswer:")
        pairs.append((question, answer))
    return doc_text, pairs


class TestReadingFormat:
    def test_block_structure(self, robert_adoc):
        suite = build_suite(robert_adoc, seed=7)
        text = format_reading_comprehension(suite)
        doc_text, pairs = parse_reading(text)
        assert doc_text == ROBERT_DOC_TEXT
        assert pairs[0][0] == "Write a title:"
        assert pairs[1][0] == "Highlight the key information within the article:"
        assert pairs[0][1] == ROBERT_TITLE
        assert len(pairs) == len(suite.examples) - 1

    def test_skipped_kind_block_absent(self):
        adoc = _adoc("Alice Becker stayed in Oslo with Hugo Keller briefly.")
        suite = build_suite(adoc, seed=2)
        assert suite.counts["multichoice"] == 0
        text = format_reading_comprehension(suite)
        _, pairs = parse_reading(text)
        answers = [a for _, a in pairs]
        non_memorization = [ex.answer for ex in suite.examples if ex.kind != "memorization"]
        assert answers == non_memorization

    def test_round_trip_rebuild(self):
        for adoc in synth_adocs(25, seed=59):
            suite = build_suite(adoc, seed=6)
            text = format_reading_comprehension(suite)
            doc_text, pairs = parse_reading(text)
            rebuilt = (
                doc_text
                + "\n\nAnswer the questions based on the article:"
                + "".join(f"\n\nQuestion: {q}\nAnswer:{a}" for q, a in pairs)
            )
            assert rebuilt == text

    def test_missing_memorization_is_error(self, robert_adoc):
        config = TaskConfig(enabled=tuple(k for k in KIND_ORDER if k != "memorization"))
        suite = build_suite(robert_adoc, config, seed=0)
        with pytest.raises(DataError):
            format_reading_comprehension(suite)


class TestFill:
    def test_braces_in_values_stay_literal(self):
        out = vocab.fill("Tell me about {title}.", title="{weird} name")
        assert out == "Tell me about {weird} name."

    def test_unknown_placeholder_left_alone(self):
        assert vocab.fill("keep {unknown}", title="x") == "keep {unknown}"

    # names include digits and non-ASCII word characters; text holds stray
    # braces and printf specs
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.one_of(st.sampled_from(["{a}", "{b}", "{0}", "{é_1}", "{}", "{a", "a}", "{{a}}", "{ a}"]),
                           st.sampled_from(["%", "%s", "%(a)s", "%%", "%d", " ", "x"]), st.text(max_size=4)),
                 max_size=8).map("".join),
        st.dictionaries(st.sampled_from(["a", "b", "0", "é_1", "c"]),
                        st.one_of(st.text(max_size=5), st.integers(), st.sampled_from(["%s", "{a}", "%(b)s"])),
                        max_size=4),
    )
    def test_matches_part_by_part_substitution(self, template, values):
        assert vocab.fill(template, **values) == oracle.fill_by_parts(template, **values)


class TestAnalysisCallBudget:
    def test_segment_once_tokenize_each_sentence_at_most_once(self, monkeypatch):
        calls = {"segment_sentences": 0, "_scan": 0, "load_lexicon": 0}

        def counted(name):
            original = getattr(analysis, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(analysis, name, wrapper)

        for name in calls:
            counted(name)
        docs = [document_from_record(r) for r in golden_synth_records()]
        sentences = 0
        for doc in docs:
            adoc = analysis.analyze_document(doc)
            build_suite(adoc, seed=1)
            sentences += len(adoc.sentences)
        assert calls["segment_sentences"] == len(docs)
        assert calls["_scan"] == sentences
        assert calls["load_lexicon"] <= len(docs)

    def test_each_distinct_token_text_classified_at_most_once(self, monkeypatch):
        # _scan classifies a token exactly when the lexeme table misses it
        classified = {}

        class CountedTable(dict):
            def get(self, raw):
                lexeme = dict.get(self, raw)
                if lexeme is None:
                    classified[raw] = classified.get(raw, 0) + 1
                return lexeme

        monkeypatch.setattr(analysis, "_LEXEMES", CountedTable())
        records = golden_synth_records()
        for record in records:
            build_suite(analysis.analyze_document(document_from_record(record)), seed=1)
        assert max(classified.values()) == 1
        assert len(classified) < sum(len(record["body"].split()) for record in records)


class TestDocumentWorkBudget:
    def test_one_rendering_and_one_plan_per_run(self, monkeypatch):
        renders = 0
        blocks = []
        caps = templates = 0
        fill, options_block = taskgen.fill, taskgen.options_block
        cap, template = TaskConfig.cap, TaskConfig.template

        def counted_fill(form, **values):
            nonlocal renders
            renders += form == TEMPLATES["memorization"]
            return fill(form, **values)

        def counted_block(options):
            blocks.append(tuple(options))
            return options_block(options)

        def counted_cap(self, kind):
            nonlocal caps
            caps += 1
            return cap(self, kind)

        def counted_template(self, kind):
            nonlocal templates
            templates += 1
            return template(self, kind)

        monkeypatch.setattr(taskgen, "fill", counted_fill)
        monkeypatch.setattr(taskgen, "options_block", counted_block)
        monkeypatch.setattr(TaskConfig, "cap", counted_cap)
        monkeypatch.setattr(TaskConfig, "template", counted_template)
        taskgen.suite_plan.cache_clear()  # as in a new process
        docs = [document_from_record(r) for r in golden_synth_records()]
        multichoice = 0
        for doc in docs:
            suite = build_suite(analysis.analyze_document(doc), seed=1)
            multichoice += suite.counts["multichoice"]
        assert renders == len(docs)
        # the NLI options block is never rebuilt; each multichoice builds its own
        assert len(blocks) == multichoice and vocab.NLI_OPTIONS not in blocks
        # one cap and one template per kind for the whole run (and the
        # rendering's), and again for a new config
        assert caps == len(KIND_ORDER) and templates == len(KIND_ORDER) + 1
        build_suite(analysis.analyze_document(docs[0]), TaskConfig(option_count=3), seed=1)
        assert caps == 2 * len(KIND_ORDER) and templates == 2 * (len(KIND_ORDER) + 1)

    def test_one_doc_id_hash_and_one_keyword_list_per_document(self, monkeypatch):
        hashed = []
        keyword_lists = 0
        sha256 = hashlib.sha256
        gist_keywords = taskgen._gist_keywords

        def counted_sha256(data):
            hashed.append(data.decode("utf-8"))
            return sha256(data)

        def counted_keywords(adoc):
            nonlocal keyword_lists
            keyword_lists += 1
            return gist_keywords(adoc)

        monkeypatch.setattr(hashlib, "sha256", counted_sha256)  # rng imports hashlib when it first hashes
        monkeypatch.setattr(taskgen, "_gist_keywords", counted_keywords)
        rng._tag_bits.cache_clear()  # earlier tests may have hashed these ids
        docs = [document_from_record(r) for r in golden_synth_records()]
        for doc in docs:
            build_suite(analysis.analyze_document(doc), seed=1)
        kinds = [tag for tag in hashed if tag in KIND_ORDER]
        assert sorted(tag for tag in hashed if tag not in KIND_ORDER) == sorted(doc.id for doc in docs)
        assert len(kinds) == len(set(kinds))
        assert keyword_lists == len(docs)


# templates that read every value some generator passes, one no generator
# passes, and none
_TEMPLATES = [
    "{title}: {body}", "Q {document}", "{title}|{statement}|{options}", "{keywords}!",
    "<{title}> {blanked}\n{options}", "{prefix}?", "{unknown} {title}", "plain",
]
_CONFIGS = st.one_of(
    st.just(taskgen.DEFAULT_CONFIG),
    st.builds(
        TaskConfig,
        enabled=st.lists(st.sampled_from(KIND_ORDER), unique=True, max_size=9).map(tuple),
        option_count=st.integers(2, 5),
        multiplicity=st.dictionaries(st.sampled_from(KIND_ORDER), st.integers(0, 3), max_size=4),
        templates=st.dictionaries(st.sampled_from(KIND_ORDER), st.sampled_from(_TEMPLATES), max_size=4),
    ),
)
_POOL = synthetic_records(6, seed=19)


def _suite_lines(body, config, seed) -> list[bytes]:
    """A document's task lines and its reading text, as gen-tasks encodes them."""
    doc = RawDocument(id=f"doc-{len(body)}", title="T", body=body)
    suite = build_suite(analyze_document(doc), config, seed)
    lines = [jsonio.encode_line(dataset.task_record(example)) for example in suite.examples]
    if suite.examples and suite.examples[0].kind == "memorization":
        lines.append(jsonio.encode_line(format_reading_comprehension(suite)))
    return lines


def _as_in_a_new_process():
    """Empty what build_suite and analysis keep between calls."""
    taskgen.suite_plan.cache_clear()
    analysis._LEXEMES.clear()
    rng._tag_bits.cache_clear()


class TestSuiteIndependence:
    """A suite is a pure function of (seed, document, config): nothing kept
    once per run or per process changes it."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([r["body"] for r in _POOL]), BODIES),
                              _CONFIGS, st.integers(0, 2**64 - 1)), min_size=2, max_size=5))
    def test_lines_do_not_depend_on_what_was_built_before(self, jobs):
        try:
            first = []
            for job in jobs:
                _as_in_a_new_process()
                first.append(_suite_lines(*job))
            _as_in_a_new_process()
            assert [_suite_lines(*job) for job in jobs] == first
            assert [_suite_lines(*job) for job in reversed(jobs)] == first[::-1]
        finally:
            _as_in_a_new_process()

    def test_a_config_is_read_only_and_equal_configs_share_one_plan(self, robert_adoc):
        multiplicity, templates = {"nli": 2, "cloze": 0}, {"teaching": "Describe {title}.", "gist": "G {document}"}
        config = TaskConfig(multiplicity=multiplicity, templates=templates)
        with pytest.raises(TypeError):
            config.multiplicity["cloze"] = 1
        with pytest.raises(TypeError):
            del config.templates["teaching"]
        # the caller's dicts were copied
        multiplicity["cloze"] = 1
        templates["teaching"] = "About {title}."
        assert config.multiplicity == {"nli": 2, "cloze": 0}
        assert config.templates == {"teaching": "Describe {title}.", "gist": "G {document}"}
        # equal in value, built in another order: one plan and one suite
        twin = TaskConfig(multiplicity={"cloze": 0, "nli": 2},
                          templates={"gist": "G {document}", "teaching": "Describe {title}."})
        assert twin == config and hash(twin) == hash(config)
        assert taskgen.suite_plan(twin) is taskgen.suite_plan(config)
        suite = build_suite(robert_adoc, twin, seed=3)
        assert suite == build_suite(robert_adoc, config, seed=3)
        assert suite.counts["cloze"] == 0 and suite.by_kind("teaching")[0].question == "Describe Robert Anderson (artist)."


def golden_synth_records() -> list[dict]:
    """The synthetic corpus plus two stress bodies built from it: one long
    many-sentence document and one giant sentence with every period gone."""
    records = synthetic_records(40, seed=11)
    joined = " ".join(r["body"] for r in records)
    records.append({"id": "joined", "title": "Joined", "body": joined, "source": "synthetic"})
    records.append(
        {"id": "unpunctuated", "title": "Unpunctuated", "body": joined.replace(".", ""), "source": "synthetic"}
    )
    return records


def escape_heavy_records() -> list[dict]:
    """Two documents: a long body of Greek and Cyrillic text full of quotes,
    backslashes and U+2028, past the long-line threshold in non-ASCII
    characters alone, and a short one."""
    sentences = []
    for i in range(90):
        sentences.append(
            f'Σωκράτης Παπαδόπουλος {i} έγραψε "Ελληνικά \\ κείμενα" στην Αθήνα on {i % 28 + 1} May {1900 + i}. '
            f'Иван Петров\u2028прочитал "книгу\\{i}" in Москва with Σωκράτης Παπαδόπουλος.'
        )
    return [
        {"id": "escapes", "title": 'Ελληνικά "κείμενα" \\ Москва', "body": " ".join(sentences), "source": "synthetic"},
        {"id": "short", "title": "Short", "body": 'Anna "Ann" Berg moved to Oslo in 1990 with \\ Ivan Holt.', "source": "synthetic"},
    ]


def gen_tasks_digests(tmp_path, corpus_path, seed) -> dict:
    out = tmp_path / "out"
    argv = ["--seed", str(seed), "--out", str(out), "gen-tasks", "--corpus", str(corpus_path), "--name", "g", "--reading"]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


ROBERT_DIGESTS = {
    "g_reading.jsonl": "8515771320b69cb88047a7e8c6ffe129be49afea9a169267b8279ff75f695a50",
    "g_tasks.jsonl": "8aec7d359cfee571d95d4e85bf4348b3da33c3417aafa566dfb52e474c0fed18",
    "g_tasks_stats.json": "2155e9aa7479535b4fbeab10b99cc2e1f8cb57a7f21efb0015e837a32891f06a",
}
SYNTH_DIGESTS = {
    "g_reading.jsonl": "d8a66344ba79f3f06ef20f4fb98bf8462b87b2ca940176db5a3f19dff4dc3161",
    "g_tasks.jsonl": "485ec8c9a54b62411a3e8f1ece932fcc9186c17e7cd32e53283e0569516a2e24",
    "g_tasks_stats.json": "d9fcbea9046aea453025029dad200b84939b7a534954d7cab6e8bcfa8693c91e",
}

ESCAPE_DIGESTS = {
    "g_reading.jsonl": "c3a55625073863eda5c261a0beeff640733f421db9d8a938097f2040f3527614",
    "g_tasks.jsonl": "7868f75566de1ff969e46a1bb545868fe5ad8908b8dc355c1fc4f5751314f7a3",
    "g_tasks_stats.json": "70ab3236fe128c9ca69a3df0753005dc5749aa29768bf1f0e010a144d65150cf",
}


class TestGoldenOutputs:
    """`gen-tasks --reading` output bytes, pinned so that analyzer rewrites
    are checked for byte identity."""

    def test_robert_fixture(self, tmp_path):
        assert gen_tasks_digests(tmp_path, DATA / "robert_anderson.jsonl", seed=0) == ROBERT_DIGESTS

    def test_synthetic_corpus(self, tmp_path):
        path = tmp_path / "synth.jsonl"
        write_jsonl(golden_synth_records(), path)
        assert gen_tasks_digests(tmp_path, path, seed=4) == SYNTH_DIGESTS

    def test_long_escape_heavy_document(self, tmp_path):
        records = escape_heavy_records()
        body = records[0]["body"]
        assert sum(not char.isascii() for char in body) >= jsonio._LONG_LINE
        assert '"' in body and "\\" in body and "\u2028" in body
        assert len(records[1]["body"]) < jsonio._LONG_STRING
        path = tmp_path / "escapes.jsonl"
        write_jsonl(records, path)
        assert gen_tasks_digests(tmp_path, path, seed=5) == ESCAPE_DIGESTS
