import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MORITZ_BODY, ROBERT_BODY
from docstudy import analysis
from docstudy.analysis import analyze_document, segment_sentences
from docstudy.corpus import RawDocument, document_from_record
from docstudy.vocab import tokenize_words

import _analysis_oracle as oracle
from _synth import synthetic_records

def extract_entities(body: str):
    """The entities `gen-tasks` reads: those `analyze_document` finds."""
    return analyze_document(RawDocument(id="d", title="T", body=body)).entities


def final_preposition_end(sentence: str, lexicon=None):
    """The end offset of the last preposition of a one-sentence body."""
    adoc = analyze_document(RawDocument(id="d", title="T", body=sentence), lexicon=lexicon)
    assert len(adoc.sentences) == 1
    return adoc.final_preposition_ends[0]


ROBERT_ENTITIES = {
    "Robert Alexander Anderson",
    "1946",
    "American",
    "George W. Bush",
    "Alan Greenspan",
    "United States",
}


class TestSegmentation:
    def test_plain_split(self):
        assert len(segment_sentences("A b. C d.")) == 2

    def test_deputy_sentence_single_span(self):
        text = (
            "He is a deputy for the period 2022-2026, after being elected "
            "in the 2021 Chilean parliamentary elections."
        )
        assert len(segment_sentences(text)) == 1

    def test_abbreviation_protected(self):
        assert len(segment_sentences("Mr. Smith ran.")) == 1

    def test_initial_protected(self):
        assert len(segment_sentences("George W. Bush spoke.")) == 1

    def test_parenthesis_protected(self):
        text = "She wrote a book (published by Knopf Inc. New York) last year. It sold well."
        spans = segment_sentences(text)
        assert len(spans) == 2

    def test_no_terminal_punctuation(self):
        spans = segment_sentences("just a fragment without an end")
        assert len(spans) == 1
        assert spans[0].start == 0

    def test_any_whitespace_after_terminal_splits(self):
        for space in (" ", "  ", "\n", "\t", "\xa0", "\u2003", " \n "):
            assert len(segment_sentences(f"A b.{space}C d.")) == 2, repr(space)
        assert len(segment_sentences("A b.C d.")) == 1
        assert len(segment_sentences("A b. \n ")) == 1

    def test_moritz_body_four_sentences(self):
        assert len(segment_sentences(MORITZ_BODY)) == 4

    def test_spans_sorted_nonoverlapping_and_total(self):
        bodies = [r["body"] for r in synthetic_records(50, seed=5)]
        bodies += [
            "One. Two! Three? Four.",
            "No split here",
            'He said "Go." Then he left.',
        ]
        for body in bodies:
            spans = segment_sentences(body)
            prev_end = 0
            covered = set()
            for i, span in enumerate(spans):
                assert span.index == i
                assert prev_end <= span.start < span.end <= len(body)
                prev_end = span.end
                covered.update(range(span.start, span.end))
            for pos, ch in enumerate(body):
                if not ch.isspace():
                    assert pos in covered, (body, pos)
            # gaps between spans hold only whitespace
            cursor = 0
            for span in spans:
                assert body[cursor : span.start].strip() == ""
                cursor = span.end


class TestEntities:
    def test_robert_anderson_exact_set_and_order(self):
        entities = extract_entities(ROBERT_BODY)
        assert [e.surface for e in entities] == [
            "Robert Alexander Anderson",
            "1946",
            "American",
            "George W. Bush",
            "Alan Greenspan",
            "United States",
        ]
        assert {e.surface for e in entities} == ROBERT_ENTITIES

    def test_date_span_with_comma_year(self):
        entities = extract_entities("He was born December 12, 1997 in Georgia.")
        surfaces = {e.surface: e.kind for e in entities}
        assert surfaces["December 12, 1997"] == "date"
        assert "1997" not in surfaces

    def test_no_entities(self):
        assert extract_entities("nothing here at all") == []

    def test_day_month_year_date(self):
        entities = extract_entities("Helmut Moritz (1 November 1933 - 21 October 2022) was a geodesist.")
        kinds = {e.surface: e.kind for e in entities}
        assert kinds["1 November 1933"] == "date"
        assert kinds["21 October 2022"] == "date"

    def test_standalone_number(self):
        entities = extract_entities("The rocket carried 85 sensors.")
        kinds = {e.surface: e.kind for e in entities}
        assert kinds.get("85") == "number"

    def test_acronym(self):
        entities = extract_entities("He pitched in Major League Baseball (MLB) games.")
        kinds = {e.surface: e.kind for e in entities}
        assert kinds.get("MLB") == "acronym"
        assert kinds.get("Major League Baseball") == "name"

    def test_sentence_initial_single_word_excluded(self):
        entities = extract_entities("Alice was born in 1980. Bob was born in 1991.")
        assert [e.surface for e in entities] == ["1980", "1991"]

    def test_lone_initial_or_letter_is_not_a_name(self):
        entities = extract_entities("Alice met J. at noon in Oslo with A and Bob.")
        assert [e.surface for e in entities] == ["Oslo", "Bob"]

    def test_connector_runs(self):
        entities = extract_entities("She joined the University of Southern Mississippi choir.")
        assert "University of Southern Mississippi" in {e.surface for e in entities}

    def test_surface_matches_slice_on_random_bodies(self):
        for record in synthetic_records(40, seed=13):
            body = record["body"]
            for entity in extract_entities(body):
                assert body[entity.start : entity.end] == entity.surface

    def test_spans_sorted_and_disjoint(self):
        for record in synthetic_records(40, seed=17):
            entities = extract_entities(record["body"])
            for a, b in zip(entities, entities[1:]):
                assert a.end <= b.start

    def test_entities_inside_exactly_one_sentence(self):
        for record in synthetic_records(40, seed=19):
            doc = document_from_record(record)
            adoc = analyze_document(doc)
            for entity in adoc.entities:
                homes = [
                    s.index
                    for s in adoc.sentences
                    if s.start <= entity.start and entity.end <= s.end
                ]
                assert len(homes) == 1


class TestPrepositions:
    def test_as_well_as_unit(self):
        sentence = (
            "Robert is known for painting portraits as well as designing "
            "United States postage stamps."
        )
        unit_end = sentence.index("as designing") + len("as")
        assert final_preposition_end(sentence) == unit_end
        # the unit's words are not matched again, so a unit that starts
        # inside it, and would end later, is never found
        assert final_preposition_end(sentence, frozenset({"as well as", "well as designing"})) == unit_end

    def test_no_prepositions(self):
        assert final_preposition_end("Nothing happened yesterday") is None

    def test_single_hit(self):
        sentence = "a book of poems"
        assert final_preposition_end(sentence) == sentence.index(" poems")

    def test_punctuation_attached(self):
        # the end is the whole token's, its comma included
        sentence = "he lived in, broadly, Paris"
        assert final_preposition_end(sentence) == sentence.index(" broadly")


class TestTokenizeWords:
    def test_punctuation_dropped(self):
        assert tokenize_words("December 12, 1997.") == ["december", "12", "1997"]

    def test_empty(self):
        assert tokenize_words("") == []

    def test_unicode(self):
        assert tokenize_words("CF Montréal") == ["cf", "montréal"]


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        body = ROBERT_BODY
        first = extract_entities(body)
        second = extract_entities(body)
        assert first == second
        assert segment_sentences(body) == segment_sentences(body)

    def test_analyze_document_structure(self):
        doc = RawDocument(id="x", title="T", body="Alice met Bob in Oslo. They toured the fjords.")
        adoc = analyze_document(doc)
        assert len(adoc.final_preposition_ends) == len(adoc.sentences)


WORDS = st.sampled_from(
    [
        # capitalised words, connectors, initials and abbreviations
        "Alice", "Becker", "United", "States", "Oslo", "IUGG", "MLB", "Mr.", "Inc.",
        "of", "the", "van", "de", "W.", "J.", "U.S.",
        # dates and numbers, plain and glued to punctuation
        "4 May 1990", "March 3, 1921", "September", "May", "4", "1946", "12", "3.5",
        "1,000", "(born", "1946)", "(MLB)", "(1", "November", "2022)", "Baseball,", "\"Go",
        # lowercase words, prepositions included
        "went", "to", "with", "as", "well", "in", "for",
        # non-ASCII capitals, a title-case letter and a non-ASCII capital
        # with a period, which is not an initial
        "Émile", "Øresund", "Ωmega", "ǅemal", "Ø.",
        # digits that are not ASCII: "٣" is a decimal digit, "²" is not
        "٣", "²",
        # punctuation-only tokens, periods and punctuation on both sides
        "—", "(\"", "...", "Inc..", "e.g.", "«Né»", "¡Hola!",
    ]
)
TERMINALS = st.sampled_from(["", "", "", ".", "!", "?", "...", ".)"])
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\n", "\t", "\xa0"])
BODIES = st.lists(st.tuples(WORDS, TERMINALS, SEPARATORS), min_size=1, max_size=60).map(
    lambda parts: "".join(w + t + sep for w, t, sep in parts)
)

DATE_PARTS = [
    "May", "September", "May 5", "May 5, 2000", "4 May 1990", "12", "1999", "2000", "21999",
    " ", ", ", ".", "x", "_", "Α", "٣", "²", "-",
]


class TestLinearAnalysisEquivalence:
    """The one-pass scanner and the linear resolver against the pre-scanner
    per-token passes and the quadratic resolver in `_analysis_oracle`."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(BODIES)
    # dates overlapping by one character: "September 4" and "4 May 1990"
    @example("He left September 4 May 1990 and came back.")
    # a date inside a name run: "Alice May" and "May 12" overlap, "12 May
    # 1990" overlaps both, and a number and a year lie inside it
    @example("Then Alice May 12 May 1990 Becker met Hugo June 3, 1921 Keller.")
    # the same span from two rules: the year "1946" is a date and a number
    @example("In 1946 Becker moved to Oslo with IUGG in 1946.")
    # an initial ("W."), a non-ASCII capital with a period ("Ø.") and
    # title-case, non-ASCII digit and punctuation-only tokens
    @example("Émile W. Ø. Becker of ǅemal met Ωmega ( \"Øresund\" — ٣ ² «Né» e.g. Inc.. ¡Hola!")
    def test_sweep_matches_quadratic_resolver(self, body):
        adoc = analyze_document(RawDocument(id="p", title="P", body=body))
        entities = adoc.entities
        assert entities == oracle.quadratic_entities(body)
        candidates = analysis._date_candidates(body)
        for span in segment_sentences(body):
            tokens, marks, _ = analysis._scan(body[span.start : span.end], frozenset())
            candidates.extend(analysis._entity_candidates(span.start, tokens, marks))
        assert entities == oracle.occupancy_resolve(body, candidates)

        assert adoc.sentences == segment_sentences(body)
        for span in adoc.sentences:
            text = body[span.start : span.end]
            tokens = oracle.sentence_tokens(text)
            positions = oracle.find_prepositions(text)
            assert [token[:5] for token in analysis._scan(text, frozenset())[0]] == [tuple(t) for t in tokens]
            # the oracle's greedy matcher, compared through its last match
            assert adoc.final_preposition_ends[span.index] == (
                tokens[positions[-1]].end if positions else None
            )
            assert oracle.entities_in_sentence(adoc, span.index) == [
                e for e in entities if span.start <= e.start and e.end <= span.end
            ]
        for entity in entities:
            homes = [
                s.index for s in adoc.sentences if s.start <= entity.start and entity.end <= s.end
            ]
            assert [oracle.sentence_of_entity(adoc, entity)] == homes

    # dates glued to what comes before them, and digits and letters that
    # are word characters outside ASCII
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(DATE_PARTS), max_size=30).map("".join))
    @example("x12 May 2000")
    @example("_1999")
    @example("21999 1999")
    @example("ΑMay 5, 2000")
    @example("٣ May 2000")
    @example("September 4 May 1990")
    def test_date_scan_matches_the_word_boundary_patterns(self, body):
        assert analysis._date_candidates(body) == oracle.date_candidates(body)

    def test_unpunctuated_run_on_body(self):
        body = " ".join(
            f"Alice Becker met Hugo Keller of Oslo in {1900 + i % 100} with {i} friends"
            for i in range(150)
        )
        assert len(segment_sentences(body)) == 1
        assert extract_entities(body) == oracle.quadratic_entities(body)


class TestLexemeTable:
    """The lexeme table is a memo of a pure function: what it holds never
    changes a result, and its size has a fixed bound."""

    OTHER_LEXICON = frozenset({"with", "of", "as well as", "alice", "may"})

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(BODIES)
    def test_results_do_not_depend_on_what_the_table_holds(self, body):
        doc = RawDocument(id="p", title="P", body=body)
        table = analysis._LEXEMES
        table.clear()
        cold = analyze_document(doc)
        seen = len(table)
        table.clear()
        cold_other = analyze_document(doc, lexicon=self.OTHER_LEXICON)
        # warmed by other documents
        for record in synthetic_records(3, seed=23):
            analyze_document(document_from_record(record))
        assert analyze_document(doc) == cold
        # a table that fills up halfway through the body's distinct tokens:
        # the rest are classified at each occurrence
        table.clear()
        filler = " ".join(f"~{i}" for i in range(analysis._LEXEMES_CAP - seen // 2))
        analysis._scan(filler, frozenset())
        assert analyze_document(doc) == cold
        assert len(table) == analysis._LEXEMES_CAP
        assert analyze_document(doc) == cold
        # two lexicons in turn over one table
        assert analyze_document(doc, lexicon=self.OTHER_LEXICON) == cold_other
        assert analyze_document(doc) == cold
        # a full table stops growing, so leave none for the tests after this
        table.clear()

    def test_table_size_and_key_length_are_bounded(self):
        table = analysis._LEXEMES
        table.clear()
        words = [f"W{i}" for i in range(analysis._LEXEMES_CAP + 100)]
        over_long = [
            "x" * (analysis._LEXEME_KEY_MAX + 1),
            "(Supercalifragilisticexpialidocious-Extraordinary),",
        ]
        text = " ".join(over_long + words + over_long)
        tokens = analysis._scan(text, frozenset())[0]
        # the table kept the first tokens short enough to keep, up to its
        # cap, and then stopped growing
        assert list(table) == words[: analysis._LEXEMES_CAP]
        # a token not kept is still classified, every time it occurs
        assert [token[:5] for token in tokens] == [tuple(t) for t in oracle.sentence_tokens(text)]
        ends = [analysis._OTHER, analysis._CAPWORD]
        assert [token[6] for token in tokens] == ends + [analysis._CAPWORD] * len(words) + ends
        table.clear()
