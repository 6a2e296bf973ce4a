import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _corpus_oracle
from conftest import MORITZ_BODY
from docstudy import jsonio
from docstudy.corpus import (
    DuplicateIdError,
    HeaderError,
    MalformedLineError,
    RawDocument,
    first_paragraph,
    ingest_jsonl,
    normalize_text,
    parse_header,
)
from docstudy.errors import DataError

from _synth import synthetic_records, write_jsonl


class TestParseHeader:
    def test_wiki_header(self):
        assert parse_header("<Sawyer Gipson-Long - Wikipedia>") == "Sawyer Gipson-Long"

    def test_no_suffix(self):
        assert parse_header("<X>") == "X"

    def test_empty_title_rejected(self):
        with pytest.raises(HeaderError):
            parse_header("< - Wikipedia>")

    def test_no_brackets_returned_trimmed(self):
        assert parse_header("  Plain Title ") == "Plain Title"

    def test_double_space_header_collapses(self):
        assert parse_header("<Robert Anderson (artist)  - Wikipedia>") == "Robert Anderson (artist)"

    def test_idempotent_on_random_titles(self):
        rng = random.Random(11)
        words = ["Alpha", "beta", "Gamma", "2023", "St.", "(artist)", "de", "Montréal"]
        for _ in range(200):
            title = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            header = f"<{title} - Wikipedia>"
            once = parse_header(header)
            assert parse_header(once) == once


class TestFirstParagraph:
    def test_blank_line_split(self):
        assert first_paragraph("A.\n\nB.") == "A."

    def test_no_separator(self):
        assert first_paragraph("A only.") == "A only."

    def test_moritz_paragraph_verbatim(self):
        article = MORITZ_BODY + "\n\nHe retired in 2003 and wrote a memoir."
        assert first_paragraph(article) == MORITZ_BODY

    def test_whitespace_only_separator_line(self):
        assert first_paragraph("A.\n \t\nB.") == "A."


class TestIngest:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(2), path)
        corpus = ingest_jsonl(path)
        assert len(corpus) == 2
        assert corpus[0].id == "doc-00000"

    def test_duplicate_ids_name_both_lines(self, tmp_path):
        records = synthetic_records(7)
        records[6]["id"] = records[2]["id"]
        path = tmp_path / "c.jsonl"
        write_jsonl(records, path)
        with pytest.raises(DuplicateIdError) as err:
            ingest_jsonl(path)
        assert err.value.lines == (3, 7)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = ingest_jsonl(path)
        assert len(corpus) == 0

    def test_malformed_line_carries_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"title": "T", "body": "B."}\nnot json\n')
        with pytest.raises(MalformedLineError) as err:
            ingest_jsonl(path)
        assert err.value.line_no == 2

    def test_missing_body_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"title": "T"}\n')
        with pytest.raises(MalformedLineError):
            ingest_jsonl(path)

    def test_content_hash_id_assigned(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"title": "T", "body": "Some body."}\n')
        corpus = ingest_jsonl(path)
        assert len(corpus[0].id) == 16
        again = ingest_jsonl(path)
        assert corpus[0].id == again[0].id
        # a null id is an absent one
        path.write_text('{"id": null, "title": "T", "body": "Some body."}\n')
        assert ingest_jsonl(path)[0].id == corpus[0].id

    def test_wiki_suffix_stripped_from_title(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"title": "<Foo Bar - Wikipedia>", "body": "Body text."}\n')
        corpus = ingest_jsonl(path)
        assert corpus[0].title == "Foo Bar"

    def test_body_cut_to_first_paragraph(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"title": "T", "body": "First para.\n\nSecond para."}
        path.write_text(json.dumps(record) + "\n")
        corpus = ingest_jsonl(path)
        assert corpus[0].body == "First para."


class TestNormalization:
    def test_space_runs_collapse(self):
        assert normalize_text("a  b\t c") == "a b c"

    def test_newlines_preserved(self):
        assert normalize_text("a  b\nc  d") == "a b\nc d"

    # line breaks, tabs, space runs, NBSP and other Unicode whitespace, which
    # only the edge strip removes, around a few letters
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["a", "b", "é", " ", "  ", "\t", "\n", "\n\n", "\r\n", "\r", "\xa0", "\u2003",
                                     "\u3000", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])).map("".join))
    @example("one line")
    @example(" a\xa0 b ")
    @example("a \t\u3000 b\r\n \r\n\tc")
    def test_matches_the_regex_on_every_line(self, text):
        assert normalize_text(text) == _corpus_oracle.normalize_text(text)


class TestRoundTrip:
    def test_serialize_ingest_serialize_is_identity(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(25, seed=3), path)
        corpus = ingest_jsonl(path, seed=9)
        jsonio.write_jsonl(tmp_path / "round.jsonl", (doc.to_record() for doc in corpus))
        first = (tmp_path / "round.jsonl").read_bytes()
        again = ingest_jsonl(tmp_path / "round.jsonl", seed=9)
        jsonio.write_jsonl(tmp_path / "again.jsonl", (doc.to_record() for doc in again))
        assert (tmp_path / "again.jsonl").read_bytes() == first

    def test_order_stable(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(synthetic_records(10), path)
        corpus = ingest_jsonl(path)
        assert [d.id for d in corpus] == [f"doc-{i:05d}" for i in range(10)]


class TestCorpusInvariants:
    def test_title_newline_rejected(self):
        with pytest.raises(DataError):
            RawDocument(id="x", title="a\nb", body="B.")

    def test_empty_body_rejected(self):
        with pytest.raises(DataError):
            RawDocument(id="x", title="T", body="   ")

    def test_document_is_an_immutable_value(self):
        doc = RawDocument(id="x", title="T", body="B.")
        assert doc == RawDocument("x", "T", "B.", "", None) and (doc.source, doc.collected_at) == ("", None)
        assert repr(doc) == "RawDocument(id='x', title='T', body='B.', source='', collected_at=None)"
        with pytest.raises(AttributeError):
            doc.body = "C."
        with pytest.raises(AttributeError):
            doc.extra = 1
