import errno
import hashlib
import json
import json.encoder
import json.scanner
import os
from json.encoder import ESCAPE_DCT, encode_basestring

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _codec_oracle as oracle
from docstudy import jsonio
from docstudy.dataset import ManifestError, ManifestReader
from docstudy.errors import DataError, MalformedLineError

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from("é\u2028\u0085\x00\"\\"), max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(10**40), 10**300])
    | st.floats()
    | st.sampled_from([-0.0, 1e308, float("nan")])
    | _TEXT
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=6)
_OBJECTS = st.dictionaries(_TEXT, _VALUES, max_size=4)
# every character class the quoter escapes or passes through: controls,
# quotes, backslashes, lone surrogates (category Cs) and astral characters
_QUOTED = st.text(
    st.characters(blacklist_categories=()) | st.sampled_from('\x00\x1f\n"\\/\x7f\ud800\udfff\U0001f600é\u2028'),
    max_size=40,
)

# strings for the long writer: every character JSON escapes, non-ASCII text,
# U+0085 and U+2028, and runs of lengths around both thresholds
_RUN_LENGTHS = [n + d for n in (jsonio._LONG_STRING, jsonio._LONG_LINE) for d in (-1, 0, 1)]
_LONG_PIECES = st.sampled_from([*ESCAPE_DCT, "é", "漢字", "\U0001f600", "\u0085", "\u2028", "a"])
_LONG_TEXT = st.lists(
    _LONG_PIECES | st.builds(lambda piece, n: (piece * n)[:n], _LONG_PIECES, st.sampled_from(_RUN_LENGTHS)),
    max_size=5,
).map("".join)
_LONG_OBJECTS = st.dictionaries(
    _LONG_TEXT,
    st.recursive(_LONG_TEXT, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_LONG_TEXT, inner, max_size=3),
                 max_leaves=4),
    max_size=3,
)


def _long_line(template: str, length: int) -> str:
    """`template` with its one %s filled by "x"s to `length` characters."""
    line = template % ("x" * (length - len(template) + 2))
    assert len(line) == length
    return line


class TestAtomicWrite:
    def test_failed_replace_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b"old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(jsonio.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"), jsonio.OutputSet() as outputs:
            outputs.open(target).write(b"new\n")
        assert target.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]

    def test_new_file_gets_the_permissions_of_a_plain_write(self, tmp_path):
        with jsonio.OutputSet() as outputs:
            outputs.open(tmp_path / "sub" / "a.json").write(b"{}\n")
        (tmp_path / "b.json").write_bytes(b"{}\n")
        mode = os.stat(tmp_path / "sub" / "a.json").st_mode
        assert mode == os.stat(tmp_path / "b.json").st_mode

    def test_an_exception_in_a_two_output_block_changes_neither_path(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(b"old a\n")
        with pytest.raises(DataError, match="bad record"), jsonio.OutputSet() as outputs:
            outputs.open(a).write(b"new a\n")
            outputs.open(b).write(b"new b\n")
            raise DataError("bad record")
        assert a.read_bytes() == b"old a\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl"]

    def test_a_failed_close_of_the_second_output_renames_neither(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(b"old a\n")
        b.write_bytes(b"old b\n")
        fdopen, opened = os.fdopen, []

        class FullOnClose:
            """A handle whose close closes the file, then reports a full disk, as a failed flush does."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                return self.handle.write(data)

            def close(self):
                self.handle.close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def second_fails(*args):
            opened.append(fdopen(*args))
            return opened[-1] if len(opened) == 1 else FullOnClose(opened[-1])

        monkeypatch.setattr(jsonio.os, "fdopen", second_fails)
        with pytest.raises(OSError) as err, jsonio.OutputSet() as outputs:
            outputs.open(a).write(b"new a\n")
            outputs.open(b).write(b"new b\n")
        assert err.value.errno == errno.ENOSPC
        assert (a.read_bytes(), b.read_bytes()) == (b"old a\n", b"old b\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "b.jsonl"]
        assert all(handle.closed for handle in opened)


class TestReaders:
    def test_only_newline_ends_a_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes('{"a": "x y\x85z"}\n\n  \n{"b": 1}\r\n'.encode("utf-8"))
        assert list(jsonio.iter_jsonl(path)) == [(1, {"a": "x y\x85z"}), (4, {"b": 1})]

    @pytest.mark.parametrize(
        "raw, reason",
        [(b'{"a": 1}\n[1]\n', "expected a JSON object, got list"), (b'{"a": 1}\n\xff\n', "invalid start byte")],
    )
    def test_bad_line_names_its_number(self, tmp_path, raw, reason):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(raw)
        with pytest.raises(MalformedLineError, match=reason) as err:
            list(jsonio.iter_jsonl(path))
        assert err.value.line_no == 2
        assert str(err.value).startswith(f"{path}:2: ")

    def test_read_json_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"a": ', "utf-8")
        with pytest.raises(DataError, match=f"^{path}: invalid JSON"):
            jsonio.read_json(path)


class TestCanonicalCodec:
    def test_codec_is_cpythons_c_encoder_and_scanner(self):
        # jsonio has no pure-Python fallback: CPython >= 3.10 always builds _json
        assert json.encoder.c_make_encoder is not None
        assert isinstance(jsonio._encode, json.encoder.c_make_encoder)
        assert isinstance(jsonio._scan, json.scanner.c_make_scanner)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_OBJECTS)
    def test_encode_line_is_json_dumps_and_round_trips(self, obj):
        line = jsonio.encode_line(obj)
        assert line == oracle.dumps_line(obj)
        assert oracle.same(jsonio.canonical_object(line.decode("utf-8")), obj)

    @pytest.mark.parametrize(
        "text",
        [
            '{"a":1}',  # no LF
            '{"a":1} \n',
            ' {"a":1}\n',
            '{"a":1}\r\n',
            '{"b":1,"a":2}\n',
            '{"a":1,"a":1}\n',
            '{"a": 1}\n',
            '{"a":"\\u00e9"}\n',
            '{"a":1.00}\n',
            '{"a":1E2}\n',
            '{"a":-0}\n',
            '{"a":1}{"a":1}\n',
            '[{"a":1}]\n',
            '"a"\n',
            "\n",
            "",
            '{"a":\n',
            '\ufeff{"a":1}\n',
        ],
    )
    def test_anything_but_the_canonical_line_is_refused(self, text):
        assert jsonio.canonical_object(text) is None

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_QUOTED, st.integers(jsonio._LONG_STRING - 40, jsonio._LONG_STRING + 40))
    def test_quote_is_encode_basestring(self, text, pad):
        for s in (text, text + "a" * pad, "a" * pad + text, text * pad):
            assert jsonio._quote(s) == encode_basestring(s)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_LONG_OBJECTS)
    def test_the_long_writer_gives_encode_lines_bytes(self, obj):
        line = jsonio.encode_line(obj, jsonio._LONG_LINE)
        assert line == jsonio.encode_line(obj)
        assert jsonio.canonical_object(line.decode("utf-8")) == obj

    @pytest.mark.parametrize("length", [jsonio._LONG_LINE - 1, jsonio._LONG_LINE], ids=["short-path", "long-path"])
    @pytest.mark.parametrize(
        "template",
        [
            '{"a":"%s\\u0041"}\n',
            '{"a":"%s\\/"}\n',
            '{"a":"%s\\u001F"}\n',
            '{"a":"%s\\u000a"}\n',
            '{"a":"%s\\ud83d\\ude00"}\n',
            '{"a": "%s"}\n',
            '{"b":"%s","a":1}\n',
            '{"a":"%s","a":"x"}\n',
        ],
        ids=["escaped-A", "escaped-slash", "upper-hex-control", "escaped-newline", "escaped-surrogate-pair",
             "space-after-colon", "unsorted-keys", "duplicate-key"],
    )
    def test_a_non_canonical_long_line_is_refused(self, template, length):
        text = _long_line(template, length)
        assert jsonio.canonical_object(text) is None
        # the object's own line is accepted, so only the spelling was refused
        line = jsonio.encode_line(json.loads(text)).decode("utf-8")
        assert jsonio.canonical_object(line) == json.loads(text)

    def test_canonical_line_gives_its_object(self):
        text = '{"a":[1,-0.0,1e+308,NaN,"\u2028é"],"b":{"c":null}}\n'
        obj = jsonio.canonical_object(text)
        assert oracle.same(obj, {"a": [1, -0.0, 1e308, float("nan"), "\u2028é"], "b": {"c": None}})
        assert jsonio.encode_line(obj) == text.encode("utf-8")

    @pytest.mark.parametrize("name", sorted(oracle.MUTATIONS))
    def test_reader_refuses_a_mutated_line_as_the_two_step_check_did(self, tmp_path, name):
        path = tmp_path / "m.jsonl"
        # short lines, and lines long enough for the long-line encoder
        for pad in (0, jsonio._LONG_LINE):
            body = [jsonio.encode_line(record) for record in oracle.sample_records(5, pad)]
            footer = {"checksum": hashlib.sha256(b"".join(body)).hexdigest(), "count": len(body), "seed": 0}
            for seed in range(20):
                data = oracle.mutated_manifest(body, jsonio.encode_line(footer), name, seed)
                path.write_bytes(data)
                with pytest.raises(ManifestError) as err:
                    list(ManifestReader(path))
                assert (err.value.reason, err.value.record) == oracle.old_verdict(data), (pad, seed)
