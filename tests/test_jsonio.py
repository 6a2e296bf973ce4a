import os

import pytest

from docstudy import jsonio
from docstudy.errors import DataError, MalformedLineError


class TestAtomicWrite:
    def test_failed_replace_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b"old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(jsonio.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            jsonio.atomic_write(target, b"new\n")
        assert target.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]

    def test_new_file_gets_the_permissions_of_a_plain_write(self, tmp_path):
        jsonio.atomic_write(tmp_path / "sub" / "a.json", b"{}\n")
        (tmp_path / "b.json").write_bytes(b"{}\n")
        mode = os.stat(tmp_path / "sub" / "a.json").st_mode
        assert mode == os.stat(tmp_path / "b.json").st_mode


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
