"""The one way docstudy reads and writes JSON data files.

A canonical line keeps U+0085, U+2028 and U+2029 raw, so only "\\n" ends a
line when reading (`str.splitlines` would split inside a record).

The canonical codec is CPython's C encoder and scanner, each built once:
`json.JSONEncoder.encode` builds a new C encoder on every call. There are
two encoders, which give the same bytes, and one rule picks between them:
a line of 4,096 characters or more (`_LONG_LINE`) takes `_encode_long`,
any other `_encode`. `_encode` quotes strings with C's `encode_basestring`,
which reads every character twice. `_encode_long`'s quoter `_quote`
escapes a string of 256 characters or more (`_LONG_STRING`) with one `in`
test per character JSON escapes, and a `replace` only for those present.

- Writing: `encode_line(obj, length)` takes the long encoder when the
  text the line is built from holds at least `_LONG_LINE` characters.
  `gen-tasks` passes the length of the document body that all of a
  document's records are built from; every other line is written with
  `_encode`, since calling `_quote` costs each short string a Python call.
- Checking: `canonical_object` re-encodes the line it parsed with the
  encoder its length picks, and compares.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import suppress
from json.decoder import JSONDecoder
from json.encoder import ESCAPE_DCT, c_make_encoder, encode_basestring
from pathlib import Path

from .errors import DataError, MalformedLineError


def _c_encoder(quote):
    # the arguments JSONEncoder(sort_keys=True, ensure_ascii=False,
    # separators=(",", ":")).iterencode passes: markers, default, string
    # encoder, indent, key and item separators, sort_keys, skipkeys,
    # allow_nan; no circular-reference markers, because records are trees
    return c_make_encoder(None, json.JSONEncoder().default, quote, None, ":", ",", True, False, True)


_encode = _c_encoder(encode_basestring)
# both set by timing: over perfbench's manifests, lines under 1,024
# characters check faster with `_encode` and lines of 4,096 or more with
# `_encode_long` (calling `_quote` costs each string a Python call); alone,
# a string under 256 characters quotes faster in C than by 34 `in` tests
_LONG_LINE = 4096
_LONG_STRING = 256
# backslash first, so no escape that adds one is escaped again
_ESCAPES = sorted(ESCAPE_DCT.items(), key=lambda item: item[0] != "\\")


def _quote(s: str) -> str:
    """`encode_basestring(s)`, in fewer passes over a long `s` that needs few escapes."""
    if len(s) < _LONG_STRING:
        return encode_basestring(s)
    for char, escape in _ESCAPES:
        if char in s:
            s = s.replace(char, escape)
    return f'"{s}"'  # one copy, where '"' + s + '"' makes two


_encode_long = _c_encoder(_quote)
# json.loads without its whitespace regexes and wrapper frames
_scan = JSONDecoder().scan_once
# JSON's \u escapes can spell a lone surrogate, which UTF-8 cannot encode
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def encode_line(obj, length: int = 0) -> bytes:
    """The canonical JSONL line of `obj`: sorted keys, no spaces, raw UTF-8, LF.

    `length`, when the caller knows it, is that of the text the line is built
    from; it picks the encoder by the rule `canonical_object` uses, and
    never changes the bytes.
    """
    encode = _encode_long if length >= _LONG_LINE else _encode
    return ("".join(encode(obj, 0)) + "\n").encode("utf-8")


def canonical_object(text: str) -> dict | None:
    """The object `text` holds if `text` is its canonical line, else None.

    Exact: `text` must equal the canonical encoding of the object it parses
    to, plus LF. `parse_object` says why a refused line is not JSON.
    """
    try:
        obj, _ = _scan(text, 0)
    except (StopIteration, ValueError):
        return None
    # the rule encode_line picks its encoder by, on the line's own length
    encode = _encode_long if len(text) >= _LONG_LINE else _encode
    if isinstance(obj, dict) and "".join(encode(obj, 0)) + "\n" == text:
        return obj
    return None


def reject_lone_surrogates(fields: dict) -> None:
    """Raise DataError naming the first string value that UTF-8 cannot encode."""
    for key, value in fields.items():
        # isascii is O(1), so ASCII text costs no scan
        if isinstance(value, str) and not value.isascii() and _SURROGATE.search(value):
            raise DataError(f"{key!r} holds a lone surrogate, which UTF-8 cannot encode")


class OutputSet:
    """Output files that replace their paths together, on a clean exit only.

    `open(path)` returns a binary handle on a temp file beside `path`. A
    clean exit closes every handle, then renames each over its path. Any
    exception, a failed close included, removes every temp file, so every
    path keeps its old bytes. A crash or a failed rename between two renames
    can still leave some paths new and the rest old; nothing is fsynced.
    """

    def __enter__(self) -> "OutputSet":
        self._files = []
        return self

    def open(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique per call, so concurrent writers never share a temp file; mode
        # 0o666 leaves permissions to the umask, as a plain write does
        tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
        handle = os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
        self._files.append((tmp, path, handle))
        return handle

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            try:
                for _, _, handle in self._files:
                    handle.close()
                for tmp, path, _ in self._files:
                    os.replace(tmp, path)
                return
            except BaseException:
                self._discard()
                raise
        self._discard()

    def _discard(self) -> None:
        for tmp, _, handle in self._files:
            with suppress(OSError):  # a close that failed once may fail again
                handle.close()
            tmp.unlink(missing_ok=True)


def write_jsonl(path, objs) -> int:
    """Atomically write one canonical line per object; return the line count."""
    count = 0
    with OutputSet() as outputs:
        handle = outputs.open(path)
        for count, obj in enumerate(objs, 1):
            handle.write(encode_line(obj))
    return count


def encode_json(obj) -> bytes:
    """The bytes of a JSON report file: sorted keys, two-space indent, LF."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def read_json(path):
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def parse_object(line: str) -> dict:
    """The JSON object on one line; the ValueError says why there is none."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def iter_jsonl(path):
    """Yield (line number, object) for each non-blank line of a JSONL file."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
                if line.isspace():
                    continue
                obj = parse_object(line)
            except ValueError as exc:
                raise MalformedLineError(path, line_no, str(exc)) from None
            yield line_no, obj
