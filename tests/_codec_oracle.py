"""Reference oracle: the canonical line check as it was before the one-scan codec.

`docstudy.dataset.ManifestReader` accepts a record line when
`jsonio.canonical_object` (one C scan, one C encode) returns its object.
This module keeps the earlier two-step check, `json.loads` and then a
comparison with `json.JSONEncoder.encode`, together with the footer checks
of that reader, copied not imported, so a change to a rule shows up as a
difference. It also holds the seeded mutation table both are run on.

It needs no pytest, so it also runs as a script on any CPython >= 3.10:

    PYTHONPATH=src python tests/_codec_oracle.py [--rounds N]

checks `encode_line` against `json.dumps` on random objects, and the
reader against this oracle on every mutation, and exits 1 on a difference.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

_OLD = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def dumps_line(obj) -> bytes:
    """The canonical line as `json.dumps` spells it."""
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def old_verdict(data: bytes) -> tuple[str, int | None] | None:
    """(reason, record index) the two-step reader gave for manifest bytes
    `data`, or None if it accepted them."""
    # only LF ends a line, as when reading a file in binary mode
    lines = io.BytesIO(data).readlines()
    if not lines:
        return "empty file", 0
    digest = hashlib.sha256()
    for count, line in enumerate(lines[:-1]):
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            return f"unparseable record: {_unparseable(exc)}", count
        if not isinstance(record, dict):
            return f"unparseable record: expected a JSON object, got {type(record).__name__}", count
        if (_OLD.encode(record) + "\n").encode("utf-8") != line:
            return "non-canonical record encoding", count
        digest.update(line)
    count = len(lines) - 1
    try:
        footer = json.loads(lines[-1].decode("utf-8"))
    except ValueError as exc:
        return f"unparseable footer: {_unparseable(exc)}", count
    if not isinstance(footer, dict):
        return f"unparseable footer: expected a JSON object, got {type(footer).__name__}", count
    expected = footer.get("count")
    if "checksum" not in footer or not isinstance(expected, int):
        return "missing checksum footer", count
    if count > expected:
        return "more records than footer count", expected
    if count < expected:
        return f"truncated: {count} of {expected} records", max(count - 1, 0)
    if not count:
        return "no records before the footer", None
    if digest.hexdigest() != footer["checksum"]:
        return "checksum mismatch", None
    return None


def _unparseable(exc: ValueError) -> str:
    # a line that is not UTF-8 never reached json.loads
    return str(exc) if isinstance(exc, UnicodeDecodeError) else f"invalid JSON ({exc})"


def same(a, b) -> bool:
    """Equality that tells -0.0 from 0.0 and takes NaN as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


# one record line, as bytes, to a mutated line; each draws what it needs from rng
def _added_space(line, rng):
    at = rng.choice([i for i, byte in enumerate(line) if byte in b",:"]) + 1
    return line[:at] + b" " + line[at:]


def _swapped_keys(line, rng):
    record = json.loads(line)
    keys = list(record)
    i = rng.randrange(len(keys) - 1)
    keys[i], keys[i + 1] = keys[i + 1], keys[i]
    text = json.dumps({k: record[k] for k in keys}, ensure_ascii=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def _escaped_e_acute(line, rng):
    at = rng.choice([i for i in range(len(line)) if line.startswith("é".encode(), i)])
    return line[:at] + b"\\u00e9" + line[at + 2 :]


def _float_digit(line, rng):
    return line.replace(b"1.0", b"1.00", 1)


def _trailing_junk(line, rng):
    return line[:-1] + rng.choice([b" ", b"x", b"}", b"{}", b"\t"]) + b"\n"


def _leading_bom(line, rng):
    return b"\xef\xbb\xbf" + line


def _crlf(line, rng):
    return line[:-1] + b"\r\n"


def _top_level_list(line, rng):
    return b"[" + line[:-1] + b"]\n"


def _invalid_utf8(line, rng):
    at = rng.randrange(len(line) - 1)
    return line[:at] + rng.choice([b"\xff", b"\xc3", b"\x80"]) + line[at + 1 :]


MUTATIONS = {
    "added-space": _added_space,
    "swapped-keys": _swapped_keys,
    "escaped-e-acute": _escaped_e_acute,
    "float-digit": _float_digit,
    "trailing-junk": _trailing_junk,
    "leading-bom": _leading_bom,
    "crlf": _crlf,
    "top-level-list": _top_level_list,
    "invalid-utf8": _invalid_utf8,
}


def sample_records(n: int, pad: int = 0) -> list[dict]:
    """Records every mutation applies to: several keys, an é and a 1.0; each
    text ends in `pad` more characters."""
    return [
        {"id": f"doc-{i}", "score": 1.0, "tags": ["café", i], "text": f"Écrit {i} suite\u0085.{'x' * pad}"}
        for i in range(n)
    ]


def mutated_manifest(records_bytes: list[bytes], footer: bytes, name: str, seed: int) -> bytes:
    """The manifest with one seeded record line changed by mutation `name`."""
    rng = random.Random(f"{name}:{seed}")
    lines = list(records_bytes)
    at = rng.randrange(len(lines))
    lines[at] = MUTATIONS[name](lines[at], rng)
    return b"".join(lines) + footer


def random_object(rng: random.Random, depth: int = 0):
    """A random JSON object: nested, non-ASCII, U+2028/U+0085, -0.0, 1e308, big ints, NaN."""

    def text():
        alphabet = "ab é\u2028\u0085\"\\/\x00\x1f\U0001f600"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))

    def value(level):
        kind = rng.randrange(9 if level < 3 else 7)
        if kind == 0:
            return rng.choice([None, True, False])
        if kind == 1:
            return rng.choice([0, -1, 2**63, -(10**40), 10**300, rng.randrange(-(10**6), 10**6)])
        if kind == 2:
            return rng.choice([0.0, -0.0, 1.0, 1e308, -1e-308, 5e-324, float("nan"), float("inf"), -float("inf")])
        if kind == 3:
            return rng.uniform(-1e6, 1e6)
        if kind in (4, 5, 6):
            return text()
        if kind == 7:
            return [value(level + 1) for _ in range(rng.randrange(4))]
        return obj(level + 1)

    def obj(level):
        return {text(): value(level) for _ in range(rng.randrange(5))}

    return obj(depth)


def main(argv: list[str]) -> int:
    from docstudy.dataset import ManifestError, ManifestReader
    from docstudy.jsonio import _LONG_LINE, canonical_object, encode_line

    rounds = int(argv[argv.index("--rounds") + 1]) if "--rounds" in argv else 2000
    failures = []
    rng = random.Random(0)
    for i in range(rounds):
        obj = random_object(rng)
        line = encode_line(obj)
        if line != dumps_line(obj):
            failures.append(f"encode_line differs from json.dumps on object {i}: {obj!r}")
        elif not same(canonical_object(line.decode("utf-8")), obj):
            failures.append(f"canonical_object does not give back object {i}: {obj!r}")

    cases = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.jsonl"
        # short lines, and lines long enough for the long-line encoder
        for pad in (0, _LONG_LINE):
            body = [encode_line(record) for record in sample_records(5, pad)]
            footer = encode_line({"checksum": hashlib.sha256(b"".join(body)).hexdigest(), "count": len(body), "seed": 0})
            for name in MUTATIONS:
                for seed in range(20):
                    data = mutated_manifest(body, footer, name, seed)
                    path.write_bytes(data)
                    try:
                        for _ in ManifestReader(path):
                            pass
                        verdict = None
                    except ManifestError as exc:
                        verdict = exc.reason, exc.record
                    cases += 1
                    if verdict != old_verdict(data):
                        failures.append(f"{name} pad {pad} seed {seed}: reader {verdict!r}, oracle {old_verdict(data)!r}")
    for failure in failures:
        print(failure)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {rounds} objects, {cases} mutated manifests, {len(failures)} differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
