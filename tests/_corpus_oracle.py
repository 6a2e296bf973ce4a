"""Reference oracle: `docstudy.corpus.normalize_text` as it was before its fast path.

The library skips the space/tab regex when the text holds neither a tab
nor two spaces in a row. This copy runs the regex on every line, as the
earlier code did, and is copied not imported, so a change to the rule
shows up as a difference in `tests/test_corpus.py`.
"""

from __future__ import annotations

import re


def normalize_text(text: str) -> str:
    """Collapse space/tab runs inside lines, keep newlines, trim edges."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [re.sub(r"[ \t]+", " ", line).strip() for line in text.split("\n")]
    return "\n".join(lines).strip("\n")
