"""Names and one-line text helpers that several layers share.

This module imports no other docstudy module, so a layer that needs only
these names loads none of the layers that use them: `metrics` reads the NLI
labels without loading task generation, and `dataset` stamps loss policies
and counts words without loading document analysis.
"""

from __future__ import annotations

import functools
import re

FULL_SEQUENCE = "full_sequence"
ANSWER_ONLY = "answer_only"
# the one study-task kind trained on its whole rendered document
MEMORIZATION = "memorization"

# the QA sets gen-qa asks a chat model for
TASK_GENERATION = "generation"
TASK_NLI = "nli"

NLI_OPTIONS = ("Yes", "It's impossible to say", "No")
# the short label of each option, index-paired with NLI_OPTIONS
NLI_LABELS = ("Yes", "Impossible", "No")

_WORD = re.compile(r"[^\W_]+")
# _WORD on lowercased ASCII text, which sre scans faster; left to re's
# cache, so a command that never tokenizes never compiles it
_ASCII_WORD = r"[a-z0-9]+"
_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def loss_policy(kind: str) -> str:
    """Memorization trains on the whole rendered document, the rest on the answer."""
    return FULL_SEQUENCE if kind == MEMORIZATION else ANSWER_ONLY


def tokenize_words(text: str) -> list[str]:
    """Lowercase word tokens: runs of letters and digits, each lowercased;
    punctuation and `_` are dropped.

    Only ASCII text is lowercased before the scan. Elsewhere lowercasing
    can change what the scan sees: "İ" lowercases to "i" and a combining
    dot, which is no word character, and whether "Σ" becomes the final "ς"
    depends on letters past the end of its token. So other text is scanned
    first, and each match is lowercased alone.
    """
    if text.isascii():
        return re.findall(_ASCII_WORD, text.lower())
    return [word.lower() for word in _WORD.findall(text)]


# templates come from the task config and the packaged prompts, so a few
# dozen entries hold them all
@functools.lru_cache(maxsize=64)
def _printf_form(template: str) -> str:
    """The template as a printf-style format: each placeholder becomes
    ``%(name)s`` and each literal ``%`` is doubled, so one ``%`` fills it in C."""
    parts = _PLACEHOLDER.split(template)
    parts[::2] = [text.replace("%", "%%") for text in parts[::2]]
    parts[1::2] = [f"%({name})s" for name in parts[1::2]]
    return "".join(parts)


class _KeepMissing(dict):
    """Values under which a placeholder without one reads as written."""

    __slots__ = ()

    def __missing__(self, name: str) -> str:
        return f"{{{name}}}"


def fill(template: str, **values) -> str:
    """Single-pass placeholder substitution; braces in values stay literal,
    and a placeholder without a value stays as written."""
    form = _printf_form(template)
    try:
        return form % values
    except KeyError:
        return form % _KeepMissing(values)


def options_block(options) -> str:
    return "\n".join(map("- {}".format, options))
