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
        return _WORD.findall(text.lower())
    return [word.lower() for word in _WORD.findall(text)]


# templates come from the task config and the packaged prompts, so a few
# dozen entries hold them all
@functools.lru_cache(maxsize=64)
def _template_parts(template: str) -> tuple[str, ...]:
    """Literal text at even indices, placeholder names at odd ones."""
    return tuple(_PLACEHOLDER.split(template))


def fill(template: str, **values) -> str:
    """Single-pass placeholder substitution; braces in values stay literal,
    and a placeholder without a value stays as written."""
    parts = list(_template_parts(template))
    for i in range(1, len(parts), 2):
        name = parts[i]
        parts[i] = str(values[name]) if name in values else f"{{{name}}}"
    return "".join(parts)


def options_block(options) -> str:
    return "\n".join(f"- {opt}" for opt in options)
