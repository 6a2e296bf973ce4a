"""Names and one-line text helpers that several layers share.

This module imports no other docstudy module, so a layer that needs only
these names loads none of the layers that use them: `metrics` reads the NLI
labels without loading task generation, and `dataset` stamps loss policies
and counts words without loading document analysis.
"""

from __future__ import annotations

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
    """Lowercase word tokens: letters and digits kept, punctuation dropped."""
    return [match.group().lower() for match in _WORD.finditer(text)]


def fill(template: str, **values) -> str:
    """Single-pass placeholder substitution; braces in values stay literal."""
    return _PLACEHOLDER.sub(
        lambda m: str(values[m.group(1)]) if m.group(1) in values else m.group(0),
        template,
    )


def options_block(options) -> str:
    return "\n".join(f"- {opt}" for opt in options)
