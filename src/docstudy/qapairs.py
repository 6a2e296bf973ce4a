"""QA pairs, the rows `gen-qa` writes and `split` and `stats` read, and
the reader of their JSONL files. Kept apart from `qagen`, so the commands
that only read pairs do not load QA generation."""

from __future__ import annotations

from collections import namedtuple

from .errors import DataError, MalformedLineError
from .jsonio import iter_jsonl, reject_lone_surrogates
from .vocab import NLI_LABELS, TASK_NLI

_TEXT_FIELDS = ("doc_id", "task", "question", "answer", "answer_label")


class QAPair(namedtuple("QAPair", "doc_id task question answer options answer_label")):
    __slots__ = ()

    def __new__(
        cls, doc_id: str, task: str, question: str, answer: str,
        options: tuple[str, ...] | None = None, answer_label: str | None = None,
    ):
        fields = dict(zip(_TEXT_FIELDS, (doc_id, task, question, answer, answer_label)))
        fields.update((f"options[{i}]", option) for i, option in enumerate(options or ()))
        reject_lone_surrogates(fields)
        if task == TASK_NLI:
            if answer_label not in NLI_LABELS:
                raise DataError(f"bad NLI label {answer_label!r}")
        elif not answer:
            raise DataError("generation answer must be non-empty")
        return tuple.__new__(cls, (doc_id, task, question, answer, options, answer_label))

    def to_record(self) -> dict:
        record = {
            "doc_id": self.doc_id,
            "task": self.task,
            "question": self.question,
            "answer": self.answer,
        }
        if self.options is not None:
            record["options"] = list(self.options)
        if self.answer_label is not None:
            record["answer_label"] = self.answer_label
        return record

    @classmethod
    def from_record(cls, record: dict) -> "QAPair":
        for key in ("doc_id", "task", "question", "answer"):
            if not isinstance(record.get(key), str):
                raise DataError(f"QA record needs a string {key!r}")
        options = record.get("options")
        if not (options is None or isinstance(options, list) and all(isinstance(o, str) for o in options)):
            raise DataError("QA record 'options' must be a list of strings or null")
        if not isinstance(record.get("answer_label"), (str, type(None))):
            raise DataError("QA record 'answer_label' must be a string or null")
        return cls(
            doc_id=record["doc_id"],
            task=record["task"],
            question=record["question"],
            answer=record["answer"],
            options=tuple(options) if options else None,
            answer_label=record.get("answer_label"),
        )


def iter_qa_jsonl(path):
    """Yield (line number, pair) for each row of a QA JSONL file."""
    for line_no, record in iter_jsonl(path):
        try:
            pair = QAPair.from_record(record)
        except DataError as exc:
            raise MalformedLineError(path, line_no, str(exc)) from exc
        yield line_no, pair


def read_qa_jsonl(path) -> list[QAPair]:
    return [pair for _, pair in iter_qa_jsonl(path)]
