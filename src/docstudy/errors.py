"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
OSError -> 3.
"""


class DocstudyError(Exception):
    """Base class for all package errors."""


class UsageError(DocstudyError):
    """Bad invocation: unknown preset, missing flag, bad config value."""


class DataError(DocstudyError):
    """Input data violates a documented contract."""


class MalformedLineError(DataError):
    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no
