"""Reference oracle: `LogProbRecord`'s checks as they were before each ran
as one map over a builtin.

`docstudy.metrics.LogProbRecord` runs each check over the values in C.
This module keeps the generator-expression checks, copied not imported, so
a change to a check, its message or their order shows up as a difference.
"""

from __future__ import annotations

import math

from docstudy.errors import DataError


def logprob_record(doc_id: str, logprobs) -> tuple[str, tuple[float, ...]]:
    """``(doc_id, values)`` of a valid record; raises `DataError` as the
    library does."""
    try:
        values = tuple(logprobs)
        if any(isinstance(x, (str, bytes, bytearray, bool)) for x in values):
            raise TypeError("a string or a bool")
        values = tuple(map(float, values))
    except (TypeError, ValueError) as exc:
        raise DataError(f"logprob record {doc_id!r} has a non-numeric value") from exc
    except OverflowError:
        raise DataError(f"logprob record {doc_id!r} has a non-finite value") from None
    if not values:
        raise DataError(f"logprob record {doc_id!r} has no tokens")
    if not all(math.isfinite(x) for x in values):
        raise DataError(f"logprob record {doc_id!r} has a non-finite value")
    if any(x > 0 for x in values):
        raise DataError(f"logprob record {doc_id!r} has positive values")
    return doc_id, values
