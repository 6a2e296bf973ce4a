"""Counter-based deterministic random streams.

Every sampling decision in the pipeline flows from a 64-bit stream keyed
by (corpus seed, document id, purpose tag), so regeneration is bit-exact
across platforms and independent of Python's random module internals.
"""

from __future__ import annotations

from functools import lru_cache

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    # z < 2**64, so this needs no mask
    return z ^ (z >> 31)


# a purpose tag (a task kind, "split") recurs for every document, so it is
# hashed once per process; a document id is used once and soon evicted
@lru_cache(maxsize=64)
def _tag_bits(tag: str) -> int:
    """The first 64 bits of the sha256 of the tag's UTF-8."""
    import hashlib  # loads libcrypto, so only a command that hashes pays for it

    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def mix_key(seed: int, *tags: str) -> int:
    """Fold a seed and any number of string tags into one 64-bit key.

    Tags fold one at a time, so ``mix_key(seed, a, b)`` is
    ``mix_key(mix_key(seed, a), b)``.
    """
    key = seed & _MASK
    for tag in tags:
        key = _splitmix64(key ^ _tag_bits(tag))
    return key


class Stream:
    """SplitMix64 sequence with unbiased-enough bounded draws."""

    __slots__ = ("key", "_state")

    def __init__(self, key: int):
        self.key = key & _MASK
        self._state = self.key

    def below(self, n: int) -> int:
        """Draw an integer in [0, n) via multiply-shift."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        # _splitmix64 of the state, inline, so a draw is this one call
        z = self._state = (self._state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return ((z ^ (z >> 31)) * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        below = self.below
        for i in range(len(items) - 1, 0, -1):
            j = below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices out of range(n), returned in ascending order."""
        if k > n:
            raise ValueError(f"cannot sample {k} from {n}")
        # a partial Fisher-Yates over range(n) that stores only the swapped
        # positions, so memory is O(k) whatever n is
        swapped: dict[int, int] = {}
        below = self.below
        for i in range(k):
            j = i + below(n - i)
            swapped[i], swapped[j] = swapped.get(j, j), swapped.get(i, i)
        return sorted(map(swapped.__getitem__, range(k)))


def stream_for(seed: int, *tags: str) -> Stream:
    """Stream keyed by the corpus seed plus contextual tags."""
    return Stream(mix_key(seed, *tags))
