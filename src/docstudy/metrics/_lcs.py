"""Longest-common-subsequence length, the core of Rouge-L.

`lcs_length` is the bit-parallel LCS-length recurrence (Allison & Dix 1986,
in the form of Hyyrö 2004, "Bit-parallel LCS-length computation
revisited"), run on Python's big ints, so each token of `b` costs a few
word-parallel operations over all of `a`. `lcs_length_python` is the
plain two-row dynamic program, kept as the reference it is tested against.
"""

from __future__ import annotations


def lcs_length_python(a: list[int], b: list[int]) -> int:
    """Two-row dynamic program over int ids."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    if m > n:
        a, b = b, a
        n, m = m, n
    prev = [0] * (m + 1)
    for x in a:
        curr = [0] * (m + 1)
        for j, y in enumerate(b):
            if x == y:
                curr[j + 1] = prev[j] + 1
            else:
                up = prev[j + 1]
                left = curr[j]
                curr[j + 1] = up if up >= left else left
        prev = curr
    return prev[m]


def lcs_length(a, b) -> int:
    """LCS length of two sequences of hashable tokens.

    Bit i of a token's mask is set where a[i] is that token. `v` starts
    all ones; after the last token of `b`, its zero bits count the LCS.
    """
    masks: dict = {}
    bit = 1
    for tok in a:
        masks[tok] = masks.get(tok, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    for tok in b:
        mask = masks.get(tok)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()
