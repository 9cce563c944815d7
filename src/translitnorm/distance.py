"""Levenshtein edit distance by the bit-vector algorithm of Myers (JACM 1999),
in the form Hyyrö (2001) gives for the edit distance of two whole strings.

Distances are plain non-negative ints counting unit-cost inserts, deletes
and substitutions. Strings are compared code point by code point; any case
folding happens upstream in tokenization. Bit vectors are Python ints, so
neither string length nor alphabet is limited.
"""

from __future__ import annotations

__all__ = ["levenshtein", "levenshtein_bounded"]


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character edits turning ``a`` into ``b``.

    Bit i of ``pv`` (``mv``) is set when row i + 1 of the DP column over the
    shorter string is one more (less) than row i; each longer-string
    character advances the column.

    >>> levenshtein("RISK", "MASK")
    2
    >>> levenshtein("phule", "phulen")
    1
    >>> levenshtein("", "abc")
    3
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    masks: dict[str, int] = {}  # character -> the positions it holds in b
    bit = 1
    for ch in b:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    full, top = bit - 1, bit >> 1
    pv, mv, d = full, 0, len(b)  # column 0: every vertical delta is +1
    for ch in a:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            d += 1
        elif mh & top:
            d -= 1
        ph = (ph << 1) | 1  # row 0 of the DP grows by one per column
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return d


def levenshtein_bounded(a: str, b: str, bound: int) -> int | None:
    """Exact distance when it is at most ``bound``, otherwise None."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if abs(len(a) - len(b)) > bound:
        return None
    d = levenshtein(a, b)
    return d if d <= bound else None
