"""Oracles shared by the tests, which the library does not use.

`koszul_sign` counts odd-odd inversions of a permutation directly, and
`units_of` lists a monomial's symbols unit by unit; the library signs
and products go by `standard_form`, `merge_words` and
`algebra.derivation` instead.
"""

from sftstring.algebra import KIND_H


def units_of(m):
    """The symbols of a monomial other than h, each repeated by its
    exponent."""
    out = []
    for s, e in m:
        if s.kind != KIND_H:
            out.extend([s] * e)
    return out


def koszul_sign(symbols, permutation) -> int:
    """Sign of rearranging `symbols` by `permutation`.

    permutation[k] is the position in `symbols` of the k-th element of
    the rearranged word.  The sign is -1 to the number of inversions
    between odd symbols, counted directly.
    """
    n = len(symbols)
    if sorted(permutation) != list(range(n)):
        raise ValueError("not a permutation of positions")
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if permutation[i] > permutation[j]:
                if symbols[permutation[i]].parity and symbols[permutation[j]].parity:
                    sign = -sign
    return sign
