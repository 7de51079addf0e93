"""Oracles shared by the tests, which the library does not use.

`koszul_sign` counts odd-odd inversions of a permutation directly,
`units_of` lists a monomial's symbols unit by unit, and `standard_form`
sorts a whole word by adjacent transpositions; the library signs and
products go by `merge_words` and `algebra.derivation` instead.  `eager_twist_tables` tabulates the twist
by an augmentation on every basis word up front, where the library
computes each word on its first read.  `reliable_cap_full_table` reads
the truncation's reliable cap off every basis word, where the library
reads only the words below word_cap.
"""

from sftstring.algebra import KIND_H, GradedSeries, NormalizationError, q_degree
from sftstring.bv import LinearMap, _exp_words


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


def standard_form(word: list):
    """(sign, standard-form monomial) of a word of (symbol, exponent)
    pairs, or None when an odd symbol ends with an exponent above 1;
    sorts `word` in place.

    An insertion sort by sort_key counts the odd-odd transpositions,
    then equal neighbours merge.  Same-orbit p, q pairs take the plain
    Koszul swap (no contraction term).
    """
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1][0].sort_key > word[j][0].sort_key:
            a, b = word[j - 1], word[j]
            if (a[0].parity * a[1]) % 2 and (b[0].parity * b[1]) % 2:
                sign = -sign
            word[j - 1], word[j] = b, a
            j -= 1
    merged = []
    for s, e in word:
        if merged and merged[-1][0] == s:
            merged[-1] = (s, merged[-1][1] + e)
        else:
            merged.append((s, e))
    out = []
    for s, e in merged:
        if e == 0:
            continue
        if s.parity and e > 1:
            return None
        if e < 0 and s.kind != KIND_H:
            raise NormalizationError("negative exponent on %r" % (s,))
        out.append((s, e))
    return sign, tuple(out)


def eager_twist_tables(D, beta):
    """The tables of Phi, Phi^-1 and D^beta = Phi D Phi^-1, each value
    computed up front on every basis word of D.spec, in basis order.

    Phi = e^(beta + iota) and Phi^-1 = e^(-beta + iota), iota the
    inclusion of the generators.
    """
    spec = D.spec
    maps = []
    for sign in (1, -1):
        table = {((s, 1),): GradedSeries({((s, 1),): 1})
                 for s in spec.symbols}
        for m, v in beta.table.items():
            table[m] = table.get(m, GradedSeries.zero()) + v.scale(sign)
        on_word = _exp_words(table, spec, {})
        maps.append(LinearMap(spec, {m: on_word(m)
                                     for m in spec.basis_monomials()}, 0))
    Phi, PhiInv = maps
    return (Phi.table, PhiInv.table,
            {m: Phi.apply(D.apply(PhiInv.value(m))) for m in Phi.table})


def reliable_cap_full_table(D):
    """bv.reliable_cap read off D's whole table: word_cap less the
    largest q-degree increase over every basis word, floored at 0."""
    return D.spec.word_cap - max([0] + [
        q_degree(mono) - q_degree(m) for m, v in D.table.items()
        for mono in v.terms])
