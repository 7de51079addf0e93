"""Oracles shared by the tests, which the library does not use.

`koszul_sign` counts odd-odd inversions of a permutation directly,
`units_of` lists a monomial's symbols unit by unit, and `standard_form`
sorts a whole word by adjacent transpositions; the library signs and
products go by `merge_words` and `algebra.derivation` instead.  `eager_twist_tables` tabulates the twist
by an augmentation on every basis word up front, where the library
computes each word on its first read.  `reliable_cap_full_table` reads
the truncation's reliable cap off every basis word, where the library
reads only the words below word_cap.  `order_at_most_reference`
decides a map's order by nested graded commutators, one table per
multiset of generators, where the library walks the basis once for the
Koszul brackets.  `linked_pairs_by_walk` finds the end of each shared
run of two strands by walking along it, where `Surface._linked_pairs`
keeps the pairs a one-step test accepts.
"""

from typing import Dict, List, Optional, Tuple

from sftstring.algebra import (KIND_H, GradedSeries, Monomial,
                               NormalizationError, TruncationContext, mul,
                               q_degree)
from sftstring.bv import LinearMap, _exp_words

_WIDE = TruncationContext(max_p_degree=64, max_hbar=64, min_hbar=-64,
                          max_word_length=64)


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


def order_at_most_reference(op: LinearMap, k: int,
                            domain_cap: Optional[int] = None,
                            first: int = 0) -> Tuple[bool, bool]:
    """Inductive differential-operator criterion with Koszul signs.

    op has order <= k iff for every generator a the graded commutator
    x -> op(a x) - (-1)^(|op||a|) a op(x) has order <= k-1; order <= -1
    means the zero map.  Left multiplications are the order-zero
    operators of the graded setting.  Returns (holds, conclusive).

    Left multiplications graded-commute, so [[op, a], b] = +-[[op, b], a]
    and each multiset of generators is taken once: below the commutator
    with spec.symbols[first], generators are picked from first on.
    """
    spec = op.spec
    if domain_cap is None:
        domain_cap = spec.word_cap
    if k < 0:
        return all(v.is_zero() for m, v in op.table.items()
                   if q_degree(m) <= domain_cap), True
    if spec.word_cap < k + 1:
        return True, False
    conclusive = domain_cap >= 1
    words = spec.basis_monomials(domain_cap - 1)
    for i in range(first, len(spec.symbols)):
        a = spec.symbols[i]
        table: Dict[Monomial, GradedSeries] = {}
        gen = GradedSeries.generator(a)
        sign = -1 if (op.degree % 2) and (a.degree % 2) else 1
        for x in words:
            ax = mul(gen, GradedSeries({x: 1}), _WIDE)
            table[x] = op.apply(ax) - mul(gen, op.value(x), spec.caps).scale(sign)
        sub = LinearMap(spec, table, op.degree + a.degree)
        ok, concl = order_at_most_reference(sub, k - 1, domain_cap - 1, i)
        conclusive = conclusive and concl
        if not ok:
            return False, conclusive
    return True, conclusive


def pair_canonical_walk(w1, i, w2, j) -> Optional[Tuple[int, int]]:
    """The end of the shared run through occurrence pair (i, j), or None
    when the two strands trace one line.

    Walk back while the strands entered along one edge (a parallel run)
    or strand 1 entered along the edge strand 2 leaves by (an
    anti-parallel run); a pair seen twice closes a cycle.
    """
    n1, n2 = len(w1), len(w2)
    seen = set()
    while True:
        if (i, j) in seen:
            return None
        seen.add((i, j))
        in1 = -w1[(i - 1) % n1]
        in2 = -w2[(j - 1) % n2]
        out2 = w2[j % n2]
        if in1 == in2:
            i, j = (i - 1) % n1, (j - 1) % n2
        elif in1 == out2:
            i, j = (i - 1) % n1, (j + 1) % n2
        else:
            return (i, j)


def linked_pairs_by_walk(S, w1, w2) -> List[Tuple[int, int, int]]:
    """`Surface._linked_pairs` with each occurrence pair (off the
    diagonal when w1 == w2) walked to the end of its run, the distinct
    ends sorted, and each signed from the surface's own strand keys."""
    n1, n2 = len(w1), len(w2)
    ends = {pair_canonical_walk(w1, i, w2, j) for i in range(n1)
            for j in range(n2) if w1 != w2 or i != j} - {None}
    depth = max(S._key_start(n1), S._key_start(n2)) + n1 + n2

    def keys(w, k):
        return [(r + r[-len(w):] * (depth // len(w)))[:depth]
                for r in S._strand_rays(w, k)]
    signs = [(i, j, S._crossing(*keys(w1, i), *keys(w2, j)))
             for i, j in sorted(ends)]
    return [s for s in signs if s[2]]
