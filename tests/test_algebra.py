import gc
import random
import weakref
from collections import Counter

import pytest
from fractions import Fraction

from sftstring import algebra
from sftstring.algebra import (
    KIND_H,
    KIND_P,
    KIND_Q,
    KIND_S,
    GradedSeries,
    GradedSymbol,
    NormalizationError,
    TruncationContext,
    add_terms,
    collect,
    derivation,
    exact,
    merge_words,
    monomial_degree,
    mul,
    normalize,
)
from sftstring import weyl
from sftstring.weyl import ExponentialError, OrbitSystem, exp_series
from oracles import koszul_sign, standard_form, units_of


def sym(name, degree, kind=KIND_Q, orbit=None, index=0):
    return GradedSymbol(name, degree, kind, orbit, index)


q1 = sym("q[1]", -1, orbit="1", index=0)
q2 = sym("q[2]", -1, orbit="2", index=1)
q3 = sym("q[3]", 2, orbit="3", index=2)  # an even generator
CTX = TruncationContext(max_p_degree=8, max_hbar=8, min_hbar=-4, max_word_length=10)


def test_koszul_sign_identity():
    assert koszul_sign([q1, q2, q3], [0, 1, 2]) == 1


def test_koszul_sign_odd_swap():
    assert koszul_sign([q1, q2], [1, 0]) == -1


def test_koszul_sign_even_odd_swap():
    assert koszul_sign([q1, q3], [1, 0]) == 1


def test_koszul_sign_composes():
    # the sign of a permutation is the product over any transposition chain
    syms = [q1, q2, q3, sym("q[4]", -3, orbit="4", index=3)]
    rng = random.Random(7)
    for _ in range(50):
        perm = list(range(4))
        rng.shuffle(perm)
        s = koszul_sign(syms, perm)
        # compose with one more odd-odd swap of positions 0,1 in the output
        perm2 = list(perm)
        perm2[0], perm2[1] = perm2[1], perm2[0]
        s2 = koszul_sign(syms, perm2)
        odd = syms[perm[0]].parity and syms[perm[1]].parity
        assert s2 == (-s if odd else s)


def test_normalize_sorts_with_sign():
    res = normalize([(q2, 1), (q1, 1)])
    assert res is not None
    sgn, mono = res
    assert sgn == -1
    assert mono == ((q1, 1), (q2, 1))


def test_normalize_odd_square_vanishes():
    assert normalize([(q1, 1), (q1, 1)]) is None
    assert normalize([(q1, 2)]) is None


def test_normalize_even_commutes():
    sgn, mono = normalize([(q3, 1), (q1, 1)])
    assert sgn == 1
    assert mono == ((q1, 1), (q3, 1))


def test_normalize_idempotent():
    sgn, mono = normalize([(q3, 1), (q2, 1), (q1, 1)])
    sgn2, mono2 = normalize(list(mono))
    assert sgn2 == 1 and mono2 == mono


def test_normalize_rejects_weyl_disorder():
    p1 = sym("p[1]", -1, kind="p", orbit="1", index=0)
    with pytest.raises(NormalizationError):
        normalize([(p1, 1), (q1, 1)])
    # q left of p is standard form, fine
    sgn, mono = normalize([(q1, 1), (p1, 1)])
    assert mono == ((q1, 1), (p1, 1))


def _random_series(rng, symbols, nterms=3):
    out = GradedSeries.zero()
    for _ in range(nterms):
        word = []
        for s in symbols:
            e = rng.randrange(0, 2 if s.parity else 3)
            if e:
                word.append((s, e))
        coeff = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        out = out + GradedSeries.from_word(word, coeff)
    return out


def test_mul_unit_and_zero():
    a = _random_series(random.Random(1), [q1, q2, q3])
    one = GradedSeries.unit()
    assert mul(one, a, CTX) == a
    assert mul(a, GradedSeries.zero(), CTX).is_zero()


def test_mul_graded_commutative_and_associative():
    rng = random.Random(5)
    syms = [q1, q2, q3, sym("q[4]", 1, orbit="4", index=3)]
    for _ in range(60):
        a = _random_series(rng, syms)
        b = _random_series(rng, syms)
        c = _random_series(rng, syms)
        assert mul(mul(a, b, CTX), c, CTX) == mul(a, mul(b, c, CTX), CTX)
        # graded commutativity on homogeneous pieces
        da, db = a.homogeneous_degree(), b.homogeneous_degree()
        if da is not None and db is not None:
            sign = -1 if (da % 2 and db % 2) else 1
            assert mul(a, b, CTX) == mul(b, a, CTX).scale(sign)


def test_mul_degree_additivity():
    a = GradedSeries.from_word([(q1, 1)])
    b = GradedSeries.from_word([(q3, 2)])
    prod = mul(a, b, CTX)
    assert prod.homogeneous_degree() == monomial_degree(((q1, 1),)) + 4


def test_odd_sum_squares_to_zero():
    a = GradedSeries.from_word([(q1, 1)]) + GradedSeries.from_word([(q2, 1)])
    assert mul(a, a, CTX).is_zero()


def test_truncation_window():
    ctx = TruncationContext(max_p_degree=2, max_hbar=1, min_hbar=0, max_word_length=2)
    s1 = sym("s[x]", -1, kind=KIND_S, index=0)
    s2 = sym("s[y]", -1, kind=KIND_S, index=1)
    s3 = sym("s[z]", -1, kind=KIND_S, index=2)
    a = GradedSeries.from_word([(s1, 1), (s2, 1)])
    b = GradedSeries.from_word([(s3, 1)])
    # word length 3 exceeds the cap and is dropped
    assert mul(a, b, ctx).is_zero()


def test_merge_words_matches_standard_form_of_the_concatenation():
    # every block, both parities, and h with exponents of either sign
    syms = [sym("s[x]", 1, kind=KIND_S, index=0), sym("s[y]", 2, kind=KIND_S, index=1),
            q1, q2, q3, sym("q[4]", 1, orbit="4", index=3),
            sym("p[1]", -1, kind=KIND_P, orbit="1", index=0),
            sym("p[3]", 0, kind=KIND_P, orbit="3", index=2),
            sym("h", 2, kind=KIND_H)]
    rng = random.Random(8)
    for _ in range(2000):
        left, right = (
            [(s, rng.randrange(-2, 3) if s.kind == KIND_H else
              rng.randrange(0, 2 if s.parity else 3)) for s in syms]
            for _ in range(2))
        left = tuple((s, e) for s, e in left if e)
        right = tuple((s, e) for s, e in right if e)
        assert merge_words(left, right) == standard_form(list(left) + list(right))


def test_merge_words_shortcut_cases_match_standard_form():
    # seeded pairs of each shape: an empty word, disjoint words with all
    # of left first (the concatenation) or all of right first, an odd
    # symbol in both, and h^-1 * h cancelling
    odd_s, even_s = sym("s[x]", 1, kind=KIND_S, index=0), sym("s[y]", 2, kind=KIND_S, index=1)
    p1, h = sym("p[1]", -1, kind=KIND_P, orbit="1", index=0), sym("h", 2, kind=KIND_H)
    order = [odd_s, even_s, q1, q2, q3, p1, h]  # sort_key order
    assert order == sorted(order, key=lambda s: s.sort_key)
    rng = random.Random(31)

    def word(syms):
        return tuple((s, rng.choice((-1, 1, 2)) if s is h else
                      1 if s.parity else rng.randrange(1, 3)) for s in syms)

    shapes = {"empty": 0, "left first": 0, "right first": 0, "odd in both": 0,
              "h cancels": 0}
    for _ in range(3000):
        cut = rng.randrange(len(order) + 1)
        left = word(sorted(rng.sample(order[:cut], rng.randrange(cut + 1)),
                           key=order.index))
        right = word(sorted(rng.sample(order[cut:], rng.randrange(len(order) - cut + 1)),
                            key=order.index))
        shape = rng.randrange(4)
        if shape == 1:
            left, right = right, left
        elif shape == 2 and left:  # an odd symbol of left also in right
            odd = [u for u in left if u[0].parity]
            if odd:
                right = tuple(sorted(right + (odd[0],), key=lambda u: order.index(u[0])))
        elif shape == 3:
            left = tuple(u for u in left if u[0] is not h) + ((h, -1),)
            right = ((h, 1),)
        got = merge_words(left, right)
        assert got == standard_form(list(left) + list(right)), (left, right)
        if not left or not right:
            shapes["empty"] += 1
        elif left[-1][0].sort_key < right[0][0].sort_key:
            shapes["left first"] += 1
            assert got == (1, left + right)
        elif right[-1][0].sort_key < left[0][0].sort_key:
            shapes["right first"] += 1
        if shape == 2 and got is None:
            shapes["odd in both"] += 1
        if shape == 3 and got is not None and all(s is not h for s, _ in got[1]):
            shapes["h cancels"] += 1
    assert min(shapes.values()) > 100, shapes


def _normalize_reference(word):
    """The oracle's (sign, monomial), with normalize's precedence: a q
    with the p of its orbit to its left raises for the whole word, then
    a word with an odd symbol in two units or squared vanishes, then a
    negative exponent off h in the merged word raises.  Odd symbols
    take positive exponents only."""
    word = [(s, e) for s, e in word if e]
    for k, (s, _e) in enumerate(word):
        if s.kind == KIND_Q and any(t.kind == KIND_P and t.orbit == s.orbit
                                    for t, _f in word[:k]):
            raise algebra.weyl_order_error(s.orbit)
    if any(sum(f for t, f in word if t is s) > 1 for s, _e in word if s.parity):
        return None
    return standard_form(word)


def test_normalize_matches_standard_form_on_random_words():
    """normalize makes one pass over the word; the oracle sorts the whole
    word.  Words in standard order, one unit per symbol (the shape
    OrbitSystem.monomial builds), and unsorted words with repeats, odd
    units squared by a repeat or an exponent of 2, h of either sign,
    negative exponents on even symbols off h, exponents of 0, and p[1]
    on either side of q[1]; results and error messages must agree."""
    syms = [sym("s[x]", 1, kind=KIND_S, index=0), sym("s[y]", 2, kind=KIND_S, index=1),
            q1, q2, q3, sym("q[4]", 1, orbit="4", index=3),
            sym("p[1]", -1, kind=KIND_P, orbit="1", index=0),
            sym("h", 2, kind=KIND_H)]
    assert syms == sorted(syms, key=lambda s: s.sort_key)
    rng = random.Random(27)

    def exponent(s):
        if s.kind == KIND_H:
            return rng.randrange(-2, 3)
        return rng.choice((1, 1, 1, 2, 0) if s.parity else (1, 1, 2, -1, -2, 0))

    seen = Counter()
    for _ in range(6000):
        standard = rng.random() < 0.4
        if standard:
            word = [(s, exponent(s)) for s in syms if rng.random() < 0.4]
        else:
            word = [(s, exponent(s)) for s in
                    (rng.choice(syms) for _ in range(rng.randrange(0, 7)))]
        try:
            want = _normalize_reference(word)
        except NormalizationError as err:
            with pytest.raises(NormalizationError) as got:
                normalize(word)
            assert str(got.value) == str(err), word
            seen[standard, str(err).split()[0]] += 1
            continue
        got = normalize(word)
        assert got == want, word
        if standard and got is not None:
            assert got == (1, tuple((s, e) for s, e in word if e))
        seen[standard, "vanishes" if got is None else "ok"] += 1
    # a standard-order word has no p left of a q
    assert set(seen) == {(b, o) for b in (False, True)
                         for o in ("word", "negative", "vanishes", "ok")
                         } - {(True, "word")}
    assert min(seen.values()) > 150, seen


@pytest.mark.parametrize("word, want", [
    # an odd q[2] squares before q[1] comes right of p[1]: the p, q
    # order error is for the whole word
    ([("p1", 1), ("q2", 1), ("q2", 1), ("q1", 1)], "order"),
    # the even q[3] is left at q[3]^-1, but odd q[1] squares: it vanishes
    ([("q3", -1), ("q1", 2)], None),
    # q[3]^-1 cancels in the merged word: no error
    ([("q3", -1), ("q3", 1), ("q1", 1)], (1, (("q1", 1),))),
    ([("q3", -2), ("q3", 1)], "negative"),
], ids=["order-error-first", "none-before-negative", "negative-cancels",
        "negative-left"])
def test_normalize_precedence(word, want):
    named = {"q1": q1, "q2": q2, "q3": q3,
             "p1": sym("p[1]", -1, kind=KIND_P, orbit="1", index=0)}
    word = [(named[n], e) for n, e in word]
    if want == "order":
        with pytest.raises(NormalizationError, match="p and q of orbit '1'"):
            normalize(word)
    elif want == "negative":
        with pytest.raises(NormalizationError, match=r"^negative exponent on q\[3\]$"):
            normalize(word)
    else:
        assert normalize(word) == (want and (want[0], tuple(
            (named[n], e) for n, e in want[1])))


def _mul_reference(a, b, ctx):
    """mul by normalize() of each concatenated pair of terms."""
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            res = normalize(list(m1) + list(m2))
            if res is not None:
                acc[res[1]] = acc.get(res[1], 0) + res[0] * c1 * c2
    return collect(acc, ctx)


def test_mul_matches_normalize_of_the_concatenation():
    # mixed parities in every block, h of either sign, vanishing pairs,
    # and pairs with a p of an orbit on the left and its q on the right
    syms = [sym("s[x]", -1, kind=KIND_S, index=0),
            sym("s[y]", 2, kind=KIND_S, index=1),
            q1, q3, sym("p[1]", -1, kind=KIND_P, orbit="1", index=0),
            sym("p[3]", 0, kind=KIND_P, orbit="3", index=2),
            sym("h", 2, kind=KIND_H)]
    rng = random.Random(11)
    raised = vanished = 0
    for _ in range(400):
        a, b = (_random_series(rng, syms, nterms=rng.randrange(1, 4))
                for _ in range(2))
        try:
            want = _mul_reference(a, b, CTX)
        except NormalizationError as err:
            raised += 1
            with pytest.raises(NormalizationError) as got:
                mul(a, b, CTX)
            assert str(got.value) == str(err)
            continue
        got = mul(a, b, CTX)
        assert list(got.terms.items()) == list(want.terms.items())
        vanished += len(got.terms) < len(a.terms) * len(b.terms)
    assert raised > 20 and vanished > 20


def _add_terms_reference(acc, terms, scale):
    """add_terms without its +-1 fast path: one product per term."""
    for k, v in terms.items():
        c = acc.get(k, 0) + v * scale
        if c:
            acc[k] = c
        else:
            acc.pop(k, None)
    return acc


@pytest.mark.parametrize("scale", [1, -1, Fraction(1), Fraction(-1), 2,
                                   Fraction(-2, 3), 0])
def test_add_terms_matches_one_product_per_term(scale):
    # same values and same key order, through cancellations, pops and
    # re-insertions of a cancelled key
    rng = random.Random(77)

    def vector():
        out = {k: exact(Fraction(rng.randrange(-2, 3), rng.randrange(1, 3)))
               for k in rng.sample(range(8), 5)}
        return {k: v for k, v in out.items() if v}

    for _ in range(300):
        acc, terms = vector(), vector()
        for _ in range(2):
            want = _add_terms_reference(dict(acc), terms, scale)
            acc = add_terms(acc, terms, scale)
            assert list(acc.items()) == list(want.items())
            # exact values in, exact values out: a whole Fraction is its int
            assert all(v.__class__ is int or v.denominator > 1
                       for v in acc.values())


def test_add_and_sub_match_from_terms_of_the_reference_sum():
    # a + b and a - b against from_terms of the one-product-per-term
    # accumulation: the same values in the same key order, whole-Fraction
    # sums as ints, cancelled keys dropped, and a and b left as they were
    rng = random.Random(41)
    keys = [()] + [((q3, e),) for e in range(1, 5)]

    def series():
        return GradedSeries.from_terms({
            k: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            for k in rng.sample(keys, 3)})

    cancelled = whole = 0
    for _ in range(500):
        a, b = series(), series()
        before = list(a.terms.items()), list(b.terms.items())
        for got, scale in ((a + b, 1), (a - b, -1)):
            want = GradedSeries.from_terms(
                _add_terms_reference(dict(a.terms), b.terms, scale))
            assert list(got.terms.items()) == list(want.terms.items())
            assert [c.__class__ for c in got.terms.values()] == \
                [c.__class__ for c in want.terms.values()]
            cancelled += len(got.terms) < len(a.terms.keys() | b.terms.keys())
            whole += any(c.__class__ is int and a.terms.get(k).__class__
                         is Fraction for k, c in got.terms.items())
        assert (list(a.terms.items()), list(b.terms.items())) == before
    assert cancelled > 50 and whole > 50, (cancelled, whole)


def _derivation_reference(m, image, d_degree):
    """The Leibniz rule written out: d passes the units before s, of
    total degree P, with (-1)^(|d| P), and each word of d(s) takes the
    place of s in the word, which is then normalized as a whole."""
    units = units_of(m)
    hs = [(s, e) for s, e in m if s.kind == KIND_H]
    out = {}
    for k, s in enumerate(units):
        sign = -1 if d_degree * sum(u.degree for u in units[:k]) % 2 else 1
        for word, c in (image(s) or {}).items():
            entries = [(u, 1) for u in units[:k]] + list(word) + \
                [(u, 1) for u in units[k + 1:]] + hs
            add_terms(out, GradedSeries.from_word(entries, c * sign).terms)
    return out


@pytest.mark.parametrize("d_degree", [-1, 0, 1, 2])
def test_derivation_matches_the_leibniz_rule_for_every_degree(d_degree):
    # odd and even symbols of three kinds, even powers, h in the monomial
    # and in the images; each image is homogeneous of degree |s| + |d|
    syms = [sym("s[a]", -1, KIND_S, index=0), sym("s[b]", 0, KIND_S, index=1),
            sym("s[c]", 2, KIND_S, index=2), sym("q[x]", 1, index=0),
            sym("q[y]", 0, index=1), sym("p[z]", -3, KIND_P, index=0)]
    h = sym("h", -2, KIND_H)
    rng = random.Random(41 + d_degree)

    def word():
        entries = [(s, rng.randrange(1, 3)) for s in syms if rng.random() < 0.4]
        if rng.random() < 0.3:
            entries.append((h, rng.choice((-1, 1, 2))))
        res = normalize(entries)
        return None if res is None else res[1]

    checked = 0
    for _ in range(40):
        image = {}
        for s in syms:
            words = {w for w in (word() for _ in range(12)) if w is not None
                     and monomial_degree(w) == s.degree + d_degree}
            if words and rng.random() < 0.8:
                image[s] = {w: rng.choice((-2, -1, 1, Fraction(1, 2), 3))
                            for w in words}
        for _ in range(10):
            m = word()
            if m is None:
                continue
            got = GradedSeries.from_terms(derivation(m, image.get))
            want = GradedSeries.from_terms(
                _derivation_reference(m, image.get, d_degree))
            assert got == want, (m, d_degree)
            checked += not got.is_zero()
    assert checked >= 50


def test_exp_sum_stops_at_the_first_vanishing_power(monkeypatch):
    """exp_series takes star powers up to the first that vanishes, and
    raises ExponentialError after bound + 1 powers that do not."""
    s = sym("s[y]", 0, KIND_S)
    x = GradedSeries({((s, 1),): 2})
    sys = OrbitSystem(2, [])
    # word length above 3 is dropped, so x^4 = 0
    ctx = TruncationContext(max_word_length=3)
    calls = []
    star = weyl.star

    def counted(a, b, sys, ctx):
        calls.append(None)
        return star(a, b, sys, ctx)
    monkeypatch.setattr(weyl, "star", counted)
    want = GradedSeries({(): 1, ((s, 1),): 2, ((s, 2),): 2,
                         ((s, 3),): Fraction(4, 3)})
    assert exp_series(x, sys, ctx) == want and len(calls) == 4
    assert exp_series(GradedSeries.zero(), sys, ctx) == GradedSeries.unit()
    # bound = max_p + (max_h - min_h) + max_len + #orbits + 8 = 24
    calls.clear()
    monkeypatch.setattr(weyl, "star",
                        lambda a, b, sys, ctx: calls.append(None) or x)
    with pytest.raises(ExponentialError):
        exp_series(x, sys, ctx)
    assert len(calls) == 6 + 7 + 3 + 0 + 8 + 1


def test_unreferenced_symbol_leaves_the_intern_table():
    fields = ("s[unheld]", 0, KIND_S, None, 7)
    s = GradedSymbol(*fields)
    assert algebra._INTERNED.get(fields) is s
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None
    assert fields not in algebra._INTERNED


def test_symbols_are_immutable():
    s = sym("q[frozen]", 1, orbit="frozen")
    for attr in ("name", "degree", "parity", "sort_key", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, attr, 0)
        with pytest.raises(AttributeError):
            delattr(s, attr)
    assert (s.name, s.degree, s.parity) == ("q[frozen]", 1, 1)
    assert s is sym("q[frozen]", 1, orbit="frozen")


def test_bad_kind_raises_and_leaves_no_table_entry():
    # `info` keeps the failed call's frame, and any half-built symbol
    # in it, alive
    with pytest.raises(ValueError, match="unknown symbol kind") as info:
        GradedSymbol("x", 0, "z")
    assert ("x", 0, "z", None, 0) not in algebra._INTERNED
    assert info.traceback


def test_series_is_unhashable():
    # a series is a mutable holder of terms compared by value
    with pytest.raises(TypeError):
        hash(GradedSeries.unit())
