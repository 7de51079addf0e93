"""The exponential and the twist of `sftstring.bv` against the
symmetrized formulas they replace.

`exp_morphism_reference` sums over every permutation of the units and
every composition of the permuted word into blocks, with weight
1/(r! * prod c_i!); `phi_table_reference` sums over every permutation
and every split into a leading block and a remainder, with weight
1/(l! (k-l)!).  The library sums each unordered partition once, by its
first block, over the words where the map is nonzero, and builds the
twist as e^(beta + iota); the two must agree exactly on every basis
monomial.
"""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from sftstring import bv
from sftstring.algebra import (GradedSeries, add_terms, format_monomial,
                               mul, q_degree, split_h)
from sftstring.bv import (
    Augmentation,
    BvError,
    BvOperator,
    FreeAlgebraSpec,
    LinearMap,
    derivation_operator,
    exp_morphism,
    twist_by_augmentation,
)
from sftstring.cotangent import (
    GeodesicAlphabet,
    _fit_spec,
    build_F,
    filling_augmentation,
)
from sftstring.surfaces import Surface, parse_word
from oracles import koszul_sign

_WIDE = bv._WIDE


def _units(m):
    return [s for s, e in m for _ in range(e)]


def _compositions(k):
    """Ordered tuples of positive integers summing to k."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def exp_morphism_reference(phi, element, target_mul):
    """e^phi by the multinomial sum over (permutation, composition)."""
    out = {}
    for m, c in element.terms.items():
        rest, h = split_h(m)
        units = _units(rest)
        k = len(units)
        if k == 0:
            term = GradedSeries.unit(c)
        else:
            acc = {}
            for perm in itertools.permutations(range(k)):
                sgn = koszul_sign(units, perm)
                arranged = [units[p] for p in perm]
                for comp in _compositions(k):
                    weight = Fraction(sgn, factorial(len(comp)))
                    for i in comp:
                        weight /= factorial(i)
                    prod = GradedSeries.unit()
                    pos = 0
                    for size in comp:
                        bm = GradedSeries.from_word(
                            [(u, 1) for u in arranged[pos:pos + size]])
                        pos += size
                        ((bmono, bc),) = bm.terms.items()
                        prod = target_mul(prod, phi.value(bmono).scale(bc))
                    add_terms(acc, prod.terms, weight * c)
            term = GradedSeries.from_terms(acc)
        if h:
            term = target_mul(phi.spec.hpow(h), term)
        add_terms(out, term.terms)
    return GradedSeries.from_terms(out)


def _scalar_mul(x, y):
    return mul(x, y, _WIDE)


def _exp_table(beta):
    """Reference e^beta on every basis monomial, checked against
    Augmentation.exp on the way."""
    table = {}
    for m in beta.spec.basis_monomials():
        one = GradedSeries({m: Fraction(1)})
        table[m] = exp_morphism_reference(beta, one, _scalar_mul)
        assert beta.exp(one) == table[m], m
    return table


def phi_table_reference(spec, exp_table):
    """Phi by the sum over (permutation, split into block + remainder)."""
    table = {}
    for m in spec.basis_monomials():
        units = _units(m)
        k = len(units)
        acc = {m: Fraction(1)}
        for perm in itertools.permutations(range(k)):
            sgn = koszul_sign(units, perm)
            arranged = [units[p] for p in perm]
            for l in range(1, k + 1):
                block = GradedSeries.from_word([(u, 1) for u in arranged[:l]])
                restm = GradedSeries.from_word([(u, 1) for u in arranged[l:]])
                ((bmono, bc),) = block.terms.items()
                scal = exp_table[bmono].scale(bc)
                w = Fraction(sgn, factorial(l) * factorial(k - l))
                add_terms(acc, spec.truncate(mul(scal, restm, _WIDE)).terms, w)
        table[m] = GradedSeries.from_terms(acc)
    return table


def _assert_twist_matches(D, beta):
    exp_table = _exp_table(beta)
    Phi, _PhiInv, _Dbeta = twist_by_augmentation(D, beta)
    want = phi_table_reference(D.spec, exp_table)
    assert Phi.table.keys() == want.keys()
    for m, v in want.items():
        assert Phi.table[m] == v, m


def test_worked_example_matches_reference():
    # criterion 4: x odd, y even, word_cap 4, so y^4 repeats an even unit
    spec = FreeAlgebraSpec([("x", 1), ("y", 0)], word_cap=4, hbar_cap=3, n=2)
    y = spec.generator("y")
    D = derivation_operator(spec, {"x": spec.mul(y, y) - GradedSeries.unit(),
                                   "y": GradedSeries.zero()})
    sy = spec.symbol("y")
    beta = Augmentation(spec, {((sy, 1),): GradedSeries.unit(1)})
    _assert_twist_matches(D, beta)


def _mixed_spec():
    # the even w sorts first and three odd units follow, so a block
    # listed before the rest can cross odd units: the Koszul signs of
    # both sums are exercised
    return FreeAlgebraSpec([("w", 0), ("u", 1), ("x", 1), ("v", 1)],
                           word_cap=4, hbar_cap=3, n=2)


def _mono(spec, names):
    ((m, _c),) = GradedSeries.from_word(
        [(spec.symbol(n), 1) for n in names]).terms.items()
    return m


def test_mixed_parity_exp_and_morphism_check_match_reference():
    """A parity-preserving map, nonzero on blocks of length 1 to 3:
    exp_morphism equals the reference on every basis word."""
    spec = _mixed_spec()
    u, v, w, x = (spec.generator(n) for n in "uvwx")
    h, h2 = spec.hpow(1), spec.hpow(2)
    phi = LinearMap(spec, {
        _mono(spec, "u"): u + spec.mul(w, u).scale(2),
        _mono(spec, "v"): v.scale(3) - x,
        _mono(spec, "x"): x,
        _mono(spec, "w"): w - GradedSeries.unit(),
        _mono(spec, "uv"): spec.mul(h, w).scale(5),
        _mono(spec, "wv"): spec.mul(h, u).scale(7),
        _mono(spec, "ww"): h,
        _mono(spec, "uvw"): h2.scale(11),
        _mono(spec, "wwx"): spec.mul(h2, v).scale(-13),
    }, 0)
    for m in spec.basis_monomials():
        for element in (GradedSeries({m: Fraction(1)}),
                        spec.mul(h, GradedSeries({m: Fraction(-2)}))):
            assert exp_morphism(phi, element) == \
                exp_morphism_reference(phi, element, spec.mul), m


def test_mixed_parity_twist_matches_reference():
    spec = _mixed_spec()
    h = spec.hpow(1)
    beta = Augmentation(spec, {
        _mono(spec, "w"): GradedSeries.unit(2),
        _mono(spec, "uv"): h.scale(3),
        _mono(spec, "ux"): h.scale(-1),
        _mono(spec, "wwuv"): spec.hpow(3),
    })
    _assert_twist_matches(BvOperator(spec, {}), beta)


def test_genus2_filling_augmentation_matches_reference():
    genus2 = Surface(2, 0)
    words = [parse_word(t, genus2) for t in
             ("a1 a2 A1 A2", "a1 A2 A1 a2", "a1", "A1", "a2", "A2",
              "a1 a2", "A1 A2")]
    alphabet = GeodesicAlphabet.from_words(genus2, words)
    spec = _fit_spec(alphabet)
    assert spec.word_cap == 4
    beta = filling_augmentation(alphabet, build_F(alphabet), spec)
    assert beta.table
    _assert_twist_matches(BvOperator(spec, {}), beta)


def test_exp_memo_is_per_instance_and_h_linear():
    spec = FreeAlgebraSpec([("x", 1), ("y", 0)], word_cap=4, hbar_cap=3, n=2)
    sy = spec.symbol("y")
    y2 = GradedSeries({((sy, 2),): Fraction(1)})
    beta1 = Augmentation(spec, {((sy, 1),): GradedSeries.unit(1)})
    beta2 = Augmentation(spec, {((sy, 1),): GradedSeries.unit(2),
                                ((sy, 2),): spec.hpow(1)})
    first = beta1.exp(y2)
    assert first == GradedSeries.unit(1)
    assert beta2.exp(y2) == GradedSeries.unit(4) + spec.hpow(1)
    # a second call, after the caller mutates the first result, is equal
    first.terms.clear()
    assert beta1.exp(y2) == GradedSeries.unit(1)
    # e^beta(h^j m) = h^j e^beta(m)
    for j in (1, 2):
        hj = spec.hpow(j)
        assert beta2.exp(spec.mul(hj, y2.scale(3))) == \
            _scalar_mul(hj, beta2.exp(y2)).scale(3)


def test_exp_rejects_a_parity_changing_map():
    # beta(x) = 1 on the odd x is not degree 0; the set-partition sum
    # would silently differ from the symmetrized one on x*z
    spec = FreeAlgebraSpec([("x", 1), ("z", 1)], word_cap=2, hbar_cap=1, n=2)
    sx, sz = spec.symbol("x"), spec.symbol("z")
    beta = Augmentation(spec, {((sx, 1),): GradedSeries.unit(1),
                               ((sz, 1),): GradedSeries.unit(1)})
    with pytest.raises(BvError):
        beta.exp(GradedSeries({((sx, 1), (sz, 1)): Fraction(1)}))


def _counting(monkeypatch, spec):
    """The list of calls of spec.mul from here on."""
    calls = []
    spec_mul = spec.mul

    def counted(a, b):
        calls.append(None)
        return spec_mul(a, b)
    monkeypatch.setattr(spec, "mul", counted)
    return calls


def test_zero_map_multiplies_nothing(monkeypatch):
    spec = FreeAlgebraSpec([("x", 1), ("y", 0), ("z", 0)], word_cap=11,
                           hbar_cap=1, n=2)
    word = GradedSeries.from_word([(spec.symbol("x"), 1),
                                   (spec.symbol("y"), 4),
                                   (spec.symbol("z"), 6)])
    assert q_degree(next(iter(word.terms))) == 11
    calls = _counting(monkeypatch, spec)
    got = exp_morphism(LinearMap(spec, {}, 0), word)
    assert got.is_zero() and calls == []


def test_exp_of_the_inclusion_is_the_identity(monkeypatch):
    # iota is nonzero on the generators only, so each word of k units
    # costs k products: one per unit, each with the only block offered
    # (a fresh iota per word, so no word is served from the memo)
    spec = _mixed_spec()
    calls = _counting(monkeypatch, spec)
    for m in spec.basis_monomials():
        iota = LinearMap(spec, {_mono(spec, n): spec.generator(n)
                                for n in "uvwx"}, 0)
        one = GradedSeries({m: Fraction(1)})
        del calls[:]
        assert exp_morphism(iota, one) == one, m
        assert len(calls) == q_degree(m), m


def test_value_outside_the_table_is_an_error():
    spec = FreeAlgebraSpec([("x", 1), ("y", 0)], word_cap=2, hbar_cap=1, n=2)
    sx, sy = spec.symbol("x"), spec.symbol("y")
    word = ((sx, 1), (sy, 2))
    message = "value of %s outside the table" % format_monomial(word)
    unit = GradedSeries.unit()
    beta = Augmentation(spec, {((sy, 1),): unit})
    one = GradedSeries({word: Fraction(1)})
    for element in (one, _scalar_mul(spec.hpow(1), one.scale(3))):
        with pytest.raises(BvError) as err:
            exp_morphism(beta, element)
        assert str(err.value) == message
        with pytest.raises(BvError) as err:
            beta.exp(element)
        assert str(err.value) == message
    # phi's table may hold a word past word_cap; e^phi, a map on the
    # spec, holds no value there
    xh = _scalar_mul(spec.hpow(1), spec.generator("x"))
    phi = LinearMap(spec, {word: xh}, 0)
    assert phi.value(word) == xh
    with pytest.raises(BvError) as err:
        exp_morphism(phi, one)
    assert str(err.value) == message


def test_exp_past_word_cap_names_the_whole_word():
    # e^phi(x y^3) would need phi on the block x y^2, also past
    # word_cap; the error names the word read, whatever phi holds
    spec = FreeAlgebraSpec([("x", 1), ("y", 0)], word_cap=2, hbar_cap=1, n=2)
    sx, sy = spec.symbol("x"), spec.symbol("y")
    long_word = ((sx, 1), (sy, 3))
    message = "value of %s outside the table" % format_monomial(long_word)
    long_one = GradedSeries({long_word: Fraction(1)})
    xh = _scalar_mul(spec.hpow(1), spec.generator("x"))
    for table in ({long_word: xh}, {long_word: xh, ((sx, 1), (sy, 2)): xh},
                  {((sy, 1),): GradedSeries.unit()}):
        phi = LinearMap(spec, table, 0)
        with pytest.raises(BvError) as err:
            exp_morphism(phi, long_one)
        assert str(err.value) == message


def test_exp_of_an_augmentation_truncates_at_hbar_cap():
    # e^beta(y^2) = beta(y)^2 = h^2, above hbar_cap = 1: the term is
    # dropped, as spec.mul drops it, and h^1 terms are kept
    spec = FreeAlgebraSpec([("x", 1), ("y", 0)], word_cap=3, hbar_cap=1, n=2)
    sy = spec.symbol("y")
    beta = Augmentation(spec, {((sy, 1),): spec.hpow(1)})
    y2 = GradedSeries({((sy, 2),): Fraction(1)})
    assert beta.exp(y2).is_zero()
    assert beta.exp(GradedSeries({((sy, 1),): Fraction(1)})) == spec.hpow(1)
    assert beta.exp(spec.mul(spec.hpow(1), spec.generator("y"))).is_zero()
    assert exp_morphism_reference(beta, y2, _scalar_mul) == spec.hpow(2)
    assert exp_morphism_reference(beta, y2, spec.mul).is_zero()


def test_exp_of_a_long_word_from_a_fresh_map():
    # e^iota(y^1500) needs the 1,500 words y^k below it, each from the
    # next shorter one; they are evaluated without recursion, past the
    # interpreter's recursion limit
    spec = FreeAlgebraSpec([("y", 0)], word_cap=4999, hbar_cap=1, n=2)
    sy = spec.symbol("y")
    iota = LinearMap(spec, {((sy, 1),): spec.generator("y")}, 0)
    word = GradedSeries({((sy, 1500),): Fraction(1)})
    assert exp_morphism(iota, word) == word


def test_exp_readers_in_any_order_agree_with_basis_order():
    # Phi and Phi^-1 of a mixed-parity augmentation, read word by word in
    # seeded orders from fresh maps, against fresh maps read whole in
    # basis order; the memo one reader fills serves the next
    spec = _mixed_spec()
    h = spec.hpow(1)
    beta = Augmentation(spec, {
        _mono(spec, "w"): GradedSeries.unit(2),
        _mono(spec, "uv"): h.scale(3),
        _mono(spec, "ux"): h.scale(-1),
        _mono(spec, "wwuv"): spec.hpow(3),
    })
    want = [m.table for m in bv._phi_maps(spec, beta)]
    for seed in range(4):
        order = spec.basis_monomials()
        random.Random(seed).shuffle(order)
        maps = bv._phi_maps(spec, beta)
        for m in order:
            for exp_map, table in zip(maps, want):
                assert exp_map.value(m) == table[m], m
    # phi(y) = y + 1 gives the substitution y -> y + 1, so e^phi(y^k) is
    # sum_j C(k, j) y^j, whatever word was read first
    spec = FreeAlgebraSpec([("y", 0)], word_cap=40, hbar_cap=1, n=2)
    sy = spec.symbol("y")
    power = lambda k: ((sy, k),) if k else ()
    phi = LinearMap(spec, {power(1): spec.generator("y") + GradedSeries.unit()}, 0)
    order = list(range(41))
    random.Random(7).shuffle(order)
    exp_phi = bv.exp_map(phi)
    for k in order:
        assert exp_phi.value(power(k)) == GradedSeries(
            {power(j): comb(k, j) for j in range(k + 1)}), k
