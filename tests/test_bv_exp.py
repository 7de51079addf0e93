"""The set-partition exponential and subset twist of `sftstring.bv`
against the symmetrized formulas they replace.

`exp_morphism_reference` sums over every permutation of the units and
every composition of the permuted word into blocks, with weight
1/(r! * prod c_i!); `phi_table_reference` sums over every permutation
and every split into a leading block and a remainder, with weight
1/(l! (k-l)!).  The library sums each unordered partition or subset once;
the two must agree exactly on every basis monomial.
"""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from sftstring import bv
from sftstring.algebra import (GradedSeries, add_terms, koszul_sign, mul,
                               split_h)
from sftstring.bv import (
    Augmentation,
    BvError,
    BvOperator,
    FreeAlgebraSpec,
    LinearMap,
    check_bv_morphism,
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


def exp_morphism_reference(phi, element, target_mul, target_unit):
    """e^phi by the multinomial sum over (permutation, composition)."""
    out = {}
    for m, c in element.terms.items():
        rest, h = split_h(m)
        units = _units(rest)
        k = len(units)
        if k == 0:
            term = target_unit.scale(c)
        else:
            acc = {}
            for perm in itertools.permutations(range(k)):
                sgn = koszul_sign(units, perm)
                arranged = [units[p] for p in perm]
                for comp in _compositions(k):
                    weight = Fraction(sgn, factorial(len(comp)))
                    for i in comp:
                        weight /= factorial(i)
                    prod = target_unit
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
        table[m] = exp_morphism_reference(beta, one, _scalar_mul,
                                          GradedSeries.unit())
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


def test_mixed_parity_exp_and_morphism_check_match_reference(monkeypatch):
    """A parity-preserving map, nonzero on blocks of length 1 to 3."""
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
    unit = GradedSeries.unit()
    for m in spec.basis_monomials():
        for element in (GradedSeries({m: Fraction(1)}),
                        spec.mul(h, GradedSeries({m: Fraction(-2)}))):
            assert exp_morphism(phi, element, spec.mul, unit) == \
                exp_morphism_reference(phi, element, spec.mul, unit), m
    D = derivation_operator(spec, {"u": w, "v": GradedSeries.zero(),
                                   "x": spec.mul(w, w), "w": GradedSeries.zero()})
    got = check_bv_morphism(phi, D, D)
    monkeypatch.setattr(bv, "exp_morphism", exp_morphism_reference)
    want = check_bv_morphism(phi, D, D)
    assert got.witnesses and got.witnesses == want.witnesses
    assert got.status == want.status


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
