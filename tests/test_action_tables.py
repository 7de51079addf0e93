"""The operator tables of bv_from_hamiltonian and filling_augmentation
against the per-monomial act_right loop they are built from, reliable_cap
against the whole table, and the inverse of the twist against its
Neumann series."""

import random
from fractions import Fraction
from math import inf

import pytest

from sftstring import bv, cotangent
from sftstring.algebra import (
    GradedSeries,
    TruncationContext,
    TruncationUnderflow,
    add_terms,
    collect,
    q_degree,
)
from sftstring.bv import (
    Augmentation,
    FreeAlgebraSpec,
    LinearMap,
    _phi_maps,
    bv_from_hamiltonian,
    linearize,
    twist_by_augmentation,
)
from sftstring.cotangent import (
    GeodesicAlphabet,
    _fit_spec,
    build_H_surface,
    filling_augmentation,
)
from sftstring.surfaces import Surface, parse_word
from sftstring.weyl import Orbit, OrbitSystem, act_right

from oracles import reliable_cap_full_table

ALPHABET_WORDS = ["a1 a2 A1 A2", "a1 A2 A1 a2", "a1", "A1", "a2", "A2",
                  "a1 a2", "A1 A2"]

# the orbit systems of acceptance criterion 1
SYSTEMS = [
    OrbitSystem(2, [Orbit("g%d" % i, 0, 1 + i % 2) for i in range(1, 5)]),
    OrbitSystem(3, [Orbit("g%d" % i, i % 3, 1) for i in range(1, 4)]),
    OrbitSystem(4, [Orbit("g%d" % i, (i * 2) % 5, 1 + i % 3)
                    for i in range(1, 5)]),
]


def bv_table_reference(sys, H, word_cap=3, hbar_cap=3):
    """bv_from_hamiltonian's table, one act_right call per monomial."""
    spec = FreeAlgebraSpec([], word_cap=word_cap, hbar_cap=hbar_cap,
                           n=sys.n, symbols=[sys.q[o] for o in sys.q])
    wide = TruncationContext(max_p_degree=inf, max_hbar=hbar_cap,
                             min_hbar=-1, max_word_length=inf)
    table = {}
    for m in spec.basis_monomials():
        val = act_right(H, GradedSeries({m: Fraction(1)}), sys, wide)
        table[m] = collect(val.terms, spec.caps)
    return table


def filling_table_reference(alphabet, F, spec):
    """filling_augmentation's table, one act_right call per monomial."""
    table = {}
    for m in spec.basis_monomials():
        if not m:
            continue
        val = act_right(F, GradedSeries({m: Fraction(1)}), alphabet.sys,
                        cotangent._WIDE)
        scal = GradedSeries({mono: c for mono, c in val.terms.items()
                             if q_degree(mono) == 0})
        if not scal.is_zero():
            table[m] = scal
    return table


def _items(table):
    return [(m, list(v.terms.items())) for m, v in table.items()]


def _outcome(fn, *args):
    try:
        return _items(fn(*args))
    except TruncationUnderflow as exc:
        return "underflow: %s" % exc


@pytest.fixture(scope="module")
def alphabet():
    genus2 = Surface(2, 0)
    return GeodesicAlphabet.from_words(
        genus2, [parse_word(t, genus2) for t in ALPHABET_WORDS])


def test_genus2_tables_match_per_monomial_loop(alphabet):
    spec = _fit_spec(alphabet)
    H = build_H_surface(alphabet).series
    got = bv_from_hamiltonian(alphabet.sys, H, spec).table
    want = bv_table_reference(alphabet.sys, H, spec.word_cap, spec.hbar_cap)
    assert _items(got) == _items(want)
    assert len(want) == 163 and sum(map(bool, want.values())) >= 80
    F = alphabet.F
    got = filling_augmentation(alphabet, F, spec).table
    want = filling_table_reference(alphabet, F, spec)
    assert _items(got) == _items(want)
    assert len(want) == 4  # one value per pair of mutually reverse classes


def _random_hamiltonian(rng, sys, terms=6):
    """q and p exponents up to 2 (1 on odd orbits), h^-1 .. h^2."""
    out = GradedSeries.zero()
    for _ in range(terms):
        entries = []
        for o in sys.q:
            for var in (sys.q[o], sys.p[o]):
                if rng.random() < 0.4:
                    entries.append((var, 1 if var.parity else rng.randrange(1, 3)))
        entries.append((sys.hbar, rng.randrange(-1, 3)))
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
        out = out + GradedSeries.from_word(entries, coeff)
    return out


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_random_hamiltonian_tables_match_per_monomial_loop(index):
    sys = SYSTEMS[index]
    rng = random.Random(4401 + index)
    nonzero = 0
    for _ in range(40):
        H = _random_hamiltonian(rng, sys)
        want = _outcome(bv_table_reference, sys, H)
        got = _outcome(lambda: bv_from_hamiltonian(
            sys, H, FreeAlgebraSpec.of_q(sys, 3, 3)).table)
        assert got == want
        nonzero += sum(bool(v) for _, v in want)
    assert nonzero >= 100


def test_underflow_is_raised_with_the_same_text():
    sys = SYSTEMS[0]
    H = sys.monomial(1, ps=["g1"], qs=["g2"]) + \
        sys.monomial(Fraction(1, 2), qs=["g3"], hpow=-2)
    want = _outcome(bv_table_reference, sys, H)
    assert isinstance(want, str) and want.startswith("underflow: ")
    assert _outcome(lambda: bv_from_hamiltonian(
        sys, H, FreeAlgebraSpec.of_q(sys, 3, 3)).table) == want


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_reliable_cap_equals_the_whole_table_formula(index):
    # the Hamiltonians of the table test above: reliable_cap reads the
    # words below word_cap only, the oracle every basis word
    sys = SYSTEMS[index]
    rng = random.Random(4401 + index)
    caps = []
    for _ in range(40):
        H = _random_hamiltonian(rng, sys)
        try:
            D = bv_from_hamiltonian(sys, H, FreeAlgebraSpec.of_q(sys, 3, 3))
        except TruncationUnderflow:
            continue
        caps.append(bv.reliable_cap(D))
        assert caps[-1] == reliable_cap_full_table(D)
    assert len(caps) >= 20 and len(set(caps)) >= 2


def test_reliable_cap_on_the_genus2_hamiltonian(alphabet):
    spec = _fit_spec(alphabet)
    D = bv_from_hamiltonian(alphabet.sys, build_H_surface(alphabet).series,
                            spec)
    assert bv.reliable_cap(D) == reliable_cap_full_table(D) == 3


def _negated(beta):
    return Augmentation(beta.spec, {m: v.scale(-1)
                                    for m, v in beta.table.items()})


def neumann_inverse_reference(Phi):
    """Phi^-1 = sum_j (-N)^j with N = Phi - id: the series stops, since
    N strictly lowers the word length."""
    spec = Phi.spec
    N = LinearMap(spec, {m: v - GradedSeries({m: Fraction(1)})
                         for m, v in Phi.table.items()}, 0)
    table = {}
    for m in Phi.table:
        term = GradedSeries({m: Fraction(1)})
        acc = dict(term.terms)
        for _ in range(spec.word_cap + 1):
            term = N.apply(term).scale(-1)
            add_terms(acc, term.terms)
        assert term.is_zero(), m
        table[m] = GradedSeries.from_terms(acc)
    return table


def test_neumann_inverse_is_the_twist_by_the_negated_augmentation(alphabet):
    # the library builds Phi^-1 as the twist by -beta, e^(-beta + iota),
    # because e^(-beta) is the convolution inverse of e^beta; the Neumann
    # series of the library's Phi inverts it independently
    spec, beta = alphabet.filling
    Phi, inverse = _phi_maps(spec, beta)
    want = neumann_inverse_reference(Phi)
    assert len(inverse.table) == 163
    assert sum(len(v.terms) > 1 for v in inverse.table.values()) >= 50
    assert inverse.table == want
    assert _phi_maps(spec, _negated(beta))[0].table == want
    for m in spec.basis_monomials():
        assert Phi.apply(inverse.value(m)) == GradedSeries({m: Fraction(1)}), m


def _reversed_terms(lmap):
    return LinearMap(lmap.spec, {
        m: GradedSeries.from_terms(dict(reversed(list(v.terms.items()))))
        for m, v in lmap.table.items()}, lmap.degree)


def test_linearized_structure_does_not_read_the_term_order_of_phi(
        alphabet, monkeypatch):
    # inside some values of Phi and Phi^-1 the order of the terms is not
    # fixed by their definition, so no output may read it: with every
    # value of both reversed, D^beta and its linearization are the same
    # dicts
    spec, beta = alphabet.filling
    D = bv_from_hamiltonian(alphabet.sys, build_H_surface(alphabet).series,
                            spec)
    _Phi, _PhiInv, want = twist_by_augmentation(
        D, Augmentation(spec, beta.table))
    phi_maps = bv._phi_maps
    monkeypatch.setattr(bv, "_phi_maps", lambda spec_, beta_: tuple(
        _reversed_terms(x) for x in phi_maps(spec_, beta_)))
    _Phi, _PhiInv, got = twist_by_augmentation(
        D, Augmentation(spec, beta.table))
    assert got.table == want.table
    lin_got, lin_want = linearize(got), linearize(want)
    assert sum(map(bool, lin_want.delta.values())) == 2
    for field in ("dlin", "delta", "mu"):
        assert getattr(lin_got, field) == getattr(lin_want, field), field
