"""The operator tables of bv_from_hamiltonian and filling_augmentation
against the per-monomial act_right loop they are built from, and the
Neumann inverse of the twist against an independent inverse."""

import random
from fractions import Fraction

import pytest

from sftstring import cotangent
from sftstring.algebra import (
    GradedSeries,
    TruncationContext,
    TruncationUnderflow,
    q_degree,
)
from sftstring.bv import (
    Augmentation,
    FreeAlgebraSpec,
    _phi_maps,
    bv_from_hamiltonian,
)
from sftstring.cotangent import (
    GeodesicAlphabet,
    _fit_spec,
    build_H_surface,
    filling_augmentation,
)
from sftstring.surfaces import Surface, parse_word
from sftstring.weyl import Orbit, OrbitSystem, act_right

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
    wide = TruncationContext(max_p_degree=64, max_hbar=hbar_cap,
                             min_hbar=-1, max_word_length=64)
    table = {}
    for m in spec.basis_monomials():
        val = act_right(H, GradedSeries({m: Fraction(1)}), sys, wide)
        table[m] = spec.truncate(val)
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
    got = bv_from_hamiltonian(alphabet.sys, H, word_cap=spec.word_cap,
                              hbar_cap=spec.hbar_cap).table
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
        got = _outcome(lambda: bv_from_hamiltonian(sys, H).table)
        assert got == want
        nonzero += sum(bool(v) for _, v in want)
    assert nonzero >= 100


def test_underflow_is_raised_with_the_same_text():
    sys = SYSTEMS[0]
    H = sys.monomial(1, ps=["g1"], qs=["g2"]) + \
        sys.monomial(Fraction(1, 2), qs=["g3"], hpow=-2)
    want = _outcome(bv_table_reference, sys, H)
    assert isinstance(want, str) and want.startswith("underflow: ")
    assert _outcome(lambda: bv_from_hamiltonian(sys, H).table) == want


def _negated(beta):
    return Augmentation(beta.spec, {m: v.scale(-1)
                                    for m, v in beta.table.items()})


def test_neumann_inverse_is_the_twist_by_the_negated_augmentation(alphabet):
    # e^(-beta) is the convolution inverse of e^beta, so Phi_(-beta)
    # inverts Phi_beta independently of the Neumann series
    spec, beta = alphabet.filling
    _phi, inverse = _phi_maps(spec, beta)
    negated, _ = _phi_maps(spec, _negated(beta))
    assert len(inverse.table) == 163
    assert sum(len(v.terms) > 1 for v in inverse.table.values()) >= 50
    assert inverse.table == negated.table
