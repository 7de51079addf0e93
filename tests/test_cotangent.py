import random

import pytest

from sftstring.cotangent import (
    AlphabetError,
    GeodesicAlphabet,
    build_F,
    build_H_surface,
    check_psi_intertwining,
    check_surface_master,
    close_alphabet,
    surface_structure_constants,
)
from sftstring.surfaces import Surface, parse_word

ALPHABET_WORDS = ["a1 a2 A1 A2", "a1 A2 A1 a2", "a1", "A1", "a2", "A2",
                  "a1 a2", "A1 A2"]


@pytest.fixture(scope="module")
def genus2():
    return Surface(2, 0)


@pytest.fixture(scope="module")
def alphabet(genus2):
    words = [parse_word(t, genus2) for t in ALPHABET_WORDS]
    return GeodesicAlphabet.from_words(genus2, words)


@pytest.fixture(scope="module")
def hamiltonian(alphabet):
    return build_H_surface(alphabet)


def test_alphabet_requires_reversal_closure(genus2):
    with pytest.raises(AlphabetError):
        GeodesicAlphabet.from_words(genus2, [parse_word("a1", genus2)])


def test_alphabet_orbit_gradings(alphabet):
    sys = alphabet.sys
    for name in sys.q:
        assert sys.q[name].degree == -1
        assert sys.p[name].degree == -1
    assert sys.hbar.degree == -2


def test_close_alphabet_reports_escapes(genus2):
    K = parse_word("a1 a2 A1 A2", genus2)
    closure, escaped = close_alphabet(genus2, [K], cap=4)
    assert len(closure) == 8
    assert len(escaped) == 6
    assert all(len(w) > 4 for w in escaped)
    # a genuinely non-closed alphabet: [a1, b1] lands on a short class
    closure2, escaped2 = close_alphabet(
        genus2, [parse_word("a1", genus2), parse_word("b1", genus2)], cap=2)
    assert genus2.class_of("a1 b1") in closure2 or escaped2


def test_build_f_pairing(alphabet, genus2):
    F = build_F(alphabet)
    # one term per reversal pair, each coefficient +-1 at h^-1
    assert len(F.terms) == 4
    for mono, coeff in F.terms.items():
        assert coeff in (1, -1)
    # empty alphabet gives zero
    empty = GeodesicAlphabet(genus2, [], {})
    assert build_F(empty).is_zero()


def test_structure_constants_detect_missing_classes(genus2):
    words = [parse_word(t, genus2) for t in ("a1", "A1", "b1", "B1")]
    alpha = GeodesicAlphabet.from_words(genus2, words)
    with pytest.raises(AlphabetError) as err:
        surface_structure_constants(alpha, cap=2)
    assert "a1 b1" in str(err.value)


def test_simple_alphabet_gives_zero_h(genus2):
    words = [parse_word(t, genus2) for t in ("a1", "A1", "a2", "A2")]
    alpha = GeodesicAlphabet.from_words(genus2, words)
    H = build_H_surface(alpha)
    assert H.series.is_zero()
    assert check_surface_master(H).passed


def test_h_has_only_the_four_shapes(hamiltonian):
    from sftstring.algebra import hbar_exponent, monomial_degree, p_degree, q_degree
    shapes = set()
    for mono in hamiltonian.series.terms:
        shapes.add((q_degree(mono), p_degree(mono), hbar_exponent(mono)))
        assert monomial_degree(mono) == -1
    assert shapes <= {(2, 1, -1), (1, 2, -1), (0, 3, -1), (0, 1, 0)}
    # all four families are populated for the commutator alphabet
    assert any(v for v in hamiltonian.a.values())
    assert any(v for v in hamiltonian.b.values())
    assert any(v for v in hamiltonian.c.values())
    assert any(v for v in hamiltonian.d.values())


def test_master_equation_passes(hamiltonian):
    rep = check_surface_master(hamiltonian)
    assert rep.passed


def test_flip_sensitivity_sample(hamiltonian):
    rng = random.Random(2)
    entries = [(fam, key) for fam, d in hamiltonian.coefficients().items()
               for key, v in d.items() if v]
    rng.shuffle(entries)
    for fam, key in entries[:6]:
        bad = hamiltonian.flipped(fam, key)
        rep = check_surface_master(bad)
        assert not rep.passed and rep.witnesses, (fam, key)


def test_psi_map_and_intertwining(alphabet, hamiltonian):
    # the orbit-to-class map is the inverse of the orbit naming
    orbit_to_class = {nm: w for w, nm in alphabet.names.items()}
    for w in alphabet.classes:
        assert orbit_to_class[alphabet.name(w)] == w
    rep = check_psi_intertwining(hamiltonian)
    assert rep.passed


def test_iterated_classes_are_flagged(genus2):
    words = [parse_word(t, genus2) for t in ("a1 a1", "A1 A1", "a2", "A2")]
    alpha = GeodesicAlphabet.from_words(genus2, words)
    H = build_H_surface(alpha)
    assert any("iterated" in n for n in H.notes)
    assert check_surface_master(H).passed
