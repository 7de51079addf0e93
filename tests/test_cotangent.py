import copy
import random
from pathlib import Path

import pytest

from sftstring import bv, cli, cotangent, problemfile
from sftstring.algebra import KIND_Q, TruncationContext, q_degree
from sftstring.bv import (BvError, FreeAlgebraSpec, bv_from_hamiltonian,
                          twist_by_augmentation)
from sftstring.cotangent import (
    AlphabetError,
    GeodesicAlphabet,
    _assemble,
    _fit_spec,
    build_F,
    build_H_surface,
    check_psi_intertwining,
    check_surface_master,
    close_alphabet,
    filling_augmentation,
    surface_structure_constants,
)
from sftstring.surfaces import Surface, parse_word
from sftstring.weyl import act_left, exp_series, project_out, star

DATA = Path(__file__).parent / "data"
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


def test_flipped_series_equals_the_assembled_flip(alphabet, hamiltonian):
    # flipped subtracts twice the one term; _assemble rebuilds all 26
    flips = 0
    for family, entries in hamiltonian.coefficients().items():
        for key in entries:
            flipped = hamiltonian.flipped(family, key)
            want = _assemble(alphabet, flipped.coefficients())
            assert list(flipped.series.terms.items()) == \
                list(want.terms.items()), (family, key)
            assert [type(c) for c in flipped.series.terms.values()] == \
                [type(c) for c in want.terms.values()]
            assert flipped.coefficients()[family][key] == -entries[key]
            flips += 1
    assert flips == 26


def test_build_h_checks_evaluate_no_dh_on_the_longest_words(monkeypatch):
    # D_H computes a word on its first read; the fit and both checks of
    # build-h --verify never read a word of q-degree word_cap
    read = []
    act_right_words = bv.act_right_words

    def counted(F, sys, ctx):
        act = act_right_words(F, sys, ctx)

        def on_word(m):
            read.append(q_degree(m))
            return act(m)
        return on_word

    monkeypatch.setattr(bv, "act_right_words", counted)
    pf = problemfile.parse((DATA / "genus2_alphabet.sft").read_text())
    names = {pf.classes[n]: n for n in pf.class_order}
    alpha = GeodesicAlphabet(pf.surface, list(names), names)
    H = build_H_surface(alpha)
    assert check_surface_master(H).passed
    assert check_psi_intertwining(H).passed
    assert read and max(read) == _fit_spec(alpha).word_cap - 1


def test_psi_map_and_intertwining(alphabet, hamiltonian):
    # the orbit-to-class map is the inverse of the orbit naming
    orbit_to_class = {nm: w for w, nm in alphabet.names.items()}
    for w in alphabet.classes:
        assert orbit_to_class[alphabet.name(w)] == w
    rep = check_psi_intertwining(hamiltonian)
    assert rep.passed


def test_psi_intertwining_fails_on_every_single_flip(hamiltonian):
    # criterion 8's 26 sign flips: the filling's beta is no augmentation
    # of a flipped H, which the report names as its witness
    flips = _single_flips(hamiltonian)
    assert len(flips) == 26
    for bad in flips:
        rep = check_psi_intertwining(bad)
        assert not rep.passed and rep.witnesses
        assert rep.witnesses[0][0] == "filling augmentation"
        assert "not an augmentation" in rep.witnesses[0][1]


def test_iterated_classes_are_flagged(genus2):
    words = [parse_word(t, genus2) for t in ("a1 a1", "A1 A1", "a2", "A2")]
    alpha = GeodesicAlphabet.from_words(genus2, words)
    H = build_H_surface(alpha)
    assert any("iterated" in n for n in H.notes)
    assert check_surface_master(H).passed


def _single_flips(H):
    return [H.flipped(fam, key) for fam, entries in H.coefficients().items()
            for key, val in entries.items() if val]


def test_filling_action_equals_projected_star(alphabet, hamiltonian):
    # check_surface_master's filling equation: e^F is p-only, so the
    # q-free part of e^F * H is the right action of H on e^F
    ctx = TruncationContext(max_p_degree=4, max_hbar=3, min_hbar=-1,
                            max_word_length=0)
    wide = ctx.widen(extra_low=ctx.max_p_degree // 2 + 2)
    sys = alphabet.sys
    eF = exp_series(build_F(alphabet), sys, wide)
    flips = _single_flips(hamiltonian)
    assert len(flips) == 26
    nonzero = 0
    for H in [hamiltonian] + flips:
        got = act_left(eF, H.series, sys, wide)
        assert got == project_out(star(eF, H.series, sys, wide), kinds=(KIND_Q,))
        nonzero += bool(got)
    assert nonzero >= 5


def test_flips_share_one_exponential(alphabet, hamiltonian, monkeypatch):
    # the sign flips of one H share its alphabet, which builds e^F once;
    # the reports are those of a fresh e^F per check
    flips = _single_flips(hamiltonian)

    def report(H):
        rep = check_surface_master(H)
        return rep.passed, rep.witnesses, rep.notes

    fresh = []
    for H in flips:
        vars(alphabet).pop("exp_F", None)
        fresh.append(report(H))
    calls = []

    def counted(*args):
        calls.append(args)
        return exp_series(*args)

    monkeypatch.setattr(cotangent, "exp_series", counted)
    vars(alphabet).pop("exp_F", None)
    assert [report(H) for H in flips] == fresh
    assert len(calls) == 1
    assert not any(passed for passed, _w, _n in fresh)
    assert all(witnesses for _p, witnesses, _n in fresh)


def test_build_h_verify_computes_the_constants_once(monkeypatch, capsys):
    # the fit and the intertwining check read the alphabet's one pair of
    # structure-constant tables, and neither changes it
    built = []

    def counted(alphabet, cap):
        tables = surface_structure_constants(alphabet, cap)
        built.append((cap, tables, copy.deepcopy(tables)))
        return tables

    monkeypatch.setattr(cotangent, "surface_structure_constants", counted)
    assert cli.main(["build-h", "--input", str(DATA / "genus2_alphabet.sft"),
                     "--verify", "--json"]) == 0
    assert '"status": "pass"' in capsys.readouterr().out
    assert [cap for cap, _t, _c in built] == [4]
    assert built[0][1] == built[0][2]


def _tables(maps):
    return [[(m, list(v.terms.items())) for m, v in op.table.items()]
            for op in maps]


def test_twist_memo_matches_a_fresh_beta(alphabet, hamiltonian):
    # build_H_surface twists the partial H (a- and d-families) and
    # check_psi_intertwining the full H, both by the alphabet's beta on
    # its one spec; Phi and Phi^-1 are kept on beta
    spec = _fit_spec(alphabet)
    F = build_F(alphabet)
    partial = _assemble(alphabet, {"a": hamiltonian.a, "d": hamiltonian.d})

    def twist(series, beta, validate, on=spec):
        D = bv_from_hamiltonian(alphabet.sys, series, on)
        return twist_by_augmentation(D, beta, validate=validate)

    warm = filling_augmentation(alphabet, F, spec)
    first = twist(partial, warm, False)
    for series, validate in ((partial, False), (hamiltonian.series, True)):
        got = twist(series, warm, validate)
        assert got[0] is first[0] and got[1] is first[1]
        fresh = twist(series, filling_augmentation(alphabet, F, spec), validate)
        assert _tables(got) == _tables(fresh)
    # an operator on another spec object, with the same caps or others,
    # is refused; a beta on that spec twists it
    for caps in ((4, 3), (3, 3), (4, 2)):
        other = FreeAlgebraSpec.of_q(alphabet.sys, *caps)
        for series in (hamiltonian.series, partial):
            with pytest.raises(BvError, match="different specs"):
                twist(series, warm, False, other)
        fresh = twist(hamiltonian.series,
                      filling_augmentation(alphabet, F, other), False, other)
        if caps == (4, 3):
            assert _tables(fresh[:2]) == _tables(first[:2])
