"""The twist by an augmentation computes Phi, Phi^-1 and D^beta one word
at a time, on the word's first read.

Read in full, the three maps must equal the tables built up front on
every basis word (`oracles.eager_twist_tables`), values and order alike;
a `build-h --verify` pass must compute D^beta only on the words its
readers touch; and an error that the up-front tables raised on a word
nobody reads must still be raised by the twist.
"""

import gc
from collections import Counter
from pathlib import Path

import pytest

from sftstring import bv, cli, cotangent
from sftstring.algebra import GradedSeries, mul
from sftstring.bv import (
    Augmentation,
    BvError,
    bv_from_hamiltonian,
    linearize,
    twist_by_augmentation,
)
from sftstring.cotangent import GeodesicAlphabet, build_H_surface
from sftstring.surfaces import Surface, parse_word
from builders import generator
from oracles import eager_twist_tables
from test_action_tables import ALPHABET_WORDS
from test_bv import worked_example, xy_spec

DATA = Path(__file__).parent / "data"


def _items(table):
    return [(m, list(v.terms.items())) for m, v in table.items()]


def _assert_matches_eager(D, beta, read_first=()):
    want = eager_twist_tables(D, beta)
    maps = twist_by_augmentation(D, beta, validate=False)
    for m in read_first:  # some words read before the whole table
        maps[2].value(m)
    for got, table in zip(maps, want):
        assert _items(got.table) == _items(table)
    assert list(want[0]) == D.spec.basis_monomials()


def test_genus2_alphabet_matches_eager_tables():
    genus2 = Surface(2, 0)
    alphabet = GeodesicAlphabet.from_words(
        genus2, [parse_word(t, genus2) for t in ALPHABET_WORDS])
    spec, beta = alphabet.filling
    D = bv_from_hamiltonian(alphabet.sys, build_H_surface(alphabet).series,
                            spec)
    assert len(spec.basis_monomials()) == 163
    _assert_matches_eager(D, Augmentation(spec, beta.table),
                          reversed(spec.basis_monomials(2)))


def test_worked_examples_match_eager_tables():
    spec, D, beta = worked_example()
    _assert_matches_eager(D, beta, [((spec.symbol("x"), 1),)])
    spec = xy_spec()
    y = generator(spec, "y")
    D = bv.derivation_operator(spec, {"x": mul(y, y, spec.caps),
                                      "y": GradedSeries.zero()})
    _assert_matches_eager(D, Augmentation(spec, {}))


def test_build_h_verify_twists_only_the_words_it_reads(monkeypatch, capsys):
    # D^beta's rule applies D once per word, and nothing else on this
    # path applies D: linearize reads words of q-degree 1 and 2, and the
    # validated twist's constant-term check those of q-degree <= 3
    twists = []

    def spy(D, beta, validate=True):
        twists.append((D, validate))
        return twist_by_augmentation(D, beta, validate=validate)

    applied = Counter()
    apply = bv.BvOperator.apply

    def counted(self, series):
        applied[self] += 1
        return apply(self, series)

    monkeypatch.setattr(cotangent, "twist_by_augmentation", spy)
    monkeypatch.setattr(bv.BvOperator, "apply", counted)
    assert cli.main(["build-h", "--input", str(DATA / "genus2_alphabet.sft"),
                     "--verify", "--json"]) == 0
    capsys.readouterr()
    assert [validate for _D, validate in twists] == [False, True]
    spec = twists[0][0].spec
    assert len(spec.basis_monomials()) == 163
    low = [m for m in spec.basis_monomials(2) if m]
    assert len(low) == 36
    for D, validate in twists:
        if validate:
            assert applied[D] == len(spec.basis_monomials(3)) == 93
        else:
            assert 0 < applied[D] <= len(low)


def test_wrong_parity_on_an_unread_word_still_raises():
    # x odd, y even: beta^3 = h^2 on x y^2 is even on an odd word, and
    # neither linearize nor an unvalidated twist reads x y^2
    spec, D, _ = worked_example()
    sx, sy = spec.symbol("x"), spec.symbol("y")
    beta = Augmentation(spec, {((sx, 1), (sy, 2)): spec.hpow(2)})
    with pytest.raises(BvError, match=r"parity.*: x\*y\^2 ->"):
        twist_by_augmentation(D, beta, validate=False)
    # with two wrong blocks the error names the one the up-front tables
    # met first, the first in basis order
    beta = Augmentation(spec, {((sx, 1), (sy, 2)): spec.hpow(2),
                               ((sx, 1),): spec.hpow(0)})
    with pytest.raises(BvError) as eager:
        eager_twist_tables(D, beta)
    with pytest.raises(BvError) as lazy:
        twist_by_augmentation(D, beta, validate=False)
    assert str(lazy.value) == str(eager.value)
    assert ": x ->" in str(lazy.value)


def test_values_read_by_the_fit_serve_the_later_twist():
    spec, D, beta = worked_example()
    Phi, PhiInv, Dbeta = twist_by_augmentation(D, beta, validate=False)
    linearize(Dbeta)
    again = twist_by_augmentation(D, beta)
    assert again[0] is Phi and again[1] is PhiInv
    with pytest.raises(BvError, match="outside the table"):
        Phi.value(((spec.symbol("y"), spec.word_cap + 1),))


def test_twist_needs_the_operator_on_the_augmentation_spec():
    # an equal spec is not enough: Phi and Phi^-1 are kept on beta for
    # beta.spec, the one object
    spec, D, beta = worked_example()
    other = xy_spec()
    y = generator(other, "y")
    D_other = bv.derivation_operator(
        other, {"x": mul(y, y, other.caps) - GradedSeries.unit(),
                "y": GradedSeries.zero()})
    for validate in (True, False):
        with pytest.raises(BvError, match="different specs"):
            twist_by_augmentation(D_other, beta, validate=validate)
    assert twist_by_augmentation(D, beta)[2].table


def test_repeated_twists_by_one_beta_share_phi():
    # Phi and Phi^-1 depend on beta alone: every twist by beta, of any
    # operator on its spec, returns the one pair kept on beta
    spec, D, beta = worked_example()
    y = generator(spec, "y")
    D2 = bv.derivation_operator(
        spec, {"x": mul(y, y, spec.caps) - y.scale(2) + GradedSeries.unit(),
               "y": GradedSeries.zero()})
    Phi, PhiInv = beta._phi
    for op, validate in ((D, True), (D2, False), (D, False), (D2, False)):
        got = twist_by_augmentation(op, beta, validate=validate)
        assert got[0] is Phi and got[1] is PhiInv


def test_twisting_leaves_no_reference_cycle():
    # the memo of e^(beta + iota) is freed with its map, not left to
    # the cyclic collector
    spec, D, beta = worked_example()
    gc.collect()
    gc.disable()
    try:
        aug = Augmentation(spec, beta.table)
        maps = twist_by_augmentation(D, aug)
        linearize(maps[2])
        assert maps[0].table and maps[1].table
        # e^beta keeps its recursion on aug, which must not refer back
        assert any(aug.exp(GradedSeries({m: 1}))
                   for m in spec.basis_monomials())
        del maps, aug
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_basis_enumeration_per_pass(monkeypatch, tmp_path, capsys):
    # every reader of the words of q-degree <= k takes a prefix of the
    # one basis of the one spec of the pass
    made = []
    enumerate_basis = bv.FreeAlgebraSpec._enumerate

    def counted(spec):
        made.append(spec)
        return enumerate_basis(spec)

    monkeypatch.setattr(bv.FreeAlgebraSpec, "_enumerate", counted)
    assert cli.main(["build-h", "--input", str(DATA / "genus2_alphabet.sft"),
                     "--verify", "--json"]) == 0
    assert len(made) == 1
    # twelve even orbits and one odd one, H = sum_i q[e_i] p[o0]
    path = tmp_path / "thirteen.sft"
    path.write_text("n = 2\n" + "".join("orbit e%d cz=1\n" % i
                                        for i in range(12))
                    + "orbit o0 cz=0\nseries H deg=-1 = "
                    + " + ".join("q[e%d]*p[o0]" % i for i in range(12)) + "\n")
    del made[:]
    assert cli.main(["linearize", "--input", str(path)]) == 0
    assert len(made) == 1 and len(made[0].basis_monomials()) == 546
    capsys.readouterr()
