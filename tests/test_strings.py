import itertools
from fractions import Fraction

import pytest

from sftstring.algebra import (GradedSeries, TruncationContext, add_terms,
                               collect, mul)
from sftstring.strings import (
    ClassAlgebra,
    check_fukaya_disk,
    check_goldman_turaev_axioms,
    check_master_l,
    check_string_identities,
    check_string_mc,
    delta_op,
    nabla_op,
    string_bracket,
)
from sftstring.surfaces import Surface
from sftstring.weyl import Orbit, OrbitSystem

CTX = TruncationContext(max_p_degree=3, max_hbar=3, min_hbar=-2,
                        max_word_length=12)


@pytest.fixture(scope="module")
def genus2():
    return Surface(2, 0)


@pytest.fixture(scope="module")
def alg(genus2):
    return ClassAlgebra(genus2, 2)


def test_unit_and_single_vanishing(alg):
    one = GradedSeries.unit()
    assert delta_op(one, alg, CTX).is_zero()
    assert nabla_op(one, alg, CTX).is_zero()
    x = alg.single(alg.word_of("a1 a1 b1 b1"))
    assert nabla_op(x, alg, CTX).is_zero()  # single slot
    simple = alg.single(alg.word_of("a1"))
    assert delta_op(simple, alg, CTX).is_zero()  # simple curve


def test_nabla_two_slots_is_bracket(alg, genus2):
    a, b = alg.word_of("a1"), alg.word_of("b1")
    pair = alg.multi([a, b])
    got = nabla_op(pair, alg, CTX)
    # (-1)^{(r1+r2+1)(3-n)} with r1=1, r2=2, n=2 is +1: the join is the
    # plain bracket of the two slots
    want = alg.single(genus2.class_of("a1 b1"),
                      genus2.goldman_terms(a, b)[genus2.class_of("a1 b1")])
    assert got == want


def delta_tuple(classes, alg, ctx):
    """Slot-wise splitting of an ordered tuple with the literal sign
    (-1)^((r+k)(3-n)) per slot r.  The oracle for delta_op via the
    orientation factor relating tuples to monomials."""
    sgn_exp = 3 - alg.n
    k = len(classes)
    out = {}
    for r in range(1, k + 1):
        pref = -1 if ((r + k) * sgn_exp) % 2 else 1
        for (u, v), cc in alg.surface.turaev_terms(classes[r - 1]).items():
            t = list(classes[:r - 1]) + [u, v] + list(classes[r:])
            add_terms(out, alg.multi(t, cc * pref).terms)
    return collect(out, ctx)


def nabla_tuple(classes, alg, ctx):
    """Pair-of-slots joining of an ordered tuple with the literal sign
    (-1)^((r2-1+k)(3-n)); the joined class takes slot r1."""
    sgn_exp = 3 - alg.n
    k = len(classes)
    out = {}
    for r1 in range(1, k + 1):
        for r2 in range(r1 + 1, k + 1):
            pref = -1 if ((r2 - 1 + k) * sgn_exp) % 2 else 1
            for z, cc in alg.surface.goldman_terms(
                    classes[r1 - 1], classes[r2 - 1]).items():
                t = [z if t == r1 - 1 else c
                     for t, c in enumerate(classes) if t != r2 - 1]
                add_terms(out, alg.multi(t, cc * pref).terms)
    return collect(out, ctx)


def tuple_orientation(k, n):
    """Sign relating an ordered k-tuple to its sorted monomial so that
    the tuple product with its (-1)^(il(3-n)) twist matches the plain
    graded product of monomials."""
    return -1 if (k * (k - 1) // 2) * (3 - n) % 2 else 1


def multi_product(alg, sigma, i_deg, tau, j_deg):
    """Product of two tuples: concatenation with the shifted-degree sign
    (-1)^(i l (3-n)) where l is the length of the second tuple.

    Returns (sign, concatenated tuple); on the quotient this matches the
    graded product of the corresponding monomials.
    """
    sign_exp = i_deg * len(tau) * (3 - alg.n)
    return (-1 if sign_exp % 2 else 1), list(sigma) + list(tau)


def test_tuple_forms_match_monomial_forms(alg, genus2):
    ctx = TruncationContext(max_p_degree=0, max_hbar=1, min_hbar=0,
                            max_word_length=16)
    classes = genus2.classes_up_to(2)[:6]
    for t in itertools.permutations(classes, 2):
        t = list(t)
        k = len(t)
        lhs = delta_op(alg.multi(t), alg, ctx)
        rhs = delta_tuple(t, alg, ctx).scale(
            tuple_orientation(k, 2) * tuple_orientation(k + 1, 2))
        assert (lhs - rhs).is_zero()
        lhs = nabla_op(alg.multi(t), alg, ctx)
        rhs = nabla_tuple(t, alg, ctx).scale(
            tuple_orientation(k, 2) * tuple_orientation(k - 1, 2))
        assert (lhs - rhs).is_zero()


def test_identity_suite_small(genus2):
    rep = check_string_identities(genus2, max_len=3, max_slots=3)
    assert rep.passed


def test_axiom_suite_small(genus2):
    rep = check_goldman_turaev_axioms(genus2, max_len=2, sample_len=3,
                                      triples=20, pairs=20, seed=11)
    assert rep.passed


def _string_system():
    # no orbits at all: a filling-style setup where only the string
    # coefficients move
    return OrbitSystem(2, [])


def _orbit_system():
    return OrbitSystem(2, [Orbit("g1", 0, 1, side="pos")])


def test_master_l_trivial(alg):
    sys = _string_system()
    rep = check_master_l(GradedSeries.zero(), GradedSeries.zero(),
                         GradedSeries.zero(), alg, sys, CTX)
    assert rep.passed


def test_master_l_single_term_reduces_to_mc(alg, genus2):
    # L with one q-free boundary-free term: the master equation is the
    # string Maurer-Cartan equation for that term
    sys = _string_system()
    x, y = alg.word_of("a1"), alg.word_of("a2")
    A = mul(alg.multi([x, y]), _h_inv(sys), CTX)
    rep_l = check_master_l(A, GradedSeries.zero(), GradedSeries.zero(),
                           alg, sys, CTX)
    rep_mc = check_string_mc(A, alg, sys, CTX)
    assert rep_l.passed and rep_mc.passed
    # crossing classes spoil it: [x, b] is nonzero
    b = alg.word_of("b1")
    B = mul(alg.multi([x, b]), _h_inv(sys), CTX)
    rep_l2 = check_master_l(B, GradedSeries.zero(), GradedSeries.zero(),
                            alg, sys, CTX)
    rep_mc2 = check_string_mc(B, alg, sys, CTX)
    assert not rep_l2.passed and not rep_mc2.passed
    assert rep_l2.witnesses and rep_mc2.witnesses


def _h_inv(sys):
    return GradedSeries({((sys.hbar, -1),): Fraction(1)})


def test_master_l_with_punctures(alg, genus2):
    # L = (1/h) s[x] p[g1] with H+ = 0: the split/join terms vanish for a
    # simple disjoint class and nothing acts, so the equation holds
    sys = _orbit_system()
    x = alg.word_of("a1")
    L = GradedSeries.from_word([(alg.symbol(x), 1),
                                (sys.p["g1"], 1), (sys.hbar, -1)])
    rep = check_master_l(L, GradedSeries.zero(), GradedSeries.zero(),
                         alg, sys, CTX)
    assert rep.passed


def test_master_l_intertwines_trivial_action(alg):
    # H+ with every term containing a q+ annihilates e^L for q-free L
    sys = _orbit_system()
    Hp = GradedSeries.from_word([(sys.q["g1"], 1), (sys.p["g1"], 1),
                                 (sys.hbar, -1)])
    x, y = alg.word_of("a1"), alg.word_of("a2")
    L = mul(alg.multi([x, y]), _h_inv(sys), CTX)
    rep = check_master_l(L, Hp, GradedSeries.zero(), alg, sys, CTX)
    assert rep.passed


def test_fukaya_disk(alg, genus2):
    # consistent toy data: simple classes (crossing pairs are fine: the
    # two ordered joinings cancel at homology level)
    a1 = alg.single(alg.word_of("a1")) + alg.single(alg.word_of("a2"), 3) \
        + alg.single(alg.word_of("b1"), 2)
    rep = check_fukaya_disk(a1, alg, CTX)
    assert rep.passed
    # perturbed: a class with nonzero splitting breaks the equation
    bad = a1 + alg.single(alg.word_of("a1 a2 A1 A2"), 1)
    rep2 = check_fukaya_disk(bad, alg, CTX)
    assert not rep2.passed and rep2.witnesses


def test_single_string_square_collapses(alg, genus2):
    # products of single strings collapse pairwise at homology level,
    # so the bracket obstruction of the disk equation comes only from
    # genuine two-string data (covered by the Maurer-Cartan check)
    a1 = alg.single(alg.word_of("a1")) + alg.single(alg.word_of("b1"), 2)
    assert mul(a1, a1, CTX).is_zero()
    assert string_bracket(alg, a1, a1, CTX).is_zero()


def test_string_bracket_bilinear(alg, genus2):
    a = alg.single(alg.word_of("a1"))
    b = alg.single(alg.word_of("b1"))
    lhs = string_bracket(alg, a + b, a + b, CTX)
    assert lhs == string_bracket(alg, a, b, CTX) + string_bracket(alg, b, a, CTX)
    assert lhs.is_zero()  # antisymmetry


def test_multi_product_examples(alg, genus2):
    x, y = alg.word_of("a1"), alg.word_of("a2")
    # unit tuple: no sign, no slots added
    sgn, t = multi_product(alg, [], 0, [x, y], -2)
    assert sgn == 1 and t == [x, y]
    # n = 2, single degree -1 strings: sigma.tau = -sigma x tau
    sgn, t = multi_product(alg, [x], -1, [y], -1)
    assert sgn == -1 and t == [x, y]
    # and the product is graded-commutative through the quotient:
    # sigma.tau = (-1)^{ij} tau.sigma
    sgn2, t2 = multi_product(alg, [y], -1, [x], -1)
    lhs = alg.multi(t, sgn)
    rhs = alg.multi(t2, sgn2).scale(-1)  # (-1)^{(-1)(-1)}
    assert lhs == rhs
    # double swap returns the original with sign +1
    assert alg.multi([x, y]) == alg.multi([y, x]).scale(-1)


def test_torus_mode_bracket_bilinear():
    T = Surface(1, 0)
    x = T.canonical_class(T.torus_word(1, 0))
    y = T.canonical_class(T.torus_word(0, 1))
    z = T.canonical_class(T.torus_word(1, 1))
    assert T.goldman_terms(x, x) == {}
    # oracle arithmetic Jacobi for the three lattice vectors
    from fractions import Fraction as F
    acc = {}
    for (u, v, w) in ((x, y, z), (z, x, y), (y, z, x)):
        for t, c in T.goldman_terms(u, v).items():
            for t2, c2 in T.goldman_terms(t, w).items():
                acc[t2] = acc.get(t2, F(0)) + c * c2
    assert not {k: v for k, v in acc.items() if v}


@pytest.mark.parametrize("genus,boundary", [(1, 1), (2, 1), (0, 3)])
def test_axioms_on_surfaces_with_boundary(genus, boundary):
    S = Surface(genus, boundary)
    rep = check_goldman_turaev_axioms(S, max_len=2, sample_len=3,
                                      triples=25, pairs=25, seed=5)
    assert rep.passed, rep.witnesses[:3]
    rep2 = check_string_identities(S, max_len=2, max_slots=3)
    assert rep2.passed, rep2.witnesses[:3]
