import gc
import itertools
import json
import random
import types
import weakref
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from sftstring import strings
from sftstring.algebra import (KIND_S, GradedSeries, TruncationContext,
                               add_terms, collect, mul, word_length)
from sftstring.strings import (
    ClassAlgebra,
    _pool_tuples,
    check_fukaya_disk,
    check_goldman_turaev_axioms,
    check_master_l,
    check_string_identities,
    check_string_mc,
    delta_op,
    nabla_op,
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


# ---------------------------------------------------------------------
# split/join images memoized per monomial
# ---------------------------------------------------------------------

def _slots_and_rest(m):
    slots = [s for s, e in m if s.kind == KIND_S for _ in range(e)]
    return slots, [(s, e) for s, e in m if s.kind != KIND_S]


def delta_op_reference(series, alg, ctx):
    """delta_op term by term: every slot split of every term of the
    series, scaled and normalized on its own."""
    sgn_exp = 3 - alg.n
    out = {}
    for m, c in series.terms.items():
        slots, rest = _slots_and_rest(m)
        for r in range(1, len(slots) + 1):
            pref = -1 if (r * sgn_exp) % 2 else 1
            cls = alg.class_of_symbol(slots[r - 1])
            for (u, v), cc in alg.surface.turaev_terms(cls).items():
                entries = [(s, 1) for s in slots[:r - 1]]
                entries += [(alg.symbol(u), 1), (alg.symbol(v), 1)]
                entries += [(s, 1) for s in slots[r:]]
                entries += rest
                add_terms(out, GradedSeries.from_word(entries, c * cc * pref).terms)
    return collect(out, ctx)


def nabla_op_reference(series, alg, ctx):
    """nabla_op term by term: every slot-pair join of every term."""
    sgn_exp = 3 - alg.n
    out = {}
    for m, c in series.terms.items():
        slots, rest = _slots_and_rest(m)
        k = len(slots)
        for r1 in range(1, k + 1):
            for r2 in range(r1 + 1, k + 1):
                pref = -1 if ((r1 + r2 + 1) * sgn_exp) % 2 else 1
                c1 = alg.class_of_symbol(slots[r1 - 1])
                c2 = alg.class_of_symbol(slots[r2 - 1])
                for z, cc in alg.surface.goldman_terms(c1, c2).items():
                    entries = [(alg.symbol(z), 1)]
                    entries += [(s, 1) for t, s in enumerate(slots)
                                if t not in (r1 - 1, r2 - 1)]
                    entries += rest
                    add_terms(out, GradedSeries.from_word(entries, c * cc * pref).terms)
    return collect(out, ctx)


def _pool_ctx(max_len):
    # the window check_string_identities uses
    return TruncationContext(max_p_degree=0, max_hbar=2, min_hbar=0,
                             max_word_length=4 * max_len)


# at n = 3 the class symbols are even: a tuple may repeat a class, and
# the split vanishes (u v = v u against an antisymmetric cobracket), so
# there only the join images are nonzero; the n = 2 cases keep the ids
# 2-0 and 1-2
@pytest.mark.parametrize("genus,boundary,n", [
    pytest.param(g, b, n, id="%d-%d" % (g, b) + ("-n%d" % n if n != 2 else ""))
    for n in (2, 3, 4) for g, b in ((2, 0), (1, 2))])
def test_split_join_images_match_reference_on_pool(genus, boundary, n):
    S = Surface(genus, boundary)
    alg = ClassAlgebra(S, n)
    ctx = _pool_ctx(4)
    nonzero = 0
    for t in _pool_tuples(S.classes_up_to(4), 3, 4):
        s = alg.multi(t)
        for op, ref in ((delta_op, delta_op_reference),
                        (nabla_op, nabla_op_reference)):
            got = op(s, alg, ctx)
            assert got == ref(s, alg, ctx), t
            nonzero += not got.is_zero()
    assert nonzero >= 100


def test_split_join_images_match_reference_on_combinations(genus2):
    # one monomial m0 recurs in every combination with a new coefficient;
    # split^2 and join^2 of a combination cancel term by term
    alg = ClassAlgebra(genus2, 2)
    ctx = _pool_ctx(4)
    tuples = [t for t in _pool_tuples(genus2.classes_up_to(4), 3, 4)
              if not alg.multi(t).is_zero()]
    rng = random.Random(808)
    m0 = alg.multi([genus2.class_of("a1 b1 A1 B1")])
    cancelled = 0  # nonzero images whose second application cancels
    for _ in range(40):
        s = m0.scale(Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.randint(1, 4)))
        for t in rng.sample(tuples, 4):
            s = s + alg.multi(t, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for op, ref in ((delta_op, delta_op_reference),
                        (nabla_op, nabla_op_reference)):
            once = ref(s, alg, ctx)
            assert op(s, alg, ctx) == once
            assert op(once, alg, ctx) == ref(once, alg, ctx) == GradedSeries.zero()
            cancelled += not once.is_zero()
    assert cancelled >= 20


def test_memo_isolation(genus2):
    x, y = genus2.class_of("a1 a2 A1 A2"), genus2.class_of("b1 a2")
    bracket, cobracket = genus2.goldman_terms(x, y), genus2.turaev_terms(x)
    assert bracket and cobracket
    for table in (genus2.goldman_terms(x, y), genus2.turaev_terms(x)):
        for k in table:
            table[k] += 7
        table[x] = Fraction(1)
    assert genus2.goldman_terms(x, y) == bracket
    assert genus2.turaev_terms(x) == cobracket
    # a window that drops every result, used first, does not truncate
    # the memoized images
    wide = _pool_ctx(4)
    narrow = TruncationContext(max_p_degree=0, max_hbar=2, min_hbar=0,
                               max_word_length=1)
    alg = ClassAlgebra(genus2, 2)
    s = alg.multi([x, genus2.class_of("a1 a1 b1 b1"), y])
    for op, ref in ((delta_op, delta_op_reference),
                    (nabla_op, nabla_op_reference)):
        assert op(s, alg, narrow) == ref(s, alg, narrow) == GradedSeries.zero()
        want = ref(s, alg, wide)
        assert not want.is_zero()
        assert op(s, alg, wide) == want
        assert op(s, alg, narrow).is_zero()


@pytest.mark.parametrize("genus,boundary", [(2, 0), (1, 2)])
def test_pool_tuples_stop_at_first_long_class(genus, boundary):
    # the early stop relies on classes_up_to listing classes by length
    classes = Surface(genus, boundary).classes_up_to(4)
    assert [len(c) for c in classes] == sorted(len(c) for c in classes)
    out = []

    def rec(start, cur, remaining):
        for idx in range(start, len(classes)):
            c = classes[idx]
            if len(c) > remaining:
                continue
            t = cur + [c]
            out.append(t)
            if len(t) < 3:
                rec(idx, t, remaining - len(c))

    rec(0, [], 4)
    assert _pool_tuples(classes, 3, 4) == out


# ---------------------------------------------------------------------
# the identity suite: witnesses pinned, per-call tables freed
# ---------------------------------------------------------------------

WITNESSES = Path(__file__).parent / "data" / "identities" / "witnesses.json"


@pytest.mark.parametrize("op", ["split", "join"])
def test_identity_witnesses_under_a_broken_operator(monkeypatch, genus2, op):
    """tests/data/identities/witnesses.json holds the witness list, in
    order, of check_string_identities on genus 2 with max_len=3 when the
    split (80 witnesses) or the join (72) image is negated on two-slot
    monomials.  A memo that skips, repeats or reorders an identity on
    some tuple changes the list."""
    name = "_%s_image" % op
    image = getattr(strings, name)

    def broken(m, alg):
        img = image(m, alg)
        return {k: -c for k, c in img.items()} if word_length(m) == 2 else img
    monkeypatch.setattr(strings, name, broken)
    got = check_string_identities(genus2, max_len=3).witnesses
    want = json.loads(WITNESSES.read_text(encoding="utf-8"))[op]
    assert len(want) == {"split": 80, "join": 72}[op]
    assert [list(w) for w in got] == want


@pytest.mark.parametrize("n", [2, 3])
def test_tuple_monomial_is_the_product_of_its_classes(genus2, n):
    """The identity suite takes D(s) and N(s) of the tuple's monomial s
    as D(c1 c2) and N(c1 c2 c3): multi must give the product of the
    single strings, in the window, for pool tuples and for sampled
    tuples in any order, repeats included (at n = 3 a repeat survives)."""
    alg = ClassAlgebra(genus2, n)
    ctx = _pool_ctx(4)
    classes = genus2.classes_up_to(4)
    rng = random.Random(17)
    sampled = [[rng.choice(classes[:40]) for _ in range(rng.randrange(2, 4))]
               for _ in range(300)]
    nonzero = 0
    for t in _pool_tuples(classes, 3, 4) + sampled:
        if len(t) > 1:
            s = alg.multi(t)
            assert reduce(lambda x, y: mul(x, y, ctx),
                          [alg.single(w) for w in t]) == s, t
            nonzero += not s.is_zero()
    assert nonzero >= 2000


def test_identity_suite_leaves_only_the_image_memos(monkeypatch, genus2):
    """The call's tables die with it: its ClassAlgebra, which every
    closure of the call reaches, is freed by reference counting alone
    once dropped, the cycle collector finds no function of the module,
    and the algebra keeps its class registry and image memos only."""
    made = []

    class Recorded(ClassAlgebra):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    monkeypatch.setattr(strings, "ClassAlgebra", Recorded)
    gc.collect()
    gc.disable()
    try:
        assert check_string_identities(genus2, max_len=3, samples=20,
                                       seed=3).passed
        (alg,) = made
        made.clear()
        assert set(vars(alg)) == {
            "surface", "n", "degree", "_symbols", "_classes",
            "_splits", "_split_images", "_join_images"}
        assert alg._splits and alg._split_images and alg._join_images
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [o.__qualname__ for o in gc.garbage
                if isinstance(o, types.FunctionType)
                and o.__module__ == strings.__name__]
        assert left == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
