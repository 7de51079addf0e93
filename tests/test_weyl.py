import random
from fractions import Fraction

import pytest

from sftstring.algebra import (
    KIND_P,
    KIND_Q,
    GradedSeries,
    TruncationContext,
    collect,
    hbar_exponent,
    standard_form,
    units_of,
)
from sftstring.weyl import (
    Orbit,
    OrbitSystem,
    act_left,
    act_right,
    check_master_f,
    check_master_chain,
    check_master_h,
    exp_series,
    project_out,
    star,
)

CTX = TruncationContext(max_p_degree=6, max_hbar=6, min_hbar=-4, max_word_length=8)


def odd_system(norbits=3, kappas=None, n=2):
    kappas = kappas or [1] * norbits
    return OrbitSystem(n, [Orbit("g%d" % (i + 1), 0, kappas[i]) for i in range(norbits)])


def test_commutation_relation_odd_kappa2():
    # n=2, cz=0, kappa=2: star(p1, q1) = -q1 p1 + 2h
    sys = odd_system(1, [2])
    got = star(sys.series_p("g1"), sys.series_q("g1"), sys, CTX)
    want = sys.monomial(-1, qs=["g1"], ps=["g1"]) + sys.series_h(1, 2)
    assert got == want


def test_commutation_relation_all_parities_and_kappas():
    # p*q - (-1)^{|p||q|} q*p = kappa*h for every parity combination
    for cz, n in [(0, 2), (1, 2), (0, 3), (2, 3), (1, 4)]:
        for kappa in (1, 2, 3):
            sys = OrbitSystem(n, [Orbit("g", cz, kappa)])
            p, q = sys.series_p("g"), sys.series_q("g")
            sign = -1 if (sys.p["g"].parity and sys.q["g"].parity) else 1
            lhs = star(p, q, sys, CTX) - star(q, p, sys, CTX).scale(sign)
            assert lhs == sys.series_h(1, kappa)


def test_star_even_double_contraction():
    # n=3 makes q even; p * q^2 = q^2 p + 2 h q
    sys = OrbitSystem(3, [Orbit("g", 0, 1)])
    q, p = sys.series_q("g"), sys.series_p("g")
    qq = star(q, q, sys, CTX)
    got = star(p, qq, sys, CTX)
    want = star(qq, p, sys, CTX) + star(sys.series_h(), q, sys, CTX).scale(2)
    assert got == want


def test_star_unit():
    sys = odd_system(2)
    F = sys.monomial(3, qs=["g1"], ps=["g2"], hpow=1)
    assert star(sys.one(), F, sys, CTX) == F
    assert star(F, sys.one(), sys, CTX) == F


def _random_weyl_series(rng, sys, max_terms=3, max_h=1):
    orbits = list(sys.q)
    out = GradedSeries.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        qs = [o for o in orbits if rng.random() < 0.4]
        ps = [o for o in orbits if rng.random() < 0.4]
        hpow = rng.randrange(0, max_h + 1)
        coeff = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        if coeff:
            out = out + sys.monomial(coeff, qs=qs, ps=ps, hpow=hpow)
    return out


def star_reference(a, b, sys, ctx):
    """Reference star product by one-step rewriting; exponential in the
    worst case, used to validate the matching enumeration."""
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            stack = [(c1 * c2, units_of(m1) + units_of(m2),
                      hbar_exponent(m1) + hbar_exponent(m2))]
            while stack:
                coeff, word, hpow = stack.pop()
                idx = _first_disorder(word)
                if idx is None:
                    entries = [(s, 1) for s in word]
                    if hpow:
                        entries.append((sys.hbar, hpow))
                    res = standard_form(entries)
                    if res is None:
                        continue
                    sgn, mono = res
                    acc[mono] = acc.get(mono, Fraction(0)) + coeff * sgn
                    continue
                x, y = word[idx], word[idx + 1]
                swap_sign = -1 if (x.parity and y.parity) else 1
                stack.append((coeff * swap_sign,
                              word[:idx] + [y, x] + word[idx + 2:], hpow))
                if x.kind == KIND_P and y.kind == KIND_Q and x.orbit == y.orbit:
                    stack.append((coeff * sys.kappa[x.orbit],
                                  word[:idx] + word[idx + 2:], hpow + 1))
    return collect(acc, ctx)


def _first_disorder(word):
    """Leftmost adjacent inversion; same-orbit (p, q) pairs also qualify."""
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if x.sort_key > y.sort_key:
            return i
    return None


@pytest.mark.parametrize("n,czs", [(2, [0, 0, 0]), (3, [0, 1, 2]), (4, [1, 0, 3])])
def test_star_matches_rewriting_oracle(n, czs):
    sys = OrbitSystem(n, [Orbit("g%d" % (i + 1), cz, 1 + i % 2)
                          for i, cz in enumerate(czs)])
    rng = random.Random(42 + n)
    for _ in range(40):
        a = _random_weyl_series(rng, sys)
        b = _random_weyl_series(rng, sys)
        assert star(a, b, sys, CTX) == star_reference(a, b, sys, CTX)


def test_star_associative_random():
    sys = odd_system(3, [1, 2, 1])
    rng = random.Random(9)
    for _ in range(60):
        a = _random_weyl_series(rng, sys)
        b = _random_weyl_series(rng, sys)
        c = _random_weyl_series(rng, sys)
        assert star(star(a, b, sys, CTX), c, sys, CTX) == \
            star(a, star(b, c, sys, CTX), sys, CTX)


def test_supercommutator_divisible_by_h():
    sys = odd_system(2)
    rng = random.Random(3)
    for _ in range(30):
        a = _random_weyl_series(rng, sys, max_h=0)
        b = _random_weyl_series(rng, sys, max_h=0)
        da, db = a.homogeneous_degree(), b.homogeneous_degree()
        if da is None or db is None:
            continue
        sign = -1 if (da % 2 and db % 2) else 1
        comm = star(a, b, sys, CTX) - star(b, a, sys, CTX).scale(sign)
        from sftstring.algebra import hbar_exponent
        assert all(hbar_exponent(m) >= 1 for m in comm.terms)


def test_act_right_single_contraction():
    sys = odd_system(1)
    got = act_right(sys.series_p("g1"), sys.series_q("g1"), sys, CTX)
    assert got == sys.series_h()


def test_act_right_kills_constants():
    sys = odd_system(2)
    F = sys.monomial(1, qs=["g1"], ps=["g2"])
    assert act_right(F, sys.one(), sys, CTX).is_zero()


@pytest.mark.parametrize("maker", [
    lambda: odd_system(3),
    lambda: OrbitSystem(3, [Orbit("g%d" % i, i % 3, 1 + i % 2)
                            for i in range(1, 4)]),
    lambda: OrbitSystem(4, [Orbit("g%d" % i, (2 * i) % 5, 1)
                            for i in range(1, 4)]),
])
def test_act_right_matches_star_then_evaluate(maker):
    sys = maker()
    rng = random.Random(11)
    for _ in range(60):
        F = _random_weyl_series(rng, sys)
        g = _random_weyl_series(rng, sys)
        g = project_out(g, kinds=("p",))  # q-only argument
        got = act_right(F, g, sys, CTX)
        want = project_out(star(F, g, sys, CTX), kinds=("p",))
        assert got == want


@pytest.mark.parametrize("maker", [
    lambda: odd_system(3),
    lambda: OrbitSystem(3, [Orbit("g%d" % i, i % 3, 1 + i % 2)
                            for i in range(1, 4)]),
    lambda: OrbitSystem(4, [Orbit("g%d" % i, (2 * i) % 5, 1)
                            for i in range(1, 4)]),
])
def test_act_left_matches_star_then_evaluate(maker):
    sys = maker()
    rng = random.Random(13)
    for _ in range(60):
        g = _random_weyl_series(rng, sys)
        g = project_out(g, kinds=("q",))  # p-only state
        H = _random_weyl_series(rng, sys)
        got = act_left(g, H, sys, CTX)
        want = project_out(star(g, H, sys, CTX), kinds=("q",))
        assert got == want


def test_act_left_single_contraction():
    sys = odd_system(1)
    assert act_left(sys.series_p("g1"), sys.series_q("g1"), sys, CTX) == sys.series_h()


@pytest.mark.parametrize("maker", [
    lambda: odd_system(3),
    lambda: OrbitSystem(3, [Orbit("g%d" % i, i % 3, 2 - i % 2)
                            for i in range(1, 4)]),
])
def test_representation_property(maker):
    # act_right(F*G, g) == act_right(F, act_right(G, g))
    sys = maker()
    rng = random.Random(17)
    for _ in range(60):
        F = _random_weyl_series(rng, sys)
        G = _random_weyl_series(rng, sys)
        g = project_out(_random_weyl_series(rng, sys), kinds=("p",))
        lhs = act_right(star(F, G, sys, CTX), g, sys, CTX)
        rhs = act_right(F, act_right(G, g, sys, CTX), sys, CTX)
        assert lhs == rhs


def test_check_master_h_zero_passes():
    sys = odd_system(2)
    assert check_master_h(GradedSeries.zero(), sys, CTX).passed


def test_check_master_h_disjoint_orbits_pass():
    # H = (1/h) q1 q2 p3: no orbit appears as both p and q
    sys = odd_system(3)
    H = sys.monomial(1, qs=["g1", "g2"], ps=["g3"], hpow=-1)
    square = star(H, H, sys, CTX.widen(extra_low=2))
    assert square.is_zero()  # frozen oracle: expand by hand -> everything cancels
    assert check_master_h(H, sys, CTX).passed


def test_check_master_h_cross_contraction_fails():
    # H = (1/h)(q1 p2 + q2 p1) has nonzero square
    sys = odd_system(2)
    H = sys.monomial(1, qs=["g1"], ps=["g2"], hpow=-1) + \
        sys.monomial(1, qs=["g2"], ps=["g1"], hpow=-1)
    report = check_master_h(H, sys, CTX)
    assert not report.passed
    assert report.witnesses


def test_check_master_f_trivial_and_derivative_of_constant():
    sys = OrbitSystem(2, [Orbit("a", 0, 1, side="pos"), Orbit("b", 0, 1, side="neg")])
    zero = GradedSeries.zero()
    assert check_master_f(zero, zero, zero, sys, CTX).passed
    # H+ with every term containing a q+ annihilates e^0 = 1
    Hp = sys.monomial(1, qs=["a"], ps=["a"], hpow=-1)
    assert check_master_f(zero, Hp, zero, sys, CTX).passed


def test_check_master_f_trivial_cylinder():
    sys = OrbitSystem(2, [Orbit("a", 0, 1, side="pos"), Orbit("abar", 0, 1, side="neg")])
    F = sys.monomial(1, qs=["abar"], ps=["a"], hpow=-1)
    zero = GradedSeries.zero()
    assert check_master_f(F, zero, zero, sys, CTX).passed


def test_check_master_f_identity_cobordism_intertwines():
    # two copies of a 3-orbit contact manifold joined by trivial cylinders;
    # F = (1/h) sum (1/kappa) q-(g) p+(g) intertwines matching Hamiltonians
    kappas = {"g1": 1, "g2": 2, "g3": 1}
    orbs = [Orbit(g + "+", 0, k, side="pos") for g, k in kappas.items()]
    orbs += [Orbit(g + "-", 0, k, side="neg") for g, k in kappas.items()]
    sys = OrbitSystem(2, orbs)
    F = GradedSeries.zero()
    for g, k in kappas.items():
        F = F + sys.monomial(Fraction(1, k), qs=[g + "-"], ps=[g + "+"], hpow=-1)
    Hp = sys.monomial(1, qs=["g1+", "g2+"], ps=["g3+"], hpow=-1)
    Hm = sys.monomial(1, qs=["g1-", "g2-"], ps=["g3-"], hpow=-1)
    assert check_master_f(F, Hp, Hm, sys, CTX).passed
    # and fails when the two ends disagree
    Hm_bad = Hm.scale(2)
    assert not check_master_f(F, Hp, Hm_bad, sys, CTX).passed


def test_exp_series_basic():
    sys = odd_system(2)
    F = sys.monomial(1, qs=["g1"], ps=["g2"], hpow=0)
    eF = exp_series(F, sys, CTX)
    # odd element: e^F = 1 + F
    assert eF == sys.one() + F


def test_check_master_chain_zero_boundary_reduces_to_master_h():
    sys = odd_system(3)
    H = sys.monomial(1, qs=["g1", "g2"], ps=["g3"], hpow=-1)
    assert check_master_chain(H, None, sys, CTX).passed
    H_bad = sys.monomial(1, qs=["g1"], ps=["g2"], hpow=-1) + \
        sys.monomial(1, qs=["g2"], ps=["g1"], hpow=-1)
    assert not check_master_chain(H_bad, None, sys, CTX).passed


def test_star_equals_mul_without_contractions():
    # p-free (or q-free) factors multiply commutatively
    from sftstring.algebra import mul
    sys = odd_system(3)
    rng = random.Random(23)
    for _ in range(25):
        a = project_out(_random_weyl_series(rng, sys), kinds=("p",))
        b = project_out(_random_weyl_series(rng, sys), kinds=("p",))
        assert star(a, b, sys, CTX) == mul(a, b, CTX)


def test_bad_orbits_get_no_variables():
    sys = OrbitSystem(2, [Orbit("good1", 0, 1), Orbit("bad1", 1, 2, good=False)])
    assert "good1" in sys.q and "bad1" not in sys.q
    assert len(sys.good_orbits()) == 1
    # gradings: |q| = n-3+cz, |p| = n-3-cz, |h| = 2(n-3)
    sys2 = OrbitSystem(4, [Orbit("g", 3, 1)])
    assert sys2.q["g"].degree == 4 - 3 + 3
    assert sys2.p["g"].degree == 4 - 3 - 3
    assert sys2.hbar.degree == 2 * (4 - 3)


def test_check_master_f_untagged_orbits_are_positive_end():
    # filling view: a one-sided system needs no side tags; the pair
    # contraction of the q q p term against the potential survives as a
    # p-term and the h p term compensates it (frozen machinery value)
    sys = OrbitSystem(2, [Orbit("g", 0, 1), Orbit("gbar", 0, 1)])
    F = sys.monomial(1, ps=["g", "gbar"], hpow=-1)
    H = sys.monomial(1, qs=["g", "gbar"], ps=["g"], hpow=-1) \
        + sys.monomial(1, ps=["g"], hpow=0)
    rep = check_master_f(F, H, GradedSeries.zero(), sys, CTX)
    assert rep.passed
    H_bad = sys.monomial(1, qs=["g", "gbar"], ps=["g"], hpow=-1)
    assert not check_master_f(F, H_bad, GradedSeries.zero(), sys, CTX).passed
