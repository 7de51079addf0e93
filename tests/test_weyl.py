import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from sftstring.algebra import (
    KIND_P,
    KIND_Q,
    KIND_S,
    GradedSeries,
    GradedSymbol,
    TruncationContext,
    TruncationUnderflow,
    collect,
    hbar_exponent,
    merge_words,
    monomial_degree,
    split_h,
    standard_form,
)
from sftstring.bv import FreeAlgebraSpec
from oracles import units_of
from sftstring.problemfile import parse
from sftstring.weyl import (
    Orbit,
    OrbitSystem,
    act_left,
    act_right,
    check_master_f,
    check_master_h,
    exp_series,
    project_out,
    star,
)

DATA = Path(__file__).parent / "data"
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
    assert star(GradedSeries.unit(), F, sys, CTX) == F
    assert star(F, GradedSeries.unit(), sys, CTX) == F


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


def star_matchings_reference(a, b, sys, ctx):
    """Reference star product by unit-level matching enumeration: every
    matching of p-units of the left factor with same-orbit q-units of
    the right one contributes kappa*h per pair and the Koszul sign of
    moving each matched q-unit left to its p-unit, leftmost q first."""
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            u1, u2 = units_of(m1), units_of(m2)
            by_orbit = {}
            for i, s in enumerate(u1):
                if s.kind == KIND_P:
                    by_orbit.setdefault(s.orbit, ([], []))[0].append(i)
            for j, s in enumerate(u2):
                if s.kind == KIND_Q and s.orbit in by_orbit:
                    by_orbit[s.orbit][1].append(j)
            orbits = [o for o, (ps, qs) in by_orbit.items() if ps and qs]
            for matching in _iter_matchings(by_orbit, orbits):
                _apply_matching(u1, u2, hbar_exponent(m1) + hbar_exponent(m2),
                                matching, c1 * c2, sys, acc)
    return collect(acc, ctx)


def _iter_matchings(by_orbit, orbits, k=0):
    """Lists of (p-index in u1, q-index in u2) pairs over all orbits."""
    if k == len(orbits):
        yield []
        return
    ps, qs = by_orbit[orbits[k]]
    for rest in _iter_matchings(by_orbit, orbits, k + 1):
        yield rest
        for r in range(1, min(len(ps), len(qs)) + 1):
            for chosen_p in combinations(ps, r):
                for chosen_q in permutations(qs, r):
                    yield rest + list(zip(chosen_p, chosen_q))


def _apply_matching(u1, u2, hpow, matching, coeff, sys, acc):
    sign = 1
    alive1 = [True] * len(u1)
    alive2 = [True] * len(u2)
    for i, j in sorted(matching, key=lambda t: t[1]):
        if u2[j].degree % 2:
            crossed = sum(1 for jj in range(j) if alive2[jj] and u2[jj].degree % 2)
            crossed += sum(1 for ii in range(i + 1, len(u1))
                           if alive1[ii] and u1[ii].degree % 2)
            if crossed % 2:
                sign = -sign
        alive1[i] = False
        alive2[j] = False
        coeff = coeff * sys.kappa[u2[j].orbit]
        hpow += 1
    entries = [(s, 1) for s, al in zip(u1, alive1) if al]
    entries += [(s, 1) for s, al in zip(u2, alive2) if al]
    if hpow:
        entries.append((sys.hbar, hpow))
    res = standard_form(entries)
    if res is None:
        return
    sgn, mono = res
    acc[mono] = acc.get(mono, Fraction(0)) + coeff * sign * sgn


def _criterion_1_systems():
    return [
        OrbitSystem(2, [Orbit("g%d" % i, 0, 1 + i % 2) for i in range(1, 5)]),
        OrbitSystem(3, [Orbit("g%d" % i, i % 3, 1) for i in range(1, 4)]),
        OrbitSystem(4, [Orbit("g%d" % i, (i * 2) % 5, 1 + i % 3)
                        for i in range(1, 5)]),
    ]


def test_star_matches_matchings_on_criterion_1_triples():
    # the generator, seed, systems and caps of acceptance criterion 1
    from test_acceptance import _random_series
    ctx = TruncationContext(max_p_degree=4, max_hbar=4, min_hbar=-1,
                            max_word_length=0)
    rng = random.Random(20260810)
    systems = _criterion_1_systems()
    for trial in range(500):
        sys = systems[trial % len(systems)]
        a, b, c = (_random_series(rng, sys) for _ in range(3))
        _random_series(rng, sys)  # the representation argument
        ab, bc = star(a, b, sys, ctx), star(b, c, sys, ctx)
        for x, y, got in ((a, b, ab), (b, c, bc),
                          (ab, c, star(ab, c, sys, ctx)),
                          (a, bc, star(a, bc, sys, ctx))):
            assert got == star_matchings_reference(x, y, sys, ctx), trial


# n = 3: |q| = cz, so even cz gives an even orbit and odd cz an odd one
_MIXED_ORBITS = (("e1", 0), ("o1", 1), ("e2", 2), ("o2", 3), ("o3", 1))
_ODD_S = GradedSymbol("s[1]", 1, KIND_S, None, 0)


def _mixed_system(rng):
    return OrbitSystem(3, [Orbit(name, cz, rng.randrange(1, 4))
                           for name, cz in _MIXED_ORBITS])


def _high_exponent_pair(rng, sys):
    """Factors whose shared even orbit carries p^2..p^3 on the left and
    q^2..q^3 on the right, and whose odd orbits contract at least twice."""
    odd = [o for o in sys.q if sys.q[o].parity]
    even = [o for o in sys.q if not sys.q[o].parity]
    shared = rng.sample(odd, rng.randrange(2, len(odd) + 1))
    first = rng.choice(even)

    def term(contracted_kind):
        exps = {"q": {}, "p": {}}
        for o in sys.q:
            for kind in ("q", "p"):
                if rng.random() < 0.3:
                    exps[kind][o] = 1 if o in odd else rng.randrange(1, 3)
        for o in shared:
            exps[contracted_kind][o] = 1
        exps[contracted_kind][first] = rng.randrange(2, 4)
        entries = [(_ODD_S, 1)] if rng.random() < 0.4 else []
        entries += [(sys.q[o], e) for o, e in exps["q"].items()]
        entries += [(sys.p[o], e) for o, e in exps["p"].items()]
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
        return GradedSeries.from_word(entries, coeff)

    out = []
    for kind in ("p", "q"):
        series = GradedSeries.zero()
        for _ in range(rng.randrange(1, 3)):
            series = series + term(kind)
        out.append(series)
    return out


@pytest.mark.parametrize("ctx", [
    TruncationContext(max_p_degree=14, max_hbar=14, min_hbar=0, max_word_length=2),
    TruncationContext(max_p_degree=5, max_hbar=3, min_hbar=0, max_word_length=2),
])
def test_star_matches_rewriting_on_high_exponents(ctx):
    rng = random.Random(6061)
    checked = 0
    for _ in range(30):
        sys = _mixed_system(rng)
        a, b = _high_exponent_pair(rng, sys)
        got = star(a, b, sys, ctx)
        assert got == star_reference(a, b, sys, ctx)
        checked += bool(got)
    assert checked >= 20


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


def _derive(m, sym, from_left):
    """Graded derivative d/d(sym) of a monomial, entering from the left
    (crossing everything before sym) or from the right: (sign,
    exponent, reduced monomial), or None when sym does not occur."""
    passed = 0
    for k in (range(len(m)) if from_left else range(len(m) - 1, -1, -1)):
        s, e = m[k]
        if s == sym:
            sign = -1 if (sym.parity and passed % 2) else 1
            reduced = (m[:k] + ((s, e - 1),) + m[k + 1:]) if e > 1 \
                else m[:k] + m[k + 1:]
            return sign, e, reduced
        passed += s.degree * e
    return None


def _derivative_chain(op, g, sys, ctx, act_on_left):
    """Reference operator action by unit-by-unit derivatives: each p of
    op (act_on_left) becomes kappa*h times the left derivative of g in
    its q, last unit first; otherwise each q of op becomes kappa*h times
    the right derivative of g in its p, first unit first, after the
    q-units have moved left past op's coefficient block.  The rest of
    op multiplies the result on the left (act_on_left) or the right."""
    kind = KIND_P if act_on_left else KIND_Q
    acc = {}
    g_split = [(split_h(mg), cg) for mg, cg in g.terms.items()]
    for mo, co in op.terms.items():
        body, hpow = split_h(mo)
        rest = tuple((s, e) for s, e in body if s.kind != kind)
        units = [s for s in units_of(body) if s.kind == kind]
        # the p-units of op already stand at its right end
        crossed = 0 if act_on_left else \
            sum(s.degree * e for s, e in rest if s.kind == KIND_S)
        lead = -1 if crossed * sum(u.degree for u in units) % 2 else 1
        for (mg, hg), cg in g_split:
            work = [(lead, mg, hpow + hg)]
            for u in (reversed(units) if act_on_left else units):
                target = sys.q[u.orbit] if act_on_left else sys.p[u.orbit]
                nxt = []
                for w0, m0, h0 in work:
                    d = _derive(m0, target, act_on_left)
                    if d is not None:
                        sgn, e, red = d
                        nxt.append((w0 * sgn * e * sys.kappa[u.orbit], red, h0 + 1))
                work = nxt
            for w0, m0, h0 in work:
                res = merge_words(rest, m0) if act_on_left else merge_words(m0, rest)
                if res is None:
                    continue
                sgn, mono = res
                if h0:
                    mono += ((sys.hbar, h0),)
                acc[mono] = acc.get(mono, Fraction(0)) + co * cg * w0 * sgn
    return collect(acc, ctx)


def act_right_reference(F, g, sys, ctx):
    return _derivative_chain(F, g, sys, ctx, True)


def act_left_reference(g, H, sys, ctx):
    return _derivative_chain(H, g, sys, ctx, False)


def _action_series(rng, sys, terms):
    """Series with every kind of variable: an odd coefficient symbol,
    q and p exponents up to 3 on even orbits, and h^-2 .. h^2."""
    out = GradedSeries.zero()
    for _ in range(terms):
        entries = [(_ODD_S, 1)] if rng.random() < 0.3 else []
        for o in sys.q:
            for var in (sys.q[o], sys.p[o]):
                if rng.random() < 0.45:
                    entries.append((var, 1 if var.parity else rng.randrange(1, 4)))
        entries.append((sys.hbar, rng.randrange(-2, 3)))
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
        out = out + GradedSeries.from_word(entries, coeff)
    return out


_ACTION_WINDOWS = [
    TruncationContext(max_p_degree=12, max_hbar=12, min_hbar=-6, max_word_length=2),
    TruncationContext(max_p_degree=3, max_hbar=2, min_hbar=-1, max_word_length=2),
    TruncationContext(max_p_degree=2, max_hbar=1, min_hbar=-3, max_word_length=0),
]


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except TruncationUnderflow:
        return "underflow"


@pytest.mark.parametrize("ctx", _ACTION_WINDOWS)
def test_actions_match_derivative_chains(ctx):
    # g carries p-variables, exponents up to 3 and terms below min_hbar,
    # none of which the star-then-project tests can reach
    rng = random.Random(7007)
    nonzero = underflow = 0
    for _ in range(300):
        sys = _mixed_system(rng)
        op, g = _action_series(rng, sys, 3), _action_series(rng, sys, 3)
        got = _outcome_of(act_right, op, g, sys, ctx)
        want = _outcome_of(act_right_reference, op, g, sys, ctx)
        assert got == want
        if got != "underflow":
            # act_right feeds bv_from_hamiltonian: same key order too
            assert list(got.terms) == list(want.terms)
        left = _outcome_of(act_left, g, op, sys, ctx)
        assert left == _outcome_of(act_left_reference, g, op, sys, ctx)
        for out in (got, left):
            nonzero += out != "underflow" and bool(out)
            underflow += out == "underflow"
    assert nonzero >= 30
    assert underflow >= (ctx.min_hbar > -4)


def test_act_right_single_contraction():
    sys = odd_system(1)
    got = act_right(sys.series_p("g1"), sys.series_q("g1"), sys, CTX)
    assert got == sys.series_h()


def test_act_right_pair_short_of_q_leaves_no_key():
    # q^1 cannot take two derivatives, so that pair adds no term, not
    # even a zero one that would move h^2 ahead of q^2 in the key order
    sys = OrbitSystem(3, [Orbit("e", 0, 2)])
    F = sys.monomial(1, qs=["e"], ps=["e", "e"]) + sys.monomial(1, qs=["e"]) \
        + sys.monomial(1, ps=["e"], hpow=1)
    got = act_right(F, sys.series_q("e"), sys, CTX)
    want = act_right_reference(F, sys.series_q("e"), sys, CTX)
    assert list(got.terms.items()) == list(want.terms.items()) == [
        (((sys.q["e"], 2),), 1), (((sys.hbar, 2),), 2)]


def test_act_right_kills_constants():
    sys = odd_system(2)
    F = sys.monomial(1, qs=["g1"], ps=["g2"])
    assert act_right(F, GradedSeries.unit(), sys, CTX).is_zero()


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


def test_act_left_q_passes_odd_coefficients():
    # g * (s q) = -g * (q s): the q of H crosses the odd coefficient s
    # before it contracts with the p of g
    sys = OrbitSystem(3, [Orbit("g", 1, 2)])
    H = GradedSeries.from_word([(_ODD_S, 1), (sys.q["g"], 1)])
    got = act_left(sys.series_p("g"), H, sys, CTX)
    assert got == GradedSeries.from_word([(_ODD_S, 1), (sys.hbar, 1)], -2)
    assert got == project_out(star(sys.series_p("g"), H, sys, CTX), kinds=("q",))


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


def test_check_master_h_names_mixed_input_degrees():
    # |q| = -1 and |q p| = -2 on one n = 2 orbit
    sys = odd_system(1)
    H = sys.series_q("g1") + sys.monomial(1, qs=["g1"], ps=["g1"])
    report = check_master_h(H, sys, CTX)
    assert "input degree is mixed (-2, -1), not -1" in report.notes
    report = check_master_h(sys.monomial(1, qs=["g1"], ps=["g1"]), sys, CTX)
    assert "input degree is -2, not -1" in report.notes


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
    assert eF == GradedSeries.unit() + F


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


def test_star_underflow_survives_pruning():
    # the r = 0 term h^-2 q1 p1 p2 p3 is below min_hbar and above the
    # p-degree cap: collect must still see it and raise, while its
    # r = 1 contraction h^-1 p2 p3 is dropped silently
    sys = odd_system(3)
    a = sys.monomial(1, ps=["g1", "g2"], hpow=-1)
    b = sys.monomial(1, qs=["g1"], ps=["g3"], hpow=-1)
    tight = TruncationContext(max_p_degree=1, max_hbar=4, min_hbar=-1,
                              max_word_length=0)
    with pytest.raises(TruncationUnderflow):
        star(a, b, sys, tight)
    assert star(a, b, sys, tight.widen(extra_low=1)).is_zero()
    assert star(a, b, sys, tight.widen(extra_low=1, extra_p=1)) == \
        sys.monomial(-1, ps=["g2", "g3"], hpow=-1)


def _symbol_systems():
    rng = random.Random(1)
    return [
        odd_system(3, [1, 2, 1]),
        OrbitSystem(2, [Orbit("g%d" % i, 0, 1 + i % 2) for i in range(1, 5)]),
        OrbitSystem(3, [Orbit("g%d" % i, i % 3, 1) for i in range(1, 4)]),
        OrbitSystem(4, [Orbit("g%d" % i, (i * 2) % 5, 1 + i % 3)
                        for i in range(1, 5)]),
        OrbitSystem(4, [Orbit("g%d" % i, (2 * i) % 5, 1) for i in range(1, 4)]),
        _mixed_system(rng),
    ]


def test_symbol_derived_values_match_their_formulas():
    block = {"s": 0, "q": 1, "p": 2, "h": 3}
    symbols = [_ODD_S]
    for sys in _symbol_systems():
        symbols += [sys.hbar, *sys.q.values(), *sys.p.values()]
    for s in symbols:
        fields = (s.name, s.degree, s.kind, s.orbit, s.index)
        assert s.sort_key == (block[s.kind], s.index, s.name)
        assert s.parity == s.degree % 2
        twin = GradedSymbol(*fields)
        assert twin == s and twin is s and hash(twin) == hash(s)
        assert GradedSymbol(s.name, s.degree + 1, s.kind, s.orbit, s.index) != s
        assert s != fields


def test_symbol_keys_survive_pickling_across_hash_seeds():
    import os
    import pickle
    import subprocess
    import sys
    sys_ = odd_system(2)
    table = pickle.dumps({sys_.q["g1"]: 1, sys_.p["g2"]: 2})
    probe = ("import pickle, sys\n"
             "from sftstring.weyl import Orbit, OrbitSystem\n"
             "s = OrbitSystem(2, [Orbit('g1', 0), Orbit('g2', 0)])\n"
             "d = pickle.loads(sys.stdin.buffer.read())\n"
             "print(d[s.q['g1']], d[s.p['g2']])\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], input=table,
                             capture_output=True, env=env, timeout=60)
        assert out.stdout.split() == [b"1", b"2"], out.stderr


def test_pickle_and_copy_return_the_interned_symbol():
    sys_ = odd_system(2)
    for s in (sys_.hbar, sys_.q["g1"], sys_.p["g2"], _ODD_S):
        assert pickle.loads(pickle.dumps(s)) is s
        assert copy.deepcopy(s) is s and copy.copy(s) is s
    m = ((sys_.q["g1"], 1), (sys_.p["g2"], 2), (sys_.hbar, -1))
    copied = pickle.loads(pickle.dumps(m))
    assert copied == m and all(a is b for (a, _), (b, _) in zip(copied, m))


def test_independently_built_symbols_are_one_object():
    pf = parse((DATA / "three_orbit_pass.sft").read_text())
    sys_ = OrbitSystem(2, [Orbit(name, 0) for name in ("g1", "g2", "g3")])
    assert pf.sys is not sys_
    assert pf.sys.hbar is sys_.hbar is FreeAlgebraSpec([], n=2).hbar
    for name in sys_.q:
        assert pf.sys.q[name] is sys_.q[name] and pf.sys.p[name] is sys_.p[name]
    (mono,) = pf.series["H"].terms
    want = [sys_.q["g1"], sys_.q["g2"], sys_.p["g3"], sys_.hbar]
    assert len(mono) == len(want)
    assert all(s is w for (s, _), w in zip(mono, want))
    spec, twin = (FreeAlgebraSpec([("x", 1), ("y", 0)]) for _ in range(2))
    assert spec.symbols[0] is twin.symbols[0] is GradedSymbol("x", 1, KIND_Q)
    assert spec.symbol("y") is twin.symbol("y")


_EVEN_S = GradedSymbol("s[2]", 2, KIND_S, None, 1)
_SQUARE_WINDOWS = [
    CTX,
    TruncationContext(max_p_degree=2, max_hbar=1, min_hbar=-1, max_word_length=1),
    TruncationContext(max_p_degree=1, max_hbar=0, min_hbar=0, max_word_length=2),
]


def _square_series(rng, sys, parity):
    """Four terms whose total degree has the given parity ("odd",
    "even", or "mixed" for any), some carrying odd or even s[...]
    symbols and h^-1 .. h^1."""
    out = GradedSeries.zero()
    while len(out.terms) < 4:
        entries = [(s, 1) for s in (_ODD_S, _EVEN_S) if rng.random() < 0.3]
        for o in sys.q:
            entries += [(v, 1) for v in (sys.q[o], sys.p[o]) if rng.random() < 0.35]
        entries.append((sys.hbar, rng.randrange(-1, 2)))
        term = GradedSeries.from_word(
            entries, Fraction(rng.choice([-3, -1, 1, 2]), rng.randrange(1, 3)))
        degrees = {monomial_degree(m) % 2 for m in term.terms}
        if parity == "mixed" or degrees == {parity == "odd"}:
            out = out + term
    return out


@pytest.mark.parametrize("parity", ["odd", "even", "mixed"])
def test_square_equals_product_with_a_copy(parity):
    # star(H, H) skips the uncontracted part only for an odd H; a
    # distinct copy always takes the full enumeration
    rng = random.Random(4242)
    systems = _criterion_1_systems()
    nonzero = underflow = 0
    for trial in range(120):
        sys = systems[trial % len(systems)]
        H = _square_series(rng, sys, parity)
        copy = GradedSeries.from_terms(dict(H.terms))
        for ctx in _SQUARE_WINDOWS:
            got = _outcome_of(star, H, H, sys, ctx)
            assert got == _outcome_of(star, H, copy, sys, ctx), (trial, ctx)
            nonzero += got != "underflow" and bool(got)
            underflow += got == "underflow"
    assert nonzero >= 50 and underflow >= 10


def _shared_odd_pair(rng, sys):
    """Left factor with a p of every odd orbit in each term, right factor
    with a q of every odd orbit, plus random units of both kinds (even
    exponents up to 2) and an odd coefficient symbol: up to three odd
    contractions at once, among even ones."""
    odd = [o for o in sys.q if sys.q[o].parity]

    def term(kind):
        entries = [(_ODD_S, 1)] if rng.random() < 0.4 else []
        for o in sys.q:
            for var in (sys.q[o], sys.p[o]):
                if (o in odd and var.kind == kind) or rng.random() < 0.35:
                    entries.append((var, 1 if var.parity else rng.randrange(1, 3)))
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
        return GradedSeries.from_word(entries, coeff)

    return [term(kind) + term(kind) for kind in (KIND_P, KIND_Q)]


def test_star_sign_of_three_odd_contractions():
    # m odd contractions carry (-1)^(m(m-1)/2) on top of their flips:
    # +, +, -, - for m = 0 .. 3, pinned against the matching oracle
    rng = random.Random(3131)
    ctx = TruncationContext(max_p_degree=12, max_hbar=12, min_hbar=0,
                            max_word_length=2)
    triple = 0
    for _ in range(60):
        sys = _mixed_system(rng)
        a, b = _shared_odd_pair(rng, sys)
        got = star(a, b, sys, ctx)
        assert got == star_matchings_reference(a, b, sys, ctx)
        # a term with no odd p or q left took all three odd contractions
        triple += any(not any(s.parity and s.kind in (KIND_P, KIND_Q)
                              for s, _ in m) for m in got.terms)
    assert triple >= 10


@pytest.mark.parametrize("ctx", [
    TruncationContext(max_p_degree=8, max_hbar=6, min_hbar=-2, max_word_length=1),
    TruncationContext(max_p_degree=3, max_hbar=2, min_hbar=-1, max_word_length=2),
])
def test_word_cap_drop_before_merge_equals_collect(ctx):
    # the kernel drops terms over max_word_length before it merges them;
    # collect() on the same product without a word cap drops the same
    # terms and leaves the same key order
    rng = random.Random(5151)
    uncapped = ctx.widen(extra_len=16)
    dropped = 0
    for _ in range(80):
        sys = _mixed_system(rng)
        a, b = _square_series(rng, sys, "mixed"), _square_series(rng, sys, "mixed")
        for fn, x, y in ((star, a, b), (star, a, a), (act_right, a, b),
                         (act_left, a, b)):
            got = _outcome_of(fn, x, y, sys, ctx)
            wide = _outcome_of(fn, x, y, sys, uncapped)
            if wide == "underflow":
                assert got == "underflow"
                continue
            want = collect(wide.terms, ctx)
            assert list(got.terms.items()) == list(want.terms.items())
            dropped += len(want.terms) < len(wide.terms)
    assert dropped >= 20


@pytest.mark.parametrize("ctx", [
    TruncationContext(max_p_degree=0, max_hbar=2, min_hbar=-1, max_word_length=8),
    TruncationContext(max_p_degree=6, max_hbar=2, min_hbar=-1, max_word_length=1),
])
def test_underflow_over_the_caps_keeps_its_message(ctx):
    # h^-2 s[1] s[2]^2 q1 p1 p2 is below min_hbar and over the p-degree
    # (or word) cap: it still raises, with collect()'s message, and its
    # contraction h^-1 s[1] s[2]^2 p2, over the same cap, is dropped
    sys = odd_system(2)
    a = GradedSeries.from_word([(_EVEN_S, 2), (sys.p["g1"], 1), (sys.p["g2"], 1),
                                (sys.hbar, -1)], Fraction(1, 2))
    b = GradedSeries.from_word([(_ODD_S, 1), (sys.q["g1"], 1), (sys.hbar, -1)],
                               Fraction(-2, 3))
    with pytest.raises(TruncationUnderflow) as err:
        star(a, b, sys, ctx)
    assert str(err.value) == ("term s[1]*s[2]^2*q[g1]*p[g1]*p[g2]*h^-2 needs "
                              "hbar^-2 below the context minimum -1")
    assert star(a, b, sys, ctx.widen(extra_low=1)).is_zero()


def test_coefficients_over_2_3_6_are_normalized():
    # integer sums over the common denominator come back equal to the
    # oracle's: whole numbers as ints, the rest as reduced Fractions
    rng = random.Random(2236)
    systems = _criterion_1_systems()
    ctx = TruncationContext(max_p_degree=6, max_hbar=6, min_hbar=-2,
                            max_word_length=0)
    denominators = set()
    for trial in range(90):
        sys = systems[trial % len(systems)]
        a, b = (sum((sys.monomial(Fraction(rng.choice([-5, -1, 1, 3]), d),
                                  qs=[o for o in sys.q if rng.random() < 0.4],
                                  ps=[o for o in sys.q if rng.random() < 0.4])
                     for d in (2, 3, 6)), GradedSeries.zero())
                for _ in range(2))
        got = star(a, b, sys, ctx)
        want = star_matchings_reference(a, b, sys, ctx)
        assert {m: (c.numerator, c.denominator) for m, c in got.terms.items()} \
            == {m: (c.numerator, c.denominator) for m, c in want.terms.items()}
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in got.terms.values())
        denominators |= {c.denominator for c in got.terms.values()}
    assert {1, 2, 3, 4, 6, 9, 12, 18, 36} <= denominators
