import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from sftstring import bv
from sftstring.algebra import (GradedSeries, TruncationContext,
                               TruncationUnderflow, add_terms,
                               collect, derivation, merge_words,
                               monomial_degree, mul, q_degree)
from sftstring.bv import (
    Augmentation,
    BvError,
    BvOperator,
    FreeAlgebraSpec,
    LinearMap,
    LieBialgebraData,
    bv_bracket,
    bv_from_hamiltonian,
    check_lie_bialgebra,
    derivation_operator,
    exp_morphism,
    homology,
    linearize,
    order_at_most,
    twist_by_augmentation,
    validate_bv,
    BialgebraAxioms,
)
from sftstring.weyl import Orbit, OrbitSystem, check_master_h
from builders import generator
from oracles import koszul_bracket_reference, order_at_most_reference


def xy_spec(word_cap=4, hbar_cap=3):
    # x odd of degree 1, y even of degree 0
    return FreeAlgebraSpec([("x", 1), ("y", 0)], word_cap, hbar_cap, n=2)


def test_basis_is_kept_and_read_by_prefix():
    spec = FreeAlgebraSpec([("x", 1), ("y", 0), ("z", 2)], 4, 2, n=2)
    full = spec.basis_monomials()
    assert full == spec._enumerate()
    assert [q_degree(m) for m in full] == sorted(q_degree(m) for m in full)
    for k in range(-1, 6):
        assert spec.basis_monomials(k) == [m for m in full
                                           if q_degree(m) <= k], k
    # a caller's change to a returned list leaves the kept basis alone
    full.clear()
    spec.basis_monomials(2).clear()
    assert spec.basis_monomials() == spec._enumerate() != []


def test_derivation_has_order_one():
    spec = xy_spec()
    y = generator(spec, "y")
    D = derivation_operator(spec, {"x": mul(y, y, spec.caps) - GradedSeries.unit(),
                                   "y": GradedSeries.zero()})
    comp = D.component(1)
    assert order_at_most(comp, 1) == ([], True)
    # a derivation's Koszul bracket vanishes past one unit, and on the
    # generators it is the derivation itself: D(x) != 0 = D(y)
    assert order_at_most(comp, 0) == ([((spec.symbol("x"), 1),)], True)


def test_derivation_sign_on_even_generators():
    # D(y) = w with y even: D(z y) = (-1)^|z| z D(y) = -z w, whichever
    # order the symbols take
    degrees = {"z": 1, "y": 2, "w": 1}
    for order in itertools.permutations(degrees):
        spec = FreeAlgebraSpec([(nm, degrees[nm]) for nm in order], 3, 2, n=2)
        z, y, w = (spec.symbol(nm) for nm in degrees)
        D = derivation_operator(spec, {"y": generator(spec, "w")})
        zy = GradedSeries.from_word([(z, 1), (y, 1)])
        assert D.apply(zy) == GradedSeries.from_word([(z, 1), (w, 1)], -1), order
        assert validate_bv(D).passed, order


def test_multiplication_operator_has_order_zero():
    spec = xy_spec()
    y = generator(spec, "y")
    table = {m: mul(GradedSeries({m: Fraction(1)}), y, spec.caps)
             for m in spec.basis_monomials()}
    op = LinearMap(spec, table, 0)
    assert order_at_most(op, 0) == ([], True)


def test_second_derivative_has_order_two_not_one():
    # d^2/dq1 dq2 on polynomials in two even generators
    spec = FreeAlgebraSpec([("q1", 0), ("q2", 0)], word_cap=4, hbar_cap=2, n=3)
    q1, q2 = spec.symbol("q1"), spec.symbol("q2")

    def second(m):
        d = dict(m)
        if d.get(q1, 0) >= 1 and d.get(q2, 0) >= 1:
            coeff = d[q1] * d[q2]
            entries = [(s, e - (s in (q1, q2))) for s, e in m]
            return GradedSeries.from_word(entries, coeff)
        return GradedSeries.zero()

    table = {m: second(m) for m in spec.basis_monomials()}
    op = LinearMap(spec, table, 0)
    assert order_at_most(op, 2) == ([], True)
    # [[d^2/dq1 dq2, q1], q2] = 1, and every other bracket of two or more
    # units vanishes
    assert order_at_most(op, 1) == ([((q1, 1), (q2, 1))], True)


def test_bv_bracket_of_derivation_vanishes():
    spec = xy_spec()
    y = generator(spec, "y")
    x = generator(spec, "x")
    D = derivation_operator(spec, {"x": mul(y, y, spec.caps), "y": GradedSeries.zero()})
    for a in (x, y, mul(x, y, spec.caps)):
        for b in (x, y, mul(y, y, spec.caps)):
            assert bv_bracket(D, a, b).is_zero()
    assert bv_bracket(D, GradedSeries.unit(), y).is_zero()


def test_bv_bracket_order_two_example():
    # A = polynomials in even x, odd y; D = d^2/dx dy has [x, y]_D = +-1
    spec = FreeAlgebraSpec([("x", 0), ("y", 1)], word_cap=4, hbar_cap=2, n=3)
    sx, sy = spec.symbol("x"), spec.symbol("y")

    def dxy(m):
        d = dict(m)
        if d.get(sx, 0) >= 1 and d.get(sy, 0) >= 1:
            entries = [(s, e - (s in (sx, sy))) for s, e in m]
            return GradedSeries.from_word(entries, d[sx])
        return GradedSeries.zero()

    D = BvOperator(spec, {m: dxy(m) for m in spec.basis_monomials()})
    got = bv_bracket(D, generator(spec, "x"), generator(spec, "y"))
    assert got == GradedSeries.unit() or got == GradedSeries.unit(-1)


def test_order_check_reads_each_word_once_and_names_each_failing_word():
    # d^2/dy^2, of order 2: a passing check reads every basis word once,
    # a second check reads none again, and a failing one reads every
    # word once too and names y^2, the one word of degree above 1 with a
    # nonzero bracket ([[d^2/dy^2, y], y] = 2, a constant, commutes with
    # every generator)
    spec = FreeAlgebraSpec([("x", 1), ("y", 0), ("z", 2)], word_cap=4,
                           hbar_cap=1, n=2)
    sy = spec.symbol("y")
    reads = []

    def second(m):
        reads.append(m)
        e = dict(m).get(sy, 0)
        return GradedSeries.from_word([(s, f - 2 * (s is sy)) for s, f in m],
                                      e * (e - 1)) if e > 1 else GradedSeries()

    op = LinearMap(spec, {}, 0, second)
    assert order_at_most(op, 2) == ([], True)
    assert reads == spec.basis_monomials()
    assert order_at_most(op, 3) == ([], True)
    assert reads == spec.basis_monomials()
    del reads[:]
    assert order_at_most(LinearMap(spec, {}, 0, second), 1) == \
        ([((sy, 2),)], True)
    assert reads == spec.basis_monomials()


_KINDS = ("table", "derivations", "f_derivation", "multiplication")


def _oracle_maps(rng, count):
    """(kind, op) for count maps, the kinds in turn, on 1 to 4 generators
    of degree -1 to 2, word_cap 1 to 5 and n 2 or 3: a random table of
    a random declared degree, with values of mixed degree and h powers;
    a composite of 2 or 3 derivations; f times a derivation; and
    multiplication by f, f homogeneous."""
    for i in range(count):
        gens = [("g%d" % j, rng.randrange(-1, 3))
                for j in range(rng.randint(1, 4))]
        spec = FreeAlgebraSpec(gens, rng.randint(1, 5), 2,
                               n=rng.choice((2, 3)))
        basis = spec.basis_monomials()

        def poly(degree=None, h=False):
            words = [m for m in basis
                     if degree is None or monomial_degree(m) == degree]
            out = GradedSeries.zero()
            for _ in range(rng.randint(1, 2) if words else 0):
                term = GradedSeries({rng.choice(words): rng.randint(-3, 3)})
                if h and rng.random() < 0.3:
                    term = mul(spec.hpow(rng.randint(1, 2)), term, spec.caps)
                out = out + term
            return out

        def derivation_map():
            d = monomial_degree(rng.choice(basis[1:] or basis)) \
                - rng.choice(spec.symbols).degree
            img = {s: poly(s.degree + d).terms for s in spec.symbols}
            return LinearMap(spec, {}, d,
                             lambda m: collect(derivation(m, img.get), spec.caps))

        kind = _KINDS[i % len(_KINDS)]
        if kind == "table":
            op = LinearMap(spec, {m: poly(h=True) for m in basis
                                  if rng.random() < 0.5}, rng.randint(-2, 2))
        elif kind == "derivations":
            ds = [derivation_map() for _ in range(rng.randint(2, 3))]

            def composite(m, ds=ds):
                v = ds[-1].value(m)
                for d in reversed(ds[:-1]):
                    v = d.apply(v)
                return v
            op = LinearMap(spec, {}, sum(d.degree for d in ds), composite)
        else:
            df = monomial_degree(rng.choice(basis))
            f = poly(df)
            d = derivation_map() if kind == "f_derivation" else None
            op = LinearMap(
                spec, {}, df + (d.degree if d else 0),
                lambda m, f=f, d=d: mul(
                    f, d.value(m) if d else GradedSeries({m: 1}), spec.caps))
        yield kind, op


def test_order_check_matches_the_nested_commutator_oracle():
    """The Koszul-bracket pass against the nested-commutator recursion
    it replaces, on 2,400 (map, k) cases, k = -1..4: the verdict, and
    the failing words against the words of more than k units whose
    nested commutator at 1 is nonzero."""
    seen = Counter()
    for kind, op in _oracle_maps(random.Random(29), 400):
        nonzero = [w for w in op.spec.basis_monomials()
                   if koszul_bracket_reference(op, w)]
        for k in range(-1, 5):
            failing, conclusive = order_at_most(op, k)
            got = (not failing, conclusive)
            assert got == order_at_most_reference(op, k), (kind, k)
            if conclusive:
                assert failing == [w for w in nonzero if q_degree(w) > k], \
                    (kind, k)
            seen[kind, got] += 1
    assert sum(seen.values()) == 2400
    # every kind meets every verdict: passing, failing and inconclusive
    assert all(seen[kind, v] for kind in _KINDS
               for v in ((True, True), (False, True), (True, False))), seen


def test_generic_order_k_maps_have_order_exactly_k():
    # op(w) = sum_u C(w, u) eps (w - u) K(u) over random brackets K on
    # the words of degree <= k, nonzero on some word of degree k
    rng = random.Random(7)
    for k in range(4):
        for n in (2, 3):
            spec = FreeAlgebraSpec([("x", 1), ("y", 0), ("z", 1), ("w", 2)],
                                   5, 1, n=n)
            basis = spec.basis_monomials()
            low = [m for m in basis if q_degree(m) < k]
            brackets = {m: GradedSeries({rng.choice(basis): rng.randint(1, 3)})
                        for m in rng.sample(low, min(3, len(low)))}
            top = rng.choice([m for m in basis if q_degree(m) == k])
            brackets[top] = GradedSeries.unit(rng.randint(1, 3))
            degree = rng.randint(-2, 2)

            def rule(w):
                acc = {}
                for u, ku in brackets.items():
                    part = bv._divide(u, w)
                    if part is not None:
                        rest, count = part
                        sign = merge_words(rest, u)[0] * count
                        if degree % 2 and monomial_degree(rest) % 2:
                            sign = -sign
                        add_terms(acc, mul(GradedSeries({rest: 1}), ku,
                                           spec.caps).terms, sign)
                return GradedSeries(acc)
            op = LinearMap(spec, {}, degree, rule)
            assert order_at_most_reference(op, k) == (True, True), (k, n)
            assert order_at_most_reference(op, k - 1) == (False, True), (k, n)
            assert order_at_most(op, k) == ([], True), (k, n)
            assert order_at_most(op, k - 1)[0], (k, n)


def test_exp_morphism_small_cases():
    # target = source algebra; phi sends odd generators to odd elements
    spec = FreeAlgebraSpec([("v", 1), ("w", 1)], word_cap=3, hbar_cap=2, n=2)
    sv, sw = spec.symbol("v"), spec.symbol("w")
    v, w = generator(spec, "v"), generator(spec, "w")
    vw = mul(v, w, spec.caps)
    phi_table = {
        ((sv, 1),): v.scale(2),
        ((sw, 1),): w.scale(3),
        ((sv, 1), (sw, 1)): vw.scale(5),
    }
    phi = LinearMap(spec, phi_table, 0)
    unit = GradedSeries.unit()
    # e^phi(1) = 1
    assert exp_morphism(phi, unit) == unit
    # single generator: e^phi(v) = phi(v)
    assert exp_morphism(phi, v) == v.scale(2)
    # two odd generators: e^phi(vw) = phi(vw) + phi(v)phi(w); the swap
    # summand cancels against the rearrangement sign
    assert exp_morphism(phi, vw) == vw.scale(5 + 6)


def worked_example():
    """x odd deg 1, y even deg 0, Dx = y^2 - 1, Dy = 0, beta1(y) = 1."""
    spec = xy_spec()
    y = generator(spec, "y")
    D = derivation_operator(spec, {"x": mul(y, y, spec.caps) - GradedSeries.unit(),
                                   "y": GradedSeries.zero()})
    sy = spec.symbol("y")
    beta = Augmentation(spec, {((sy, 1),): GradedSeries.unit(1)})
    return spec, D, beta


def test_twist_worked_example():
    spec, D, beta = worked_example()
    Phi, PhiInv, Dbeta = twist_by_augmentation(D, beta)
    # Phi^0 is the automorphism y -> y + 1 on generators
    sy = spec.symbol("y")
    got = Phi.value(((sy, 1),))
    assert got == generator(spec, "y") + GradedSeries.unit()
    # twisted differential: x -> (y+1)^2 - 1 = y^2 + 2y, constant-free
    sx = spec.symbol("x")
    y = generator(spec, "y")
    want = mul(y, y, spec.caps) + y.scale(2)
    assert Dbeta.value(((sx, 1),)) == want
    # round trip
    for m in spec.basis_monomials():
        assert PhiInv.apply(Phi.value(m)) == GradedSeries({m: Fraction(1)})


def test_twist_rejects_non_augmentation():
    spec, D, _ = worked_example()
    sy = spec.symbol("y")
    bad = Augmentation(spec, {((sy, 1),): GradedSeries.unit(2)})
    with pytest.raises(BvError):
        twist_by_augmentation(D, bad)


def test_linearize_worked_example():
    spec, D, beta = worked_example()
    _, _, Dbeta = twist_by_augmentation(D, beta)
    data = linearize(Dbeta)
    sx, sy = spec.symbol("x"), spec.symbol("y")
    assert data.dlin[sx] == {sy: Fraction(2)}
    assert data.delta[sx] == {(sy, sy): Fraction(2)}
    assert data.dlin.get(sy, {}) == {}


def test_beta_zero_twist_is_identity():
    # beta = 0 is an augmentation once D has no constant terms
    spec = xy_spec()
    y = generator(spec, "y")
    D = derivation_operator(spec, {"x": mul(y, y, spec.caps), "y": GradedSeries.zero()})
    beta0 = Augmentation(spec, {})
    Phi, PhiInv, Dbeta = twist_by_augmentation(D, beta0)
    for m in spec.basis_monomials():
        assert Phi.value(m) == GradedSeries({m: Fraction(1)})
        assert Dbeta.value(m) == D.value(m)


def test_linearize_weyl_bracket_example():
    # H = (1/h) q3 p1 p2, kappa = 1: mu(q1, q2) = (-1)^{|q1|} q3
    sys = OrbitSystem(2, [Orbit("g1", 0), Orbit("g2", 0), Orbit("g3", 0)])
    ctx = TruncationContext(max_p_degree=4, max_hbar=3, min_hbar=-1,
                            max_word_length=4)
    H = sys.monomial(1, qs=["g3"], ps=["g1", "g2"], hpow=-1)
    assert check_master_h(H, sys, ctx).passed
    D = bv_from_hamiltonian(sys, H, FreeAlgebraSpec.of_q(sys, 3, 3))
    rep = validate_bv(D)
    assert rep.passed
    beta0 = Augmentation(D.spec, {})
    _, _, Dbeta = twist_by_augmentation(D, beta0)
    data = linearize(Dbeta)
    q1, q2, q3 = (sys.q["g%d" % i] for i in (1, 2, 3))
    # frozen against the transposition oracle: the double contraction
    # crosses one odd variable, D(q1 q2) = -h q3, so
    # mu(q1, q2) = (-1)^{|q1|} D^2_1(q1 q2) = +q3
    from test_weyl import star_reference
    assert star_reference(H, sys.monomial(1, qs=["g1", "g2"]), sys, ctx) \
        .coefficient(((sys.q["g3"], 1), (sys.hbar, 1))) == -1
    assert data.mu[(q1, q2)] == {q3: Fraction(1)}
    assert data.mu[(q2, q1)] == {q3: Fraction(-1)}


def test_missing_higher_components_mean_zero_mu():
    spec, D, beta = worked_example()
    _, _, Dbeta = twist_by_augmentation(D, beta)
    data = linearize(Dbeta)
    assert all(not v for v in data.mu.values())


def test_homology_cases():
    spec = FreeAlgebraSpec([("v2", 2), ("v1", 1)], word_cap=2, hbar_cap=1, n=2)
    v2, v1 = spec.symbol("v2"), spec.symbol("v1")
    # zero differential: homology is everything
    hom = homology({}, [v2, v1])
    assert hom[2][0] == 1 and hom[1][0] == 1
    # acyclic pair
    hom = homology({v2: {v1: Fraction(1)}}, [v2, v1])
    assert hom[2][0] == 0 and hom[1][0] == 0


def test_homology_random_matches_rank_nullity():
    import random
    rng = random.Random(3)
    spec = FreeAlgebraSpec([("a%d" % i, 1 + (i % 2)) for i in range(6)],
                           word_cap=1, hbar_cap=1, n=2)
    syms = spec.symbols
    up = [s for s in syms if s.degree == 2]
    dn = [s for s in syms if s.degree == 1]
    for _ in range(20):
        dlin = {}
        rows = []
        for s in up:
            img = {t: Fraction(rng.randrange(-2, 3)) for t in dn}
            img = {t: c for t, c in img.items() if c}
            dlin[s] = img
            rows.append([img.get(t, Fraction(0)) for t in dn])
        from sftstring.linalg import rref
        r = len(rref(rows)[0])
        hom = homology(dlin, syms)
        assert hom[2][0] == len(up) - r
        assert hom[1][0] == len(dn) - r


def test_check_lie_bialgebra_trivial_and_lie():
    spec = FreeAlgebraSpec([("u", 1), ("v", 1), ("w", 3)], 2, 1, n=2)
    u, v, w = spec.symbols
    data = LieBialgebraData([u, v, w], {}, {}, {}, (-1, 1))
    assert check_lie_bialgebra(data).passed
    # mu = a nontrivial Lie bracket with delta = 0 (n=2 grading: all odd,
    # bracket plainly antisymmetric): [u,v] = w, rest zero
    mu = {(u, v): {w: Fraction(1)}, (v, u): {w: Fraction(-1)}}
    data = LieBialgebraData([u, v, w], {}, {}, mu, (-1, 1))
    assert check_lie_bialgebra(data).passed
    # breaking antisymmetry must fail
    mu_bad = {(u, v): {w: Fraction(1)}, (v, u): {w: Fraction(1)}}
    data = LieBialgebraData([u, v, w], {}, {}, mu_bad, (-1, 1))
    assert not check_lie_bialgebra(data).passed


def _boundary_yz_data(delta):
    # x of degree 1 with d x = y + z; y, z, w of degree 0
    x, y, z, w = FreeAlgebraSpec([("x", 1), ("y", 0), ("z", 0), ("w", 0)],
                                 2, 1, n=2).symbols
    dlin = {x: {y: Fraction(1), z: Fraction(1)}}
    return LieBialgebraData([x, y, z, w], dlin, delta(y, w), {}, (0, 0)), \
        (x, y, z, w)


def test_bialgebra_tensors_vanish_only_modulo_boundaries():
    data, (x, y, z, w) = _boundary_yz_data(lambda y, w: {})
    ops = BialgebraAxioms.of_data(data, *data.bidegree)
    one = Fraction(1)
    # y alone is not a boundary, in any slot
    assert not ops.vec_is_zero({y: one})
    assert not ops.tensor_is_zero({(y, w): one})
    assert not ops.tensor_is_zero({(y, w, w): one})
    assert not ops.tensor_is_zero({(w, w, y): one})
    # d x = y + z in any one slot is a boundary
    assert ops.vec_is_zero({y: one, z: one})
    assert ops.tensor_is_zero({(y, w): one, (z, w): one})
    assert ops.tensor_is_zero({(w, y, w): one, (w, z, w): one})
    assert ops.tensor_is_zero({(y, y): one, (y, z): one, (w, z): 2 * one,
                               (w, y): 2 * one})


def test_check_lie_bialgebra_sees_cobracket_off_the_boundaries():
    # delta(w) = y (x) w is not co-antisymmetric modulo im d
    data, _ = _boundary_yz_data(lambda y, w: {w: {(y, w): Fraction(1)}})
    rep = check_lie_bialgebra(data)
    assert not rep.passed
    assert any(label == "co-antisymmetry" for label, _ in rep.witnesses)


# -- failure witnesses: each input fails at exactly the named check ---------

def _labels(report):
    return [label for label, _value in report.witnesses]


def test_validate_bv_witnesses_a_nonzero_unit_value():
    # multiplication by the odd x squares to zero and has order 0, but
    # takes 1 to x
    spec = xy_spec()
    x = generator(spec, "x")
    D = BvOperator(spec, {m: mul(x, GradedSeries({m: 1}), spec.caps)
                          for m in spec.basis_monomials()})
    assert _labels(validate_bv(D)) == ["D(1)"]


def test_validate_bv_witnesses_a_component_of_too_high_order():
    # d^2/dq1 dq2 at h^0 is the component D^1, of order two; on even
    # generators of degree 0 its square is d^4/dq1^2 dq2^2
    spec = FreeAlgebraSpec([("q1", 0), ("q2", 0)], word_cap=4, hbar_cap=2, n=3)
    s1, s2 = spec.symbol("q1"), spec.symbol("q2")

    def second(m):
        d = dict(m)
        if not (d.get(s1) and d.get(s2)):
            return GradedSeries.zero()
        return GradedSeries.from_word(
            [(s, e - 1) for s, e in m], d[s1] * d[s2])

    rep = validate_bv(BvOperator(spec, {m: second(m)
                                        for m in spec.basis_monomials()}))
    assert _labels(rep) == ["DD(q1^2*q2^2)", "component 1 has order > 1 (q1*q2)"]


def test_bv1_witness_at_h_to_the_minus_2():
    # D(y) = h^-1 x and D(x) = h^-1: DD(y) reads D(x) at h^-1 through
    # LinearMap.value's h shift, so BV1 fails with a nonzero h^-2 term,
    # which spec.caps (floor h^-64) keeps
    spec = xy_spec()
    sx, sy = spec.symbol("x"), spec.symbol("y")
    D = BvOperator(spec, {((sy, 1),): mul(spec.hpow(-1), generator(spec, "x"),
                                          spec.caps),
                          ((sx, 1),): spec.hpow(-1)})
    assert D.value(((sx, 1), (spec.hbar, -1))) == spec.hpow(-2)
    assert validate_bv(D).witnesses == [("DD(y)", "h^-2")]


def test_spec_window_raises_below_h_to_the_minus_64():
    # D(y) = h^-1 y, applied 64 times, gives h^-64 y, at the floor of
    # spec.caps; the 65th application's window raises
    spec = xy_spec()
    y = generator(spec, "y")
    D = BvOperator(spec, {((spec.symbol("y"), 1),):
                          mul(spec.hpow(-1), y, spec.caps)})
    v = y
    for _ in range(64):
        v = D.apply(v)
    assert v == mul(spec.hpow(-64), y, spec.caps)
    with pytest.raises(TruncationUnderflow, match=r"^term y\*h\^-65 needs "
                       r"hbar\^-65 below the context minimum -64$"):
        D.apply(v)
