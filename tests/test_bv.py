import itertools
from collections import Counter
from fractions import Fraction

import pytest

from sftstring import bv
from sftstring.algebra import GradedSeries, ONE, TruncationContext, q_degree
from sftstring.bv import (
    Augmentation,
    BvError,
    BvOperator,
    FreeAlgebraSpec,
    LinearMap,
    LieBialgebraData,
    bv_bracket,
    bv_from_hamiltonian,
    check_bv_morphism,
    check_lie_bialgebra,
    derivation_operator,
    exp_morphism,
    homology,
    linearize,
    linearize_morphism,
    order_at_most,
    twist_by_augmentation,
    twist_by_mc,
    validate_bv,
    BialgebraAxioms,
)
from sftstring.weyl import Orbit, OrbitSystem, check_master_h


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
    y = spec.generator("y")
    D = derivation_operator(spec, {"x": spec.mul(y, y) - GradedSeries.unit(),
                                   "y": GradedSeries.zero()})
    comp = LinearMap(spec, D.component(1), -1)
    assert order_at_most(comp, 1) == (True, True)
    assert order_at_most(comp, 0)[0] is False


def test_derivation_sign_on_even_generators():
    # D(y) = w with y even: D(z y) = (-1)^|z| z D(y) = -z w, whichever
    # order the symbols take
    degrees = {"z": 1, "y": 2, "w": 1}
    for order in itertools.permutations(degrees):
        spec = FreeAlgebraSpec([(nm, degrees[nm]) for nm in order], 3, 2, n=2)
        z, y, w = (spec.symbol(nm) for nm in degrees)
        D = derivation_operator(spec, {"y": spec.generator("w")})
        zy = GradedSeries.from_word([(z, 1), (y, 1)])
        assert D.apply(zy) == GradedSeries.from_word([(z, 1), (w, 1)], -1), order
        assert validate_bv(D).passed, order


def test_multiplication_operator_has_order_zero():
    spec = xy_spec()
    y = spec.generator("y")
    table = {m: spec.mul(GradedSeries({m: Fraction(1)}), y)
             for m in spec.basis_monomials()}
    op = LinearMap(spec, table, 0)
    assert order_at_most(op, 0) == (True, True)


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
    assert order_at_most(op, 2) == (True, True)
    assert order_at_most(op, 1)[0] is False


def test_bv_bracket_of_derivation_vanishes():
    spec = xy_spec()
    y = spec.generator("y")
    x = spec.generator("x")
    D = derivation_operator(spec, {"x": spec.mul(y, y), "y": GradedSeries.zero()})
    for a in (x, y, spec.mul(x, y)):
        for b in (x, y, spec.mul(y, y)):
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
    got = bv_bracket(D, spec.generator("x"), spec.generator("y"))
    assert got == GradedSeries.unit() or got == GradedSeries.unit(-1)


def test_order_check_takes_one_commutator_per_multiset(monkeypatch):
    # [[op, a], b] = +-[[op, b], a], so below the top call the nested
    # commutators of an order <= 2 check are taken once per multiset of
    # at most 3 of the 3 generators: C(d + 2, d) calls at depth d, where
    # every ordered pick would make 3^d
    spec = FreeAlgebraSpec([("x", 1), ("y", 0), ("z", 2)], word_cap=4,
                           hbar_cap=1, n=2)
    nodes = []

    def counted(op, k, *args):
        nodes.append(k)
        return order(op, k, *args)
    order = bv.order_at_most
    monkeypatch.setattr(bv, "order_at_most", counted)
    assert bv.order_at_most(LinearMap(spec, {}, -1), 2) == (True, True)
    assert Counter(nodes) == {2: 1, 1: 3, 0: 6, -1: 10}


def test_exp_morphism_small_cases():
    # target = source algebra; phi sends odd generators to odd elements
    spec = FreeAlgebraSpec([("v", 1), ("w", 1)], word_cap=3, hbar_cap=2, n=2)
    sv, sw = spec.symbol("v"), spec.symbol("w")
    v, w = spec.generator("v"), spec.generator("w")
    vw = spec.mul(v, w)
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
    y = spec.generator("y")
    D = derivation_operator(spec, {"x": spec.mul(y, y) - GradedSeries.unit(),
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
    assert got == spec.generator("y") + GradedSeries.unit()
    # twisted differential: x -> (y+1)^2 - 1 = y^2 + 2y, constant-free
    sx = spec.symbol("x")
    y = spec.generator("y")
    want = spec.mul(y, y) + y.scale(2)
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
    y = spec.generator("y")
    D = derivation_operator(spec, {"x": spec.mul(y, y), "y": GradedSeries.zero()})
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


def test_check_bv_morphism_identity():
    spec, D, beta = worked_example()
    sx, sy = spec.symbol("x"), spec.symbol("y")
    phi = LinearMap(spec, {((sx, 1),): spec.generator("x"),
                           ((sy, 1),): spec.generator("y")}, 0)
    rep = check_bv_morphism(phi, D, D)
    assert rep.status in ("pass", "inconclusive")
    assert not rep.witnesses
    # augmentation as morphism to the trivial algebra
    zeroD = BvOperator(spec, {ONE: GradedSeries.zero()})
    rep2 = check_bv_morphism(beta, D, zeroD)
    assert not rep2.witnesses


def _window(spec, series, cap):
    return GradedSeries({m: c for m, c in series.terms.items()
                         if q_degree(m) <= cap})


def test_twist_by_mc():
    spec, D, _ = worked_example()
    # a = 0: twisted operator equals D
    Da = twist_by_mc(D, GradedSeries.zero())
    for m in spec.basis_monomials():
        assert Da.value(m) == D.value(m)
    # closed element of degree 0: y is D-closed and bracket-free; the
    # comparison is reliable away from the truncation boundary
    y = spec.generator("y")
    Da = twist_by_mc(D, y)
    cap = spec.word_cap - 2
    for m in spec.basis_monomials(max_len=cap):
        assert _window(spec, Da.value(m), cap) == _window(spec, D.value(m), cap)


def test_twist_by_mc_rejects_non_mc():
    # D with Dx = y (degree mismatch aside, make a genuine failure):
    # use Dy' = x'-style operator where e^a is not closed
    spec = FreeAlgebraSpec([("x", 1), ("y", 0)], 4, 3, n=2)
    D = derivation_operator(spec, {"x": GradedSeries.zero(),
                                   "y": spec.generator("x")})
    with pytest.raises(BvError):
        twist_by_mc(D, spec.generator("y"))


def test_twist_by_mc_quadratic_equivalence():
    # order-2 operator with [a,a]_D != 0 and Da = -(h/2)[a,a]_D passes;
    # build D = h d^2/dx1 dx2 + correction on even generators
    spec = FreeAlgebraSpec([("x1", 0), ("x2", 0)], word_cap=4, hbar_cap=4, n=3)
    s1, s2 = spec.symbol("x1"), spec.symbol("x2")

    def d2(m):
        d = dict(m)
        if d.get(s1, 0) >= 1 and d.get(s2, 0) >= 1:
            entries = [(s, e - (s in (s1, s2))) for s, e in m]
            return GradedSeries.from_word(entries, d[s1] * d[s2])
        return GradedSeries.zero()

    # D = h * d^2/dx1 dx2 (degree issues are moot: n=3 makes h degree 0
    # and the generators even; this is a BV-style square-zero operator)
    table = {m: spec.mul(spec.hpow(1), d2(m)) for m in spec.basis_monomials()}
    D = BvOperator(spec, table)
    a = spec.mul(spec.generator("x1"), spec.generator("x2"))
    assert not bv_bracket(D, a, a).is_zero()
    with pytest.raises(BvError):
        twist_by_mc(D, a)


def test_linearize_morphism_identity():
    spec, D, beta = worked_example()
    sx, sy = spec.symbol("x"), spec.symbol("y")
    phi = LinearMap(spec, {((sx, 1),): spec.generator("x"),
                           ((sy, 1),): spec.generator("y")}, 0)
    lin, rep = linearize_morphism(phi, D, beta, D, beta)
    assert rep.passed
    assert lin[sx] == {sx: Fraction(1)}
    assert lin[sy] == {sy: Fraction(1)}


def test_linearize_morphism_nontrivial_second_component():
    # abelian even system (h has degree zero): phi has a genuine
    # two-to-zero component, compensated by the source augmentation
    spec = FreeAlgebraSpec([("q1", 0), ("q2", 0)], word_cap=3, hbar_cap=2, n=3)
    s1, s2 = spec.symbol("q1"), spec.symbol("q2")
    D0 = BvOperator(spec, {m: GradedSeries.zero() for m in spec.basis_monomials()})
    hseries = spec.hpow(1, 3)
    phi = LinearMap(spec, {
        ((s1, 1),): spec.generator("q1"),
        ((s2, 1),): spec.generator("q2"),
        ((s1, 1), (s2, 1)): hseries,
    }, 0)
    alpha = Augmentation(spec, {((s1, 1), (s2, 1)): hseries})
    beta = Augmentation(spec, {})
    lin, rep = linearize_morphism(phi, D0, alpha, D0, beta)
    assert rep.passed
    assert lin[s1] == {s1: Fraction(1)} and lin[s2] == {s2: Fraction(1)}
    # breaking the compensation breaks the compatibility identity
    alpha_bad = Augmentation(spec, {((s1, 1), (s2, 1)): spec.hpow(1, 5)})
    _lin, rep_bad = linearize_morphism(phi, D0, alpha_bad, D0, beta)
    assert not rep_bad.passed


# -- failure witnesses: each input fails at exactly the named check ---------

def _labels(report):
    return [label for label, _value in report.witnesses]


def test_validate_bv_witnesses_a_nonzero_unit_value():
    # multiplication by the odd x squares to zero and has order 0, but
    # takes 1 to x
    spec = xy_spec()
    x = spec.generator("x")
    D = BvOperator(spec, {m: spec.mul(x, GradedSeries({m: 1}))
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
    assert _labels(rep) == ["DD(q1^2*q2^2)", "component 1 has order > 1"]


def test_check_bv_morphism_witnesses_a_nonzero_unit_value():
    spec, D, _beta = worked_example()
    sx, sy = spec.symbol("x"), spec.symbol("y")
    phi = LinearMap(spec, {ONE: spec.hpow(1),
                           ((sx, 1),): spec.generator("x"),
                           ((sy, 1),): spec.generator("y")}, 0)
    assert "phi(1)" in _labels(check_bv_morphism(phi, D, D))


def test_check_bv_morphism_witnesses_a_word_below_its_h_order():
    # phi^k may take a word of length n only at h^(k-1) with k >= n: a
    # scalar on y^2 is phi^1 on a length-2 word
    spec, D, _beta = worked_example()
    sx, sy = spec.symbol("x"), spec.symbol("y")
    phi = LinearMap(spec, {((sx, 1),): spec.generator("x"),
                           ((sy, 1),): spec.generator("y"),
                           ((sy, 2),): GradedSeries.unit(3)}, 0)
    rep = check_bv_morphism(phi, D, D)
    assert "phi^1 on length-2 word y^2" in _labels(rep)


def test_linearize_morphism_witnesses_a_map_that_is_no_chain_map():
    # d x = y on both sides, and lin x = 2x, lin y = y: lin d x = y but
    # d lin x = 2y; with zero augmentations compatibility holds for
    # every phi
    spec = xy_spec()
    sx, sy = spec.symbol("x"), spec.symbol("y")
    D = derivation_operator(spec, {"x": spec.generator("y"),
                                   "y": GradedSeries.zero()})
    phi = LinearMap(spec, {((sx, 1),): spec.generator("x").scale(2),
                           ((sy, 1),): spec.generator("y")}, 0)
    zero = Augmentation(spec, {})
    lin, rep = linearize_morphism(phi, D, zero, D, zero)
    assert lin[sx] == {sx: 2} and lin[sy] == {sy: 1}
    assert _labels(rep) == ["chain map fails on x"]
