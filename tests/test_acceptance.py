"""Acceptance suite: one check per shipped criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sftstring.algebra import GradedSeries, TruncationContext, mul
from sftstring.bv import (
    Augmentation,
    BvOperator,
    FreeAlgebraSpec,
    bv_bracket,
    bv_from_hamiltonian,
    derivation_operator,
    linearize,
    order_at_most,
    twist_by_augmentation,
    validate_bv,
)
from sftstring.cotangent import (
    GeodesicAlphabet,
    build_H_surface,
    check_psi_intertwining,
    check_surface_master,
)
from sftstring.problemfile import ParseError, parse, print_problem
from sftstring.strings import (
    ClassAlgebra,
    check_goldman_turaev_axioms,
    check_master_l,
    check_string_identities,
)
from sftstring.surfaces import Surface, parse_word, torus_bracket_oracle
from sftstring.weyl import (
    Orbit,
    OrbitSystem,
    act_right,
    check_master_h,
    project_out,
    star,
)
from builders import generator, series_h, series_p

DATA = Path(__file__).parent / "data"


def _line(num, ok, text):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


@pytest.fixture(scope="module")
def genus2():
    return Surface(2, 0)


@pytest.fixture(scope="module")
def alphabet(genus2):
    words = [parse_word(t, genus2) for t in
             ("a1 a2 A1 A2", "a1 A2 A1 a2", "a1", "A1", "a2", "A2",
              "a1 a2", "A1 A2")]
    return GeodesicAlphabet.from_words(genus2, words)


@pytest.fixture(scope="module")
def hamiltonian(alphabet):
    return build_H_surface(alphabet)


def _random_series(rng, sys, max_terms=3, p_budget=1, h_budget=1):
    orbits = list(sys.q)
    out = GradedSeries.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        qs = [o for o in orbits if rng.random() < 0.35]
        ps = []
        budget = p_budget
        for o in orbits:
            if budget and rng.random() < 0.35:
                ps.append(o)
                budget -= 1
        coeff = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        if coeff:
            out = out + sys.monomial(coeff, qs=qs, ps=ps,
                                     hpow=rng.randrange(0, h_budget + 1))
    return out


def test_criterion_1_weyl_associativity_and_representation():
    t0 = time.time()
    ctx = TruncationContext(max_p_degree=4, max_hbar=4, min_hbar=-1,
                            max_word_length=0)
    rng = random.Random(20260810)
    systems = [
        OrbitSystem(2, [Orbit("g%d" % i, 0, 1 + i % 2) for i in range(1, 5)]),
        OrbitSystem(3, [Orbit("g%d" % i, i % 3, 1) for i in range(1, 4)]),
        OrbitSystem(4, [Orbit("g%d" % i, (i * 2) % 5, 1 + i % 3)
                        for i in range(1, 5)]),
    ]
    checked = 0
    for trial in range(500):
        sys = systems[trial % len(systems)]
        a = _random_series(rng, sys)
        b = _random_series(rng, sys)
        c = _random_series(rng, sys)
        lhs = star(star(a, b, sys, ctx), c, sys, ctx)
        rhs = star(a, star(b, c, sys, ctx), sys, ctx)
        assert lhs == rhs
        g = project_out(_random_series(rng, sys), kinds=("p",))
        lhs = act_right(star(a, b, sys, ctx), g, sys, ctx)
        rhs = act_right(a, act_right(b, g, sys, ctx), sys, ctx)
        assert lhs == rhs
        checked += 1
    dt = time.time() - t0
    _line(1, checked == 500 and dt < 60,
          "star associativity and representation property on %d triples "
          "in %.1f s" % (checked, dt))


def test_criterion_2_commutation_relation():
    ctx = TruncationContext(max_p_degree=4, max_hbar=4, min_hbar=-1,
                            max_word_length=0)
    cases = 0
    for cz, n in [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (1, 4)]:
        for kappa in (1, 2, 3):
            sys = OrbitSystem(n, [Orbit("g", cz, kappa)])
            p, q = series_p(sys, "g"), sys.series_q("g")
            sign = -1 if (sys.p["g"].parity and sys.q["g"].parity) else 1
            lhs = star(p, q, sys, ctx) - mul(q, p, ctx).scale(sign)
            assert lhs == series_h(sys, 1, kappa), (cz, n, kappa)
            cases += 1
    _line(2, True, "p*q - (-1)^(|p||q|) qp = kappa*h in %d parity/kappa cases"
          % cases)


def test_criterion_3_bv_suite(hamiltonian):
    ctx = TruncationContext(max_p_degree=4, max_hbar=3, min_hbar=-1,
                            max_word_length=0)
    hams = []
    sys1 = OrbitSystem(2, [Orbit("g%d" % i, 0, 1) for i in (1, 2, 3)])
    hams.append((sys1, sys1.monomial(1, qs=["g1", "g2"], ps=["g3"], hpow=-1)))
    hams.append((sys1, sys1.monomial(2, qs=["g3"], ps=["g1", "g2"], hpow=-1)))
    sys2 = OrbitSystem(3, [Orbit("e1", 0, 1), Orbit("e2", 0, 2),
                           Orbit("e3", 1, 1)])
    hams.append((sys2, sys2.monomial(1, qs=["e1", "e2"], ps=["e3"], hpow=-1)))
    hams.append((hamiltonian.sys, hamiltonian.series))
    for sys, H in hams:
        assert check_master_h(H, sys, ctx).passed
        D = bv_from_hamiltonian(sys, H, FreeAlgebraSpec.of_q(sys, 3, 3))
        rep = validate_bv(D)
        assert not rep.witnesses, rep.witnesses
        # D(1) = 0 explicitly
        from sftstring.algebra import ONE
        assert D.value(ONE).is_zero()
        # component orders
        for k in range(1, D.max_component() + 1):
            comp = D.component(k)
            assert comp.degree == -1 + 2 * (sys.n - 3) * (1 - k)
            ok, _concl = order_at_most(comp, k)
            assert ok
        # the first component is a derivation with vanishing BV-bracket
        D1 = BvOperator(D.spec, D.component(1).table)
        gens = [GradedSeries.generator(s) for s in D.spec.symbols[:4]]
        for a in gens:
            for b in gens:
                assert bv_bracket(D1, a, b).is_zero()
    _line(3, True, "DD = 0, D(1) = 0, component orders, derivation and "
          "BV-bracket of the first component on %d Hamiltonians" % len(hams))


def test_criterion_4_linearization_worked_example():
    spec = FreeAlgebraSpec([("x", 1), ("y", 0)], word_cap=4, hbar_cap=3, n=2)
    y = generator(spec, "y")
    D = derivation_operator(spec, {"x": mul(y, y, spec.caps) - GradedSeries.unit(),
                                   "y": GradedSeries.zero()})
    sy = spec.symbol("y")
    beta = Augmentation(spec, {((sy, 1),): GradedSeries.unit(1)})
    _, _, Dbeta = twist_by_augmentation(D, beta)
    data = linearize(Dbeta)
    sx = spec.symbol("x")
    ok = (data.dlin[sx] == {sy: Fraction(2)}
          and data.delta[sx] == {(sy, sy): Fraction(2)})
    _line(4, ok, "d x = 2y and delta(x) = 2 y(x)y in the twisted example")


def test_criterion_5_goldman_turaev_axioms(genus2):
    t0 = time.time()
    rep = check_goldman_turaev_axioms(genus2, max_len=4, sample_len=6,
                                      triples=200, pairs=200, seed=20260810)
    dt = time.time() - t0
    _line(5, rep.passed and dt < 300,
          "antisymmetry, Jacobi, co-antisymmetry, co-Jacobi, Drinfeld and "
          "involutivity over all classes of length <= 4 plus 200 sampled "
          "triples up to length 6 in %.1f s" % dt)


def test_criterion_6_torus_oracle_equivalence():
    T = Surface(1, 0)
    checked = 0
    global_sign = None
    rng = [-3, -2, -1, 1, 2, 3]
    for m in rng:
        for n in [0] + rng:
            for p in [0] + rng:
                for q in rng:
                    if (m, n) == (0, 0) or (p, q) == (0, 0):
                        continue
                    x = T.canonical_class(T.torus_word(m, n))
                    y = T.canonical_class(T.torus_word(p, q))
                    got = T.goldman_terms(x, y)
                    want = torus_bracket_oracle(m, n, p, q)
                    if not want:
                        assert not got, (m, n, p, q)
                        checked += 1
                        continue
                    (cls, coeff), = want.items()
                    assert set(got) == {cls}, (m, n, p, q)
                    ratio = got[cls] / coeff
                    if global_sign is None:
                        global_sign = ratio
                    assert ratio == global_sign, (m, n, p, q)
                    checked += 1
    _line(6, global_sign in (1, -1),
          "lattice enumeration matches (mq-np)(m+p, n+q) with global sign "
          "%s on %d vector pairs" % (global_sign, checked))


def test_criterion_7_multistring_identities(genus2):
    t0 = time.time()
    rep = check_string_identities(genus2, max_len=4, max_slots=3)
    dt = time.time() - t0
    _line(7, rep.passed,
          "split/join squares, anticommutation, co-derivation and "
          "seven-term relation on all multi-strings with <= 3 slots and "
          "total length <= 4 in %.1f s" % dt)


def test_criterion_8_cotangent_loop(hamiltonian):
    t0 = time.time()
    from sftstring.algebra import hbar_exponent, p_degree, q_degree
    shapes = {(q_degree(m), p_degree(m), hbar_exponent(m))
              for m in hamiltonian.series.terms}
    assert shapes <= {(2, 1, -1), (1, 2, -1), (0, 3, -1), (0, 1, 0)}
    assert check_surface_master(hamiltonian).passed
    flips = 0
    for fam, entries in hamiltonian.coefficients().items():
        for key, val in entries.items():
            if not val:
                continue
            flips += 1
            rep = check_surface_master(hamiltonian.flipped(fam, key))
            assert not rep.passed and rep.witnesses, (fam, key)
    dt = time.time() - t0
    _line(8, dt < 300,
          "four monomial shapes, H*H = 0 with the filling equation, and "
          "all %d single-sign flips fail with witnesses in %.1f s"
          % (flips, dt))


def test_criterion_9_psi_intertwining(hamiltonian):
    rep = check_psi_intertwining(hamiltonian)
    _line(9, rep.passed,
          "linearized bracket/cobracket of (H, ->F) equal the Goldman-"
          "Turaev structure constants on the alphabet")


def test_criterion_10_master_with_boundary(genus2):
    alg = ClassAlgebra(genus2, 2)
    ctx = TruncationContext(max_p_degree=3, max_hbar=3, min_hbar=-2,
                            max_word_length=12)
    # with no orbits and zero Hamiltonians the master equation is the
    # string Maurer-Cartan equation, and on single strings the disk level
    sys = OrbitSystem(2, [])
    zero = GradedSeries.zero()

    def master(L):
        return check_master_l(L, zero, zero, alg, sys, ctx)
    ok = master(zero).passed
    # Maurer-Cartan reduction on two-string data
    hinv = GradedSeries({((sys.hbar, -1),): Fraction(1)})
    x, y, b = (alg.word_of(t) for t in ("a1", "a2", "b1"))
    good = mul(alg.multi([x, y]), hinv, ctx)
    bad = mul(alg.multi([x, b]), hinv, ctx)
    mc_good, mc_bad = master(good), master(bad)
    ok = ok and mc_good.passed and not mc_bad.passed and mc_bad.witnesses
    # disk-level reduction
    a1 = alg.single(x) + alg.single(y, 3) + alg.single(b, 2)
    disk_good = master(a1)
    perturbed = a1 + alg.single(alg.word_of("a1 a2 A1 A2"))
    disk_bad = master(perturbed)
    ok = ok and disk_good.passed and not disk_bad.passed and disk_bad.witnesses
    _line(10, bool(ok),
          "L = 0 passes; Maurer-Cartan and disk-level reductions verified "
          "and fail on perturbed data with witnesses")


def test_criterion_11_parser_roundtrip_and_exit_codes():
    corpus = sorted(DATA.glob("*.sft"))
    assert len(corpus) >= 5
    for path in corpus:
        pf = parse(path.read_text())
        text = print_problem(pf)
        pf2 = parse(text)
        assert print_problem(pf2) == text, path
    diagnostics = 0
    for bad, needle in [
        ("series H = q[g1\n", "unterminated"),
        ("n = 2\nseries H = q[nope]\n", "undefined orbit"),
        ("what\n", "unknown declaration"),
        ("n = 2\norbit g cz=0 kappa=1\nseries H = p[g] +\n", "atom"),
    ]:
        try:
            parse(bad)
        except ParseError as exc:
            assert needle in str(exc)
            assert exc.line >= 1 and exc.col >= 1
            diagnostics += 1
    assert diagnostics == 4
    from sftstring.cli import main
    assert main(["check-master", "--input",
                 str(DATA / "three_orbit_pass.sft")]) == 0
    assert main(["check-master", "--input", str(DATA / "cross_fail.sft")]) == 1
    assert main(["check-master", "--input", str(DATA / "nope.sft")]) == 2
    _line(11, True,
          "round-trip identity on the %d-file corpus, position-tagged "
          "diagnostics, exit-code contract" % len(corpus))
