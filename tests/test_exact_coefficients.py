"""Every coefficient is exact and has one form: an int when its value is
an integer, otherwise a Fraction whose denominator is above 1, and never
a float.

The operations below are wrapped, in every sftstring namespace that
binds them, by a check of all they return.  Then the CLI runs on the
tests/data corpus, and one pass runs on each benchmark workload's
inputs, rebuilt here: the Goldman-Turaev sweep and the multi-string
suite on the closed genus-2 surface, `build-h --verify` with its sign
flips, and star associativity with the representation property on
seeded random series.
"""

import contextlib
import functools
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sftstring import (algebra, bv, cli, cotangent, problemfile, strings,
                       surfaces, weyl)
from sftstring.algebra import (GradedSeries, TruncationContext, collect,
                               exact)
from sftstring.bv import LieBialgebraData, LinearMap
from sftstring.cotangent import SurfaceHamiltonian
from sftstring.linalg import Subspace, kernel_basis, rref

DATA = Path(__file__).parent / "data"
ALPHABET = DATA / "genus2_alphabet.sft"
MODULES = (algebra, weyl, strings, surfaces, bv, cotangent, cli, problemfile)
WATCHED = [
    (weyl, "star"), (weyl, "act_right"), (weyl, "act_left"),
    (weyl, "exp_series"), (algebra, "mul"),
    (strings, "delta_op"), (strings, "nabla_op"),
    (surfaces.Surface, "goldman_terms"), (surfaces.Surface, "turaev_terms"),
    (cotangent, "build_H_surface"), (cotangent, "filling_augmentation"),
    (bv, "bv_from_hamiltonian"),
    (bv, "linearize"), (bv, "exp_morphism"), (bv, "twist_by_augmentation"),
]


def is_exact(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def coefficients(value):
    """Every coefficient held by a value that an operation returns."""
    if isinstance(value, GradedSeries):
        yield from value.terms.values()
    elif isinstance(value, LinearMap):
        yield from coefficients(value.table)
    elif isinstance(value, LieBialgebraData):
        for part in (value.dlin, value.delta, value.mu):
            yield from coefficients(part)
    elif isinstance(value, SurfaceHamiltonian):
        yield from coefficients(value.series)
        for family in value.coefficients().values():
            yield from family.values()
    elif isinstance(value, tuple):
        for v in value:
            yield from coefficients(v)
    elif isinstance(value, dict):
        for v in value.values():
            if isinstance(v, (GradedSeries, dict)):
                yield from coefficients(v)
            else:
                yield v


class Watch:
    """Counts the results of each watched operation and keeps the first
    few coefficients that are not exact."""

    def __init__(self, monkeypatch):
        self.seen = {}
        self.bad = []
        for owner, name in WATCHED:
            fn = getattr(owner, name)
            wrapper = self._checked(fn, name)
            if isinstance(owner, type):
                monkeypatch.setattr(owner, name, wrapper)
                continue
            for mod in MODULES:
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, wrapper)

    def _checked(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.seen[name] = self.seen.get(name, 0) + 1
            if len(self.bad) < 10:
                self.bad += [(name, c) for c in coefficients(out)
                             if not is_exact(c)][:10]
            return out
        return wrapper

    def assert_exact(self, names):
        assert not self.bad
        assert {n for n in names if not self.seen.get(n)} == set()


@pytest.fixture
def watch(monkeypatch):
    return Watch(monkeypatch)


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_exact_on_the_cli_over_test_data(watch):
    commands = ("parse", "check-master", "check-master-f", "check-master-l",
                "linearize", "check-bialgebra", "build-h")
    accepted = 0
    for command in commands:
        for path in sorted(DATA.glob("*.sft")):
            argv = [command, "--input", str(path)]
            if command == "check-master-f":
                for flag, name in (("--hplus", "Hplus"), ("--hminus", "Hminus")):
                    if "series %s " % name in path.read_text():
                        argv += [flag, name]
            accepted += run_cli(argv) != 2
    assert accepted >= 10
    assert run_cli(["build-h", "--input", str(ALPHABET), "--verify"]) == 0
    watch.assert_exact(["star", "act_right", "act_left",
                        "filling_augmentation", "exp_series", "mul", "delta_op", "nabla_op",
                        "goldman_terms", "turaev_terms", "build_H_surface",
                        "bv_from_hamiltonian", "linearize", "exp_morphism",
                        "twist_by_augmentation"])


def test_exact_on_the_goldman_turaev_sweep(watch):
    S = surfaces.Surface(2, 0)
    strings.check_goldman_turaev_axioms(S, max_len=4, sample_len=5,
                                        pairs=1, triples=1, seed=1)
    # the pinned Jacobi triple of the sweep
    x, y, z = (S.canonical_class(surfaces.parse_word(t, S)) for t in (
        "a1 a1 A2 b2 b2", "A1 B1 a2 b2 b2 a2", "a1 b1 b2 b2 b1 B2"))
    for u, v, w in ((x, y, z), (z, x, y), (y, z, x)):
        for m in S.goldman_terms(u, v):
            S.goldman_terms(m, w)
    watch.assert_exact(["goldman_terms", "turaev_terms"])


def test_exact_on_the_multistring_suite(watch):
    report = strings.check_string_identities(surfaces.Surface(2, 0),
                                             max_len=4, max_slots=3)
    assert report.passed
    watch.assert_exact(["mul", "delta_op", "nabla_op", "goldman_terms",
                        "turaev_terms"])


def test_exact_on_build_h_and_its_sign_flips(watch):
    assert run_cli(["build-h", "--input", str(ALPHABET), "--verify",
                    "--json"]) == 0
    pf = problemfile.parse(ALPHABET.read_text())
    names = {pf.classes[n]: n for n in pf.class_order}
    H = cotangent.build_H_surface(
        cotangent.GeodesicAlphabet(pf.surface, list(names), names))
    flips = 0
    for family, table in H.coefficients().items():
        for key in table:
            flipped = H.flipped(family, key)
            assert all(is_exact(c) for c in coefficients(flipped))
            assert not cotangent.check_surface_master(flipped).passed
            flips += 1
    assert flips == 26
    watch.assert_exact(["star", "act_right", "act_left",
                        "filling_augmentation", "exp_series", "build_H_surface", "bv_from_hamiltonian",
                        "linearize", "exp_morphism", "twist_by_augmentation"])


def _weyl_star_series(rng, sys):
    """A random series as the weyl_star benchmark draws it: up to four
    terms, each orbit's q with probability 0.35, at most two p's, h^0
    or h^1, coefficients in {-3..3} / {1, 2}."""
    orbits = list(sys.q)
    out = GradedSeries.zero()
    for _ in range(rng.randrange(1, 5)):
        qs = [o for o in orbits if rng.random() < 0.35]
        ps, budget = [], 2
        for o in orbits:
            if budget and rng.random() < 0.35:
                ps.append(o)
                budget -= 1
        coeff = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        if coeff:
            out = out + sys.monomial(coeff, qs=qs, ps=ps,
                                     hpow=rng.randrange(0, 2))
    return out


def test_exact_on_star_associativity_and_the_representation(watch):
    Orbit, OrbitSystem = weyl.Orbit, weyl.OrbitSystem
    systems = [
        OrbitSystem(2, [Orbit("g%d" % i, 0, 1 + i % 2) for i in range(1, 5)]),
        OrbitSystem(3, [Orbit("g%d" % i, i % 3, 1) for i in range(1, 4)]),
        OrbitSystem(4, [Orbit("g%d" % i, (i * 2) % 5, 1 + i % 3)
                        for i in range(1, 5)]),
    ]
    ctx = TruncationContext(max_p_degree=4, max_hbar=4, min_hbar=-1,
                            max_word_length=0)
    star, act = weyl.star, weyl.act_right
    for i in random.Random(1).sample(range(15000), 3000):
        s = systems[i % len(systems)]
        rng = random.Random("weyl_star/%d" % i)
        a, b, c = (_weyl_star_series(rng, s) for _ in range(3))
        g = weyl.project_out(_weyl_star_series(rng, s), kinds=("p",))
        ab = star(a, b, s, ctx)
        assert star(ab, c, s, ctx) == star(a, star(b, c, s, ctx), s, ctx)
        assert act(ab, g, s, ctx) == act(a, act(b, g, s, ctx), s, ctx)
    watch.assert_exact(["star", "act_right"])


def test_exact_normalizes_whole_fractions():
    assert type(exact(3)) is int and type(exact(Fraction(6, 3))) is int
    assert exact(Fraction(6, 3)) == 2 and exact(Fraction(2, 4)) == Fraction(1, 2)
    assert type(exact(Fraction(2, 4))) is Fraction
    h = ((weyl.OrbitSystem(2, []).hbar, 1),)
    half = Fraction(1, 2)
    for series in (GradedSeries({h: Fraction(4, 2)}),
                   GradedSeries.from_terms({h: Fraction(4, 2)}),
                   GradedSeries.unit(Fraction(4, 2)),
                   GradedSeries.unit(half).scale(4),
                   GradedSeries.unit(half) + GradedSeries.unit(Fraction(3, 2)),
                   collect({h: half + half + 1}, TruncationContext())):
        assert [type(c) for c in series.terms.values()] == [int]
    assert type(GradedSeries.unit().coefficient(h)) is int


def test_linear_algebra_on_int_rows_stays_exact():
    mat, pivots = rref([[2, 1, 0], [4, 3, 1]])
    assert pivots == [0, 1]
    assert mat == [[1, 0, Fraction(-1, 2)], [0, 1, 1]]
    assert all(type(x) is Fraction for row in mat for x in row)
    basis = kernel_basis([[2, 1]], 2)
    assert basis == [[Fraction(-1, 2), 1]]
    assert all(type(x) is Fraction for v in basis for x in v)
    red = Subspace([[2, 1]], 2).reduce([1, 0])
    assert red == [0, Fraction(-1, 2)]
    assert all(type(x) is Fraction for x in red)
