"""Snapshot of the witness lists of the two Lie-bialgebra axiom checkers.

tests/data/axioms/witnesses.json holds, per case, the witness list
(label and coefficient, in order) of one run:

* `check_lie_bialgebra` on a four-symbol `LieBialgebraData` whose
  bracket and cobracket are deliberately broken, so that every axiom
  and both degree checks fail; on the same kind of data with a linear
  differential, so that the reduction modulo boundaries is exercised;
  on broken data with symbols of both parities, so that the Koszul
  signs of every axiom matter; on a passing Lie bracket; and on 300
  seeded random data sets of both parities (one digest of the witness
  list per set);
* `check_goldman_turaev_axioms` on a genus-2 surface whose
  `goldman_terms` and `turaev_terms` are corrupted on a few classes, so
  that every axiom fails, and on the plain genus-2 surface, which
  passes.

A change to the axiom algebra must leave every list unchanged, order
included.  Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_axiom_witnesses.py
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sftstring.bv import FreeAlgebraSpec, LieBialgebraData, check_lie_bialgebra
from sftstring.strings import check_goldman_turaev_axioms
from sftstring.surfaces import Surface

SNAPSHOT = Path(__file__).parent / "data" / "axioms" / "witnesses.json"
RANDOM_SETS = 300
F = Fraction


def _symbols(degrees, prefix="e"):
    spec = FreeAlgebraSpec([("%s%d" % (prefix, i), d)
                            for i, d in enumerate(degrees)], 2, 1, n=2)
    return spec.symbols


def _broken_data() -> LieBialgebraData:
    """Degree -1 symbols at bidegree (-1, 1), as the surface constants,
    with a bracket that is not antisymmetric and a cobracket that is not
    co-antisymmetric; one entry of each has the wrong degree."""
    a, b, c, d = _symbols([-1, -1, -1, -1])
    even = _symbols([0], "f")[0]
    mu = {(a, b): {c: F(1)}, (b, a): {c: F(1)},
          (b, c): {a: F(2), d: F(-1)}, (c, b): {a: F(-2)},
          (c, a): {b: F(1), d: F(3)}, (a, c): {b: F(-1)},
          (d, d): {a: F(1)}, (a, d): {even: F(5)}}
    delta = {a: {(b, c): F(1), (c, b): F(-1)},
             b: {(a, c): F(1)},
             c: {(d, a): F(2), (a, d): F(1), (b, b): F(1)},
             d: {(a, b): F(1), (even, a): F(7)}}
    return LieBialgebraData([a, b, c, d], {}, delta, mu, (-1, 1))


def _boundary_data() -> LieBialgebraData:
    """Degree 1 symbol x with d x = y + z; y, z, w of degree 0, with a
    cobracket and bracket off the boundaries."""
    x, y, z, w = _symbols([1, 0, 0, 0])
    dlin = {x: {y: F(1), z: F(1)}}
    delta = {w: {(y, w): F(1)}, y: {(w, w): F(1), (z, w): F(-1)}}
    mu = {(y, w): {w: F(1)}, (w, y): {w: F(1)}, (w, w): {y: F(2)}}
    return LieBialgebraData([x, y, z, w], dlin, delta, mu, (0, 0))


def _graded_data() -> LieBialgebraData:
    """Symbols of degrees 0, 1, 1, 2 at bidegree (1, 0), so that the tau
    and rho signs of every axiom and the Drinfeld sign depend on the
    parities."""
    a, b, c, d = _symbols([0, 1, 1, 2], "g")
    mu = {(a, b): {c: F(1)}, (b, a): {c: F(1)},
          (b, c): {d: F(1)}, (c, b): {d: F(-1)}, (b, b): {d: F(1)},
          (a, d): {a: F(2)}, (d, a): {a: F(1)},
          (c, a): {b: F(1)}, (a, c): {b: F(-1)}}
    delta = {a: {(b, c): F(1), (c, b): F(1)},
             b: {(a, b): F(1), (b, a): F(-1)},
             c: {(a, c): F(1), (d, b): F(1)},
             d: {(b, c): F(1), (c, c): F(1), (a, d): F(2)}}
    return LieBialgebraData([a, b, c, d], {}, delta, mu, (1, 0))


def _lie_data() -> LieBialgebraData:
    u, v, w = _symbols([1, 1, 3])
    mu = {(u, v): {w: F(1)}, (v, u): {w: F(-1)}}
    return LieBialgebraData([u, v, w], {}, {}, mu, (-1, 1))


def _random_data(rng: random.Random) -> LieBialgebraData:
    """A sparse random bracket and cobracket on symbols of degrees 0, 1,
    1, 2 at a random bidegree."""
    syms = _symbols([0, 1, 1, 2], "h")
    d1, d2 = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (0, 0)])
    mu, delta = {}, {}
    for _ in range(rng.randrange(1, 6)):
        u, v, w = (rng.choice(syms) for _ in range(3))
        mu.setdefault((u, v), {})[w] = F(rng.choice([1, -1, 2]))
    for _ in range(rng.randrange(1, 6)):
        s, a, b = (rng.choice(syms) for _ in range(3))
        delta.setdefault(s, {})[(a, b)] = F(rng.choice([1, -1, 2]))
    return LieBialgebraData(syms, {}, delta, mu, (d1, d2))


def _random_digests():
    """One digest of the witness list per seeded random data set: some
    of their axioms hold only through cancellations that a wrong sign
    rule breaks."""
    rng = random.Random(5)
    out = []
    for _ in range(RANDOM_SETS):
        text = repr(check_lie_bialgebra(_random_data(rng)).witnesses)
        out.append(hashlib.sha256(text.encode()).hexdigest()[:12])
    return out


class _CorruptedSurface(Surface):
    """Genus 2 with a bracket term x added to [x, y] for x < y and to
    [x, x] for classes of length 2, and a cobracket term x (x) x added
    on classes of length 2."""

    def goldman_terms(self, x, y):
        out = dict(super().goldman_terms(x, y))
        if x < y or (x == y and len(x) == 2):
            out[x] = out.get(x, F(0)) + 1
        return out

    def turaev_terms(self, x):
        out = dict(super().turaev_terms(x))
        if len(x) == 2:
            out[(x, x)] = out.get((x, x), F(0)) + 1
        return out


def _gt(surface):
    return check_goldman_turaev_axioms(surface, max_len=2, sample_len=3,
                                       triples=12, pairs=12, seed=3)


def _witnesses(report):
    return [list(w) for w in report.witnesses]


CASES = {
    "bialgebra-broken": lambda: _witnesses(check_lie_bialgebra(_broken_data())),
    "bialgebra-boundary":
        lambda: _witnesses(check_lie_bialgebra(_boundary_data())),
    "bialgebra-graded": lambda: _witnesses(check_lie_bialgebra(_graded_data())),
    "bialgebra-lie": lambda: _witnesses(check_lie_bialgebra(_lie_data())),
    "bialgebra-random": _random_digests,
    "goldman-turaev-corrupted":
        lambda: _witnesses(_gt(_CorruptedSurface(2, 0))),
    "goldman-turaev-genus2": lambda: _witnesses(_gt(Surface(2, 0))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_axiom_witnesses_match_snapshot(case):
    want = json.loads(SNAPSHOT.read_text())[case]
    got = CASES[case]()
    assert len(got) == len(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, bad[:10]


def test_snapshot_cases_fail_every_axiom():
    """The broken cases keep every axiom of their checker failing, so the
    snapshot pins each axiom's witnesses."""
    snap = json.loads(SNAPSHOT.read_text())
    labels = {label.split(" on ")[0]
              for label, _ in snap["bialgebra-broken"]}
    assert labels >= {"co-antisymmetry", "co-Jacobi", "involutivity",
                      "antisymmetry", "Jacobi", "Drinfeld compatibility",
                      "delta degree", "mu degree"}
    labels = {label.split(" on ")[0]
              for label, _ in snap["bialgebra-graded"]}
    assert labels >= {"co-antisymmetry", "co-Jacobi", "involutivity",
                      "antisymmetry", "Jacobi", "Drinfeld compatibility"}
    labels = {label.split(" for ")[0]
              for label, _ in snap["goldman-turaev-corrupted"]}
    assert labels == {"[x,x]", "co-antisymmetry", "co-Jacobi",
                      "involutivity", "antisymmetry", "Jacobi", "Drinfeld"}
    assert snap["bialgebra-boundary"]
    assert not snap["bialgebra-lie"] and not snap["goldman-turaev-genus2"]


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    snap = {case: CASES[case]() for case in sorted(CASES)}
    SNAPSHOT.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
