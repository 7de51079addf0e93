"""The multi-string algebra of a surface.

Tuples of free homotopy classes span a graded-commutative algebra: each
class becomes an odd/even symbol of degree n-3, so the symmetric-group
identification with its sign twist is exactly monomial normalization.
The operation splitting one string at a self-intersection extends the
cobracket slot-wise; the operation joining two strings at an
intersection extends the bracket pair-of-slots-wise; both carry the
slot-dependent sign prefactors of the shifted grading.

check_master_l verifies the master equation with Lagrangian boundary,
(d + split + h*join) e^L = e^L <-H+  -  H-> e^L, at homology level
where the chain boundary vanishes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence

from .algebra import (
    KIND_S,
    GradedSeries,
    GradedSymbol,
    Monomial,
    TruncationContext,
    add_terms,
    collect,
    format_monomial,
    hbar_exponent,
    monomial_degree,
    mul,
    p_degree,
    q_degree,
    word_length,
)
from .reports import CheckReport, series_witnesses, timed
from .surfaces import Surface, Word, format_word, parse_word
from .weyl import FILLING_KILL, OrbitSystem, exp_series, project_out, star


class ClassAlgebra:
    """Registry mapping free homotopy classes to graded symbols.

    A class of the surface becomes a symbol of degree n-3 named after
    its word, so for surfaces (n = 2) the symbols are odd: a repeated
    string kills a tuple, matching the signed symmetric-group quotient.
    """

    def __init__(self, surface: Surface, n: int = 2):
        self.surface = surface
        self.n = n
        self.degree = n - 3
        self._symbols: Dict[Word, GradedSymbol] = {}
        # names are format_word(cls), injective on classes
        self._classes: Dict[GradedSymbol, Word] = {}

    def symbol(self, cls: Word) -> GradedSymbol:
        sym = self._symbols.get(cls)
        if sym is None:
            sym = GradedSymbol("s[%s]" % format_word(cls, self.surface),
                               self.degree, KIND_S, None, 0)
            self._symbols[cls] = sym
            self._classes[sym] = cls
        return sym

    def class_of_symbol(self, sym: GradedSymbol) -> Word:
        cls = self._classes.get(sym)
        if cls is not None:
            return cls
        # symbols are value objects: recover the class from the name
        name = sym.name
        if name.startswith("s[") and name.endswith("]"):
            cls = self.surface.canonical_class(
                parse_word(name[2:-1], self.surface))
            if cls is not None and self.symbol(cls) == sym:
                return cls
        raise KeyError(sym.name)

    def single(self, cls: Word, coeff=1) -> GradedSeries:
        return GradedSeries.generator(self.symbol(cls), coeff)

    def multi(self, classes: Sequence[Word], coeff=1) -> GradedSeries:
        """Ordered tuple of classes as a (canonicalized) monomial."""
        entries = [(self.symbol(c), 1) for c in classes]
        return GradedSeries.from_word(entries, coeff)

    def word_of(self, text: str) -> Word:
        cls = self.surface.class_of(text)
        if cls is None:
            raise ValueError("trivial class %r" % text)
        return cls


def _tuple_of(monomial: Monomial) -> List[GradedSymbol]:
    out = []
    for s, e in monomial:
        if s.kind == KIND_S:
            out.extend([s] * e)
    return out


def _rest_of(monomial: Monomial):
    return tuple((s, e) for s, e in monomial if s.kind != KIND_S)


def delta_op(series: GradedSeries, alg: ClassAlgebra,
             ctx: TruncationContext) -> GradedSeries:
    """Split one string at a self-intersection, slot by slot.

    Monomial form of the tuple-level splitting: conjugating the literal
    slot signs through the tuple orientation factor leaves the sign
    (-1)^(r(3-n)) on slot r, and the operator becomes an odd derivation
    of the monomial algebra.  The unit is annihilated.
    """
    sgn_exp = 3 - alg.n
    out: Dict[Monomial, Fraction] = {}
    for m, c in series.terms.items():
        slots = _tuple_of(m)
        rest = _rest_of(m)
        k = len(slots)
        for r in range(1, k + 1):
            pref = -1 if (r * sgn_exp) % 2 else 1
            cls = alg.class_of_symbol(slots[r - 1])
            for (u, v), cc in alg.surface.turaev_terms(cls).items():
                entries = [(s, 1) for s in slots[:r - 1]]
                entries += [(alg.symbol(u), 1), (alg.symbol(v), 1)]
                entries += [(s, 1) for s in slots[r:]]
                entries += list(rest)
                add_terms(out, GradedSeries.from_word(entries, c * cc * pref).terms)
    return collect(out, ctx)


def nabla_op(series: GradedSeries, alg: ClassAlgebra,
             ctx: TruncationContext) -> GradedSeries:
    """Join two strings at an intersection, for every slot pair.

    Monomial form of the tuple-level joining: the (r1 < r2) join gets
    the sign (-1)^((r1+r2+1)(3-n)) with the joined class moved to the
    front, making the operator second-order over the monomial algebra.
    Vanishes on single strings and on the unit.
    """
    sgn_exp = 3 - alg.n
    out: Dict[Monomial, Fraction] = {}
    for m, c in series.terms.items():
        slots = _tuple_of(m)
        rest = _rest_of(m)
        k = len(slots)
        if k < 2:
            continue
        for r1 in range(1, k + 1):
            for r2 in range(r1 + 1, k + 1):
                pref = -1 if ((r1 + r2 + 1) * sgn_exp) % 2 else 1
                c1 = alg.class_of_symbol(slots[r1 - 1])
                c2 = alg.class_of_symbol(slots[r2 - 1])
                for z, cc in alg.surface.goldman_terms(c1, c2).items():
                    entries = [(alg.symbol(z), 1)]
                    entries += [(s, 1) for t, s in enumerate(slots)
                                if t not in (r1 - 1, r2 - 1)]
                    entries += list(rest)
                    add_terms(out, GradedSeries.from_word(entries, c * cc * pref).terms)
    return collect(out, ctx)


def string_bracket(alg: ClassAlgebra, a: GradedSeries, b: GradedSeries,
                   ctx: TruncationContext) -> GradedSeries:
    """Goldman bracket extended bilinearly to single-string sums."""
    out: Dict[Monomial, Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            t1, t2 = _tuple_of(m1), _tuple_of(m2)
            if len(t1) != 1 or len(t2) != 1 or _rest_of(m1) or _rest_of(m2):
                raise ValueError("string bracket expects single strings")
            x = alg.class_of_symbol(t1[0])
            y = alg.class_of_symbol(t2[0])
            for z, cc in alg.surface.goldman_terms(x, y).items():
                add_terms(out, alg.single(z, c1 * c2 * cc).terms)
    return collect(out, ctx)


# ---------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------

def _pool_tuples(classes: List[Word], max_slots: int, total_len: int):
    """Canonical tuples (non-decreasing class index) with at most
    max_slots slots and total word length within the cap."""
    out: List[List[Word]] = []

    def rec(start: int, cur: List[Word], remaining: int):
        for idx in range(start, len(classes)):
            c = classes[idx]
            if len(c) > remaining:
                continue
            t = cur + [c]
            out.append(t)
            if len(t) < max_slots:
                rec(idx, t, remaining - len(c))

    rec(0, [], total_len)
    return out


def check_string_identities(surface: Surface, max_len: int = 4,
                            max_slots: int = 3,
                            samples: int = 0, seed: int = 0,
                            n: int = 2) -> CheckReport:
    """Verify the multi-string operator identities on the tuple algebra:
    split^2 = 0, join^2 = 0, anticommutation of split and join, the
    co-derivation rule of the split, and the seven-term relation of the
    join, over all tuples within the caps (plus random extras)."""
    alg = ClassAlgebra(surface, n)
    ctx = TruncationContext(max_p_degree=0, max_hbar=2, min_hbar=0,
                            max_word_length=4 * max_len)
    report = CheckReport("multi-string identities (genus %d, boundary %d)"
                         % (surface.genus, surface.boundary),
                         caps={"max_len": max_len, "max_slots": max_slots})
    with timed(report):
        classes = surface.classes_up_to(max_len)
        tuples = _pool_tuples(classes, max_slots, max_len)
        if samples:
            rng = random.Random(seed)
            extra = [[classes[rng.randrange(len(classes))]
                      for _ in range(rng.randrange(2, max_slots + 1))]
                     for _ in range(samples)]
            tuples = tuples + extra
        D = lambda s: delta_op(s, alg, ctx)
        N = lambda s: nabla_op(s, alg, ctx)
        for t in tuples:
            s = alg.multi(t)
            if s.is_zero():
                continue
            label = "(%s)" % ", ".join(format_word(w, surface) for w in t)
            if not D(D(s)).is_zero():
                report.add_witness("split^2 " + label, "nonzero")
            if not N(N(s)).is_zero():
                report.add_witness("join^2 " + label, "nonzero")
            if not (D(N(s)) + N(D(s))).is_zero():
                report.add_witness("split-join anticommutator " + label, "nonzero")
            if len(t) == 2:
                # co-derivation rule of the split
                c1, c2 = alg.single(t[0]), alg.single(t[1])
                d1 = monomial_degree(next(iter(c1.terms)))
                lhs = D(mul(c1, c2, ctx))
                rhs = mul(D(c1), c2, ctx) + mul(c1, D(c2), ctx).scale(_pow_sign(d1))
                if not (lhs - rhs).is_zero():
                    report.add_witness("co-derivation rule " + label, "nonzero")
            if len(t) == 3:
                c1, c2, c3 = (alg.single(w) for w in t)
                d1 = monomial_degree(next(iter(c1.terms)))
                d2 = monomial_degree(next(iter(c2.terms)))
                d3 = monomial_degree(next(iter(c3.terms)))
                m = lambda *xs: _mul_chain(ctx, *xs)
                lhs = N(m(c1, c2, c3))
                rhs = (m(N(m(c1, c2)), c3)
                       + m(c1, N(m(c2, c3))).scale(_pow_sign(d1))
                       + m(N(m(c1, c3)), c2).scale(_pow_sign(d2 * d3))
                       - m(N(c1), c2, c3)
                       - m(c1, N(c2), c3).scale(_pow_sign(d1))
                       - m(c1, c2, N(c3)).scale(_pow_sign(d1 + d2)))
                if not (lhs - rhs).is_zero():
                    report.add_witness("seven-term " + label, "nonzero")
    return report


def _pow_sign(e: int) -> int:
    return -1 if e % 2 else 1


def _mul_chain(ctx, *series):
    out = series[0]
    for s in series[1:]:
        out = mul(out, s, ctx)
    return out


# ---------------------------------------------------------------------
# master equation with Lagrangian boundary
# ---------------------------------------------------------------------

def d_string(series: GradedSeries, alg: ClassAlgebra, sys: OrbitSystem,
             ctx: TruncationContext, boundary=None) -> GradedSeries:
    """The string operator d + split + h * join, coefficient-wise.

    At homology level the chain boundary d vanishes; a coefficient
    differential can be supplied for chain-level data.
    """
    out = delta_op(series, alg, ctx)
    joined = nabla_op(series, alg, ctx)
    hseries = GradedSeries({((sys.hbar, 1),): Fraction(1)})
    out = out + mul(hseries, joined, ctx)
    if boundary is not None:
        out = out + boundary(series, ctx)
    return out


def check_master_l(L: GradedSeries, Hplus: GradedSeries, Hminus: GradedSeries,
                   alg: ClassAlgebra, sys: OrbitSystem,
                   ctx: TruncationContext, boundary=None) -> CheckReport:
    """Verify (d + split + h*join) e^L = e^L <-H+  -  H-> e^L."""
    report = CheckReport("master equation with Lagrangian boundary",
                         caps={"max_p_degree": ctx.max_p_degree,
                               "max_hbar": ctx.max_hbar,
                               "min_hbar": ctx.min_hbar,
                               "max_word_length": ctx.max_word_length})
    with timed(report):
        for m, c in L.terms.items():
            if all(s.kind == "h" for s, _ in m) and hbar_exponent(m) <= 0:
                report.add_witness(format_monomial(m), c)
                report.notes.append("pure scalar term with h exponent <= 0 rejected")
                return report
        wide = ctx.widen(extra_low=ctx.max_p_degree + ctx.max_word_length + 2)
        eL = exp_series(L, sys, wide)
        lhs = d_string(eL, alg, sys, wide, boundary)
        rhs = project_out(star(eL, Hplus, sys, wide), sides=FILLING_KILL, sys=sys) - \
            project_out(star(Hminus, eL, sys, wide), sides=FILLING_KILL, sys=sys)
        diff = lhs - rhs
        if not diff.is_zero():
            series_witnesses(report, diff)
    return report


def check_string_mc(A: GradedSeries, alg: ClassAlgebra, sys: OrbitSystem,
                    ctx: TruncationContext) -> CheckReport:
    """Maurer-Cartan reduction: boundary-and-puncture-free potential,
    (split + h*join) e^A = 0."""
    report = CheckReport("string Maurer-Cartan equation")
    with timed(report):
        eA = exp_series(A, sys, ctx)
        lhs = d_string(eA, alg, sys, ctx)
        if not lhs.is_zero():
            series_witnesses(report, lhs)
    return report


def check_fukaya_disk(a1: GradedSeries, alg: ClassAlgebra,
                      ctx: TruncationContext, boundary=None) -> CheckReport:
    """Disk-level reduction: d a1 + (1/2)[a1, a1] = 0 on a single-string
    potential, realized as the string operator on its exponential.

    At homology level the self-bracket term collapses: the two ordered
    joinings of a pair of single strings produce conjugate classes with
    opposite signs, so the surviving obstruction is the splitting part
    (plus the supplied chain boundary, zero at homology level).  The
    bracket obstruction proper is exercised by two-string potentials in
    the Maurer-Cartan check.
    """
    report = CheckReport("disk-level boundary equation")
    with timed(report):
        for m in a1.terms:
            if word_length(m) != 1 or p_degree(m) or q_degree(m) \
                    or hbar_exponent(m):
                report.notes.append("potential is not a pure single-string sum")
                break
        sys = OrbitSystem(alg.n, [])
        eA = exp_series(a1, sys, ctx)
        lhs = d_string(eA, alg, sys, ctx, boundary)
        if not lhs.is_zero():
            series_witnesses(report, lhs)
    return report


# ---------------------------------------------------------------------
# Goldman-Turaev axiom suite over class pools
# ---------------------------------------------------------------------

def check_goldman_turaev_axioms(surface: Surface, max_len: int = 4,
                                sample_len: int = 6, triples: int = 200,
                                pairs: int = 300, seed: int = 0) -> CheckReport:
    """Antisymmetry, Jacobi, co-antisymmetry, co-Jacobi, Drinfeld
    compatibility and involutivity for the bracket and cobracket.

    Unary axioms run over every class within the length cap; the pair
    and triple axioms run over seeded random samples drawn from classes
    up to sample_len (with a small exhaustive pool mixed in), since the
    full triple product over the cap is astronomically large.
    """
    # imported on use, so that the multi-string operators do not load bv
    from .bv import BialgebraAxioms

    report = CheckReport(
        "Goldman-Turaev axioms (genus %d, boundary %d)"
        % (surface.genus, surface.boundary),
        caps={"max_len": max_len, "sample_len": sample_len,
              "triples": triples, "pairs": pairs, "seed": seed})
    S = surface
    # the surface constants are degree -1 symbols at bidegree (-1, 1)
    ax = BialgebraAxioms(S.goldman_terms, S.turaev_terms, lambda w: -1, -1, 1)

    with timed(report):
        pool = S.classes_up_to(max_len)
        rng = random.Random(seed)
        big = S.classes_up_to(sample_len) if sample_len > max_len else pool
        # unary axioms over the whole pool
        for x in pool:
            label = format_word(x, S)
            if S.goldman_terms(x, x):
                report.add_witness("[x,x] for %s" % label, "nonzero")
            dx = S.turaev_terms(x)
            if not ax.co_antisymmetry(dx):
                report.add_witness("co-antisymmetry for %s" % label, "nonzero")
            if not ax.co_jacobi(dx):
                report.add_witness("co-Jacobi for %s" % label, "nonzero")
            if not ax.involutivity(dx):
                report.add_witness("involutivity for %s" % label, "nonzero")
        # sampled pairs: antisymmetry and Drinfeld compatibility
        for _ in range(pairs):
            x = big[rng.randrange(len(big))]
            y = big[rng.randrange(len(big))]
            label = "(%s, %s)" % (format_word(x, S), format_word(y, S))
            if not ax.antisymmetry({x: 1}, {y: 1}):
                report.add_witness("antisymmetry for " + label, "nonzero")
            if not ax.drinfeld({x: 1}, {y: 1}):
                report.add_witness("Drinfeld for " + label, "nonzero")
        # sampled triples: Jacobi
        for _ in range(triples):
            x = big[rng.randrange(len(big))]
            y = big[rng.randrange(len(big))]
            z = big[rng.randrange(len(big))]
            if not ax.jacobi({x: 1}, {y: 1}, {z: 1}):
                report.add_witness(
                    "Jacobi for (%s, %s, %s)"
                    % (format_word(x, S), format_word(y, S), format_word(z, S)),
                    "nonzero")
    return report

