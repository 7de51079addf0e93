"""The multi-string algebra of a surface.

Tuples of free homotopy classes span a graded-commutative algebra: each
class becomes an odd/even symbol of degree n-3, so the symmetric-group
identification with its sign twist is exactly monomial normalization.
The operation splitting one string at a self-intersection extends the
cobracket as a derivation (algebra.derivation, times (-1)^(n-3)); the
operation joining two strings at an intersection extends the bracket
pair-of-slots-wise, a second-order operator; both carry the
slot-dependent sign prefactors of the shifted grading.

check_master_l verifies the master equation with Lagrangian boundary,
(d + split + h*join) e^L = e^L <-H+  -  H-> e^L, at homology level
where the chain boundary vanishes.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    KEEP_ALL,
    KIND_S,
    ONE,
    Coeff,
    GradedSeries,
    GradedSymbol,
    Monomial,
    TruncationContext,
    add_terms,
    collect,
    derivation,
    mul,
    normalize,
)
from .reports import CheckReport, series_witnesses, timed
from .surfaces import Surface, Word, format_word
from .weyl import (
    FILLING_KILL,
    OrbitSystem,
    _caps_dict,
    exp_series,
    project_out,
    reject_scalar_term,
    star,
)


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
        # each class's unit (symbol, 1), shared by the algebra's words
        self._units: Dict[Word, Tuple[GradedSymbol, int]] = {}
        # names are format_word(cls), injective on classes
        self._classes: Dict[GradedSymbol, Word] = {}
        # the split of each symbol, computed once
        self._splits: Dict[GradedSymbol, Dict[Monomial, Coeff]] = {}

    def unit(self, cls: Word) -> Tuple[GradedSymbol, int]:
        """The unit (s, 1) of the class's symbol s, made on first use."""
        unit = self._units.get(cls)
        if unit is None:
            sym = GradedSymbol("s[%s]" % format_word(cls, self.surface),
                               self.degree, KIND_S, None, 0)
            unit = self._units[cls] = (sym, 1)
            self._classes[sym] = cls
        return unit

    def class_of_symbol(self, sym: GradedSymbol) -> Word:
        """The class of a symbol of this algebra; KeyError for another."""
        return self._classes[sym]

    def single(self, cls: Word, coeff=1) -> GradedSeries:
        return GradedSeries({(self.unit(cls),): coeff})

    def multi(self, classes: Sequence[Word]) -> GradedSeries:
        """Ordered tuple of classes as a (canonicalized) monomial."""
        return GradedSeries.from_word([self.unit(c) for c in classes])

    def split_of(self, sym: GradedSymbol) -> Optional[Dict[Monomial, Coeff]]:
        """The split image of the one-string monomial of a string symbol:
        (-1)^(n-3) times the cobracket of its class, each Turaev pair
        (u, v) as the normalized word u v.  Computed once per symbol;
        None for a symbol of another kind."""
        if sym.kind != KIND_S:
            return None
        out = self._splits.get(sym)
        if out is None:
            sign = -1 if (self.n - 3) % 2 else 1
            out = {}
            cls = self.class_of_symbol(sym)
            for (u, v), cc in self.surface.turaev_terms(cls).items():
                res = normalize([self.unit(u), self.unit(v)])
                if res is not None:
                    out[res[1]] = out.get(res[1], 0) + res[0] * cc * sign
            self._splits[sym] = out
        return out

    def word_of(self, text: str) -> Word:
        cls = self.surface.class_of(text)
        if cls is None:
            raise ValueError("trivial class %r" % text)
        return cls


def _apply_images(series: GradedSeries, alg: ClassAlgebra, image,
                  ctx: TruncationContext) -> GradedSeries:
    """Sum of c * image(m) over the terms c*m of the series; an image is
    a dict of terms, empty or None where it is 0."""
    out: Dict[Monomial, Coeff] = {}
    for m, c in series.terms.items():
        img = image(m, alg)
        if img:
            add_terms(out, img, c)
    return collect(out, ctx)


def delta_op(series: GradedSeries, alg: ClassAlgebra,
             ctx: TruncationContext) -> GradedSeries:
    """Split one string at a self-intersection, slot by slot.

    Monomial form of the tuple-level splitting: conjugating the literal
    slot signs through the tuple orientation factor leaves the sign
    (-1)^(r(3-n)) on slot r, and the operator becomes an odd derivation
    of the monomial algebra.  The unit is annihilated.
    """
    return _apply_images(series, alg, _split_image, ctx)


def _split_image(m: Monomial, alg: ClassAlgebra) -> Dict[Monomial, Coeff]:
    """algebra.derivation with d(s) = alg.split_of(s), which holds the
    factor (-1)^(n-3): slot r's sign (-1)^(r(3-n)) is (-1)^(n-3)
    (-1)^(|s|P), P = (r-1)(n-3).  On a one-string monomial that
    derivation copies d(s), so the image is d(s) itself."""
    if len(m) == 1 and m[0][1] == 1:
        return alg.split_of(m[0][0])
    return derivation(m, alg.split_of)


def nabla_op(series: GradedSeries, alg: ClassAlgebra,
             ctx: TruncationContext) -> GradedSeries:
    """Join two strings at an intersection, for every slot pair.

    Monomial form of the tuple-level joining: the (r1 < r2) join gets
    the sign (-1)^((r1+r2+1)(3-n)) with the joined class moved to the
    front, making the operator second-order over the monomial algebra.
    Vanishes on single strings and on the unit.
    """
    return _apply_images(series, alg, _join_image, ctx)


def _join_image(m: Monomial, alg: ClassAlgebra) -> Dict[Monomial, Coeff]:
    """Sums kept as they come, zeros included, for collect() to drop."""
    sgn_exp = 3 - alg.n
    out: Dict[Monomial, Coeff] = {}
    slots = [u if u[1] == 1 else (u[0], 1) for u in m if u[0].kind == KIND_S
             for _ in range(u[1])]
    rest = [u for u in m if u[0].kind != KIND_S]
    k = len(slots)
    for r1 in range(1, k + 1):
        for r2 in range(r1 + 1, k + 1):
            pref = -1 if ((r1 + r2 + 1) * sgn_exp) % 2 else 1
            others = slots[:r1 - 1] + slots[r1:r2 - 1] + slots[r2:] + rest
            c1 = alg.class_of_symbol(slots[r1 - 1][0])
            c2 = alg.class_of_symbol(slots[r2 - 1][0])
            for z, cc in alg.surface.goldman_terms(c1, c2).items():
                res = normalize([alg.unit(z)] + others)
                if res is not None:
                    out[res[1]] = out.get(res[1], 0) + res[0] * cc * pref
    return out


# ---------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------

def _pool_tuples(out: List[List[Word]], classes: List[Word], max_slots: int,
                 start: int, cur: List[Word], remaining: int) -> None:
    """Append to out, depth first, each canonical tuple cur + [c, ...]
    (non-decreasing class index, from start) with at most max_slots
    slots and at most `remaining` more letters; classes are sorted by
    length, as classes_up_to lists them.  A module function, not a
    closure that calls itself: no reference cycle keeps out alive."""
    for idx in range(start, len(classes)):
        c = classes[idx]
        if len(c) > remaining:
            break
        t = cur + [c]
        out.append(t)
        if len(t) < max_slots:
            _pool_tuples(out, classes, max_slots, idx, t, remaining - len(c))


def string_operator(alg: ClassAlgebra, basis: Sequence[Monomial]):
    """The BvOperator D = split + h*join on the listed basis: a word's
    value, kept from its first read, is its delta_op plus its nabla_op
    with the h unit appended (h sorts last).  The window is unbounded:
    split and join keep h = 0 and p-degree 0 and never lengthen a word
    in letters (free and Dehn reduction only shorten)."""
    from .bv import BvOperator, FreeAlgebraSpec  # on use, as below

    spec = FreeAlgebraSpec([], word_cap=inf, hbar_cap=inf, n=alg.n,
                           symbols=dict.fromkeys(s for m in basis for s, _ in m),
                           basis=basis)
    h = (spec.hbar, 1)

    def value(w: Monomial) -> GradedSeries:
        one = GradedSeries._of({w: 1})
        terms = delta_op(one, alg, KEEP_ALL).terms
        for m, c in nabla_op(one, alg, KEEP_ALL).terms.items():
            terms[m + (h,)] = c
        return GradedSeries._of(terms)
    return BvOperator(spec, {}, value)


def check_string_identities(surface: Surface, max_len: int = 4,
                            max_slots: int = 3,
                            samples: int = 0, seed: int = 0) -> CheckReport:
    """The multi-string identities as validate_bv of string_operator:
    DD = 0 by powers of h is split^2 = 0, the split-join anticommutator
    and join^2 = 0; order <= 1 of the split is its co-derivation rule,
    order <= 2 of the join the seven-term relation."""
    from .bv import validate_bv

    alg = ClassAlgebra(surface)
    report = CheckReport("multi-string identities (genus %d, boundary %d)"
                         % (surface.genus, surface.boundary),
                         caps={"max_len": max_len, "max_slots": max_slots})
    with timed(report):
        # the basis: the pool's words, and random ones with sub-words
        classes, tuples = surface.classes_up_to(max_len), []
        _pool_tuples(tuples, classes, max_slots, 0, [], max_len)
        rng = random.Random(seed)
        for _ in range(samples):
            t = [classes[rng.randrange(len(classes))]
                 for _ in range(rng.randrange(2, max_slots + 1))]
            tuples += [list(sub) for r in range(1, len(t) + 1)
                       for sub in combinations(t, r)]
        D = string_operator(alg, [ONE, *dict.fromkeys(
            m for t in tuples for m in alg.multi(t).terms)])
        del tuples  # freed before the checks
    return validate_bv(D, report)


# ---------------------------------------------------------------------
# master equation with Lagrangian boundary
# ---------------------------------------------------------------------

def check_master_l(L: GradedSeries, Hplus: GradedSeries, Hminus: GradedSeries,
                   alg: ClassAlgebra, sys: OrbitSystem,
                   ctx: TruncationContext) -> CheckReport:
    """Verify (d + split + h*join) e^L = e^L <-H+  -  H-> e^L.

    With H+ = H- = 0 and no orbits this is the string Maurer-Cartan
    equation (split + h*join) e^L = 0, and on a single-string L the
    disk-level equation d L + (1/2)[L, L] = 0: at n = 2 the two ordered
    joinings of a pair of single strings cancel, so only the splitting
    part can fail there."""
    report = CheckReport("master equation with Lagrangian boundary",
                         caps=_caps_dict(ctx))
    with timed(report):
        if reject_scalar_term(L, report):
            return report
        wide = ctx.widen(extra_low=ctx.max_p_degree + ctx.max_word_length + 2)
        eL = exp_series(L, sys, wide)
        # d + split + h*join; at homology level the chain boundary d is 0
        h = GradedSeries({((sys.hbar, 1),): 1})
        lhs = delta_op(eL, alg, wide) + mul(h, nabla_op(eL, alg, wide), wide)
        rhs = project_out(star(eL, Hplus, sys, wide), sides=FILLING_KILL, sys=sys) - \
            project_out(star(Hminus, eL, sys, wide), sides=FILLING_KILL, sys=sys)
        diff = lhs - rhs
        if not diff.is_zero():
            series_witnesses(report, diff)
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

