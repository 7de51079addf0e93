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
from functools import reduce
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    KEEP_ALL,
    KIND_S,
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


# the one read-only image that every empty entry of an image memo shares
_NO_TERMS = MappingProxyType({})


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
        # image memos: the split of one symbol, and the unscaled,
        # uncollected images of one monomial under split/join
        self._splits: Dict[GradedSymbol, Dict[Monomial, Coeff]] = {}
        self._split_images: Dict[Monomial, Dict[Monomial, Coeff]] = {}
        self._join_images: Dict[Monomial, Dict[Monomial, Coeff]] = {}

    def symbol(self, cls: Word) -> GradedSymbol:
        sym = self._symbols.get(cls)
        if sym is None:
            sym = GradedSymbol("s[%s]" % format_word(cls, self.surface),
                               self.degree, KIND_S, None, 0)
            self._symbols[cls] = sym
            self._classes[sym] = cls
        return sym

    def class_of_symbol(self, sym: GradedSymbol) -> Word:
        """The class of a symbol of this algebra; KeyError for another."""
        return self._classes[sym]

    def single(self, cls: Word, coeff=1) -> GradedSeries:
        return GradedSeries({((self.symbol(cls), 1),): coeff})

    def multi(self, classes: Sequence[Word]) -> GradedSeries:
        """Ordered tuple of classes as a (canonicalized) monomial."""
        return GradedSeries.from_word([(self.symbol(c), 1) for c in classes])

    def split_of(self, sym: GradedSymbol) -> Optional[Dict[Monomial, Coeff]]:
        """The split image of the one-string monomial of a string symbol:
        (-1)^(n-3) times the cobracket of its class, each Turaev pair
        (u, v) as the normalized word u v.  Computed once per symbol, and
        the same dict is that monomial's entry in the split memo; None
        for a symbol of another kind."""
        if sym.kind != KIND_S:
            return None
        out = self._splits.get(sym)
        if out is None:
            sign = -1 if (self.n - 3) % 2 else 1
            out = {}
            cls = self.class_of_symbol(sym)
            for (u, v), cc in self.surface.turaev_terms(cls).items():
                res = normalize([(self.symbol(u), 1), (self.symbol(v), 1)])
                if res is not None:
                    out[res[1]] = out.get(res[1], 0) + res[0] * cc * sign
            out = self._splits[sym] = out or _NO_TERMS
        return out

    def word_of(self, text: str) -> Word:
        cls = self.surface.class_of(text)
        if cls is None:
            raise ValueError("trivial class %r" % text)
        return cls


def _apply_images(series: GradedSeries, alg: ClassAlgebra, memo: dict,
                  image, ctx: TruncationContext) -> GradedSeries:
    """Sum of c * image(m) over the terms c*m of the series, each
    monomial's image computed once per ClassAlgebra and kept in memo."""
    out: Dict[Monomial, Coeff] = {}
    for m, c in series.terms.items():
        img = memo.get(m)
        if img is None:
            img = memo[m] = image(m, alg) or _NO_TERMS
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
    return _apply_images(series, alg, alg._split_images, _split_image, ctx)


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
    return _apply_images(series, alg, alg._join_images, _join_image, ctx)


def _join_image(m: Monomial, alg: ClassAlgebra) -> Dict[Monomial, Coeff]:
    sgn_exp = 3 - alg.n
    out: Dict[Monomial, Coeff] = {}
    slots = [s for s, e in m if s.kind == KIND_S for _ in range(e)]
    rest = tuple((s, e) for s, e in m if s.kind != KIND_S)
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
                res = normalize(entries)
                if res is not None:
                    add_terms(out, {res[1]: cc * pref}, res[0])
    return out


# ---------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------

def _pool_tuples(classes: List[Word], max_slots: int, total_len: int):
    """Canonical tuples (non-decreasing class index) with at most
    max_slots slots and total word length within the cap; classes are
    sorted by length, as classes_up_to lists them."""
    out: List[List[Word]] = []
    _extend_pool(out, classes, max_slots, 0, [], total_len)
    return out


def _extend_pool(out: List[List[Word]], classes: List[Word], max_slots: int,
                 start: int, cur: List[Word], remaining: int) -> None:
    """Append to out each tuple cur + [c, ...] of _pool_tuples, c from
    classes[start:]; a module function, not a closure that calls itself,
    so that no reference cycle keeps out alive past the call."""
    for idx in range(start, len(classes)):
        c = classes[idx]
        if len(c) > remaining:
            break
        t = cur + [c]
        out.append(t)
        if len(t) < max_slots:
            _extend_pool(out, classes, max_slots, idx, t, remaining - len(c))


def check_string_identities(surface: Surface, max_len: int = 4,
                            max_slots: int = 3,
                            samples: int = 0, seed: int = 0) -> CheckReport:
    """Verify the multi-string operator identities on the tuple algebra:
    split^2 = 0, join^2 = 0, anticommutation of split and join, the
    co-derivation rule of the split, and the seven-term relation of the
    join, over all tuples within the caps (plus random extras).

    Each value that several tuples share is computed once per call, on
    first use: every symbol's split (its class's cobracket) and every
    monomial's split and join images, in the memos of the call's
    ClassAlgebra; each class's single string c with D(c) and N(c), and
    each pair's join N(c_i c_j), in local tables freed on return.  The
    tuple's own monomial s is the product c1 c2 (or c1 c2 c3) that the
    two relations take apart, so their left sides are D(s) and N(s),
    already at hand.  A product with a zero factor is not taken.
    """
    alg = ClassAlgebra(surface)
    ctx = KEEP_ALL  # split and join keep h = 0 and p-degree 0
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
        singles: Dict[Word, Tuple[GradedSeries, ...]] = {}
        joins: Dict[Tuple[Word, Word], GradedSeries] = {}

        def m(*xs: GradedSeries) -> GradedSeries:
            """The product of xs; zero, with no product taken, when a
            factor is zero."""
            if not all(xs):
                return GradedSeries()
            return reduce(lambda x, y: mul(x, y, ctx), xs)

        def single(w: Word) -> Tuple[GradedSeries, ...]:
            """(c, D(c), N(c)) for the class w."""
            got = singles.get(w)
            if got is None:
                c = alg.single(w)
                got = singles[w] = (c, D(c), N(c))
            return got

        def join(w1: Word, w2: Word) -> GradedSeries:
            """N(c1 c2) for the classes w1, w2."""
            got = joins.get((w1, w2))
            if got is None:
                got = joins[w1, w2] = N(m(single(w1)[0], single(w2)[0]))
            return got

        # every class symbol has degree n - 3
        d1 = d2 = d3 = alg.degree
        for t in tuples:
            s = alg.multi(t)
            if s.is_zero():
                continue
            # formatted only for a tuple that fails
            label = lambda: "(%s)" % ", ".join(format_word(w, surface) for w in t)
            ds, ns = D(s), N(s)
            if not D(ds).is_zero():
                report.add_witness("split^2 " + label(), "nonzero")
            if not N(ns).is_zero():
                report.add_witness("join^2 " + label(), "nonzero")
            if add_terms(dict(D(ns).terms), N(ds).terms):
                report.add_witness("split-join anticommutator " + label(), "nonzero")
            if len(t) == 2:
                # co-derivation rule of the split:
                # D(s) - D(c1) c2 - (-1)^|c1| c1 D(c2) = 0
                (c1, dc1, _), (c2, dc2, _) = single(t[0]), single(t[1])
                diff = dict(ds.terms)
                add_terms(diff, m(dc1, c2).terms, -1)
                add_terms(diff, m(c1, dc2).terms, -_pow_sign(d1))
                if diff:
                    report.add_witness("co-derivation rule " + label(), "nonzero")
            if len(t) == 3:
                # seven-term relation of the join: N(s) less six terms
                (c1, _, n1), (c2, _, n2), (c3, _, n3) = (single(w) for w in t)
                w1, w2, w3 = t
                diff = dict(ns.terms)
                for term, sign in (
                        (m(join(w1, w2), c3), 1),
                        (m(c1, join(w2, w3)), _pow_sign(d1)),
                        (m(join(w1, w3), c2), _pow_sign(d2 * d3)),
                        (m(n1, c2, c3), -1),
                        (m(c1, n2, c3), -_pow_sign(d1)),
                        (m(c1, c2, n3), -_pow_sign(d1 + d2))):
                    add_terms(diff, term.terms, -sign)
                if diff:
                    report.add_witness("seven-term " + label(), "nonzero")
    return report


def _pow_sign(e: int) -> int:
    return -1 if e % 2 else 1


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

