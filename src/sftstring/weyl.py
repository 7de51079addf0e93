"""Graded Weyl algebra of a contact problem.

Variables q_gamma, p_gamma per good closed orbit, with gradings
|q| = n-3+CZ, |p| = n-3-CZ, |h| = 2(n-3).  All variables super-commute
except p and q of the same orbit, where moving a p left past its q
produces the extra contraction term kappa*h.  Series are kept in
standard form (q-block left of p-block).

The star product contracts by exponent: p_gamma^a on the left against
q_gamma^b on the right gives, for r = 0 .. min(a, b), h^r times the
integer weight kappa^r r! C(a,r) C(b,r).  An odd orbit contracts at
most once, with the flip (odd units after the p in the left factor +
odd units before the q in the right factor); m odd contractions carry
(-1)^(sum of flips + m(m-1)/2).  One kernel does it: each factor is
read once into one-sided records (the left one's p's, the right one's
q's, the coefficient as an integer over a common denominator); a pair
with nothing to contract goes straight to the window, in any other the
shared orbits are folded in from the rightmost by slicing the bodies;
terms the window drops are skipped before the two lowered factors,
already in standard form, are merged (algebra.merge_words); an output
term's integer sum n over the common denominator d gives n itself when
d is 1, n // d when d divides n, and Fraction(n, d) only otherwise.
The operator actions are the same kernel restricted to full
contraction: act_right contracts every p of the left factor, act_left
every q of the right factor.  act_right_words(F) is the function
m -> act_right(F, m) on single monomials, with F read into records
once when it is made and each m when it is called; it keeps no values,
so the caller that owns the function decides which words are ever
computed (bv's operator of a Hamiltonian computes each on its first
read).  All four entries run one pair loop (_pairs).  exp_series sums
the star powers.  The tests compare the star product against
unit-level matching enumeration and adjacent-transposition rewriting,
and the actions against derivative chains; tests/test_action_tables.py
compares the two operators built on act_right_words (bv's operator of a
Hamiltonian, cotangent's filling augmentation) against one act_right
call per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Dict, List, Optional, Sequence

from .algebra import (
    KIND_H,
    KIND_P,
    KIND_Q,
    GradedSeries,
    GradedSymbol,
    Monomial,
    ONE,
    TruncationContext,
    add_terms,
    format_monomial,
    hbar_exponent,
    hbar_symbol,
    merge_words,
    monomial_degree,
    truncation_underflow,
)
from .reports import CheckReport, series_witnesses, timed

SIDE_NONE = "none"
SIDE_POS = "pos"
SIDE_NEG = "neg"

# (kind, side) pairs dropped when a cobordism equation is read in the
# space of series in p(+), q(-), h; untagged orbits count as the
# positive end (filling view)
FILLING_KILL = ((KIND_Q, SIDE_POS), (KIND_Q, SIDE_NONE), (KIND_P, SIDE_NEG))


@dataclass(frozen=True)
class Orbit:
    name: str
    cz: int
    kappa: int = 1
    good: bool = True
    side: str = SIDE_NONE

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("orbit multiplicity must be positive")
        if self.side not in (SIDE_NONE, SIDE_POS, SIDE_NEG):
            raise ValueError("bad side tag %r" % (self.side,))


class OrbitSystem:
    """Variable alphabet of a contact manifold or symplectic cobordism.

    Only good orbits generate variables; bad ones are retained for
    documentation but get no symbols.
    """

    def __init__(self, n: int, orbits: Sequence[Orbit]):
        self.n = n
        self.orbits: List[Orbit] = list(orbits)
        names = [o.name for o in self.orbits]
        if len(set(names)) != len(names):
            raise ValueError("duplicate orbit names")
        self.hbar = hbar_symbol(n)
        self.q: Dict[str, GradedSymbol] = {}
        self.p: Dict[str, GradedSymbol] = {}
        self.kappa: Dict[str, int] = {}
        self.side: Dict[str, str] = {}
        idx = 0
        for o in self.orbits:
            if not o.good:
                continue
            self.q[o.name] = GradedSymbol(
                "q[%s]" % o.name, n - 3 + o.cz, KIND_Q, o.name, idx)
            self.p[o.name] = GradedSymbol(
                "p[%s]" % o.name, n - 3 - o.cz, KIND_P, o.name, idx)
            self.kappa[o.name] = o.kappa
            self.side[o.name] = o.side
            idx += 1

    def series_q(self, name: str) -> GradedSeries:
        return GradedSeries.generator(self.q[name])

    def monomial(self, coeff, qs=(), ps=(), hpow: int = 0) -> GradedSeries:
        """Convenience builder; qs/ps are orbit names."""
        entries = [(self.q[n_], 1) for n_ in qs]
        entries += [(self.p[n_], 1) for n_ in ps]
        if hpow:
            entries.append((self.hbar, hpow))
        return GradedSeries.from_word(entries, coeff)


def star(a: GradedSeries, b: GradedSeries, sys: OrbitSystem,
         ctx: TruncationContext) -> GradedSeries:
    """Associative star product with kappa*h contractions.

    Every r = 0 .. min(a, b) of each orbit's p^a (left) against its q^b
    (right) is contracted, with the weight and sign of the module
    docstring.  A contraction whose term the context would drop (hbar
    above the cap, or p-degree above the cap with hbar at or above the
    minimum) is never built; every other term, including one below
    min_hbar, reaches collect().
    """
    return _contract(a, b, sys, ctx, None)


def act_right(F: GradedSeries, g: GradedSeries, sys: OrbitSystem,
              ctx: TruncationContext) -> GradedSeries:
    """F acting on g from the left as a differential operator.

    Each p_gamma of F is replaced by kappa*h times the graded left
    derivative in q_gamma: the star product F * g in which every p of
    F contracts (r = a for each orbit).  A pair of monomials where g
    has too few q_gamma contributes nothing.  On a q-only g this is
    star(F, g) with leftover p-variables set to zero.
    """
    return _contract(F, g, sys, ctx, KIND_P)


def act_right_words(F: GradedSeries, sys: OrbitSystem,
                    ctx: TruncationContext
                    ) -> Callable[[Monomial], GradedSeries]:
    """The function m -> act_right(F, GradedSeries({m: 1})) on
    monomials m, each value with the same terms in the same order as
    that call, and a term below the window raising that call's
    TruncationUnderflow.  F is read into records once, here; each call
    reads only m, into its one record, and keeps nothing."""
    left, dl = _records(F.terms, True)
    return lambda m: _pairs(left, dl, *_records({m: 1}, False), sys, ctx,
                            KIND_P, False)


def act_left(g: GradedSeries, H: GradedSeries, sys: OrbitSystem,
             ctx: TruncationContext) -> GradedSeries:
    """H acting on g from the right: q_gamma of H becomes kappa*h times
    the graded right derivative in p_gamma, i.e. the star product g * H
    in which every q of H contracts (r = b for each orbit).  On a
    p-only g this is star(g, H) with leftover q-variables of H set to
    zero."""
    return _contract(g, H, sys, ctx, KIND_Q)


def _contract(a: GradedSeries, b: GradedSeries, sys: OrbitSystem,
              ctx: TruncationContext, full: Optional[str]) -> GradedSeries:
    """The star product a * b, restricted by `full`: None allows every
    r; KIND_P contracts all of each p^a of the left factor (r = a),
    KIND_Q all of each q^b of the right factor (r = b), and a pair of
    monomials where one of those orbits cannot be fully contracted is
    skipped.

    A zero factor gives zero; else the left factor is read into p-side
    records and the right one into q-side records (_records), and the
    pair loop sums integers over the product of the two common
    denominators.  A pair whose shared odd p/q units are not all
    removed by its contracted orbits vanishes and is skipped; an orbit
    with a shared odd unit must contract.  Any shared orbits are folded
    in from the rightmost, lowering the bodies by slicing, in the order
    of a matching enumeration (the leftmost orbit varies fastest); m
    odd contractions add (-1)^(m(m-1)/2) to their flips.  The window is
    applied before the merge, from h = h0 + r, p-degree p1 + p2 - r
    and length l1 + l2, so exactly the terms collect() would drop are
    never built; a term below min_hbar is kept whatever its p-degree or
    length, and the first nonzero one raises collect()'s error.  No
    caller sets a q cap (max_q_degree), so the kernel reads none.

    The square of a series whose every term has odd degree skips the
    choice in which nothing contracts: that part is the graded-
    commutative square, and it cancels term by term (m_i m_j =
    -m_j m_i at the same h and p-degree, and m_i m_i has an odd symbol
    twice), so no coefficient and no TruncationUnderflow depends on it.
    """
    if not a.terms or not b.terms:
        return GradedSeries()
    odd_square = b is a and full is None and \
        all(monomial_degree(m) & 1 for m in a.terms)
    return _pairs(*_records(a.terms, True), *_records(b.terms, False), sys,
                  ctx, full, odd_square)


def _pairs(left, dl, right, dr, sys: OrbitSystem, ctx: TruncationContext,
           full: Optional[str], odd_square: bool) -> GradedSeries:
    """The pair loop of _contract over the records of its two factors
    and their common denominators dl, dr.  The options over r of each
    (p, q, x, y, lowest r, flip) are made once per call."""
    max_h, min_h, max_p = ctx.max_hbar, ctx.min_hbar, ctx.max_p_degree
    max_len, hbar, kappa = ctx.max_word_length, sys.hbar, sys.kappa
    acc: Dict[Monomial, int] = {}
    low, weights = {}, {}  # terms below min_hbar; an orbit's options over r
    for body1, h1, p1, l1, ps, pm, odd1, t1, n1 in left:
        for body2, h2, p2, l2, qmap, qm, odd2, _, n2 in right:
            h0 = h1 + h2
            if h0 > max_h:
                continue
            cm = pm & qm  # orbits with a p on the left and a q on the right
            shared = odd1 & odd2
            if shared & ~(cm * 3):
                continue
            if full is None:
                if odd_square and not cm:
                    continue
            elif cm != (pm if full == KIND_P else qm):
                continue
            states = ((body1, body2, 0, n1 * n2, 0),)
            for o, k1, x, through, par, bits in ps if cm else ():
                if not cm & bits:
                    continue
                k2, y, before = qmap[o]
                if full is None:  # an orbit with a shared odd unit must contract
                    lo = 1 if shared & bits else 0
                else:  # r = x (or y), left in range() only when it is min(x, y)
                    lo = x if full == KIND_P else y
                flip = par and (t1 - through + before) & 1
                s1, s2 = body1[k1][0], body2[k2][0]
                opts = weights.get((s1, s2, x, y, lo, flip))
                if opts is None:
                    opts = weights[s1, s2, x, y, lo, flip] = [
                        (r, (-1) ** flip * kappa[o] ** r * factorial(r)
                         * comb(x, r) * comb(y, r),
                         ((s1, x - r),) if x > r else (),
                         ((s2, y - r),) if y > r else (), par and r)
                        for r in range(lo, min(x, y) + 1)]
                nxt = []
                for st in states:
                    b1, b2, tot, w, m = st
                    for r, wr, cut1, cut2, odd in opts:
                        if not r:
                            nxt.append(st)
                        elif h0 + tot + r <= max_h:
                            nxt.append((b1[:k1] + cut1 + b1[k1 + 1:],
                                        b2[:k2] + cut2 + b2[k2 + 1:],
                                        tot + r, w * wr, m + odd))
                states = nxt
            pdeg, length = p1 + p2, l1 + l2
            for b1, b2, tot, w, m in states:
                h = h0 + tot
                if odd_square and not tot or h >= min_h and \
                        (pdeg - tot > max_p or length > max_len):
                    continue
                res = merge_words(b1, b2)
                if res is None:
                    continue
                sgn, mono = res
                if h:
                    mono += ((hbar, h),)
                out = acc if h >= min_h else low
                # (-1)^(m(m-1)/2) for m odd contractions
                out[mono] = out.get(mono, 0) + (-sgn if m & 2 else sgn) * w
    for mono, n in low.items():
        if n:
            raise truncation_underflow(mono, min_h)
    d = dl * dr
    series = GradedSeries.__new__(GradedSeries)
    if d == 1:
        series.terms = {m: n for m, n in acc.items() if n}
    else:
        series.terms = {m: n // d if n % d == 0 else Fraction(n, d)
                        for m, n in acc.items() if n}
    return series


def _records(terms: dict, left: bool):
    """Records of the monomials of a left or right star-product factor
    (its terms), and the common denominator d of its Fractions: (h-free
    body, h, p-degree, word length, at, mask, odd-unit mask, odd units,
    c * d).  On the left, `at` lists the p's from the rightmost as
    (orbit, position, exponent, odd units up to it, parity, orbit bits);
    on the right, it maps an orbit to its q's position, exponent and odd
    units before it, mod 2; `mask` holds the orbits of those p's or q's.
    The orbit of symbol index i (its place in the OrbitSystem) owns bits
    2i (its q, and the orbit masks) and 2i + 1 (its p)."""
    d = lcm(*[c.denominator for c in terms.values() if c.__class__ is not int])
    out = []
    for m, c in terms.items():
        body, h = (m[:-1], m[-1][1]) if m and m[-1][0].kind == KIND_H else (m, 0)
        pdeg = length = mask = odd = units = 0
        at = [] if left else {}
        for k, (s, e) in enumerate(body):
            kind, par = s.kind, s.parity
            if kind == KIND_P:
                bit = 1 << 2 * s.index
                if left:
                    at.insert(0, (s.orbit, k, e, units + par, par, bit * 3))
                    mask |= bit
                pdeg += e
                odd |= par * bit << 1
            elif kind == KIND_Q:
                bit = 1 << 2 * s.index
                if not left:
                    at[s.orbit] = (k, e, units & 1)
                    mask |= bit
                odd |= par * bit
            else:
                length += e
            units += par * e
        out.append((body, h, pdeg, length, at, mask, odd, units, c * d
                    if c.__class__ is int else c.numerator * (d // c.denominator)))
    return out, d


def project_out(series: GradedSeries, kinds=(), sides=(), sys: Optional[OrbitSystem] = None,
                ) -> GradedSeries:
    """Drop every monomial containing a variable of the given kinds, or
    of the given (kind, side) combinations when sides are supplied."""
    out = {}
    for m, c in series.terms.items():
        bad = False
        for s, _ in m:
            if s.kind in kinds:
                bad = True
                break
            if sides and sys is not None and s.kind in (KIND_P, KIND_Q):
                if (s.kind, sys.side.get(s.orbit, SIDE_NONE)) in sides:
                    bad = True
                    break
        if not bad:
            out[m] = c
    return GradedSeries.from_terms(out)


# ---------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------

class ExponentialError(ValueError):
    pass


def reject_scalar_term(series: GradedSeries,
                       report: Optional[CheckReport] = None) -> bool:
    """Find the first pure scalar term with hbar exponent <= 0, whose
    exponential never leaves a truncation window.  Without a report,
    raise ExponentialError on it; with one, witness it there and
    return True.  False when there is none."""
    for m, c in series.terms.items():
        if all(s.kind == KIND_H for s, _ in m) and hbar_exponent(m) <= 0:
            if report is None:
                raise ExponentialError(
                    "exponential of a series with scalar term %s does not truncate"
                    % format_monomial(m))
            report.add_witness(format_monomial(m), c)
            report.notes.append("pure scalar term with h exponent <= 0 rejected")
            return True
    return False


def exp_series(F: GradedSeries, sys: OrbitSystem,
               ctx: TruncationContext) -> GradedSeries:
    """Truncated exponential sum_k F^(*k) / k!, the powers F^(*k) =
    F^(*(k-1)) * F from F^(*0) = 1, summed up to the first that
    vanishes.

    Termination: every admissible term of F raises the p-degree, the
    hbar order, or the coefficient word length, or contains odd symbols
    (nilpotent), so powers eventually leave the truncation window.  A
    pure scalar term with hbar exponent <= 0 never leaves the window
    and is rejected, and so is a series none of whose first bound + 1
    powers vanishes.
    """
    reject_scalar_term(F)
    bound = (ctx.max_p_degree + (ctx.max_hbar - ctx.min_hbar)
             + ctx.max_word_length + len(sys.q) + 8)
    out = {ONE: 1}
    power = GradedSeries.unit()
    for k in range(1, bound + 2):
        power = star(power, F, sys, ctx)
        if power.is_zero():
            return GradedSeries.from_terms(out)
        add_terms(out, power.terms, Fraction(1, factorial(k)))
    raise ExponentialError("exponential did not terminate within caps")


# ---------------------------------------------------------------------
# master-equation checkers
# ---------------------------------------------------------------------

def _caps_dict(ctx: TruncationContext) -> dict:
    # max_q_degree is left out: no master-equation check sets it
    return {
        "max_p_degree": ctx.max_p_degree,
        "max_hbar": ctx.max_hbar,
        "min_hbar": ctx.min_hbar,
        "max_word_length": ctx.max_word_length,
    }


def check_master_h(H: GradedSeries, sys: OrbitSystem,
                   ctx: TruncationContext) -> CheckReport:
    """Verify H * H = 0 within the truncation window.

    When every term of H has odd degree (as it must, at degree -1),
    star skips the uncontracted part of H * H: it is the graded-
    commutative square, where m_i m_j = -m_j m_i at the same h and
    p-degree and m_i m_i holds an odd symbol twice, so it is zero term
    by term and leaves the square, its witnesses and any
    TruncationUnderflow exactly as the full product would.
    """
    report = CheckReport("master-equation H*H = 0", caps=_caps_dict(ctx))
    with timed(report):
        for m in H.terms:
            if hbar_exponent(m) < -1:
                report.notes.append("input not in (1/h)W: %s" % format_monomial(m))
        degs = sorted({monomial_degree(m) for m in H.terms})
        if degs and degs != [-1]:
            found = str(degs[0]) if len(degs) == 1 else \
                "mixed (%s)" % ", ".join(map(str, degs))
            report.notes.append("input degree is %s, not -1" % found)
        wide = ctx.widen(extra_low=abs(ctx.min_hbar) + 1)
        square = star(H, H, sys, wide)
        if not square.is_zero():
            series_witnesses(report, square)
    return report


def check_master_f(F: GradedSeries, Hplus: GradedSeries, Hminus: GradedSeries,
                   sys: OrbitSystem, ctx: TruncationContext) -> CheckReport:
    """Verify e^F <-H+  =  H-> e^F for a cobordism system.

    Both sides are computed with the star product and then projected to
    the space of series in p(+), q(-), h by dropping monomials that
    still contain q(+) or p(-) variables.
    """
    report = CheckReport("master-equation for the cobordism potential",
                         caps=_caps_dict(ctx))
    with timed(report):
        if reject_scalar_term(F, report):
            return report
        wide = ctx.widen(extra_low=ctx.max_p_degree + 2)
        eF = exp_series(F, sys, wide)
        lhs = project_out(star(eF, Hplus, sys, wide), sides=FILLING_KILL, sys=sys)
        rhs = project_out(star(Hminus, eF, sys, wide), sides=FILLING_KILL, sys=sys)
        diff = lhs - rhs
        if not diff.is_zero():
            series_witnesses(report, diff)
    return report
