"""Graded Weyl algebra of a contact problem.

Variables q_gamma, p_gamma per good closed orbit, with gradings
|q| = n-3+CZ, |p| = n-3-CZ, |h| = 2(n-3).  All variables super-commute
except p and q of the same orbit, where moving a p left past its q
produces the extra contraction term kappa*h.  Series are kept in
standard form (q-block left of p-block) via algebra.standard_form.

The star product enumerates contraction matchings directly; the tests
compare it against adjacent-transposition rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    KIND_H,
    KIND_P,
    KIND_Q,
    KIND_S,
    GradedSeries,
    GradedSymbol,
    Monomial,
    ONE,
    TruncationContext,
    add_terms,
    collect,
    format_monomial,
    hbar_exponent,
    standard_form,
    units_of,
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
        self.hbar = GradedSymbol("h", 2 * (n - 3), KIND_H, None, 0)
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

    def good_orbits(self) -> List[Orbit]:
        return [o for o in self.orbits if o.good]

    def one(self) -> GradedSeries:
        return GradedSeries.unit()

    def series_q(self, name: str, coeff=1) -> GradedSeries:
        return GradedSeries.generator(self.q[name], coeff)

    def series_p(self, name: str, coeff=1) -> GradedSeries:
        return GradedSeries.generator(self.p[name], coeff)

    def series_h(self, power: int = 1, coeff=1) -> GradedSeries:
        return GradedSeries({((self.hbar, power),): Fraction(coeff)}) if power \
            else GradedSeries.unit(coeff)

    def monomial(self, coeff, qs=(), ps=(), hpow: int = 0, ss=()) -> GradedSeries:
        """Convenience builder; qs/ps are orbit names, ss extra symbols."""
        entries = [(s, 1) for s in ss]
        entries += [(self.q[n_], 1) for n_ in qs]
        entries += [(self.p[n_], 1) for n_ in ps]
        if hpow:
            entries.append((self.hbar, hpow))
        return GradedSeries.from_word(entries, coeff)


def star(a: GradedSeries, b: GradedSeries, sys: OrbitSystem,
         ctx: TruncationContext) -> GradedSeries:
    """Associative star product with kappa*h contractions.

    For each pair of standard-form monomials, enumerate the matchings
    between p-units of the left factor and q-units of the right factor
    with equal orbit; every matched pair contributes kappa*h and the
    Koszul sign of physically moving the q-unit left to its p-unit.
    """
    acc: Dict[Monomial, Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            _star_monomials(m1, m2, c1 * c2, sys, acc)
    return collect(acc, ctx)


def _star_monomials(m1: Monomial, m2: Monomial, coeff: Fraction,
                    sys: OrbitSystem, acc: Dict[Monomial, Fraction]) -> None:
    u1, u2 = units_of(m1), units_of(m2)
    p_pos = [i for i, s in enumerate(u1) if s.kind == KIND_P]
    q_pos = [j for j, s in enumerate(u2) if s.kind == KIND_Q]
    # candidate matchings grouped by orbit
    by_orbit: Dict[str, Tuple[List[int], List[int]]] = {}
    for i in p_pos:
        by_orbit.setdefault(u1[i].orbit, ([], []))[0].append(i)
    for j in q_pos:
        if u2[j].orbit in by_orbit:
            by_orbit[u2[j].orbit][1].append(j)
    orbits = [o for o, (ps, qs) in by_orbit.items() if ps and qs]
    for matching in _iter_matchings(by_orbit, orbits):
        _apply_matching(u1, u2, hbar_exponent(m1) + hbar_exponent(m2),
                        matching, coeff, sys, acc)


def _iter_matchings(by_orbit, orbits, k: int = 0):
    """Yield lists of (p-index-in-u1, q-index-in-u2) pairs, all orbits."""
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


def _apply_matching(u1, u2, hpow, matching, coeff, sys, acc) -> None:
    """Contract the matched pairs, track the Koszul sign, normalize."""
    sign = 1
    alive1 = [True] * len(u1)
    alive2 = [True] * len(u2)
    # move each matched q-unit left to its p-unit; process leftmost q first
    for i, j in sorted(matching, key=lambda t: t[1]):
        par_q = u2[j].degree % 2
        if par_q:
            crossed = 0
            for jj in range(j):
                if alive2[jj] and u2[jj].degree % 2:
                    crossed += 1
            for ii in range(i + 1, len(u1)):
                if alive1[ii] and u1[ii].degree % 2:
                    crossed += 1
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


# ---------------------------------------------------------------------
# differential-operator actions
# ---------------------------------------------------------------------

def _derive_left(m: Monomial, sym: GradedSymbol) -> Optional[Tuple[int, int, Monomial]]:
    """Graded left derivative d/d(sym) of a monomial.

    Returns (sign, exponent, reduced monomial) or None.  The derivative
    enters from the left and crosses everything before sym.
    """
    prefix_par = 0
    for k, (s, e) in enumerate(m):
        if s == sym:
            sign = -1 if (sym.parity and prefix_par % 2) else 1
            reduced = (m[:k] + ((s, e - 1),) + m[k + 1:]) if e > 1 \
                else m[:k] + m[k + 1:]
            return sign, e, reduced
        prefix_par += s.degree * e
    return None


def _derive_right(m: Monomial, sym: GradedSymbol) -> Optional[Tuple[int, int, Monomial]]:
    """Graded right derivative; enters from the right of the word."""
    suffix_par = 0
    for k in range(len(m) - 1, -1, -1):
        s, e = m[k]
        if s == sym:
            sign = -1 if (sym.parity and suffix_par % 2) else 1
            reduced = (m[:k] + ((s, e - 1),) + m[k + 1:]) if e > 1 \
                else m[:k] + m[k + 1:]
            return sign, e, reduced
        suffix_par += s.degree * e
    return None


def act_right(F: GradedSeries, g: GradedSeries, sys: OrbitSystem,
              ctx: TruncationContext) -> GradedSeries:
    """F acting on g from the left as a differential operator.

    Each p_gamma of F is replaced by kappa*h times the graded left
    derivative in q_gamma; equals star(F, g) with leftover p-variables
    set to zero.
    """
    acc: Dict[Monomial, Fraction] = {}
    for mF, cF in F.terms.items():
        units, hpow = units_of(mF), hbar_exponent(mF)
        qpart = [(s, 1) for s in units if s.kind != KIND_P]
        punits = [s for s in units if s.kind == KIND_P]
        for mg, cg in g.terms.items():
            coeff = cF * cg
            work = [(coeff, mg, hpow)]
            dead = False
            for psym in reversed(punits):
                nxt = []
                for c0, m0, h0 in work:
                    d = _derive_left(m0, sys.q[psym.orbit])
                    if d is None:
                        continue
                    sgn, e, red = d
                    nxt.append((c0 * sgn * e * sys.kappa[psym.orbit], red, h0 + 1))
                work = nxt
                if not work:
                    dead = True
                    break
            if dead:
                continue
            for c0, m0, h0 in work:
                entries = list(qpart) + list(m0)
                if h0:
                    entries.append((sys.hbar, h0))
                res = standard_form(entries)
                if res is None:
                    continue
                sgn, mono = res
                acc[mono] = acc.get(mono, Fraction(0)) + c0 * sgn
    return collect(acc, ctx)


def act_left(g: GradedSeries, H: GradedSeries, sys: OrbitSystem,
             ctx: TruncationContext) -> GradedSeries:
    """H acting on g from the right: q_gamma of H becomes kappa*h times
    the graded right derivative in p_gamma; equals star(g, H) with
    leftover q-variables of H set to zero."""
    acc: Dict[Monomial, Fraction] = {}
    for mH, cH in H.terms.items():
        units, hpow = units_of(mH), hbar_exponent(mH)
        rest = [(s, 1) for s in units if s.kind != KIND_Q]
        qunits = [s for s in units if s.kind == KIND_Q]
        for mg, cg in g.terms.items():
            coeff = cH * cg
            work = [(coeff, mg, hpow)]
            dead = False
            for qsym in qunits:
                nxt = []
                for c0, m0, h0 in work:
                    d = _derive_right(m0, sys.p[qsym.orbit])
                    if d is None:
                        continue
                    sgn, e, red = d
                    nxt.append((c0 * sgn * e * sys.kappa[qsym.orbit], red, h0 + 1))
                work = nxt
                if not work:
                    dead = True
                    break
            if dead:
                continue
            for c0, m0, h0 in work:
                entries = list(m0) + list(rest)
                if h0:
                    entries.append((sys.hbar, h0))
                res = standard_form(entries)
                if res is None:
                    continue
                sgn, mono = res
                acc[mono] = acc.get(mono, Fraction(0)) + c0 * sgn
    return collect(acc, ctx)


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


def exp_series(F: GradedSeries, sys: OrbitSystem,
               ctx: TruncationContext) -> GradedSeries:
    """Truncated exponential sum_k F^(*k) / k!.

    Termination: every admissible term of F raises the p-degree, the
    hbar order, or the coefficient word length, or contains odd symbols
    (nilpotent), so powers eventually leave the truncation window.  A
    pure scalar term with hbar exponent <= 0 never leaves the window
    and is rejected.
    """
    for m in F.terms:
        if all(s.kind == KIND_H for s, _ in m) and hbar_exponent(m) <= 0:
            raise ExponentialError(
                "exponential of a series with scalar term %s does not truncate"
                % format_monomial(m))
    out = {ONE: Fraction(1)}
    power = GradedSeries.unit()
    bound = (ctx.max_p_degree + (ctx.max_hbar - ctx.min_hbar)
             + ctx.max_word_length + len(sys.q) + 8)
    k = 0
    while True:
        k += 1
        power = star(power, F, sys, ctx)
        if power.is_zero():
            break
        add_terms(out, power.terms, Fraction(1, factorial(k)))
        if k > bound:
            raise ExponentialError("exponential did not terminate within caps")
    return GradedSeries.from_terms(out)


# ---------------------------------------------------------------------
# master-equation checkers
# ---------------------------------------------------------------------

def _caps_dict(ctx: TruncationContext) -> dict:
    return {
        "max_p_degree": ctx.max_p_degree,
        "max_hbar": ctx.max_hbar,
        "min_hbar": ctx.min_hbar,
        "max_word_length": ctx.max_word_length,
    }


def check_master_h(H: GradedSeries, sys: OrbitSystem,
                   ctx: TruncationContext) -> CheckReport:
    """Verify H * H = 0 within the truncation window."""
    report = CheckReport("master-equation H*H = 0", caps=_caps_dict(ctx))
    with timed(report):
        for m in H.terms:
            if hbar_exponent(m) < -1:
                report.notes.append("input not in (1/h)W: %s" % format_monomial(m))
        deg = H.homogeneous_degree()
        if H and deg != -1:
            report.notes.append("input degree is %s, not -1" % (deg,))
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
        for m, c in F.terms.items():
            if all(s.kind == KIND_H for s, _ in m) and hbar_exponent(m) <= 0:
                report.add_witness(format_monomial(m), c)
                report.notes.append("pure scalar term with h exponent <= 0 rejected")
                return report
        wide = ctx.widen(extra_low=ctx.max_p_degree + 2)
        eF = exp_series(F, sys, wide)
        lhs = project_out(star(eF, Hplus, sys, wide), sides=FILLING_KILL, sys=sys)
        rhs = project_out(star(Hminus, eF, sys, wide), sides=FILLING_KILL, sys=sys)
        diff = lhs - rhs
        if not diff.is_zero():
            series_witnesses(report, diff)
    return report


def coefficient_boundary_operator(bnd: Dict[GradedSymbol, GradedSeries]):
    """Extend a degree -1 map on string symbols to monomials as an odd
    derivation over the coefficient block."""

    def apply(series: GradedSeries, ctx: TruncationContext) -> GradedSeries:
        acc: Dict[Monomial, Fraction] = {}
        for m, c in series.terms.items():
            par = 0
            for k, (s, e) in enumerate(m):
                if s.kind != KIND_S:
                    par += s.degree * e
                    continue
                img = bnd.get(s)
                if img is None or img.is_zero():
                    par += s.degree * e
                    continue
                # odd symbols only (e == 1) in the coefficient block
                sign = -1 if par % 2 else 1
                rest = m[:k] + m[k + 1:]
                for mi, ci in img.terms.items():
                    res = standard_form(list(mi) + list(rest))
                    if res is None:
                        continue
                    sgn, mono = res
                    acc[mono] = acc.get(mono, Fraction(0)) + c * ci * sign * sgn
                par += s.degree * e
        return collect(acc, ctx)

    return apply


def check_master_chain(H: GradedSeries, coeff_boundary,
                       sys: OrbitSystem, ctx: TruncationContext) -> CheckReport:
    """Verify dH + (1/2) H*H = 0 with a coefficient differential.

    coeff_boundary is either a mapping {string symbol: GradedSeries} or
    a callable (series, ctx) -> series already extended to monomials.
    """
    report = CheckReport("chain-level master equation dH + (1/2)H*H = 0",
                         caps=_caps_dict(ctx))
    with timed(report):
        if coeff_boundary is None:
            op = lambda s, c: GradedSeries.zero()
        elif callable(coeff_boundary):
            op = coeff_boundary
        else:
            op = coefficient_boundary_operator(coeff_boundary)
        wide = ctx.widen(extra_low=abs(ctx.min_hbar) + 1)
        lhs = op(H, wide) + star(H, H, sys, wide).scale(Fraction(1, 2))
        if not lhs.is_zero():
            series_witnesses(report, lhs)
    return report
