"""BV-infinity algebras on free graded-commutative algebras.

Operators are stored extensionally: values on the generator monomials
inside the truncation window, tabulated or computed on first read.  The
h-expansion D = (1/h) sum_k D^k h^k is read off the values, the
order <= k condition is checked on the Koszul brackets of the basis
words, and augmentations twist D into a constant-term-free operator
whose quadratic parts carry an involutive Lie bialgebra.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb, inf
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import (
    KIND_Q,
    Coeff,
    GradedSeries,
    GradedSymbol,
    Monomial,
    ONE,
    TruncationContext,
    add_terms,
    collect,
    derivation,
    format_monomial,
    hbar_exponent,
    hbar_symbol,
    merge_words,
    monomial_degree,
    mul,
    normalize,
    p_degree,
    q_degree,
    split_h,
)
from .linalg import Subspace, kernel_basis, rref
from .reports import CheckReport, PASS, timed
from .weyl import OrbitSystem, act_right_words

Vector = Dict[GradedSymbol, Coeff]
Tensor2 = Dict[Tuple[GradedSymbol, GradedSymbol], Coeff]


class BvError(ValueError):
    pass


def units(m: Monomial) -> int:
    """The number of units of an h-free word, its exponent sum."""
    return sum(e for _, e in m)


class FreeAlgebraSpec:
    """Free graded-commutative algebra S(V), with the h-free basis words
    of q-degree <= word_cap, or the listed `basis` (closed under
    sub-words); every sum on it is collected into its window `caps`:
    q-degree <= word_cap, h <= hbar_cap, no p or length cap, floor h^-64
    (values start at h^-1, and validate_bv applies D twice)."""

    def __init__(self, generators: Sequence[Tuple[str, int]],
                 word_cap: int = 4, hbar_cap: int = 4, n: int = 2,
                 symbols: Optional[Sequence[GradedSymbol]] = None,
                 basis: Optional[Sequence[Monomial]] = None):
        if symbols is not None:
            self.symbols = list(symbols)
        else:
            self.symbols = [GradedSymbol(name, deg, KIND_Q, None, i)
                            for i, (name, deg) in enumerate(generators)]
        self.n = n
        self.hbar = hbar_symbol(n)
        self.caps = TruncationContext(max_p_degree=inf, max_hbar=hbar_cap,
                                      min_hbar=-64, max_word_length=inf,
                                      max_q_degree=word_cap)
        self._basis = None if basis is None else sorted(basis, key=units)

    word_cap = property(lambda self: self.caps.max_q_degree)
    hbar_cap = property(lambda self: self.caps.max_hbar)

    @classmethod
    def of_q(cls, sys: OrbitSystem, word_cap: int, hbar_cap: int
             ) -> "FreeAlgebraSpec":
        """S(q), the free algebra on the q variables of an orbit system."""
        return cls([], word_cap, hbar_cap, sys.n, list(sys.q.values()))

    def symbol(self, name: str) -> GradedSymbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)

    def basis_monomials(self, max_len: Optional[int] = None) -> List[Monomial]:
        """The basis words of at most max_len units (default all); an
        enumerated basis, ordered by q-degree, then name, is built on the
        first call and kept.  Each call returns a new list, a prefix."""
        if self._basis is None:
            self._basis = self._enumerate()
        if max_len is None:
            return self._basis[:]
        return self._basis[:bisect_right(self._basis, max_len, key=units)]

    def _enumerate(self) -> List[Monomial]:
        cap = self.word_cap
        out: List[Monomial] = [ONE]
        for s in self.symbols:
            emax = 1 if s.parity else cap
            new = []
            for m in out:
                used = q_degree(m)
                for e in range(0, min(emax, cap - used) + 1):
                    new.append(m + ((s, e),) if e else m)
            out = new
        return sorted(out, key=lambda m: (q_degree(m), format_monomial(m)))

    def hpow(self, a: int) -> GradedSeries:
        if a == 0:
            return GradedSeries.unit()
        return GradedSeries({((self.hbar, a),): 1})


class LinearMap:
    """h-linear map on h-free monomials: a table, or a rule computing a
    word's value on its first read, kept for later reads in the given
    dict, shared with the rule, or not kept when the dict is None.
    _exp keeps e^phi once exp_map has built it."""

    def __init__(self, spec: FreeAlgebraSpec,
                 table: Optional[Dict[Monomial, GradedSeries]],
                 degree: int, rule: Optional[Callable] = None):
        self.spec = spec
        self._keep = table is not None
        self._values = {} if table is None else table if rule else dict(table)
        self.degree = degree
        self._rule = rule
        self._exp: Optional[LinearMap] = None

    @property
    def table(self) -> Dict[Monomial, GradedSeries]:
        """The values; with a rule, on every basis word in basis order
        (the rule stays for the words off the basis)."""
        if self._rule is None:
            return self._values
        return {m: self._word(m) for m in self.spec.basis_monomials()}

    def _word(self, w: Monomial) -> GradedSeries:
        v = self._values.get(w)
        if v is None:
            if q_degree(w) > self.spec.caps.max_q_degree:  # past every table
                raise BvError("value of %s outside the table"
                              % format_monomial(w))
            if self._rule is None:
                return GradedSeries.zero()
            v = self._rule(w)
            if self._keep:
                self._values[w] = v
        return v

    def value(self, m: Monomial) -> GradedSeries:
        h = hbar_exponent(m)  # the last unit's: m without it is h-free
        if not h:
            return self._word(m)
        return mul(self.spec.hpow(h), self._word(m[:-1]), self.spec.caps)

    def apply(self, series: GradedSeries) -> GradedSeries:
        out: Dict[Monomial, Coeff] = {}
        for m, c in series.terms.items():
            add_terms(out, self.value(m).terms, c)
        return collect(out, self.spec.caps)


class BvOperator(LinearMap):
    """Degree -1 operator with expansion D = (1/h) sum D^k h^k."""

    def __init__(self, spec: FreeAlgebraSpec, table: Dict[Monomial, GradedSeries],
                 rule: Optional[Callable] = None):
        super().__init__(spec, table, -1, rule)

    def component(self, k: int) -> LinearMap:
        """D^k, of degree -1 + 2(n-3)(1-k), as a rule-form map: the
        h^(k-1) coefficient of D's value on each read, not kept again."""
        def rule(m: Monomial) -> GradedSeries:
            return GradedSeries._of({mono if k == 1 else mono[:-1]: c
                                     for mono, c in self.value(m).terms.items()
                                     if hbar_exponent(mono) == k - 1})
        return LinearMap(self.spec, None, -1 + 2 * (self.spec.n - 3) * (1 - k),
                         rule)

    def max_component(self) -> int:
        return 1 + max([-1] + [hbar_exponent(mono)
                               for m in self.spec.basis_monomials()
                               for mono in self.value(m).terms])


def derivation_operator(spec: FreeAlgebraSpec,
                        images: Dict[str, GradedSeries]) -> BvOperator:
    """Odd derivation determined by generator images (a pure D^1),
    computed on a word's first read by algebra.derivation."""
    img = {spec.symbol(nm): v.terms for nm, v in images.items()}
    return BvOperator(spec, {},
                      lambda m: collect(derivation(m, img.get), spec.caps))


def validate_bv(D: BvOperator, report: Optional[CheckReport] = None
                ) -> CheckReport:
    """BV1 DD = 0, BV2 order of the components, BV3 D(1) = 0, all
    within caps, into `report` (default a new one); inconclusive when
    the window is too small.  A witness names its basis word."""
    spec = D.spec
    if report is None:
        report = CheckReport("BV operator axioms", caps={
            "word_cap": spec.word_cap, "hbar_cap": spec.hbar_cap})
    with timed(report):
        if not D.value(ONE).is_zero():
            report.add_witness("D(1)", repr(D.value(ONE)))
        reliable = reliable_cap(D)
        # every basis word must be reliable; the last (longest) may be
        # shorter than word_cap, when odd generators run out
        conclusive = units(spec.basis_monomials()[-1]) <= reliable
        for m in spec.basis_monomials(reliable):
            sq = D.apply(D.value(m))
            if not sq.is_zero():
                report.add_witness("DD(%s)" % format_monomial(m), repr(sq))
        for k in range(1, D.max_component() + 1):
            failing, concl = order_at_most(D.component(k), k)
            conclusive = conclusive and concl
            for w in failing:
                report.add_witness("component %d has order > %d (%s)"
                                   % (k, k, format_monomial(w)), "order")
        if report.status == PASS and not conclusive:
            report.mark_inconclusive("word_cap too small for a conclusive check")
    return report


def order_at_most(op: LinearMap, k: int) -> Tuple[List[Monomial], bool]:
    """(failing, conclusive): op has order <= k iff every [..[op, a_0],
    .., a_k] vanishes, a_i generators and [T, a](x) = T(a x) -
    (-1)^(|T||a|) a T(x); order <= -1 means op = 0.  failing lists the
    basis words of more than k units with a nonzero Koszul bracket.

    One pass over the basis, fewest units first, keeps the words w with
    a nonzero K(w) = op(w) - sum_u C(w, u) eps (w - u) K(u) over the
    kept proper sub-words u of w (of at most as many units as a kept
    word), C(w, u) = prod_t C(e_t, f_t) and eps the sign of (w - u) u =
    eps w times (-1)^(|op||w - u|).  word_cap < k + 1: ([], False).

    (i) K(w) = [..[op, u_1], .., u_j](1), u_i the units of w in order:
    unfold T(b x) = [T, b](x) + (-1)^(|T||b|) b T(x) over the units b,
    and T(w) sums, over the position sets S of w, (w - S) times T's
    commutator with the units of S at 1, signed eps; the C(w, u) sets of
    one u give equal terms.  (ii) Order <= k iff K = 0 above k units:
    such a K(w) is a commutator of a (k+1)-fold one, and by (i) a
    (k+1)-fold one at x sums terms +-(x - u) K(a_0..a_k u), commutators
    graded-commuting, or 0 if an odd a repeats: [[T, a], a](x) =
    T(a a x) - a a T(x) = 0.  The terms past the caps form an ideal for
    h-free factors, so this holds in the spec's window.
    """
    spec = op.spec
    if spec.word_cap < k + 1:
        return [], False
    kept: Dict[Monomial, GradedSeries] = {}
    failing: List[Monomial] = []
    reach = k  # the most units of a kept word
    for w in spec.basis_monomials():
        acc = dict(op.value(w).terms)
        subs = [((), 0)]  # (sub-word, units) of at most reach units
        for unit in w:
            s, e = unit
            subs += [(u + ((s, f) if f < e else unit,), n + f)
                     for u, n in subs if n < reach for f in
                     ((1,) if e == 1 else range(1, min(e, reach - n) + 1))]
        for u, _ in subs:
            if u in kept:
                rest, count = _divide(u, w)
                sign = merge_words(rest, u)[0] * count \
                    * (-1) ** (op.degree * monomial_degree(rest) % 2)
                for mu, cu in kept[u].terms.items():  # acc -= sign (w-u) K(u)
                    res = merge_words(rest, mu)
                    if res is not None:
                        acc[res[1]] = acc.get(res[1], 0) - sign * res[0] * cu
        kw = collect(acc, spec.caps)
        if kw:
            kept[w] = kw
            if units(w) > k:
                failing.append(w)
                reach = max(reach, units(w))
    return failing, True


def bv_bracket(D: BvOperator, a: GradedSeries, b: GradedSeries) -> GradedSeries:
    """[a,b]_D = (-1)^|a| (D(ab) - D(a)b - (-1)^|a| a D(b)) for
    homogeneous a."""
    if a.is_zero() or b.is_zero():
        return GradedSeries.zero()
    da = a.homogeneous_degree()
    if da is None:
        raise BvError("bracket needs homogeneous first argument")
    sgn = -1 if da % 2 else 1
    caps = D.spec.caps
    out = D.apply(mul(a, b, caps)) - mul(D.apply(a), b, caps) \
        - mul(a, D.apply(b), caps).scale(sgn)
    return out.scale(sgn)


# ---------------------------------------------------------------------
# morphisms and augmentations
# ---------------------------------------------------------------------

def exp_map(phi: LinearMap) -> LinearMap:
    """The exponential e^phi of a linear map on S(V), a map on phi.spec
    that computes a word's value on its first read.

    e^phi(v_1...v_k) is the sum, over the unordered set partitions of
    the k positions, of the product of phi on the blocks, with the
    Koszul sign of listing the blocks one after another; the empty
    product is the unit, so e^phi(1) = 1.

    Precondition: phi has degree 0 (it preserves parity).  Then each of
    the r!*prod(c_i!) (permutation, composition) pairs of the multinomial
    formula that lands on one partition into r blocks of sizes c_i
    carries the same signed product, and their weights 1/(r!*prod(c_i!))
    add up to 1.  A block value of the wrong parity raises BvError.

    The products are mul in spec.caps, like every other product on the
    spec, and a word past word_cap raises BvError by the window rule of
    LinearMap.  The map is built once and kept on phi, so
    every reader of e^phi shares one memo.
    """
    if phi._exp is None:
        memo: Dict[Monomial, GradedSeries] = {}
        phi._exp = LinearMap(phi.spec, memo, 0,
                             _exp_words(phi.table, phi.spec, memo))
    return phi._exp


def exp_morphism(phi: LinearMap, element: GradedSeries) -> GradedSeries:
    """e^phi(element), by exp_map."""
    return exp_map(phi).apply(element)


def _exp_words(table: Dict[Monomial, GradedSeries], spec: FreeAlgebraSpec,
               memo: Dict[Monomial, GradedSeries]
               ) -> Callable[[Monomial], GradedSeries]:
    """e^phi on h-free monomials within word_cap, phi the map of table
    on spec, each word computed once and kept in memo.

    The partition sum goes by the block B that holds the first unit of
    w: e^phi(w) = sum_B eps(B, w - B) phi(B) e^phi(w - B), eps the Koszul
    sign of listing B first.  B ranges over the words where phi is
    nonzero that start with the first symbol of w and divide w; one term
    stands for the C(e - 1, f - 1) * prod_t C(e_t, f_t) position blocks
    of that word, f of the e copies of the first symbol and f_t of the
    e_t of each other symbol t.  A zero map costs nothing past 1.  A
    value phi(B) of the wrong parity raises BvError.  The returned
    function is _exp_word bound to its arguments, not a closure, and it
    holds phi's blocks and spec, not a LinearMap, so memo is freed with
    the last reference to the function, even when that reference is the
    map's own.
    """
    blocks: Dict[GradedSymbol, List[Tuple[Monomial, GradedSeries]]] = {}
    for b, v in table.items():
        if b and v:
            blocks.setdefault(b[0][0], []).append((b, v))
    memo[ONE] = GradedSeries.unit()
    return partial(_exp_word, spec, blocks, memo)


def _exp_word(spec, blocks, memo, w: Monomial) -> GradedSeries:
    """e^phi(w), and every word w - B - B' - ... it needs, without
    recursion.  The words are first found depth first, each block's
    parity checked as it is met, in the order a recursion would meet
    them; then they are evaluated shortest first, so that each w - B,
    shorter than w, is in memo when w is."""
    if w in memo:
        return memo[w]
    terms: Dict[Monomial, list] = {w: []}  # word -> [(phi(B), w - B, sign)]
    stack = [(w, _peel(blocks, w))]
    while stack:
        u, peel = stack[-1]
        step = next(peel, None)
        if step is None:
            stack.pop()
            continue
        b, v, rest, count = step
        _check_parity(b, v)
        terms[u].append((v, rest, merge_words(b, rest)[0] * count))
        if rest not in memo and rest not in terms:
            terms[rest] = []
            stack.append((rest, _peel(blocks, rest)))
    for u in sorted(terms, key=q_degree):
        acc: Dict[Monomial, Coeff] = {}
        for v, rest, sign in terms[u]:
            add_terms(acc, mul(v, memo[rest], spec.caps).terms, sign)
        memo[u] = GradedSeries.from_terms(acc)
    return memo[w]


def _peel(blocks, w: Monomial):
    """(B, phi(B), w - B, number of position blocks) for each block B of
    phi that starts with the first symbol of w and divides w: the first
    of its e units in w is in B, so B's f of them take C(e - 1, f - 1) =
    C(e, f) f / e blocks."""
    for b, v in blocks.get(w[0][0], ()):
        part = _divide(b, w)
        if part is not None:
            yield b, v, part[0], part[1] * b[0][1] // w[0][1]


def _divide(u: Monomial, w: Monomial) -> Optional[Tuple[Monomial, int]]:
    """(w - u, prod_t C(e_t, f_t)), the number of sets of positions of w
    that hold the units of u, when u divides w, else None."""
    left, count = dict(w), 1
    for t, f in u:
        e = left.get(t, 0)
        if e < f:
            return None
        count *= comb(e, f)
        left[t] = e - f
    return tuple((t, e) for t, e in left.items() if e), count


def _check_parity(b: Monomial, v: GradedSeries) -> None:
    if any(monomial_degree(mono) % 2 != monomial_degree(b) % 2
           for mono in v.terms):
        raise BvError("map does not preserve parity, as e^phi needs: %s -> %r"
                      % (format_monomial(b), v))


class Augmentation(LinearMap):
    """Morphism to the trivial algebra: values in K[[h]], vanishing on 1
    and on words longer than the h-order allows."""

    def __init__(self, spec: FreeAlgebraSpec, table: Dict[Monomial, GradedSeries]):
        for m, v in table.items():
            for mono in v.terms:
                rest, h = split_h(mono)
                if rest:
                    raise BvError("augmentation value is not scalar")
                if h + 1 < q_degree(m):
                    raise BvError("component beta^%d nonzero on a word of "
                                  "length %d" % (h + 1, q_degree(m)))
        if table.get(ONE):
            raise BvError("augmentation does not kill the unit")
        super().__init__(spec, table, 0)

    def exp(self, element: GradedSeries) -> GradedSeries:
        """e^beta into K[[h]], truncated at hbar_cap."""
        return exp_morphism(self, element)

    @cached_property
    def _phi(self) -> Tuple[LinearMap, LinearMap]:
        """(Phi, Phi^-1) of twist_by_augmentation, built on first use."""
        return _phi_maps(self.spec, self)


def reliable_cap(D: LinearMap) -> int:
    """word_cap less the largest q-degree increase across D's values,
    floored at 0: values on longer words may be cut by the truncation.

    Only the words of q-degree below word_cap are read, and that is
    exact for a map whose values lie in the spec's window, as every map
    this module builds does: collect and mul in spec.caps drop every
    term of q-degree above word_cap.  On a word of q-degree word_cap no
    term of its value then has a larger q-degree, so its increase is at
    most 0, which the floor at 0 already counts.  So D is never
    evaluated on the longest words here.
    """
    spec = D.spec
    if spec.word_cap == inf:  # an unbounded window cuts no value
        return inf
    return spec.word_cap - max([0] + [
        q_degree(mono) - q_degree(m)
        for m in spec.basis_monomials(spec.word_cap - 1)
        for mono in D.value(m).terms])


# ---------------------------------------------------------------------
# twisting by an augmentation
# ---------------------------------------------------------------------

def twist_by_augmentation(D: BvOperator, beta: Augmentation,
                          validate: bool = True
                          ) -> Tuple[LinearMap, LinearMap, BvOperator]:
    """Build Phi, its inverse, and the twisted operator Phi D Phi^(-1).

    Phi = (e^beta (x) id) Delta and its inverse come from _phi_maps.
    All three compute a word on its first read.  With validate, on the
    words D's growth leaves reliable, read here in basis order, beta
    must be an augmentation, e^beta D(m) = 0, and the twisted operator
    must have no constant term; the first word that fails raises.
    e^beta truncates at hbar_cap, which loses nothing reliable: its h^c
    coefficient for c > hbar_cap takes in the h^(>hbar_cap) part of
    D(m), which D's values never hold.

    D must be on beta.spec, the spec object itself.  Phi and Phi^(-1)
    depend on beta alone, not on D, so they are built once and kept on
    beta: a later twist by the same beta returns the same two maps.
    """
    spec = D.spec
    if spec is not beta.spec:
        raise BvError("the operator and the augmentation are on different "
                      "specs")
    words = spec.basis_monomials(reliable_cap(D)) if validate else ()
    for m in words:
        val = beta.exp(D.value(m))
        if not val.is_zero():
            # the message names the word as a one-entry witness list
            raise BvError("not an augmentation: %s"
                          % [("e^beta D(%s)" % format_monomial(m), repr(val))])
    Phi, PhiInv = beta._phi
    Dbeta = BvOperator(spec, {},
                       lambda m: Phi.apply(D.apply(PhiInv.value(m))))
    for m in words:
        for mono, c in Dbeta.value(m).terms.items():
            rest, _h = split_h(mono)
            if not rest:
                raise BvError("twisted operator has constant term %s on %s"
                              % (c, format_monomial(m)))
    return Phi, PhiInv, Dbeta


def _phi_maps(spec: FreeAlgebraSpec, beta: Augmentation
              ) -> Tuple[LinearMap, LinearMap]:
    """Phi = e^(beta + iota) and Phi^-1 = e^(-beta + iota) on the basis
    monomials of spec, iota the inclusion of the generators.

    Phi(v_1..v_k) = (e^beta (x) id) Delta sums, once per subset of the
    positions, e^beta of the subset times the word of the rest, with the
    Koszul sign of moving the subset to the front.  In the partition sum
    of e^(beta + iota) the rest is the singleton blocks that pick iota.
    e^(-beta) is the convolution inverse of e^beta, so the second map
    inverts the first.  A block of beta + iota of the wrong parity
    raises here, the first in basis order, as building every word would.
    """
    maps = []
    for sign in (1, -1):
        table = {((s, 1),): GradedSeries({((s, 1),): 1})
                 for s in spec.symbols}
        for m, v in beta.table.items():
            table[m] = table.get(m, GradedSeries.zero()) + v.scale(sign)
        if sign == 1:
            for b in spec.basis_monomials():
                if b in table:
                    _check_parity(b, table[b])
        maps.append(exp_map(LinearMap(spec, table, 0)))
    return maps[0], maps[1]


# ---------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------

@dataclass
class LieBialgebraData:
    basis: List[GradedSymbol]
    dlin: Dict[GradedSymbol, Vector]
    delta: Dict[GradedSymbol, Tensor2]
    mu: Dict[Tuple[GradedSymbol, GradedSymbol], Vector]
    bidegree: Tuple[int, int]


def linearize(Dbeta: BvOperator) -> LieBialgebraData:
    """Extract the linear differential, the cobracket, and the bracket
    from a constant-term-free twisted operator."""
    spec = Dbeta.spec
    basis = list(spec.symbols)
    dlin: Dict[GradedSymbol, Vector] = {}
    delta: Dict[GradedSymbol, Tensor2] = {}
    for v in basis:
        mono = ((v, 1),)
        val = Dbeta.value(mono)
        lin: Vector = {}
        quad: Tensor2 = {}
        for m, c in val.terms.items():
            rest, h = split_h(m)
            if h != 0:
                continue
            if q_degree(rest) == 1:
                add_terms(lin, {rest[0][0]: c})
            elif q_degree(rest) == 2:
                add_terms(quad, cobracket_pairs(rest), c)
        dlin[v] = lin
        delta[v] = quad
    mu: Dict[Tuple[GradedSymbol, GradedSymbol], Vector] = {}
    for v1 in basis:
        for v2 in basis:
            res = normalize([(v1, 1), (v2, 1)])
            if res is None:
                mu[(v1, v2)] = {}
                continue
            sgn, mono = res
            val = Dbeta.value(mono)
            vec: Vector = {}
            pref = -1 if v1.degree % 2 else 1
            for m, c in val.terms.items():
                rest, h = split_h(m)
                if h == 1 and q_degree(rest) == 1:
                    add_terms(vec, {rest[0][0]: c * sgn * pref})
            mu[(v1, v2)] = vec
    n = spec.n
    return LieBialgebraData(basis, dlin, delta, mu, (-1, -2 * (n - 3) - 1))


def cobracket_pairs(rest: Monomial) -> Tensor2:
    """(iota (x) 1) c on a quadratic h-free monomial v1 v2, where
    c(v1 v2) = v1 (x) v2 + (-1)^(|v1||v2|) v2 (x) v1 and
    iota(w) = (-1)^|w| w; a square v^2 gives 2 (iota v) (x) v."""
    if len(rest) == 2:
        (u, _), (w, _) = rest
        pairs = [((u, w), 1), ((w, u), -1 if (u.parity and w.parity) else 1)]
    else:
        u = rest[0][0]
        pairs = [((u, u), 2)]
    return {(a, b): (-f if a.degree % 2 else f) for (a, b), f in pairs}


def homology(dlin: Dict[GradedSymbol, Vector], basis: List[GradedSymbol]):
    """Exact kernel/image computation for the linear differential.

    Returns {degree: (dimension, [representative vectors])}; raises if
    the differential does not square to zero.
    """
    idx = {s: i for i, s in enumerate(basis)}
    nb = len(basis)

    def apply(vec: List[Coeff]) -> List[Coeff]:
        out = [0] * nb
        for s, c in zip(basis, vec):
            if not c:
                continue
            for t, x in dlin.get(s, {}).items():
                out[idx[t]] += c * x
        return out

    for s in basis:
        v0 = [int(i == idx[s]) for i in range(nb)]
        if any(apply(apply(v0))):
            raise BvError("differential does not square to zero")
    out = {}
    for d in sorted({s.degree for s in basis}):
        dom = [s for s in basis if s.degree == d]
        above = [s for s in basis if s.degree == d + 1]
        rows = []
        for s in dom:
            img = dlin.get(s, {})
            rows.append([img.get(t, 0)
                         for t in basis if t.degree == d - 1])
        kern = kernel_basis([list(col) for col in zip(*rows)], len(dom))
        img_rows = []
        for s in above:
            img = dlin.get(s, {})
            img_rows.append([img.get(t, 0) for t in dom])
        sub = Subspace(img_rows, len(dom))
        reps = []
        for v in kern:
            red = sub.reduce(v)
            if any(red):
                reps.append(red)
        basis_mat = rref(reps)[0]
        reps = [dict((dom[i], r[i]) for i in range(len(dom)) if r[i])
                for r in basis_mat]
        out[d] = (len(basis_mat), reps)
    return out


# ---------------------------------------------------------------------
# Lie bialgebra axioms
# ---------------------------------------------------------------------

class BialgebraAxioms:
    """The six axioms of an involutive Lie bialgebra of bidegree (d1, d2).

    bracket(u, v) is a vector {w: c} and cobracket(u) a 2-tensor
    {(u1, u2): c} on basis elements u, v of degree degree(u); both are
    extended linearly to the sparse vectors and tensors (keys are tuples
    of basis elements) the axioms are asked about.  The tau and rho
    signs of each axiom come from the degrees shifted by d1 or d2.  With
    a boundary ({u: d(u)} over `basis`) an axiom holds when its defect
    lies in im(d) in some tensor slot; without one, when it is zero.
    Each axiom method returns whether the axiom holds.
    """

    def __init__(self, bracket: Callable, cobracket: Callable,
                 degree: Callable, d1: int, d2: int,
                 basis: Sequence = (), boundary: Optional[Dict] = None):
        self.bracket, self.cobracket, self.degree = bracket, cobracket, degree
        self.d1, self.d2 = d1, d2
        self.basis = list(basis)
        self.idx = {s: i for i, s in enumerate(self.basis)}
        img = []
        for s in self.basis:
            row = [0] * len(self.basis)
            for t, c in (boundary or {}).get(s, {}).items():
                row[self.idx[t]] = c
            if any(row):
                img.append(row)
        self.image = Subspace(img, len(self.basis))
        self.has_boundary = self.image.dim > 0

    @classmethod
    def of_data(cls, data: LieBialgebraData, d1: int, d2: int
                ) -> "BialgebraAxioms":
        return cls(lambda u, v: data.mu.get((u, v), {}),
                   lambda u: data.delta.get(u, {}),
                   lambda u: u.degree, d1, d2, data.basis, data.dlin)

    # -- the axioms -------------------------------------------------
    def co_antisymmetry(self, dv: Tensor2) -> bool:
        """delta(v) + tau delta(v) = 0, given dv = delta(v)."""
        return self.tensor_is_zero(add_terms(dict(dv), self._tau(self.d1, dv)))

    def co_jacobi(self, dv: Tensor2) -> bool:
        """(1 + rho + rho^2)(delta (x) 1) delta(v) = 0."""
        t = {}
        for (u, v), c in dv.items():
            add_terms(t, {(a, b, v): x for (a, b), x
                          in self.cobracket(u).items()}, c)
        return self.tensor_is_zero(self._cyclic_sum(self.d1, t))

    def involutivity(self, dv: Tensor2) -> bool:
        """mu delta(v) = 0."""
        return self.vec_is_zero(self._mu(dv))

    def antisymmetry(self, va: Vector, vb: Vector) -> bool:
        """mu(a (x) b) + mu tau(a (x) b) = 0."""
        t = _outer(va, vb)
        return self.vec_is_zero(
            add_terms(self._mu(t), self._mu(self._tau(self.d2, t))))

    def jacobi(self, va: Vector, vb: Vector, vc: Vector) -> bool:
        """mu (mu (x) 1)(1 + rho + rho^2)(a (x) b (x) c) = 0."""
        t = {(a, b, c): x * y * z for a, x in va.items()
             for b, y in vb.items() for c, z in vc.items()}
        out: Vector = {}
        for (u, v, w), c in self._cyclic_sum(self.d2, t).items():
            for s, x in self.bracket(u, v).items():
                add_terms(out, self.bracket(s, w), c * x)
        return self.vec_is_zero(out)

    def drinfeld(self, va: Vector, vb: Vector) -> bool:
        """delta[a, b] = [delta a, b] + [a, delta b], the terms that move
        a past b or b past a signed by (-1)^(|a||b| + |a| + |b|)."""
        br, deg = self.bracket, self.degree
        lhs = self.delta(self._mu(_outer(va, vb)))
        da = {a: self.cobracket(a) for a in va}
        db = {b: self.cobracket(b) for b in vb}
        rhs: Tensor2 = {}
        for a, ca in va.items():
            for b, cb in vb.items():
                c0 = ca * cb
                sgn = -1 if (deg(a) * deg(b) + deg(a) + deg(b)) % 2 else 1
                for (a1, a2), x in da[a].items():
                    add_terms(rhs, {(a1, s): y for s, y in br(a2, b).items()},
                              c0 * x)
                    add_terms(rhs, {(s, a2): y for s, y in br(b, a1).items()},
                              c0 * x * sgn)
                for (b1, b2), x in db[b].items():
                    add_terms(rhs, {(s, b2): y for s, y in br(a, b1).items()},
                              c0 * x)
                    add_terms(rhs, {(b1, s): y for s, y in br(b2, a).items()},
                              c0 * x * sgn)
        return self.tensor_is_zero(add_terms(lhs, rhs, -1))

    # -- linear extensions and signs --------------------------------
    def delta(self, vec: Vector) -> Tensor2:
        """The cobracket of a vector."""
        out: Tensor2 = {}
        for s, c in vec.items():
            add_terms(out, self.cobracket(s), c)
        return out

    def _mu(self, t: Tensor2) -> Vector:
        """The bracket on a 2-tensor."""
        out: Vector = {}
        for (u, v), c in t.items():
            add_terms(out, self.bracket(u, v), c)
        return out

    def _tau(self, d: int, t: Tensor2) -> Tensor2:
        deg = self.degree
        return {(v, u): -c if ((deg(u) + d) * (deg(v) + d)) % 2 else c
                for (u, v), c in t.items()}

    def _rho(self, d: int, t):
        deg = self.degree
        return {(w, u, v): -c if ((deg(u) + deg(v)) * (deg(w) + d)) % 2 else c
                for (u, v, w), c in t.items()}

    def _cyclic_sum(self, d: int, t):
        """t + rho(t) + rho^2(t) on a 3-tensor."""
        r = self._rho(d, t)
        return add_terms(add_terms(dict(t), r), self._rho(d, r))

    # -- quotient by boundaries, slot-wise --------------------------
    def vec_is_zero(self, vec: Vector) -> bool:
        return self.tensor_is_zero({(s,): c for s, c in vec.items()})

    def tensor_is_zero(self, t) -> bool:
        """Whether a tensor of any arity (keys are basis-element tuples)
        lies in the sum of im(d) (x) V (x) ... and its slot permutations.

        image.reduce projects V onto a complement of im(d) with kernel
        exactly im(d); applied in every slot it is the tensor power of
        that projection, whose kernel is exactly that sum.
        """
        if self.has_boundary:
            for slot in range(len(next(iter(t), ()))):
                t = self._reduce_slot(t, slot)
        return not any(t.values())

    def _reduce_slot(self, t, slot: int):
        n = len(self.basis)
        fibres: Dict[tuple, List[Coeff]] = {}
        for key, c in t.items():
            rest = key[:slot] + key[slot + 1:]
            fibres.setdefault(rest, [0] * n)[self.idx[key[slot]]] += c
        out = {}
        for rest, vec in fibres.items():
            for i, x in enumerate(self.image.reduce(vec)):
                if x:
                    out[rest[:slot] + (self.basis[i],) + rest[slot:]] = x
        return out


def _outer(va: Vector, vb: Vector) -> Tensor2:
    return {(a, b): ca * cb for a, ca in va.items() for b, cb in vb.items()}


def check_lie_bialgebra(data: LieBialgebraData) -> CheckReport:
    """Co-Lie, Lie, Drinfeld compatibility and involutivity at the data's
    bidegree, verified on homology representatives with the tau/rho sign
    rules."""
    d1, d2 = data.bidegree
    ax = BialgebraAxioms.of_data(data, d1, d2)
    report = CheckReport("involutive Lie bialgebra axioms, bidegree (%d, %d)"
                         % (d1, d2))
    with timed(report):
        if ax.has_boundary:
            hom = homology(data.dlin, data.basis)
            reps = [v for d in hom for v in hom[d][1]]
        else:
            reps = [{s: 1} for s in data.basis]

        # degree checks of the structure maps
        for s in data.basis:
            for (u, v), c in data.delta.get(s, {}).items():
                if u.degree + v.degree != s.degree + d1:
                    report.add_witness("delta degree on %s" % s.name, c)
        for (u, v), vec in data.mu.items():
            for s, c in vec.items():
                if s.degree != u.degree + v.degree + d2:
                    report.add_witness("mu degree on (%s,%s)" % (u.name, v.name), c)

        for v in reps:
            dv = ax.delta(v)
            names = repr(sorted(s.name for s in v))
            if not ax.co_antisymmetry(dv):
                report.add_witness("co-antisymmetry", names)
            if not ax.co_jacobi(dv):
                report.add_witness("co-Jacobi", names)
            if not ax.involutivity(dv):
                report.add_witness("involutivity", names)
        for va in reps:
            for vb in reps:
                if not ax.antisymmetry(va, vb):
                    report.add_witness("antisymmetry", "pair")
        # rotations of a triple share its verdict: rho^3 = 1 and the
        # representatives are homogeneous
        verdicts: Dict[Tuple[int, int, int], bool] = {}
        for i, j, k in itertools.product(range(len(reps)), repeat=3):
            orbit = min((i, j, k), (j, k, i), (k, i, j))
            ok = verdicts.get(orbit)
            if ok is None:
                ok = verdicts[orbit] = ax.jacobi(reps[i], reps[j], reps[k])
            if not ok:
                report.add_witness("Jacobi", "triple")
        for va in reps:
            for vb in reps:
                if not ax.drinfeld(va, vb):
                    report.add_witness("Drinfeld compatibility", "pair")
        if (d1 - d2) % 2:
            report.notes.append(
                "d1, d2 have different parity: involutivity is automatic "
                "in degrees = d1 mod 2")
    return report


def bv_from_hamiltonian(sys: OrbitSystem, H: GradedSeries,
                        spec: FreeAlgebraSpec) -> BvOperator:
    """The differential operator of a symplectization Hamiltonian acting
    on spec, the polynomial algebra in the q variables of sys
    (FreeAlgebraSpec.of_q): the rule-form BvOperator whose value on a
    basis word m is act_right(H, m) in spec.caps, computed on the
    word's first read and kept, with H read into weyl records once for
    the operator (weyl.act_right_words).

    The action of a term of H carries h to the power of its h exponent
    plus its p-degree, as every p contracts.  Only when that falls below
    h^-1 for some term can a word's value fall below the window; then
    every basis word is read here, in basis order, so that the first
    such word raises its TruncationUnderflow, as a table built up front
    would, whatever order later readers take.
    """
    wide = TruncationContext(max_p_degree=inf, max_hbar=spec.hbar_cap,
                             min_hbar=-1, max_word_length=inf)
    act = act_right_words(H, sys, wide)
    D = BvOperator(spec, {}, lambda m: collect(act(m).terms, spec.caps))
    if any(hbar_exponent(t) + p_degree(t) < wide.min_hbar for t in H.terms):
        for m in spec.basis_monomials():
            D.value(m)
    return D
