"""BV-infinity algebras on free graded-commutative algebras.

Operators are stored extensionally: a table of values on the generator
monomials inside the truncation window.  The h-expansion
D = (1/h) sum_k D^k h^k is recovered from the table, the order <= k
condition is checked by the inductive graded-commutator criterion, and
augmentations twist D into a constant-term-free operator whose quadratic
parts carry an involutive Lie bialgebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import (
    KIND_H,
    KIND_Q,
    GradedSeries,
    GradedSymbol,
    Monomial,
    ONE,
    TruncationContext,
    add_terms,
    format_monomial,
    hbar_exponent,
    koszul_sign,
    monomial_degree,
    mul,
    normalize,
    q_degree,
    split_h,
    units_of,
)
from .linalg import Subspace, kernel_basis, rref
from .reports import CheckReport, PASS, timed
from .weyl import OrbitSystem, act_right

Vector = Dict[GradedSymbol, Fraction]
Tensor2 = Dict[Tuple[GradedSymbol, GradedSymbol], Fraction]


class BvError(ValueError):
    pass


class FreeAlgebraSpec:
    """Free graded-commutative algebra S(V) with truncation caps."""

    def __init__(self, generators: Sequence[Tuple[str, int]],
                 word_cap: int = 4, hbar_cap: int = 4, n: int = 2,
                 symbols: Optional[Sequence[GradedSymbol]] = None):
        if symbols is not None:
            self.symbols = list(symbols)
        else:
            self.symbols = [GradedSymbol(name, deg, KIND_Q, None, i)
                            for i, (name, deg) in enumerate(generators)]
        self.n = n
        self.hbar = GradedSymbol("h", 2 * (n - 3), KIND_H, None, 0)
        self.word_cap = word_cap
        self.hbar_cap = hbar_cap

    def truncate(self, series: GradedSeries) -> GradedSeries:
        return GradedSeries.from_terms(
            {m: c for m, c in series.terms.items()
             if q_degree(m) <= self.word_cap
             and hbar_exponent(m) <= self.hbar_cap})

    def mul(self, a: GradedSeries, b: GradedSeries) -> GradedSeries:
        return self.truncate(mul(a, b, _WIDE))

    def generator(self, name: str) -> GradedSeries:
        return GradedSeries.generator(self.symbol(name))

    def symbol(self, name: str) -> GradedSymbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)

    def basis_monomials(self, max_len: Optional[int] = None) -> List[Monomial]:
        """All h-free monomials with total exponent within the cap."""
        cap = self.word_cap if max_len is None else max_len
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

    def hpow(self, a: int, coeff=1) -> GradedSeries:
        if a == 0:
            return GradedSeries.unit(coeff)
        return GradedSeries({((self.hbar, a),): Fraction(coeff)})


_WIDE = TruncationContext(max_p_degree=64, max_hbar=64, min_hbar=-64,
                          max_word_length=64)


class LinearMap:
    """h-linear map stored on h-free monomials."""

    def __init__(self, spec: FreeAlgebraSpec, table: Dict[Monomial, GradedSeries],
                 degree: int):
        self.spec = spec
        self.table = dict(table)
        self.degree = degree

    def value(self, m: Monomial) -> GradedSeries:
        rest, h = split_h(m)
        v = self.table.get(rest)
        if v is None:
            if q_degree(rest) > self.spec.word_cap:
                raise BvError("value of %s outside the table"
                              % format_monomial(rest))
            v = GradedSeries.zero()
        if h == 0:
            return v
        return self.spec.truncate(mul(self.spec.hpow(h), v, _WIDE))

    def apply(self, series: GradedSeries) -> GradedSeries:
        out: Dict[Monomial, Fraction] = {}
        for m, c in series.terms.items():
            add_terms(out, self.value(m).terms, c)
        return self.spec.truncate(GradedSeries.from_terms(out))


class BvOperator(LinearMap):
    """Degree -1 operator with expansion D = (1/h) sum D^k h^k."""

    def __init__(self, spec: FreeAlgebraSpec, table: Dict[Monomial, GradedSeries]):
        super().__init__(spec, table, -1)

    def component(self, k: int) -> Dict[Monomial, GradedSeries]:
        """D^k as an h-free table: the h^(k-1) coefficient of each value."""
        out = {}
        for m, v in self.table.items():
            acc: Dict[Monomial, Fraction] = {}
            for mono, c in v.terms.items():
                rest, h = split_h(mono)
                if h == k - 1:
                    acc[rest] = acc.get(rest, Fraction(0)) + c
            out[m] = GradedSeries(acc)
        return out

    def max_component(self) -> int:
        best = 0
        for v in self.table.values():
            for mono in v.terms:
                best = max(best, hbar_exponent(mono) + 1)
        return best


def operator_from_callable(spec: FreeAlgebraSpec, fn: Callable[[Monomial], GradedSeries]
                           ) -> Dict[Monomial, GradedSeries]:
    return {m: spec.truncate(fn(m)) for m in spec.basis_monomials()}


def derivation_operator(spec: FreeAlgebraSpec,
                        images: Dict[str, GradedSeries]) -> BvOperator:
    """Odd derivation determined by generator images (a pure D^1)."""
    img = {spec.symbol(nm): v for nm, v in images.items()}

    def on_monomial(m: Monomial) -> GradedSeries:
        out: Dict[Monomial, Fraction] = {}
        units = units_of(m)
        for k, s in enumerate(units):
            v = img.get(s)
            if v is None or v.is_zero():
                continue
            par = sum(u.degree for u in units[:k]) % 2
            sign = -1 if par else 1
            rest = units[:k] + units[k + 1:]
            restm = GradedSeries.from_word([(u, 1) for u in rest])
            add_terms(out, mul(v, restm, _WIDE).terms, sign)
        return GradedSeries.from_terms(out)

    return BvOperator(spec, operator_from_callable(spec, on_monomial))


def validate_bv(D: BvOperator, name: str = "BV operator") -> CheckReport:
    """BV1 DD = 0, BV2 order of the components, BV3 D(1) = 0, all
    within caps; inconclusive when the window is too small."""
    spec = D.spec
    report = CheckReport("%s axioms" % name,
                         caps={"word_cap": spec.word_cap, "hbar_cap": spec.hbar_cap})
    with timed(report):
        if not D.value(ONE).is_zero():
            report.add_witness("D(1)", repr(D.value(ONE)))
        growth = operator_growth(D)
        conclusive = True
        for m in D.table:
            if q_degree(m) + growth > spec.word_cap:
                conclusive = False
                continue
            sq = D.apply(D.value(m))
            if not sq.is_zero():
                report.add_witness("DD(%s)" % format_monomial(m), repr(sq))
        for k in range(1, D.max_component() + 1):
            comp = D.component(k)
            deg = -1 + 2 * (spec.n - 3) * (1 - k)
            ok, concl = order_at_most(LinearMap(spec, comp, deg), k)
            conclusive = conclusive and concl
            if concl and not ok:
                report.add_witness("component %d has order > %d" % (k, k), "order")
        if report.status == PASS and not conclusive:
            report.mark_inconclusive("word_cap too small for a conclusive check")
    return report


def order_at_most(op: LinearMap, k: int, domain_cap: Optional[int] = None) -> Tuple[bool, bool]:
    """Inductive differential-operator criterion with Koszul signs.

    op has order <= k iff for every generator a the graded commutator
    x -> op(a x) - (-1)^(|op||a|) a op(x) has order <= k-1; order <= -1
    means the zero map.  Left multiplications are the order-zero
    operators of the graded setting.  Returns (holds, conclusive).
    """
    spec = op.spec
    if domain_cap is None:
        domain_cap = spec.word_cap
    if k < 0:
        return all(v.is_zero() for m, v in op.table.items()
                   if q_degree(m) <= domain_cap), True
    if spec.word_cap < k + 1:
        return True, False
    conclusive = domain_cap >= 1
    for a in spec.symbols:
        table: Dict[Monomial, GradedSeries] = {}
        gen = GradedSeries.generator(a)
        sign = -1 if (op.degree % 2) and (a.degree % 2) else 1
        for x in spec.basis_monomials():
            if q_degree(x) + 1 > domain_cap:
                continue
            ax = mul(gen, GradedSeries({x: Fraction(1)}), _WIDE)
            table[x] = op.apply(ax) - \
                spec.truncate(mul(gen, op.value(x), _WIDE)).scale(sign)
        sub = LinearMap(spec, table, op.degree + a.degree)
        ok, concl = order_at_most(sub, k - 1, domain_cap - 1)
        conclusive = conclusive and concl
        if not ok:
            return False, conclusive
    return True, conclusive


def bv_bracket(D: BvOperator, a: GradedSeries, b: GradedSeries) -> GradedSeries:
    """[a,b]_D = (-1)^|a| (D(ab) - D(a)b - (-1)^|a| a D(b)) for
    homogeneous a."""
    if a.is_zero() or b.is_zero():
        return GradedSeries.zero()
    da = a.homogeneous_degree()
    if da is None:
        raise BvError("bracket needs homogeneous first argument")
    spec = D.spec
    sgn = -1 if da % 2 else 1
    ab = spec.mul(a, b)
    out = D.apply(ab) - spec.mul(D.apply(a), b) - spec.mul(a, D.apply(b)).scale(sgn)
    return out.scale(sgn)


# ---------------------------------------------------------------------
# morphisms and augmentations
# ---------------------------------------------------------------------

def _set_partitions(k: int):
    """Unordered set partitions of range(k), each block ascending and
    the blocks ordered by their first element."""
    if k == 0:
        yield ()
        return
    for part in _set_partitions(k - 1):
        for i in range(len(part)):
            yield part[:i] + (part[i] + (k - 1,),) + part[i + 1:]
        yield part + ((k - 1,),)


def exp_morphism(phi: LinearMap, element: GradedSeries,
                 target_mul: Callable[[GradedSeries, GradedSeries], GradedSeries],
                 target_unit: GradedSeries) -> GradedSeries:
    """The exponential of a linear map on S(V).

    e^phi(v_1...v_k) is the sum, over the unordered set partitions of
    the k positions, of the product of phi on the blocks, with the
    Koszul sign of listing the blocks one after another; the empty
    product is the target unit, so e^phi(1) = 1.

    Preconditions: phi has degree 0 (it preserves parity) and target_mul
    is graded-commutative.  Then each of the r!*prod(c_i!) (permutation,
    composition) pairs of the multinomial formula that lands on one
    partition into r blocks of sizes c_i carries the same signed
    product, and their weights 1/(r!*prod(c_i!)) add up to 1.  A block
    value of the wrong parity raises BvError.
    """
    out: Dict[Monomial, Fraction] = {}
    for m, c in element.terms.items():
        units, h = units_of(m), hbar_exponent(m)
        values: Dict[tuple, GradedSeries] = {}
        acc: Dict[Monomial, Fraction] = {}
        for part in _set_partitions(len(units)):
            prod = target_unit
            for block in part:
                val = values.get(block)
                if val is None:
                    val = values[block] = _block_value(phi, units, block)
                prod = target_mul(prod, val)
                if prod.is_zero():
                    break
            else:
                order = [i for block in part for i in block]
                add_terms(acc, prod.terms, koszul_sign(units, order) * c)
        term = GradedSeries.from_terms(acc)
        if h:
            term = target_mul(phi.spec.hpow(h), term)
        add_terms(out, term.terms)
    return GradedSeries.from_terms(out)


def _block_value(phi: LinearMap, units: List[GradedSymbol],
                 block: Tuple[int, ...]) -> GradedSeries:
    """phi on the word of the units at the (ascending) block positions."""
    word = GradedSeries.from_word([(units[i], 1) for i in block])
    ((bmono, bc),) = word.terms.items()
    val = phi.value(bmono).scale(bc)
    parity = sum(units[i].degree for i in block) % 2
    if any(monomial_degree(mono) % 2 != parity for mono in val.terms):
        raise BvError("map does not preserve parity, as e^phi needs: "
                      "%s -> %r" % (format_monomial(bmono), val))
    return val


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
        # e^beta of each h-free monomial, filled on first use
        self._exp_memo: Dict[Monomial, GradedSeries] = {}

    def exp(self, element: GradedSeries) -> GradedSeries:
        out: Dict[Monomial, Fraction] = {}
        for m, c in element.terms.items():
            rest, h = split_h(m)
            val = self._exp_memo.get(rest)
            if val is None:
                val = self._exp_memo[rest] = exp_morphism(
                    self, GradedSeries({rest: Fraction(1)}), _scalar_mul,
                    GradedSeries.unit())
            if h:
                val = _scalar_mul(self.spec.hpow(h), val)
            add_terms(out, val.terms, c)
        return GradedSeries.from_terms(out)


def _scalar_mul(x: GradedSeries, y: GradedSeries) -> GradedSeries:
    return mul(x, y, _WIDE)


def operator_growth(D: LinearMap) -> int:
    """Largest word-length increase across the stored values; values on
    monomials longer than cap - growth may be affected by truncation."""
    growth = 0
    for m, v in D.table.items():
        for mono in v.terms:
            growth = max(growth, q_degree(mono) - q_degree(m))
    return growth


def check_augmentation(beta: Augmentation, D: BvOperator) -> CheckReport:
    report = CheckReport("augmentation law e^beta D = 0",
                         caps={"word_cap": D.spec.word_cap})
    with timed(report):
        reliable = D.spec.word_cap - operator_growth(D)
        for m in D.table:
            if q_degree(m) > reliable:
                continue
            val = beta.exp(D.value(m))
            if not val.is_zero():
                report.add_witness("e^beta D(%s)" % format_monomial(m), repr(val))
    return report


def check_bv_morphism(phi: LinearMap, D_A: BvOperator, D_B: BvOperator,
                      target_mul=None) -> CheckReport:
    """BVmor1-3 for a map phi: S(V_A) -> B[[h]]."""
    specB = D_B.spec
    if target_mul is None:
        target_mul = specB.mul
    report = CheckReport("BV-morphism laws",
                         caps={"word_cap": D_A.spec.word_cap})
    with timed(report):
        if not phi.value(ONE).is_zero():
            report.add_witness("phi(1)", repr(phi.value(ONE)))
        for m, v in phi.table.items():
            ln = q_degree(m)
            for mono, c in v.terms.items():
                if hbar_exponent(mono) + 1 < ln:
                    report.add_witness(
                        "phi^%d on length-%d word %s"
                        % (hbar_exponent(mono) + 1, ln, format_monomial(m)),
                        c)
        unit = GradedSeries.unit()
        growth = operator_growth(D_A)
        conclusive = True
        for m in D_A.table:
            if q_degree(m) + growth > D_A.spec.word_cap:
                conclusive = False
                continue
            lhs = exp_morphism(phi, D_A.value(m), target_mul, unit)
            rhs = D_B.apply(exp_morphism(
                phi, GradedSeries({m: Fraction(1)}), target_mul, unit))
            if not (lhs - rhs).is_zero():
                report.add_witness("intertwining on %s" % format_monomial(m),
                                   repr(lhs - rhs))
        if report.status == PASS and not conclusive:
            report.mark_inconclusive("word_cap too small for a conclusive check")
    return report


# ---------------------------------------------------------------------
# twisting by an augmentation
# ---------------------------------------------------------------------

def twist_by_augmentation(D: BvOperator, beta: Augmentation,
                          validate: bool = True
                          ) -> Tuple[LinearMap, LinearMap, BvOperator]:
    """Build Phi, its inverse, and the twisted operator Phi D Phi^(-1).

    Phi(v_1..v_k) adds, over every nonempty subset of the k positions
    fed to e^beta, the scalar e^beta value times the word of the
    remaining positions, with the Koszul sign of moving the subset to
    the front.  Each subset of size l is hit by l!(k-l)! of the
    (permutation, split) pairs of the symmetrized formula, all with the
    same signed term, and their weights 1/(l!(k-l)!) add up to 1.  The
    twisted operator has no constant terms; that is checked and enforced
    here.
    """
    spec = D.spec
    if validate:
        rep = check_augmentation(beta, D)
        if not rep.passed:
            raise BvError("not an augmentation: %s" % rep.witnesses[:1])
    table: Dict[Monomial, GradedSeries] = {}
    for m in spec.basis_monomials():
        units = units_of(m)
        k = len(units)
        acc: Dict[Monomial, Fraction] = {m: Fraction(1)}
        for l in range(1, k + 1):
            for block in itertools.combinations(range(k), l):
                scal = beta.exp(GradedSeries.from_word(
                    [(units[i], 1) for i in block]))
                if scal.is_zero():
                    continue
                rest = [i for i in range(k) if i not in block]
                restm = GradedSeries.from_word([(units[i], 1) for i in rest])
                add_terms(acc, spec.truncate(mul(scal, restm, _WIDE)).terms,
                          koszul_sign(units, block + tuple(rest)))
        table[m] = GradedSeries.from_terms(acc)
    Phi = LinearMap(spec, table, 0)
    # Neumann inverse: the correction strictly lowers word length
    N = {m: Phi.value(m) - GradedSeries({m: Fraction(1)}) for m in table}
    Nmap = LinearMap(spec, N, 0)
    inv_table: Dict[Monomial, GradedSeries] = {}
    for m in table:
        acc = {m: Fraction(1)}
        term = GradedSeries({m: Fraction(1)})
        for _ in range(spec.word_cap + 1):
            term = Nmap.apply(term).scale(-1)
            if term.is_zero():
                break
            add_terms(acc, term.terms)
        inv_table[m] = GradedSeries.from_terms(acc)
    PhiInv = LinearMap(spec, inv_table, 0)
    twisted = {m: Phi.apply(D.apply(PhiInv.value(m))) for m in table}
    Dbeta = BvOperator(spec, twisted)
    if validate:
        reliable = spec.word_cap - operator_growth(D)
        for m, v in Dbeta.table.items():
            if q_degree(m) > reliable:
                continue
            for mono, c in v.terms.items():
                rest, _h = split_h(mono)
                if not rest:
                    raise BvError("twisted operator has constant term %s on %s"
                                  % (c, format_monomial(m)))
    return Phi, PhiInv, Dbeta


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

    def apply(vec: List[Fraction]) -> List[Fraction]:
        out = [Fraction(0)] * nb
        for s, c in zip(basis, vec):
            if not c:
                continue
            for t, x in dlin.get(s, {}).items():
                out[idx[t]] += c * x
        return out

    for s in basis:
        v0 = [Fraction(i == idx[s]) for i in range(nb)]
        if any(apply(apply(v0))):
            raise BvError("differential does not square to zero")
    out = {}
    for d in sorted({s.degree for s in basis}):
        dom = [s for s in basis if s.degree == d]
        above = [s for s in basis if s.degree == d + 1]
        rows = []
        for s in dom:
            img = dlin.get(s, {})
            rows.append([img.get(t, Fraction(0))
                         for t in basis if t.degree == d - 1])
        kern = kernel_basis([list(col) for col in zip(*rows)], len(dom))
        img_rows = []
        for s in above:
            img = dlin.get(s, {})
            img_rows.append([img.get(t, Fraction(0)) for t in dom])
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
            row = [Fraction(0)] * len(self.basis)
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
        fibres: Dict[tuple, List[Fraction]] = {}
        for key, c in t.items():
            rest = key[:slot] + key[slot + 1:]
            fibres.setdefault(rest, [Fraction(0)] * n)[self.idx[key[slot]]] += c
        out = {}
        for rest, vec in fibres.items():
            for i, x in enumerate(self.image.reduce(vec)):
                if x:
                    out[rest[:slot] + (self.basis[i],) + rest[slot:]] = x
        return out


def _outer(va: Vector, vb: Vector) -> Tensor2:
    return {(a, b): ca * cb for a, ca in va.items() for b, cb in vb.items()}


def check_lie_bialgebra(data: LieBialgebraData, d1: Optional[int] = None,
                        d2: Optional[int] = None) -> CheckReport:
    """Co-Lie, Lie, Drinfeld compatibility and involutivity, verified on
    homology representatives with the tau/rho sign rules."""
    if d1 is None:
        d1, d2 = data.bidegree
    ax = BialgebraAxioms.of_data(data, d1, d2)
    report = CheckReport("involutive Lie bialgebra axioms, bidegree (%d, %d)"
                         % (d1, d2))
    with timed(report):
        if ax.has_boundary:
            hom = homology(data.dlin, data.basis)
            reps = [v for d in hom for v in hom[d][1]]
        else:
            reps = [{s: Fraction(1)} for s in data.basis]

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
        for va in reps:
            for vb in reps:
                for vc in reps:
                    if not ax.jacobi(va, vb, vc):
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


# ---------------------------------------------------------------------
# Maurer-Cartan twisting
# ---------------------------------------------------------------------

def _exp_commutative(spec: FreeAlgebraSpec, a: GradedSeries) -> GradedSeries:
    for m, c in a.terms.items():
        rest, h = split_h(m)
        if not rest and h <= 0:
            raise BvError("exponential of scalar term %s h^%d does not truncate"
                          % (c, h))
    out = {ONE: Fraction(1)}
    power = GradedSeries.unit()
    for k in range(1, spec.word_cap + spec.hbar_cap + len(spec.symbols) + 4):
        power = spec.truncate(mul(power, a, _WIDE))
        if power.is_zero():
            return GradedSeries.from_terms(out)
        add_terms(out, power.terms, Fraction(1, factorial(k)))
    raise BvError("exponential did not terminate within caps")


def twist_by_mc(D: BvOperator, a: GradedSeries) -> BvOperator:
    """Twist by a Maurer-Cartan element: b -> e^(-a) D(e^a b).

    Rejects non-Maurer-Cartan input with the first offending
    coefficient; when D has no components beyond order two the
    quadratic form Da + (h/2)[a,a]_D = 0 is cross-checked.
    """
    spec = D.spec
    deg = a.homogeneous_degree()
    if a and deg != 0:
        raise BvError("Maurer-Cartan element must have degree 0, got %s" % deg)
    for m in a.terms:
        if hbar_exponent(m) < -1:
            raise BvError("Maurer-Cartan element must lie in (1/h) A[[h]]")
    ea = _exp_commutative(spec, a)
    e_ma = _exp_commutative(spec, a.scale(-1))
    obstruction = D.apply(ea)
    if not obstruction.is_zero():
        mono, c = next(iter(sorted(obstruction.terms.items(),
                                   key=lambda t: format_monomial(t[0]))))
        raise BvError("not Maurer-Cartan: D(e^a) has %s at %s"
                      % (c, format_monomial(mono)))
    if D.max_component() <= 2:
        quad = D.apply(a) + \
            spec.truncate(mul(spec.hpow(1), bv_bracket(D, a, a), _WIDE)) \
            .scale(Fraction(1, 2))
        if not quad.is_zero():
            raise BvError("quadratic Maurer-Cartan form is nonzero although "
                          "D(e^a) = 0")
    table = {}
    for m in spec.basis_monomials():
        val = D.apply(spec.truncate(mul(ea, GradedSeries({m: Fraction(1)}), _WIDE)))
        table[m] = spec.truncate(mul(e_ma, val, _WIDE))
    Da = BvOperator(spec, table)
    if not Da.value(ONE).is_zero():
        raise BvError("twisted operator does not kill the unit")
    return Da


# ---------------------------------------------------------------------
# morphism linearization and the Weyl bridge
# ---------------------------------------------------------------------

def linearize_morphism(phi: LinearMap, D_A: BvOperator, alpha: Augmentation,
                       D_B: BvOperator, beta: Augmentation):
    """Linear part of the twisted morphism Phi_beta e^phi Phi_alpha^(-1)
    restricted to the generators, with the compatibility and chain-map
    checks.  Returns (map: dict symbol -> Vector, report)."""
    specA, specB = D_A.spec, D_B.spec
    report = CheckReport("linearized morphism")
    with timed(report):
        unit = GradedSeries.unit()
        for m in specA.basis_monomials():
            lhs = alpha.exp(GradedSeries({m: Fraction(1)}))
            ephi = exp_morphism(phi, GradedSeries({m: Fraction(1)}),
                                specB.mul, unit)
            rhs = beta.exp(ephi)
            if not (lhs - rhs).is_zero():
                report.add_witness("compatibility e^alpha = e^beta e^phi on %s"
                                   % format_monomial(m), repr(lhs - rhs))
        if not report.passed:
            return {}, report
        _PhiA, PhiAinv, DAlin = twist_by_augmentation(D_A, alpha)
        PhiB, _PhiBinv, DBlin = twist_by_augmentation(D_B, beta)
        lin: Dict[GradedSymbol, Vector] = {}
        for v in specA.symbols:
            x = PhiAinv.value(((v, 1),))
            y = exp_morphism(phi, x, specB.mul, unit)
            z = PhiB.apply(y)
            vec: Vector = {}
            for m, c in z.terms.items():
                rest, h = split_h(m)
                if h == 0 and q_degree(rest) == 1:
                    add_terms(vec, {rest[0][0]: c})
            lin[v] = vec
        dataA, dataB = linearize(DAlin), linearize(DBlin)
        for v in specA.symbols:
            img: Vector = {}
            for t, c in dataA.dlin.get(v, {}).items():
                add_terms(img, lin.get(t, {}), c)
            for t, c in lin.get(v, {}).items():
                add_terms(img, dataB.dlin.get(t, {}), -c)
            if img:
                report.add_witness("chain map fails on %s" % v.name, "dlin")
    return lin, report


def bv_from_hamiltonian(sys: OrbitSystem, H: GradedSeries,
                        word_cap: int = 3, hbar_cap: int = 3) -> BvOperator:
    """The differential operator of a symplectization Hamiltonian acting
    on the polynomial algebra in the q variables."""
    spec = FreeAlgebraSpec([], word_cap=word_cap, hbar_cap=hbar_cap,
                           n=sys.n, symbols=[sys.q[o] for o in sys.q])
    wide = TruncationContext(max_p_degree=64, max_hbar=hbar_cap,
                             min_hbar=-1, max_word_length=64)
    table = {}
    for m in spec.basis_monomials():
        val = act_right(H, GradedSeries({m: Fraction(1)}), sys, wide)
        table[m] = spec.truncate(val)
    return BvOperator(spec, table)
