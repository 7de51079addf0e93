"""Reconstruction of a contact Hamiltonian from surface structure
constants.

For a hyperbolic surface every closed orbit of the unit cotangent
bundle is the lift of a closed geodesic, all with vanishing rotation
index, so an alphabet of free homotopy classes closed under orientation
reversal induces an orbit system with n = 2.  The cobordism potential
pairs each class with its reverse; the Hamiltonian carries four
coefficient families on the monomial shapes q q p, q p p, p p p and
h p, fitted so that

  * the cobracket of the alphabet appears as the linearized cobracket,
  * the twisted operator has no constant terms,
  * the bracket of the alphabet appears as the linearized bracket,
  * the potential is an honest augmentation through cubic words,

and the master equation H * H = 0 then certifies the whole convention
chain.  Every fit is performed by probing the production star-product
machinery with unit coefficients, so no sign is ever hand-derived.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    KIND_Q,
    GradedSeries,
    GradedSymbol,
    Monomial,
    ONE,
    TruncationContext,
    add_terms,
    format_monomial,
    hbar_exponent,
    monomial_degree,
    p_degree,
    q_degree,
)
from .bv import (
    Augmentation,
    BvOperator,
    FreeAlgebraSpec,
    bv_from_hamiltonian,
    check_lie_bialgebra,
    cobracket_pairs,
    linearize,
    twist_by_augmentation,
)
from .reports import CheckReport, timed
from .surfaces import Surface, Word, format_word, inverse_word
from .weyl import Orbit, OrbitSystem, act_right, check_master_h, project_out, star

_WIDE = TruncationContext(max_p_degree=32, max_hbar=16, min_hbar=-4,
                          max_word_length=32)


class AlphabetError(ValueError):
    pass


@dataclass
class GeodesicAlphabet:
    """Finite list of nontrivial classes closed under orientation
    reversal, with the induced orbit system."""

    surface: Surface
    classes: List[Word]
    names: Dict[Word, str]
    sys: OrbitSystem = field(init=False)
    partner: Dict[Word, Word] = field(init=False)

    def __post_init__(self):
        seen = set(self.classes)
        if len(seen) != len(self.classes):
            raise AlphabetError("duplicate classes in the alphabet")
        self.partner = {}
        for w in self.classes:
            wb = self.surface.canonical_class(inverse_word(w))
            if wb not in seen:
                raise AlphabetError("missing orientation reversal of %s"
                                    % format_word(w, self.surface))
            if wb == w:
                raise AlphabetError("class %s equals its reverse"
                                    % format_word(w, self.surface))
            self.partner[w] = wb
        orbits = [Orbit(self.names[w], 0, self.surface.multiplicity(w))
                  for w in self.classes]
        self.sys = OrbitSystem(2, orbits)

    @classmethod
    def from_words(cls, surface: Surface, words: Sequence[Word],
                   names: Optional[Dict[Word, str]] = None) -> "GeodesicAlphabet":
        classes = []
        for w in words:
            c = surface.canonical_class(w)
            if c is None:
                raise AlphabetError("trivial class in the alphabet")
            if c not in classes:
                classes.append(c)
        if names is None:
            names = {w: format_word(w, surface).replace(" ", ".")
                     for w in classes}
        return cls(surface, classes, names)

    def name(self, w: Word) -> str:
        return self.names[w]

    def q(self, w: Word, coeff=1) -> GradedSeries:
        return self.sys.series_q(self.names[w], coeff)

    def qsym(self, w: Word) -> GradedSymbol:
        return self.sys.q[self.names[w]]

    def class_of_qsym(self, sym: GradedSymbol) -> Word:
        for w, nm in self.names.items():
            if self.sys.q[nm] == sym:
                return w
        raise KeyError(sym.name)

    def iterated(self) -> List[Word]:
        return [w for w in self.classes if self.surface.multiplicity(w) > 1]


def close_alphabet(surface: Surface, seeds: Sequence[Word], cap: int,
                   max_size: int = 64) -> Tuple[List[Word], List[Word]]:
    """Close a seed set under orientation reversal and under all classes
    of length <= cap produced by brackets and cobrackets of members.
    Returns (closure, escaping classes beyond the cap)."""
    alpha: List[Word] = []
    escaped: List[Word] = []
    todo = [surface.canonical_class(w) for w in seeds]
    while todo:
        w = todo.pop()
        if w is None or w in alpha:
            continue
        if len(w) > cap:
            if w not in escaped:
                escaped.append(w)
            continue
        alpha.append(w)
        if len(alpha) > max_size:
            raise AlphabetError("closure exceeded %d classes" % max_size)
        todo.append(surface.canonical_class(inverse_word(w)))
        for (u, v) in surface.turaev_terms(w):
            todo.extend([u, v])
        for other in list(alpha):
            for z in surface.goldman_terms(w, other):
                todo.append(z)
    return sorted(alpha, key=lambda w: (len(w), w)), \
        sorted(escaped, key=lambda w: (len(w), w))


def build_F(alphabet: GeodesicAlphabet) -> GradedSeries:
    """Cobordism potential (1/h) sum e p p over reversal pairs, with
    e = +1 on the canonically ordered pair; zero otherwise."""
    sys = alphabet.sys
    out: Dict[Monomial, Fraction] = {}
    done = set()
    for w in alphabet.classes:
        wb = alphabet.partner[w]
        key = frozenset((w, wb))
        if key in done:
            continue
        done.add(key)
        first, second = sorted((w, wb), key=lambda x: (len(x), x))
        add_terms(out, sys.monomial(1, ps=[alphabet.name(first),
                                           alphabet.name(second)], hpow=-1).terms)
    return GradedSeries.from_terms(out)


def filling_augmentation(alphabet: GeodesicAlphabet, F: GradedSeries,
                         spec: FreeAlgebraSpec) -> Augmentation:
    """The scalar part of the right action of the potential, tabulated
    on the basis monomials."""
    sys = alphabet.sys
    table: Dict[Monomial, GradedSeries] = {}
    for m in spec.basis_monomials():
        if m == ONE:
            continue
        val = act_right(F, GradedSeries({m: Fraction(1)}), sys, _WIDE)
        scal = GradedSeries({mono: c for mono, c in val.terms.items()
                             if q_degree(mono) == 0})
        if not scal.is_zero():
            table[m] = scal
    return Augmentation(spec, table)


@dataclass
class SurfaceHamiltonian:
    alphabet: GeodesicAlphabet
    series: GradedSeries
    a: Dict[tuple, Fraction]
    b: Dict[tuple, Fraction]
    c: Dict[tuple, Fraction]
    d: Dict[tuple, Fraction]
    notes: List[str] = field(default_factory=list)

    @property
    def sys(self) -> OrbitSystem:
        return self.alphabet.sys

    def coefficients(self) -> Dict[str, Dict[tuple, Fraction]]:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    def flipped(self, family: str, key: tuple) -> "SurfaceHamiltonian":
        """Copy with one structure constant's sign flipped."""
        fams = {k: dict(v) for k, v in self.coefficients().items()}
        fams[family][key] = -fams[family][key]
        series = _assemble(self.alphabet, fams["a"], fams["b"], fams["c"],
                           fams["d"])
        return SurfaceHamiltonian(self.alphabet, series, fams["a"], fams["b"],
                                  fams["c"], fams["d"], list(self.notes))


def _assemble(alphabet: GeodesicAlphabet, a, b, c, d) -> GradedSeries:
    sys = alphabet.sys
    nm = alphabet.name
    out: Dict[Monomial, Fraction] = {}
    for (k, i, j), coeff in a.items():
        add_terms(out, sys.monomial(coeff, qs=[nm(i), nm(j)], ps=[nm(k)],
                                    hpow=-1).terms)
    for (i, j, k), coeff in b.items():
        add_terms(out, sys.monomial(coeff, qs=[nm(i)], ps=[nm(j), nm(k)],
                                    hpow=-1).terms)
    for (i, j, k), coeff in c.items():
        add_terms(out, sys.monomial(coeff, ps=[nm(i), nm(j), nm(k)],
                                    hpow=-1).terms)
    for (i,), coeff in d.items():
        add_terms(out, sys.monomial(coeff, ps=[nm(i)], hpow=0).terms)
    return GradedSeries.from_terms(out)


def surface_structure_constants(alphabet: GeodesicAlphabet, cap: int):
    """Projected bracket and cobracket constants over the alphabet.

    Raises when an operation produces a class of length <= cap that is
    missing from the alphabet; classes beyond the cap are projected
    away (the length filtration of the correspondence)."""
    S = alphabet.surface
    members = set(alphabet.classes)
    missing = set()
    cob: Dict[Word, Dict[Tuple[Word, Word], Fraction]] = {}
    br: Dict[Tuple[Word, Word], Dict[Word, Fraction]] = {}
    for w in alphabet.classes:
        terms = {}
        for (u, v), coeff in S.turaev_terms(w).items():
            for t in (u, v):
                if t not in members and len(t) <= cap:
                    missing.add(t)
            if u in members and v in members:
                terms[(u, v)] = coeff
        cob[w] = terms
    for x in alphabet.classes:
        for y in alphabet.classes:
            terms = {}
            for z, coeff in S.goldman_terms(x, y).items():
                if z in members:
                    terms[z] = coeff
                elif len(z) <= cap:
                    missing.add(z)
            br[(x, y)] = terms
    if missing:
        raise AlphabetError(
            "alphabet not closed under operations up to length %d; missing: %s"
            % (cap, ", ".join(format_word(w, S) for w in sorted(missing))))
    return cob, br


def _fit_spec(alphabet: GeodesicAlphabet) -> FreeAlgebraSpec:
    sys = alphabet.sys
    return FreeAlgebraSpec([], word_cap=4, hbar_cap=3, n=2,
                           symbols=[sys.q[o] for o in sys.q])


def build_H_surface(alphabet: GeodesicAlphabet,
                    cap: Optional[int] = None) -> SurfaceHamiltonian:
    """Assemble the candidate Hamiltonian from the Goldman-Turaev
    structure constants of the alphabet."""
    S = alphabet.surface
    sys = alphabet.sys
    if cap is None:
        cap = max(len(w) for w in alphabet.classes)
    cob, br = surface_structure_constants(alphabet, cap)
    notes = []
    iterated = alphabet.iterated()
    if iterated:
        notes.append("alphabet contains iterated classes: %s"
                     % ", ".join(format_word(w, S) for w in iterated))

    spec = _fit_spec(alphabet)
    F = build_F(alphabet)
    beta = filling_augmentation(alphabet, F, spec)

    # -- a-family: cobracket constants through the quadratic part -------
    a: Dict[tuple, Fraction] = {}
    order = {w: i for i, w in enumerate(alphabet.classes)}
    for k in alphabet.classes:
        for (u, v), coeff in cob[k].items():
            if order[u] < order[v]:
                probe = _delta_probe(alphabet, k, u, v)
                a[(k, u, v)] = a.get((k, u, v), Fraction(0)) + coeff / probe
    # -- d-family: kill the constant terms of the twisted operator ------
    d: Dict[tuple, Fraction] = {}
    for k in alphabet.classes:
        resid: Dict[Monomial, Fraction] = {}
        for (u, v), coeff in _a_image(alphabet, a, k).items():
            add_terms(resid, beta.exp(
                GradedSeries({_pair_monomial(alphabet, u, v): coeff})).terms)
        if resid:
            # the h p probe contributes kappa * h to D(q_k)
            kap = sys.kappa[alphabet.name(k)]
            coeff = -resid.get(((sys.hbar, 1),), Fraction(0)) / kap
            if coeff:
                d[(k,)] = coeff
    # -- b-family: match the bracket through the h-linear part ----------
    b: Dict[tuple, Fraction] = {}
    partial = _assemble(alphabet, a, {}, {}, d)
    mu_now = _linearized_mu(alphabet, partial, beta, spec)
    for x in alphabet.classes:
        for y in alphabet.classes:
            if order[x] >= order[y]:
                continue
            target: Dict[Word, Fraction] = dict(br[(x, y)])
            have = mu_now.get((x, y), {})
            gap = {z: target.get(z, Fraction(0)) - have.get(z, Fraction(0))
                   for z in set(target) | set(have)}
            for z, g in gap.items():
                if not g:
                    continue
                t = _b_probe(alphabet, z, x, y)
                b[(z, x, y)] = g / t
    # -- c-family: augmentation law on cubic words ----------------------
    c: Dict[tuple, Fraction] = {}
    partial = _assemble(alphabet, a, b, {}, d)
    D = bv_from_hamiltonian(sys, partial, word_cap=4, hbar_cap=3)
    for trip in itertools.combinations(alphabet.classes, 3):
        mono = _word_monomial(alphabet, trip)
        if mono is None:
            continue
        resid = beta.exp(D.value(mono))
        if resid.is_zero():
            continue
        t_probe = _c_probe(alphabet, beta, trip)
        # solve resid + coeff_c * probe = 0 termwise; probe and resid are
        # proportional scalar h^2 series
        mono2, cc2 = next(iter(resid.terms.items()))
        pc = t_probe.coefficient(mono2)
        if not pc:
            raise AlphabetError("cubic probe cannot cancel the residual")
        c[trip] = -cc2 / pc
        check = resid + t_probe.scale(c[trip])
        if not check.is_zero():
            raise AlphabetError("cubic residual is not proportional to the probe")
    series = _assemble(alphabet, a, b, c, d)
    H = SurfaceHamiltonian(alphabet, series, a, b, c, d, notes)
    _validate_shapes(H)
    return H


def _word_monomial(alphabet: GeodesicAlphabet, words) -> Optional[Monomial]:
    from .algebra import normalize
    res = normalize([(alphabet.qsym(w), 1) for w in words])
    if res is None:
        return None
    sgn, mono = res
    assert sgn == 1
    return mono


def _pair_monomial(alphabet: GeodesicAlphabet, u: Word, v: Word) -> Monomial:
    from .algebra import normalize
    res = normalize([(alphabet.qsym(u), 1), (alphabet.qsym(v), 1)])
    sgn, mono = res
    return mono


def _a_image(alphabet: GeodesicAlphabet, a: Dict[tuple, Fraction],
             k: Word) -> Dict[Tuple[Word, Word], Fraction]:
    """Quadratic part of D(q_k) induced by the a-family, as ordered-pair
    coefficients of the monomial basis (u before v in canonical order)."""
    sys = alphabet.sys
    out: Dict[Tuple[Word, Word], Fraction] = {}
    for (kk, u, v), coeff in a.items():
        if kk != k or not coeff:
            continue
        term = sys.monomial(coeff, qs=[alphabet.name(u), alphabet.name(v)],
                            ps=[alphabet.name(k)], hpow=-1)
        img = act_right(term, alphabet.q(k), sys, _WIDE)
        for mono, cc in img.terms.items():
            syms = [s for s, e in mono for _ in range(e) if s.kind == "q"]
            if len(syms) == 2:
                pair = (alphabet.class_of_qsym(syms[0]),
                        alphabet.class_of_qsym(syms[1]))
                out[pair] = out.get(pair, Fraction(0)) + cc
    return out


def _delta_probe(alphabet: GeodesicAlphabet, k: Word, u: Word, v: Word
                 ) -> Fraction:
    """Coefficient of u (x) v in the extracted cobracket when the unit
    a-term q_u q_v p_k is the whole Hamiltonian."""
    sys = alphabet.sys
    term = sys.monomial(1, qs=[alphabet.name(u), alphabet.name(v)],
                        ps=[alphabet.name(k)], hpow=-1)
    img = act_right(term, alphabet.q(k), sys, _WIDE)
    total = Fraction(0)
    pair = (alphabet.qsym(u), alphabet.qsym(v))
    for mono, cc in img.terms.items():
        entries = tuple((s, e) for s, e in mono if s.kind == KIND_Q)
        if q_degree(entries) == 2:
            total += cc * cobracket_pairs(entries).get(pair, 0)
    if not total:
        raise AlphabetError("degenerate cobracket probe")
    return total


def _b_probe(alphabet: GeodesicAlphabet, z: Word, x: Word, y: Word) -> Fraction:
    """Coefficient of q_z h in the action of the unit b-term
    (1/h) q_z p_x p_y on q_x q_y, with the bracket's front sign."""
    sys = alphabet.sys
    term = sys.monomial(1, qs=[alphabet.name(z)],
                        ps=[alphabet.name(x), alphabet.name(y)], hpow=-1)
    mono = _pair_monomial(alphabet, x, y)
    img = act_right(term, GradedSeries({mono: Fraction(1)}), sys, _WIDE)
    want = ((alphabet.qsym(z), 1), (sys.hbar, 1))
    val = img.coefficient(want)
    # mu(v1, v2) carries the extra (-1)^{|v1|}
    sign = -1 if alphabet.qsym(x).parity else 1
    if not val:
        raise AlphabetError("degenerate bracket probe")
    return val * sign


def _c_probe(alphabet: GeodesicAlphabet, beta: Augmentation, trip) -> GradedSeries:
    sys = alphabet.sys
    term = sys.monomial(1, ps=[alphabet.name(w) for w in trip], hpow=-1)
    mono = _word_monomial(alphabet, trip)
    img = act_right(term, GradedSeries({mono: Fraction(1)}), sys, _WIDE)
    return beta.exp(img)


def _linearized_mu(alphabet: GeodesicAlphabet, H: GradedSeries,
                   beta: Augmentation, spec: FreeAlgebraSpec):
    """Bracket of the linearization of the twisted operator, indexed by
    alphabet classes."""
    D = bv_from_hamiltonian(alphabet.sys, H,
                            word_cap=spec.word_cap, hbar_cap=spec.hbar_cap)
    Dspec = BvOperator(spec, D.table)
    _Phi, _PhiInv, Dbeta = twist_by_augmentation(Dspec, beta, validate=False)
    data = linearize(Dbeta)
    out = {}
    for (s1, s2), vec in data.mu.items():
        w1, w2 = alphabet.class_of_qsym(s1), alphabet.class_of_qsym(s2)
        out[(w1, w2)] = {alphabet.class_of_qsym(s): c for s, c in vec.items()}
    return out


def _validate_shapes(H: SurfaceHamiltonian) -> None:
    """Only the four monomial shapes may occur, all of degree -1."""
    for mono in H.series.terms:
        qd, pd, h = q_degree(mono), p_degree(mono), hbar_exponent(mono)
        if (qd, pd, h) not in ((2, 1, -1), (1, 2, -1), (0, 3, -1), (0, 1, 0)):
            raise AlphabetError("forbidden monomial shape %s"
                                % format_monomial(mono))
        if monomial_degree(mono) != -1:
            raise AlphabetError("Hamiltonian term %s has degree %d"
                                % (format_monomial(mono), monomial_degree(mono)))


def check_surface_master(H: SurfaceHamiltonian,
                         ctx: Optional[TruncationContext] = None) -> CheckReport:
    """H * H = 0 together with the filling equation e^F <-H = 0.

    The d-family never multiplies a q-variable of the alphabet (its
    classes only split off short classes), so H * H alone cannot see it;
    the filling potential pins it down.
    """
    if ctx is None:
        ctx = TruncationContext(max_p_degree=4, max_hbar=3, min_hbar=-1,
                                max_word_length=0)
    report = check_master_h(H.series, H.sys, ctx)
    report.name = "surface Hamiltonian master equation"
    report.notes.extend(H.notes)
    from .weyl import exp_series
    F = build_F(H.alphabet)
    wide = ctx.widen(extra_low=ctx.max_p_degree // 2 + 2)
    eF = exp_series(F, H.sys, wide)
    filling = project_out(star(eF, H.series, H.sys, wide), kinds=(KIND_Q,))
    if not filling.is_zero():
        for mono, cc in filling.iter_terms():
            report.add_witness("filling: " + format_monomial(mono), cc)
    return report


def check_psi_intertwining(H: SurfaceHamiltonian,
                           cap: Optional[int] = None) -> CheckReport:
    """The linearized bracket and cobracket of (H, ->F) must equal the
    Goldman-Turaev structure constants under the orbit-to-class map."""
    alphabet = H.alphabet
    report = CheckReport("linearized structure matches the surface operations")
    with timed(report):
        if cap is None:
            cap = max(len(w) for w in alphabet.classes)
        cob, br = surface_structure_constants(alphabet, cap)
        spec = _fit_spec(alphabet)
        F = build_F(alphabet)
        beta = filling_augmentation(alphabet, F, spec)
        D = bv_from_hamiltonian(alphabet.sys, H.series,
                                word_cap=spec.word_cap, hbar_cap=spec.hbar_cap)
        Dspec = BvOperator(spec, D.table)
        _Phi, _PhiInv, Dbeta = twist_by_augmentation(Dspec, beta)
        data = linearize(Dbeta)
        # dlin vanishes: the surface differential is zero
        for s, vec in data.dlin.items():
            if vec:
                report.add_witness("dlin(%s)" % s.name, repr(vec))
        for k in alphabet.classes:
            got = data.delta.get(alphabet.qsym(k), {})
            want = {(alphabet.qsym(u), alphabet.qsym(v)): coeff
                    for (u, v), coeff in cob[k].items()}
            if got != want:
                report.add_witness("cobracket of %s"
                                   % format_word(k, alphabet.surface),
                                   "%r != %r" % (got, want))
        for x in alphabet.classes:
            for y in alphabet.classes:
                got = data.mu.get((alphabet.qsym(x), alphabet.qsym(y)), {})
                want = {alphabet.qsym(z): coeff
                        for z, coeff in br[(x, y)].items()}
                if got != want:
                    report.add_witness(
                        "bracket of (%s, %s)"
                        % (format_word(x, alphabet.surface),
                           format_word(y, alphabet.surface)),
                        "%r != %r" % (got, want))
        sub = check_lie_bialgebra(data)
        if not sub.passed:
            for w in sub.witnesses:
                report.add_witness("bialgebra axiom: %s" % w[0], w[1])
    return report
