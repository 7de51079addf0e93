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
from functools import cached_property
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    KIND_P,
    KIND_Q,
    Coeff,
    GradedSeries,
    GradedSymbol,
    Monomial,
    ONE,
    TruncationContext,
    add_terms,
    exact,
    format_monomial,
    hbar_exponent,
    monomial_degree,
    normalize,
    p_degree,
    q_degree,
)
from .bv import (
    Augmentation,
    BvError,
    FreeAlgebraSpec,
    LieBialgebraData,
    bv_from_hamiltonian,
    check_lie_bialgebra,
    cobracket_pairs,
    linearize,
    twist_by_augmentation,
)
from .reports import CheckReport, timed
from .surfaces import Surface, Word, format_word, inverse_word
from .weyl import (
    Orbit,
    OrbitSystem,
    act_left,
    act_right,
    act_right_words,
    check_master_h,
    exp_series,
)

_WIDE = TruncationContext(max_p_degree=inf, max_hbar=inf, min_hbar=-4,
                          max_word_length=inf)
# the window of check_surface_master's H * H = 0, and the wider one of
# its filling equation, in which e^F is built
_MASTER = TruncationContext(max_p_degree=4, max_hbar=3, min_hbar=-1,
                            max_word_length=0)
_FILLING = _MASTER.widen(extra_low=_MASTER.max_p_degree // 2 + 2)

# the four monomial shapes of H: by family, the key slots that name
# q-variables, those that name p-variables, and the power of h
_SHAPES = {"a": ((1, 2), (0,), -1),   # (1/h) q_i q_j p_k at (k, i, j)
           "b": ((0,), (1, 2), -1),   # (1/h) q_i p_j p_k at (i, j, k)
           "c": ((), (0, 1, 2), -1),  # (1/h) p_i p_j p_k at (i, j, k)
           "d": ((), (0,), 0)}        # p_i at (i,)

# the most classes close_alphabet admits
MAX_CLOSURE = 64


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
    def from_words(cls, surface: Surface, words: Sequence[Word]
                   ) -> "GeodesicAlphabet":
        classes = []
        for w in words:
            c = surface.canonical_class(w)
            if c is None:
                raise AlphabetError("trivial class in the alphabet")
            if c not in classes:
                classes.append(c)
        names = {w: format_word(w, surface).replace(" ", ".")
                 for w in classes}
        return cls(surface, classes, names)

    def name(self, w: Word) -> str:
        return self.names[w]

    def q(self, w: Word) -> GradedSeries:
        return self.sys.series_q(self.names[w])

    def qsym(self, w: Word) -> GradedSymbol:
        return self.sys.q[self.names[w]]

    def iterated(self) -> List[Word]:
        return [w for w in self.classes if self.surface.multiplicity(w) > 1]

    @cached_property
    def F(self) -> GradedSeries:
        """The cobordism potential `build_F`, built on first use."""
        return build_F(self)

    @cached_property
    def class_of_qsym(self) -> Dict[GradedSymbol, Word]:
        """The class of each q-variable."""
        return {self.qsym(w): w for w in self.classes}

    @cached_property
    def exp_F(self) -> GradedSeries:
        """e^F in the filling window of check_surface_master, built on
        first use: the sign flips of one Hamiltonian share their
        alphabet, and so this series."""
        return exp_series(self.F, self.sys, _FILLING)

    @cached_property
    def constants(self):
        """The structure constants (cobracket, bracket) up to the length
        of the longest class, built on first use for the fit and the
        intertwining check; neither changes them."""
        return surface_structure_constants(
            self, max(len(w) for w in self.classes))

    @cached_property
    def filling(self) -> Tuple[FreeAlgebraSpec, Augmentation]:
        """The fit spec and the augmentation beta of the potential F,
        built on first use; the Hamiltonian fit and the intertwining
        check twist by this one beta, so its memos serve both."""
        spec = _fit_spec(self)
        return spec, filling_augmentation(self, self.F, spec)


def close_alphabet(surface: Surface, seeds: Sequence[Word], cap: int
                   ) -> Tuple[List[Word], List[Word]]:
    """Close a seed set under orientation reversal and under all classes
    of length <= cap produced by brackets and cobrackets of members.
    Returns (closure, escaping classes beyond the cap); a closure of more
    than MAX_CLOSURE classes raises AlphabetError."""
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
        if len(alpha) > MAX_CLOSURE:
            raise AlphabetError("closure exceeded %d classes" % MAX_CLOSURE)
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
    out: Dict[Monomial, Coeff] = {}
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
    on the basis monomials.

    act_right contracts every p of a term of F with a q of the word m,
    so the q-part that the term leaves is m less the term's q-word (its
    p-part with each p written as the q of its orbit).  Only m equal to
    such a q-word can have a scalar value, so only those words are read,
    in basis order; a q-word past word_cap is not a basis word."""
    sys = alphabet.sys
    act = act_right_words(F, sys, _WIDE)
    words = {tuple((sys.q[s.orbit], e) for s, e in m if s.kind == KIND_P)
             for m in F.terms}
    table: Dict[Monomial, GradedSeries] = {}
    for m in spec.basis_monomials():
        if m == ONE or m not in words:
            continue
        val = act(m)
        scal = GradedSeries({mono: c for mono, c in val.terms.items()
                             if q_degree(mono) == 0})
        if not scal.is_zero():
            table[m] = scal
    return Augmentation(spec, table)


@dataclass
class SurfaceHamiltonian:
    alphabet: GeodesicAlphabet
    series: GradedSeries
    a: Dict[tuple, Coeff]
    b: Dict[tuple, Coeff]
    c: Dict[tuple, Coeff]
    d: Dict[tuple, Coeff]
    notes: List[str] = field(default_factory=list)

    @property
    def sys(self) -> OrbitSystem:
        return self.alphabet.sys

    def coefficients(self) -> Dict[str, Dict[tuple, Coeff]]:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    def flipped(self, family: str, key: tuple) -> "SurfaceHamiltonian":
        """Copy with one structure constant's sign flipped.  H is linear
        in its constants, so the series is H - 2c * (term at key): the
        same terms in the same order as _assemble of the flipped
        families, since each term has its own monomial."""
        fams = {k: dict(v) for k, v in self.coefficients().items()}
        c = fams[family][key]
        fams[family][key] = -c
        series = self.series - _term(self.alphabet, family, key, 2 * c)
        return SurfaceHamiltonian(self.alphabet, series,
                                  notes=list(self.notes), **fams)


def _term(alphabet: GeodesicAlphabet, family: str, key: tuple,
          coeff: Coeff = 1) -> GradedSeries:
    """The term of `family` at `key`, in the family's shape."""
    qs, ps, hpow = _SHAPES[family]
    names = [alphabet.names[w] for w in key]
    return alphabet.sys.monomial(coeff, qs=[names[i] for i in qs],
                                 ps=[names[i] for i in ps], hpow=hpow)


def _assemble(alphabet: GeodesicAlphabet,
              families: Dict[str, Dict[tuple, Coeff]]) -> GradedSeries:
    """The sum of the terms of {family: {key: coefficient}}."""
    out: Dict[Monomial, Coeff] = {}
    for family, coeffs in families.items():
        for key, coeff in coeffs.items():
            add_terms(out, _term(alphabet, family, key, coeff).terms)
    return GradedSeries.from_terms(out)


def surface_structure_constants(alphabet: GeodesicAlphabet, cap: int):
    """Projected bracket and cobracket constants over the alphabet.

    Raises when an operation produces a class of length <= cap that is
    missing from the alphabet; classes beyond the cap are projected
    away (the length filtration of the correspondence)."""
    S = alphabet.surface
    members = set(alphabet.classes)
    missing = set()
    cob: Dict[Word, Dict[Tuple[Word, Word], Coeff]] = {}
    br: Dict[Tuple[Word, Word], Dict[Word, Coeff]] = {}
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
    return FreeAlgebraSpec.of_q(alphabet.sys, word_cap=4, hbar_cap=3)


def build_H_surface(alphabet: GeodesicAlphabet) -> SurfaceHamiltonian:
    """Assemble the candidate Hamiltonian from the Goldman-Turaev
    structure constants of the alphabet."""
    S = alphabet.surface
    sys = alphabet.sys
    cob, br = alphabet.constants
    notes = []
    iterated = alphabet.iterated()
    if iterated:
        notes.append("alphabet contains iterated classes: %s"
                     % ", ".join(format_word(w, S) for w in iterated))

    spec, beta = alphabet.filling

    # -- a-family: cobracket constants through the quadratic part -------
    a: Dict[tuple, Coeff] = {}
    order = {w: i for i, w in enumerate(alphabet.classes)}
    for k in alphabet.classes:
        for (u, v), coeff in cob[k].items():
            if order[u] < order[v]:
                probe = _delta_probe(alphabet, k, u, v)
                a[(k, u, v)] = exact(Fraction(coeff, probe))
    # -- d-family: kill the constant terms of the twisted operator ------
    # D(q_k) of the a-family is its quadratic part: under full contraction
    # only the a-terms holding p_k act on q_k
    d: Dict[tuple, Coeff] = {}
    H_a = _assemble(alphabet, {"a": a})
    h = ((sys.hbar, 1),)
    for k in alphabet.classes:
        resid = beta.exp(act_right(H_a, alphabet.q(k), sys, _WIDE))
        if resid:
            # the unit d-term p_k contributes kappa * h to D(q_k)
            kap = _probe(alphabet, "d", (k,), (k,)).coefficient(h)
            coeff = exact(Fraction(-resid.coefficient(h), kap))
            if coeff:
                d[(k,)] = coeff
    # -- b-family: match the bracket through the h-linear part ----------
    b: Dict[tuple, Coeff] = {}
    mu = _linearized(alphabet, _assemble(alphabet, {"a": a, "d": d}),
                     validate=False).mu
    cls = alphabet.class_of_qsym
    for x in alphabet.classes:
        for y in alphabet.classes:
            if order[x] >= order[y]:
                continue
            target = br[(x, y)]
            have = {cls[s]: coeff for s, coeff in
                    mu.get((alphabet.qsym(x), alphabet.qsym(y)), {}).items()}
            gap = {z: target.get(z, 0) - have.get(z, 0)
                   for z in set(target) | set(have)}
            for z, g in gap.items():
                if not g:
                    continue
                t = _b_probe(alphabet, z, x, y)
                b[(z, x, y)] = exact(Fraction(g, t))
    # -- c-family: augmentation law on cubic words ----------------------
    c: Dict[tuple, Coeff] = {}
    D = bv_from_hamiltonian(sys, _assemble(alphabet, {"a": a, "b": b, "d": d}),
                            spec)
    for trip in itertools.combinations(alphabet.classes, 3):
        mono = _word_monomial(alphabet, trip)
        if mono is None:
            continue
        resid = beta.exp(D.value(mono))
        if resid.is_zero():
            continue
        t_probe = beta.exp(_probe(alphabet, "c", trip, trip))
        # solve resid + coeff_c * probe = 0 termwise; probe and resid are
        # proportional scalar h^2 series
        mono2, cc2 = next(iter(resid.terms.items()))
        pc = t_probe.coefficient(mono2)
        if not pc:
            raise AlphabetError("cubic probe cannot cancel the residual")
        c[trip] = exact(Fraction(-cc2, pc))
        check = resid + t_probe.scale(c[trip])
        if not check.is_zero():
            raise AlphabetError("cubic residual is not proportional to the probe")
    fams = {"a": a, "b": b, "c": c, "d": d}
    H = SurfaceHamiltonian(alphabet, _assemble(alphabet, fams), notes=notes,
                           **fams)
    _validate_shapes(H)
    return H


def _word_monomial(alphabet: GeodesicAlphabet, words) -> Optional[Monomial]:
    """The monomial of the product of the q-variables of `words`, or
    None when it vanishes (an odd class repeats)."""
    res = normalize([(alphabet.qsym(w), 1) for w in words])
    if res is None:
        return None
    sgn, mono = res
    assert sgn == 1
    return mono


def _probe(alphabet: GeodesicAlphabet, family: str, key: tuple, words
           ) -> GradedSeries:
    """The action of the unit term of `family` at `key` on the product
    of the q-variables of `words`."""
    return act_right(_term(alphabet, family, key),
                     GradedSeries({_word_monomial(alphabet, words): 1}),
                     alphabet.sys, _WIDE)


def _delta_probe(alphabet: GeodesicAlphabet, k: Word, u: Word, v: Word
                 ) -> Coeff:
    """Coefficient of u (x) v in the extracted cobracket when the unit
    a-term q_u q_v p_k is the whole Hamiltonian."""
    img = _probe(alphabet, "a", (k, u, v), (k,))
    total = 0
    pair = (alphabet.qsym(u), alphabet.qsym(v))
    for mono, cc in img.terms.items():
        entries = tuple((s, e) for s, e in mono if s.kind == KIND_Q)
        if q_degree(entries) == 2:
            total += cc * cobracket_pairs(entries).get(pair, 0)
    if not total:
        raise AlphabetError("degenerate cobracket probe")
    return total


def _b_probe(alphabet: GeodesicAlphabet, z: Word, x: Word, y: Word) -> Coeff:
    """Coefficient of q_z h in the action of the unit b-term
    (1/h) q_z p_x p_y on q_x q_y, with the bracket's front sign."""
    img = _probe(alphabet, "b", (z, x, y), (x, y))
    val = img.coefficient(((alphabet.qsym(z), 1), (alphabet.sys.hbar, 1)))
    # mu(v1, v2) carries the extra (-1)^{|v1|}
    sign = -1 if alphabet.qsym(x).parity else 1
    if not val:
        raise AlphabetError("degenerate bracket probe")
    return val * sign


def _linearized(alphabet: GeodesicAlphabet, H: GradedSeries,
                validate: bool = True) -> LieBialgebraData:
    """The linearization of the operator of H twisted by the filling
    augmentation; `validate` as in twist_by_augmentation."""
    spec, beta = alphabet.filling
    D = bv_from_hamiltonian(alphabet.sys, H, spec)
    _Phi, _PhiInv, Dbeta = twist_by_augmentation(D, beta, validate=validate)
    return linearize(Dbeta)


def _validate_shapes(H: SurfaceHamiltonian) -> None:
    """Only the four monomial shapes may occur, all of degree -1."""
    shapes = {(len(qs), len(ps), h) for qs, ps, h in _SHAPES.values()}
    for mono in H.series.terms:
        qd, pd, h = q_degree(mono), p_degree(mono), hbar_exponent(mono)
        if (qd, pd, h) not in shapes:
            raise AlphabetError("forbidden monomial shape %s"
                                % format_monomial(mono))
        if monomial_degree(mono) != -1:
            raise AlphabetError("Hamiltonian term %s has degree %d"
                                % (format_monomial(mono), monomial_degree(mono)))


def check_surface_master(H: SurfaceHamiltonian) -> CheckReport:
    """H * H = 0 together with the filling equation e^F <-H = 0.

    The d-family never multiplies a q-variable of the alphabet (its
    classes only split off short classes), so H * H alone cannot see it;
    the filling potential pins it down.

    The filling equation keeps the q-free part of e^F * H.  e^F holds
    only p and h, so a term of e^F * H is q-free exactly when every q
    of H contracts, and that part is act_left(e^F, H): the same terms
    with the same coefficients, without building the q-carrying terms
    the projection would drop.
    """
    report = check_master_h(H.series, H.sys, _MASTER)
    report.name = "surface Hamiltonian master equation"
    report.notes.extend(H.notes)
    with timed(report):
        filling = act_left(H.alphabet.exp_F, H.series, H.sys, _FILLING)
        for mono, cc in filling.iter_terms():
            report.add_witness("filling: " + format_monomial(mono), cc)
    return report


def check_psi_intertwining(H: SurfaceHamiltonian) -> CheckReport:
    """The linearized bracket and cobracket of (H, ->F) must equal the
    Goldman-Turaev structure constants under the orbit-to-class map; a
    filling beta that is no augmentation of H is its one witness."""
    alphabet = H.alphabet
    report = CheckReport("linearized structure matches the surface operations")
    with timed(report):
        cob, br = alphabet.constants
        try:
            data = _linearized(alphabet, H.series)
        except BvError as exc:
            report.add_witness("filling augmentation", str(exc))
            return report
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
