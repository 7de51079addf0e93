"""Exact graded-commutative algebra with Koszul signs.

Everything downstream (Weyl star products, BV operators, multi-string
sums) is a finite linear combination of monomials in graded symbols with
exact coefficients: an int when the value is an integer, otherwise a
Fraction with denominator above 1, never a float (exact() applies the
rule).  A monomial keeps its symbols in a fixed canonical order:
string-coefficient symbols, then q-variables, then p-variables, then
the formal variable h (hbar).  Reordering an arbitrary word into
this form accumulates the Koszul sign; odd symbols square to zero.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass, replace
from fractions import Fraction
from math import inf
from typing import Iterator, Optional, Sequence, Tuple, Union

# symbol kinds, also the block order inside a normalized monomial
KIND_S = "s"  # string/coefficient symbol
KIND_Q = "q"
KIND_P = "p"
KIND_H = "h"

_BLOCK = {KIND_S: 0, KIND_Q: 1, KIND_P: 2, KIND_H: 3}


class NormalizationError(ValueError):
    """Word cannot be normalized by super-commutation alone."""


class TruncationUnderflow(ArithmeticError):
    """A surviving term needs an hbar exponent below the context minimum."""


_INTERNED = weakref.WeakValueDictionary()  # fields -> live symbol


class GradedSymbol:
    """A graded generator (kind s, q, p or h; `orbit` names the orbit of
    a q/p variable, `index` is its position within its block), interned:
    a call with the fields of a live symbol returns that symbol, so equal
    fields mean one object, and equality and hashing are identity.
    Immutable; `parity` and `sort_key` are computed once."""

    __slots__ = ("name", "degree", "kind", "orbit", "index", "parity",
                 "sort_key", "__weakref__")

    def __new__(cls, name: str, degree: int, kind: str,
                orbit: Optional[str] = None, index: int = 0):
        fields = (name, degree, kind, orbit, index)
        self = _INTERNED.get(fields)
        if self is None:
            if kind not in _BLOCK:
                raise ValueError("unknown symbol kind %r" % (kind,))
            self = object.__new__(cls)
            derived = (degree % 2, (_BLOCK[kind], index, name))
            for attr, value in zip(cls.__slots__, fields + derived):
                object.__setattr__(self, attr, value)
            _INTERNED[fields] = self
        return self

    def __setattr__(self, attr, value=None):
        raise FrozenInstanceError("cannot assign to field %r" % (attr,))

    __delattr__ = __setattr__

    def __reduce__(self):
        # rebuild through the constructor: it returns the interned symbol
        return (self.__class__,
                (self.name, self.degree, self.kind, self.orbit, self.index))

    def __repr__(self):
        return self.name


# A Monomial is a tuple of (GradedSymbol, exponent) pairs in canonical
# order.  The empty tuple is the unit.  Only h may carry a negative
# exponent.
Monomial = tuple

ONE: Monomial = ()


def hbar_symbol(n: int) -> GradedSymbol:
    """The symbol h in dimension 2n - 1, of degree 2(n - 3)."""
    return GradedSymbol("h", 2 * (n - 3), KIND_H, None, 0)


def monomial_degree(m: Monomial) -> int:
    return sum(s.degree * e for s, e in m)


def hbar_exponent(m: Monomial) -> int:
    """The h exponent of a monomial: its last unit's, as h sorts last."""
    return m[-1][1] if m and m[-1][0].kind == KIND_H else 0


def p_degree(m: Monomial) -> int:
    return sum(e for s, e in m if s.kind == KIND_P)


def q_degree(m: Monomial) -> int:
    return sum(e for s, e in m if s.kind == KIND_Q)


def word_length(m: Monomial) -> int:
    return sum(e for s, e in m if s.kind == KIND_S)


def split_h(m: Monomial) -> Tuple[Monomial, int]:
    """The h-free part of a monomial, made of m's own units, and its h
    exponent."""
    h = 0
    rest = []
    for unit in m:
        if unit[0].kind == KIND_H:
            h += unit[1]
        else:
            rest.append(unit)
    return tuple(rest), h


def normalize(word: Sequence) -> Optional[tuple]:
    """(sign, monomial) of a word, a sequence of (symbol, exponent)
    tuples, sorted into canonical order, or None when it vanishes (an
    odd symbol acquires exponent >= 2).

    One pass: a unit of exponent 0 is skipped, a unit past every earlier
    one appended (a word in standard order costs one sort-key comparison
    a unit), any other merged in (merge_words).  Precedence: a q with the
    p of its orbit to its left raises NormalizationError for the whole
    word (that move belongs to the star product), then a vanishing word
    gives None, then a negative exponent off h in the merged word raises.
    """
    sign, out, top, neg = 1, (), (-1,), False  # (-1,) < every sort_key < (4,)
    for i, unit in enumerate(word):
        s, e = unit
        if e != 1:
            if not e:
                continue
            if s.parity and e > 1:  # vanishes; the rest only checks p, q
                out, top = None, (4,)
            neg = neg or e < 0 and s.kind != KIND_H
        key = s.sort_key
        if top < key:
            top = key
            out += (unit,)
            continue
        # a q right of the p of its orbit comes here: top >= that p's key
        if s.kind == KIND_Q and s.orbit is not None:
            for t, f in word[:i]:
                if f and t.kind == KIND_P and t.orbit == s.orbit:
                    raise weyl_order_error(s.orbit)
        res = merge_words(out, (unit,)) if out is not None else None
        if res is None:
            out, top = None, (4,)
        else:
            sign, out = sign * res[0], res[1]
    for s, e in out if neg and out is not None else ():
        if e < 0 and s.kind != KIND_H:
            raise NormalizationError("negative exponent on %r" % (s,))
    return None if out is None else (sign, out)


def weyl_order_error(orbit: str) -> NormalizationError:
    """The error for a word with the p of `orbit` left of its q."""
    return NormalizationError(
        "word mixes p and q of orbit %r in Weyl order; use the star product"
        % (orbit,))


def merge_words(left, right) -> Optional[tuple]:
    """Product of two standard-form words of (symbol, exponent) pairs.

    Returns (sign, standard-form tuple), or None when an odd symbol
    occurs in both.  An empty word, or left ending below right's start,
    gives (1, left + right); else one merge pass does what standard_form
    does for the concatenation: each odd left unit is passed by the odd
    right units emitted before it, and contributes -1 when there is an
    odd number of those.  Equal even symbols add their exponents; a zero
    sum (h^-1 * h) drops out.  Every other unit of the result is the
    unit object of left or right: only a summed exponent makes one."""
    if not left or not right or left[-1][0].sort_key < right[0][0].sort_key:
        return 1, left + right
    out = []
    sign = 1
    odd_right = 0
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        s, e = left[i]
        t, f = right[j]
        ks, kt = s.sort_key, t.sort_key
        if kt < ks:
            odd_right ^= t.parity & f
            out.append(right[j])
            j += 1
        elif ks < kt or s != t:
            if odd_right and s.parity & e:
                sign = -sign
            out.append(left[i])
            i += 1
        elif s.parity:
            return None
        else:
            if e + f:
                out.append((s, e + f))
            i += 1
            j += 1
    if odd_right:
        for s, e in left[i:]:
            if s.parity & e:
                sign = -sign
    out.extend(left[i:])
    out.extend(right[j:])
    return sign, tuple(out)


def derivation(m: Monomial, image) -> dict:
    """d(m), d the derivation with d(s) = image(s), as a dict of terms.

    image(s) is a dict {standard-form word: coefficient}, empty or None
    where d(s) = 0.  d passes the units before s, of total degree P, and
    d(s) moves to the front past them: the sign is (-1)^(|s| P) for
    every degree of d.  An even s^e gives e s^(e-1) d(s); an odd s has
    e == 1.  Each product is merge_words; the sums are kept as they
    come, zeros included, for collect() or from_terms() to drop.
    """
    acc: dict = {}
    par = 0
    for k, (s, e) in enumerate(m):
        img = image(s)
        if img:
            c0 = -e if s.degree * par % 2 else e
            rest = m[:k] + (((s, e - 1),) if e > 1 else ()) + m[k + 1:]
            for mi, ci in img.items():
                res = merge_words(mi, rest)
                if res is not None:
                    c = c0 * ci
                    acc[res[1]] = acc.get(res[1], 0) + (c if res[0] > 0 else -c)
        par += s.degree * e
    return acc


# a coefficient: an int when its value is an integer, else a Fraction
Coeff = Union[int, Fraction]


def exact(c) -> Coeff:
    """The exact coefficient of value c: an int argument unchanged, else
    Fraction(c), or its numerator when the denominator is 1."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def add_terms(acc: dict, terms: dict, scale=1) -> dict:
    """acc += scale * terms, key by key, for any sparse vector: the one
    term accumulator, also behind GradedSeries' + and -.

    A key whose coefficient cancels is removed at once, so `acc` holds
    no zeros and its keys keep first-insertion order, exactly as a
    chain of GradedSeries additions would leave them.  A scale of +-1
    negates or keeps each value instead of multiplying; a value stored
    that is a whole Fraction is stored as its int (the rule of exact()).
    Returns acc.
    """
    negate, unit = scale == -1, scale == 1
    for k, v in terms.items():
        if negate:
            v = -v
        elif not unit:
            v = v * scale
        prev = acc.get(k)
        if prev is not None:
            v = prev + v
        if not v:
            acc.pop(k, None)
        elif v.__class__ is Fraction and v.denominator == 1:
            acc[k] = v.numerator
        else:
            acc[k] = v
    return acc


@dataclass(frozen=True)
class TruncationContext:
    """The one window type: collect() keeps the terms whose p-degree,
    q-degree, h exponent and word length are within the caps (a cap of
    math.inf, as the q cap's default, cuts nothing); a surviving term
    below min_hbar is an error (silent cancellation of 1/h-divergences
    would hide bugs).  Only bv.FreeAlgebraSpec.caps sets a q cap."""

    max_p_degree: int = 6
    max_hbar: int = 6
    min_hbar: int = -1
    max_word_length: int = 8
    max_q_degree: int = inf

    def __post_init__(self):
        if self.max_p_degree < 0 or self.max_q_degree < 0 \
                or self.max_hbar < self.min_hbar:
            raise ValueError("inconsistent truncation caps")
        if self.min_hbar < -64:
            raise ValueError("min_hbar unreasonably low")

    def widen(self, extra_low: int) -> "TruncationContext":
        """The window with min_hbar lowered by extra_low."""
        return replace(self, min_hbar=self.min_hbar - extra_low)


# the window that drops no term above any cap; below h^-64 it raises
KEEP_ALL = TruncationContext(max_p_degree=inf, max_hbar=inf, min_hbar=-64,
                             max_word_length=inf)

class GradedSeries:
    """Finite rational linear combination of normalized monomials.

    Each coefficient is nonzero and exact: an int when its value is an
    integer, else a Fraction (with denominator above 1)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict = {}
        for m, c in (terms or {}).items():
            c = exact(c)
            if c:
                self.terms[m] = c

    # -- constructors ------------------------------------------------
    @classmethod
    def from_terms(cls, terms: dict) -> "GradedSeries":
        """Series over a dict of normalized monomials and int or Fraction
        coefficients, taken as they are except that zeros are dropped
        and a Fraction with denominator 1 becomes its int."""
        return cls._of({m: c if c.__class__ is int or c.denominator != 1
                        else c.numerator for m, c in terms.items() if c})

    @classmethod
    def _of(cls, terms: dict) -> "GradedSeries":
        """The series over `terms`, nonzero and exact already."""
        s = cls.__new__(cls)
        s.terms = terms
        return s

    @classmethod
    def zero(cls) -> "GradedSeries":
        return cls()

    @classmethod
    def unit(cls, coeff=1) -> "GradedSeries":
        return cls({ONE: coeff})

    @classmethod
    def generator(cls, sym: GradedSymbol) -> "GradedSeries":
        return cls({((sym, 1),): 1})

    @classmethod
    def from_word(cls, entries, coeff=1) -> "GradedSeries":
        res = normalize(entries)
        c = exact(coeff) if res else 0
        return cls._of({res[1]: c if res[0] > 0 else -c} if c else {})

    # -- ring structure ----------------------------------------------
    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries._of(add_terms(dict(self.terms), other.terms))

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries._of(add_terms(dict(self.terms), other.terms, -1))

    def scale(self, c) -> "GradedSeries":
        c = exact(c)
        return GradedSeries.from_terms(
            {m: cc * c for m, cc in self.terms.items()} if c else {})

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedSeries) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, m: Monomial) -> Coeff:
        return self.terms.get(m, 0)

    def iter_terms(self) -> Iterator:
        return iter(sorted(self.terms.items(), key=lambda t: _term_sort_key(t[0])))

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of all terms, or None (mixed or zero)."""
        degs = {monomial_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __repr__(self):
        return format_series(self)


def _term_sort_key(m: Monomial):
    return (
        hbar_exponent(m),
        p_degree(m),
        q_degree(m),
        word_length(m),
        tuple((s.sort_key, e) for s, e in m),
    )


def mul(a: GradedSeries, b: GradedSeries, ctx: TruncationContext) -> GradedSeries:
    """Graded-commutative product, re-truncated to the context: collect()
    of product_terms()."""
    return collect(product_terms(a, b), ctx)


def product_terms(a: GradedSeries, b: GradedSeries) -> dict:
    """The terms of the graded-commutative product a b, summed as they
    come, zeros included, for collect() or another window to drop.

    Each pair of terms is merged (merge_words), as both are in standard
    form; a pair in which an orbit has its p in the left monomial and
    its q in the right one raises normalize()'s NormalizationError, for
    the first such q of the right monomial.
    """
    right = [(m2, c2, [s.orbit for s, _ in m2
                       if s.kind == KIND_Q and s.orbit is not None])
             for m2, c2 in b.terms.items()]
    acc: dict = {}
    for m1, c1 in a.terms.items():
        p_orbits = {s.orbit for s, _ in m1
                    if s.kind == KIND_P and s.orbit is not None}
        for m2, c2, q_orbits in right:
            if p_orbits:
                for o in q_orbits:
                    if o in p_orbits:
                        raise weyl_order_error(o)
            res = merge_words(m1, m2)
            if res is None:
                continue
            sgn, mono = res
            acc[mono] = acc.get(mono, 0) + (c1 * c2 if sgn > 0 else -(c1 * c2))
    return acc


def collect(acc: dict, ctx: TruncationContext) -> GradedSeries:
    """Series of the accumulated terms inside the context window: the
    one function that windows a finished sum.

    Zeros and terms above the caps are dropped, and a Fraction with
    denominator 1 becomes its int; a nonzero term below min_hbar raises
    TruncationUnderflow.  One pass over each monomial reads its h
    exponent, q-degree, p-degree and word length.
    """
    max_p, max_h, min_h = ctx.max_p_degree, ctx.max_hbar, ctx.min_hbar
    max_q, max_len = ctx.max_q_degree, ctx.max_word_length
    out = {}
    for m, c in acc.items():
        if not c:
            continue
        h = qdeg = pdeg = length = 0
        for s, e in m:
            kind = s.kind
            if kind == KIND_Q:
                qdeg += e
            elif kind == KIND_P:
                pdeg += e
            elif kind == KIND_H:
                h = e
            else:
                length += e
        if h < min_h:
            raise truncation_underflow(m, min_h)
        if h <= max_h and qdeg <= max_q and pdeg <= max_p \
                and length <= max_len:
            out[m] = c if c.__class__ is int or c.denominator != 1 \
                else c.numerator
    return GradedSeries._of(out)


def truncation_underflow(m: Monomial, min_h: int) -> TruncationUnderflow:
    """The error for a surviving term m below the context minimum."""
    return TruncationUnderflow(
        "term %s needs hbar^%d below the context minimum %d"
        % (format_monomial(m), hbar_exponent(m), min_h))


def format_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for s, e in m:
        parts.append(s.name if e == 1 else "%s^%d" % (s.name, e))
    return "*".join(parts)


def format_series(series: GradedSeries) -> str:
    if series.is_zero():
        return "0"
    chunks = []
    for m, c in series.iter_terms():
        mono = format_monomial(m)
        if c == 1 and m:
            txt = mono
        elif c == -1 and m:
            txt = "-" + mono
        elif not m:
            txt = str(c)
        else:
            txt = "%s*%s" % (c, mono)
        if chunks and not txt.startswith("-"):
            chunks.append("+ " + txt)
        elif chunks:
            chunks.append("- " + txt[1:])
        else:
            chunks.append(txt)
    return " ".join(chunks)
