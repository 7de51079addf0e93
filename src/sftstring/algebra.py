"""Exact graded-commutative algebra with Koszul signs.

Everything downstream (Weyl star products, BV operators, multi-string
sums) is a finite linear combination of monomials in graded symbols with
Fraction coefficients.  A monomial keeps its symbols in a fixed canonical
order: string-coefficient symbols, then q-variables, then p-variables,
then the formal variable h (hbar).  Reordering an arbitrary word into
this form accumulates the Koszul sign; odd symbols square to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

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


@dataclass(frozen=True)
class GradedSymbol:
    name: str
    degree: int
    kind: str
    orbit: Optional[str] = None  # orbit name for q/p variables
    index: int = 0  # position within its block

    def __post_init__(self):
        if self.kind not in _BLOCK:
            raise ValueError("unknown symbol kind %r" % (self.kind,))

    @property
    def parity(self) -> int:
        return self.degree % 2

    @property
    def sort_key(self):
        return (_BLOCK[self.kind], self.index, self.name)

    def __repr__(self):
        return self.name


# A Monomial is a tuple of (GradedSymbol, exponent) pairs in canonical
# order.  The empty tuple is the unit.  Only h may carry a negative
# exponent.
Monomial = tuple

ONE: Monomial = ()


def monomial_degree(m: Monomial) -> int:
    return sum(s.degree * e for s, e in m)


def hbar_exponent(m: Monomial) -> int:
    for s, e in m:
        if s.kind == KIND_H:
            return e
    return 0


def p_degree(m: Monomial) -> int:
    return sum(e for s, e in m if s.kind == KIND_P)


def q_degree(m: Monomial) -> int:
    return sum(e for s, e in m if s.kind == KIND_Q)


def word_length(m: Monomial) -> int:
    return sum(e for s, e in m if s.kind == KIND_S)


def split_h(m: Monomial) -> Tuple[Monomial, int]:
    """The h-free part of a monomial and its h exponent."""
    h = 0
    rest = []
    for s, e in m:
        if s.kind == KIND_H:
            h += e
        else:
            rest.append((s, e))
    return tuple(rest), h


def units_of(m: Monomial) -> List[GradedSymbol]:
    """The symbols of a monomial other than h, each repeated by its
    exponent."""
    out = []
    for s, e in m:
        if s.kind != KIND_H:
            out.extend([s] * e)
    return out


def koszul_sign(symbols, permutation) -> int:
    """Sign of rearranging `symbols` by `permutation`.

    permutation[k] is the position in `symbols` of the k-th element of
    the rearranged word.  The sign is -1 to the number of inversions
    between odd symbols, counted directly.
    """
    n = len(symbols)
    if sorted(permutation) != list(range(n)):
        raise ValueError("not a permutation of positions")
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if permutation[i] > permutation[j]:
                if symbols[permutation[i]].parity and symbols[permutation[j]].parity:
                    sign = -sign
    return sign


def normalize(entries: Iterable) -> Optional[tuple]:
    """Sort a word of (symbol, exponent) pairs into canonical order.

    Returns (sign, monomial) or None when the word vanishes (an odd
    symbol acquires exponent >= 2).  Raises NormalizationError if the
    word contains p and q of the same orbit with the p on the left:
    that move is not super-commutative and belongs to the star product.
    """
    word = [(s, e) for s, e in entries if e != 0]
    # p_gamma left of q_gamma (same orbit) is not ours to reorder
    seen_p: dict = {}
    for s, e in word:
        if s.kind == KIND_P and s.orbit is not None:
            seen_p[s.orbit] = True
        elif s.kind == KIND_Q and s.orbit is not None and seen_p.get(s.orbit):
            raise NormalizationError(
                "word mixes p and q of orbit %r in Weyl order; use the star product"
                % (s.orbit,)
            )
    return standard_form(word)


def standard_form(word: list) -> Optional[tuple]:
    """normalize() without the same-orbit guard; sorts `word` in place.

    Callers that have already performed the star-product contractions
    use this directly: the same-orbit p, q pairs left in their words
    take the plain Koszul-swap branch of the commutation relation.
    """
    # insertion sort by sort_key, counting odd-odd transpositions
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1][0].sort_key > word[j][0].sort_key:
            a, b = word[j - 1], word[j]
            if (a[0].parity * a[1]) % 2 and (b[0].parity * b[1]) % 2:
                sign = -sign
            word[j - 1], word[j] = b, a
            j -= 1
    # merge equal symbols
    merged = []
    for s, e in word:
        if merged and merged[-1][0] == s:
            merged[-1] = (s, merged[-1][1] + e)
        else:
            merged.append((s, e))
    out = []
    for s, e in merged:
        if e == 0:
            continue
        if s.parity and e > 1:
            return None
        if e < 0 and s.kind != KIND_H:
            raise NormalizationError("negative exponent on %r" % (s,))
        out.append((s, e))
    return sign, tuple(out)


def add_terms(acc: dict, terms: dict, scale=1) -> dict:
    """acc += scale * terms, key by key, for any sparse vector.

    A key whose coefficient cancels is removed at once, so `acc` holds
    no zeros and its keys keep first-insertion order, exactly as a
    chain of GradedSeries additions would leave them.  Returns acc.
    """
    for k, v in terms.items():
        c = acc.get(k, 0) + v * scale
        if c:
            acc[k] = c
        else:
            acc.pop(k, None)
    return acc


@dataclass(frozen=True)
class TruncationContext:
    """Working window for formal series.

    Terms above the caps are dropped; a surviving term below min_hbar is
    an error (silent cancellation of 1/h-divergences would hide bugs).
    """

    max_p_degree: int = 6
    max_hbar: int = 6
    min_hbar: int = -1
    max_word_length: int = 8

    def __post_init__(self):
        if self.max_p_degree < 0 or self.max_hbar < self.min_hbar:
            raise ValueError("inconsistent truncation caps")
        if self.min_hbar < -64:
            raise ValueError("min_hbar unreasonably low")

    def keeps(self, m: Monomial) -> bool:
        return (
            p_degree(m) <= self.max_p_degree
            and hbar_exponent(m) <= self.max_hbar
            and word_length(m) <= self.max_word_length
        )

    def widen(self, extra_low: int = 0, extra_high: int = 0,
              extra_p: int = 0, extra_len: int = 0) -> "TruncationContext":
        return TruncationContext(
            self.max_p_degree + extra_p,
            self.max_hbar + extra_high,
            self.min_hbar - extra_low,
            self.max_word_length + extra_len,
        )


class GradedSeries:
    """Finite Fraction-linear combination of normalized monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict = {}
        for m, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[m] = c

    # -- constructors ------------------------------------------------
    @classmethod
    def from_terms(cls, terms: dict) -> "GradedSeries":
        """Series over a dict of normalized monomials and exact (Fraction)
        coefficients, taken as they are except that zeros are dropped."""
        s = cls.__new__(cls)
        s.terms = {m: c for m, c in terms.items() if c}
        return s

    @classmethod
    def zero(cls) -> "GradedSeries":
        return cls()

    @classmethod
    def unit(cls, coeff=1) -> "GradedSeries":
        return cls({ONE: Fraction(coeff)})

    @classmethod
    def generator(cls, sym: GradedSymbol, coeff=1, power: int = 1) -> "GradedSeries":
        res = normalize([(sym, power)])
        if res is None:
            return cls.zero()
        sgn, mono = res
        return cls({mono: Fraction(coeff) * sgn})

    @classmethod
    def from_word(cls, entries, coeff=1) -> "GradedSeries":
        res = normalize(entries)
        if res is None:
            return cls.zero()
        sgn, mono = res
        return cls({mono: Fraction(coeff) * sgn})

    # -- ring structure ----------------------------------------------
    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        return GradedSeries.from_terms(add_terms(dict(self.terms), other.terms))

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + other.scale(-1)

    def __neg__(self) -> "GradedSeries":
        return self.scale(-1)

    def scale(self, c) -> "GradedSeries":
        c = Fraction(c)
        return GradedSeries.from_terms(
            {m: cc * c for m, cc in self.terms.items()} if c else {})

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedSeries) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

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
    """Graded-commutative product, re-truncated to the context."""
    acc: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            res = normalize(list(m1) + list(m2))
            if res is None:
                continue
            sgn, mono = res
            acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2 * sgn
    return collect(acc, ctx)


def collect(acc: dict, ctx: TruncationContext) -> GradedSeries:
    """Series of the accumulated terms inside the context window.

    Zeros and terms above the caps are dropped; a nonzero term below
    min_hbar raises TruncationUnderflow.
    """
    out = {}
    for m, c in acc.items():
        if not c:
            continue
        if hbar_exponent(m) < ctx.min_hbar:
            raise TruncationUnderflow(
                "term %s needs hbar^%d below the context minimum %d"
                % (format_monomial(m), hbar_exponent(m), ctx.min_hbar)
            )
        if ctx.keeps(m):
            out[m] = c
    return GradedSeries.from_terms(out)


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
