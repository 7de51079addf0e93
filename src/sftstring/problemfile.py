"""Problem files: a small declaration language for orbit systems,
surfaces, classes, graded series and augmentations.

    n = 2
    caps max_p=4 max_h=3 min_h=-1 max_len=8
    orbit g1 cz=0 kappa=2
    orbit g2 cz=1 kappa=1 bad
    orbit g3 cz=0 kappa=1 side=pos
    surface genus=2 boundary=0
    class K = a1 a2 A1 A2
    series H = (1/h)*q[g1]*q[g1]*p[g3] + 2*h^2*p[g3]
    aug beta { q[g1] -> 1/2*h ; q[g3] -> 1 }

Series expressions admit rational literals (ASCII digits), h, q[...],
p[...], s[...], +, -, *, integer powers via ^ up to MAX_POWER (a power
or a product of sums up to MAX_POWER_PRODUCTS term products, a file up
to MAX_FILE_PRODUCTS),
parentheses nested up to MAX_NESTING deep, and (1/h) as the only
negative h power.  Parsing keeps every written term and is
position-tagged; printing is canonical, and parse(print(file))
reproduces the file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import (KEEP_ALL, GradedSeries, NormalizationError,
                      TruncationContext, TruncationUnderflow, add_terms,
                      hbar_exponent, hbar_symbol, mul)
from .strings import ClassAlgebra
from .surfaces import Surface, SurfaceError, Word, format_word, parse_word
from .weyl import Orbit, OrbitSystem

# `x^e` multiplies e times.  At 1,000 one monomial takes 3 ms (h, an even
# p or an odd q, which vanishes at the square); q[g1]^100000000 and
# h^100000000 ran past 10 s before this bound (Python 3.11.7, 2-vCPU VM).
MAX_POWER = 1_000
# x^e of a sum of t terms takes at most t C(t + e - 1, e - 1) term products
# (t times C(t + k - 2, k - 1) terms at the k-th factor); that count, not
# the C(t + e - 1, e) terms of x^e, sets the time: (q1 + q2)^1000 took 2.6 s.
# Just under the bound the slowest shape measured, (1/7 q1 + 2/8 q2)^315,
# took 1.0 s; integer sums of 2 to 300 terms 0.1-0.8 s (same machine).
# A product x * y of sums of t1 and t2 terms takes t1 t2 term products:
# (q1 + ... + q20)^3 * (1 + h + ... + h^63) took 1.0 s, and the same
# Fraction powers, ^315 * ^312, 2.6 s for the product alone.
MAX_POWER_PRODUCTS = 100_000
# All the term products of one file, powers and `*` alike, count against
# one budget, so many products each under the bound above stay bounded in
# total.  A product of two single terms is not counted: their number is
# bounded by the file's length times MAX_POWER, and the printer writes each
# term as such products, so a file read under the budget prints to text
# read under it.  One product at the bound above with the powers that
# build its factors must fit: (q1 + ... + q20)^3 * (1 + h + ... + h^63)
# takes 103,180.  The slowest shape measured under this budget,
# (1/7 q1 + 2/9 q2)^250 * (...)^250 (188,501), took 1.9 s in parse();
# ^315 * ^312 of the same sum (3.9 s, over 296,000) is refused at its `*`
# (same machine).
MAX_FILE_PRODUCTS = 2 * MAX_POWER_PRODUCTS
# each level of parentheses takes four Python frames, so this depth stays
# far below the interpreter's recursion limit
MAX_NESTING = 100
# bracket and cobracket canonicalize words as long as all their input
# letters together (bracket: each concatenation x y), and that grows
# about 8x per 10 letters on strip-rich words (blocks a1 b1 A1 B1, each
# followed by a1 or b2).  At genus 2 (2-vCPU VM, Python 3.11.7):
# cobracket took 0.7 s at 40 letters, 1.7 s at 45, 6.7 s at 50 and
# 16.6 s at 60; bracket of such a word with itself 1.3 s at 20 + 20
# letters, 3.5 s at 20 + 25 and 97 s at 30 + 30.  A class word of a
# file, in `class X = ...` or `s[...]`, has the same bound.
MAX_STRING_LETTERS = 40


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


@dataclass
class ProblemFile:
    """The declarations of a file; each dict is in declaration order."""
    n: int = 2
    caps: TruncationContext = field(default_factory=TruncationContext)
    orbits: List[Orbit] = field(default_factory=list)
    surface: Optional[Surface] = None
    classes: Dict[str, Word] = field(default_factory=dict)
    series: Dict[str, GradedSeries] = field(default_factory=dict)
    series_degree: Dict[str, int] = field(default_factory=dict)
    augs: Dict[str, Dict[str, GradedSeries]] = field(default_factory=dict)
    sys: Optional[OrbitSystem] = None
    # the symbols of the s[...] atoms; reset with `n` and `surface`, as sys
    alg: Optional[ClassAlgebra] = None

    @property
    def class_order(self) -> List[str]:
        return list(self.classes)


# -- tokenizer ---------------------------------------------------------

@dataclass
class Token:
    kind: str  # 'name' | 'int' | 'punct' | 'eol'
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"(->|[=()\[\]{}^*+\-/;,])|([0-9]+)|([^\W\d][\w.]*)|(\S)")
_KINDS = ("punct", "int", "name", None)


def _at(tok: Token, message: str) -> ParseError:
    return ParseError(message, tok.line, tok.col)


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN.finditer(line):
            tok = Token(_KINDS[m.lastindex - 1], m.group(), ln, m.start() + 1)
            # a name starts with a letter or _, not another numeric like ²
            if tok.kind is None or (tok.kind == "name" and tok.text[0] != "_"
                                    and not tok.text[0].isalpha()):
                raise _at(tok, "unexpected character %r" % tok.text[0])
            tokens.append(tok)
        if tokens and tokens[-1].kind != "eol":
            tokens.append(Token("eol", "", ln, len(line) + 1))
    tokens.append(Token("eol", "", len(lines) + 1, 1))
    return tokens


def _number(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # over the interpreter's digit limit
        raise _at(tok, "integer of %d digits is too long" % len(tok.text)) \
            from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.pf = ProblemFile()
        self.degree_at: Dict[str, Token] = {}
        self.nesting = 0
        self.products = 0  # term products so far, against MAX_FILE_PRODUCTS
        self.keyword: Optional[Token] = None  # of the declaration being read

    # -- token helpers -------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Take the next token if it reads `text`."""
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise _at(tok, "expected %r, found %r"
                      % (want, tok.text or "end of line"))
        return self.next()

    def fail_back(self, message: str):
        """Raise at the token just taken."""
        raise _at(self.tokens[self.pos - 1], message)

    def skip_eol(self):
        while self.peek().kind == "eol" and self.pos < len(self.tokens) - 1:
            self.next()

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens) - 1 and self.peek().kind == "eol"

    def _int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * _number(self.expect("int"))

    def _value(self, key: str):
        """The value after `key=`: a side tag for side, else an integer."""
        self.expect("punct", "=")
        if key != "side":
            return self._int()
        side = self.expect("name").text
        if side not in ("pos", "neg", "none"):
            self.fail_back("side must be pos, neg or none")
        return side

    def _attributes(self, values: dict, unknown: str) -> dict:
        """`key=value` attributes over the defaults `values`; the key
        `bad` takes no value."""
        while self.peek().kind == "name":
            key = self.next().text
            if key not in values:
                self.fail_back(unknown % key)
            values[key] = True if key == "bad" else self._value(key)
        return values

    def _named(self, key: str) -> int:
        tok = self.expect("name")
        if tok.text != key:
            raise _at(tok, "expected %r" % key)
        return self._value(key)

    # -- declarations ----------------------------------------------------
    def parse(self) -> ProblemFile:
        self.skip_eol()
        while not self.at_end():
            tok = self.next()
            if tok.kind != "name":
                raise _at(tok, "expected a declaration")
            if tok.text not in self.DECLARATIONS:
                raise _at(tok, "unknown declaration %r" % tok.text)
            self.keyword = tok
            self.DECLARATIONS[tok.text](self)
            if not self.at_end():
                self.expect("eol")
                self.skip_eol()
        self._orbit_system()
        for name, want in self.pf.series_degree.items():
            got = self.pf.series[name].homogeneous_degree()
            if got != want:
                raise _at(self.degree_at[name],
                          "series %r declared with degree %d but has degree %s"
                          % (name, want, got))
        return self.pf

    def _n(self):
        self.expect("punct", "=")
        self.pf.n = self._int()
        self.pf.sys = self.pf.alg = None

    def _caps(self):
        vals = self._attributes(
            {"max_p": 6, "max_h": 6, "min_h": -1, "max_len": 8},
            "unknown cap %r")
        try:
            self.pf.caps = TruncationContext(*vals.values())
        except ValueError as exc:
            raise _at(self.keyword, str(exc)) from None

    def _orbit(self):
        name = self.expect("name").text
        a = self._attributes({"cz": 0, "kappa": 1, "bad": False,
                              "side": "none"}, "unknown orbit attribute %r")
        if any(o.name == name for o in self.pf.orbits):
            raise _at(self.peek(), "orbit %r declared twice" % name)
        try:
            orbit = Orbit(name, a["cz"], a["kappa"], not a["bad"], a["side"])
        except ValueError as exc:
            raise _at(self.keyword, str(exc)) from None
        self.pf.orbits.append(orbit)
        self.pf.sys = None

    def _surface(self):
        genus, boundary = self._named("genus"), self._named("boundary")
        try:
            self.pf.surface = Surface(genus, boundary)
        except SurfaceError as exc:
            raise _at(self.keyword, str(exc)) from None
        self.pf.alg = None

    def _class(self):
        tok = self.expect("name")
        name = tok.text
        self.expect("punct", "=")
        if self.pf.surface is None:
            raise _at(tok, "class declared before a surface")
        word: Word = ()
        while self.peek().kind == "name":
            letter = self.next()
            if len(word) == MAX_STRING_LETTERS:
                raise _at(letter, "class word of more than %d letters"
                          % MAX_STRING_LETTERS)
            try:
                word += parse_word(letter.text, self.pf.surface)
            except SurfaceError as exc:
                raise _at(letter, str(exc)) from None
        if not word:
            raise _at(self.peek(), "empty class word")
        cls = self.pf.surface.canonical_class(word)
        if cls is None:
            raise _at(tok, "class %r is trivial" % name)
        if name in self.pf.classes:
            raise _at(tok, "class %r declared twice" % name)
        self.pf.classes[name] = cls

    def _series(self):
        tok = self.expect("name")
        degree = self._value("deg") if self.accept("deg") else None
        self.expect("punct", "=")
        series = self._expr()
        if tok.text in self.pf.series:
            raise _at(tok, "series %r declared twice" % tok.text)
        self.pf.series[tok.text] = series
        if degree is not None:
            self.pf.series_degree[tok.text] = degree
            self.degree_at[tok.text] = tok

    def _aug(self):
        tok = self.expect("name")
        self.expect("punct", "{")
        entries: Dict[str, GradedSeries] = {}
        while True:
            self.skip_eol()
            if self.accept("}"):
                break
            self.expect("name", "q")
            self.expect("punct", "[")
            orbit = self.expect("name")
            good = {o.name: o.good for o in self.pf.orbits}.get(orbit.text)
            if not good:
                raise _at(orbit, "%s orbit %r" % (
                    "undefined" if good is None else "bad", orbit.text))
            self.expect("punct", "]")
            self.expect("punct", "->")
            entries[orbit.text] = self._expr()
            self.accept(";")
        if tok.text in self.pf.augs:
            raise _at(tok, "augmentation %r declared twice" % tok.text)
        self.pf.augs[tok.text] = entries

    DECLARATIONS = {"n": _n, "caps": _caps, "orbit": _orbit,
                    "surface": _surface, "class": _class, "series": _series,
                    "aug": _aug}

    # -- expression grammar ---------------------------------------------
    def _expr(self) -> GradedSeries:
        # one accumulator for the whole sum: a chain of + building a new
        # series at each term took 80 s (2-vCPU VM) to read back a printed
        # series of 98,560 terms (quadratic); terms and order are the same
        out = dict(self._term().terms)
        while self.peek().text in ("+", "-"):
            minus = self.next().text == "-"
            add_terms(out, self._term().terms, -1 if minus else 1)
        return GradedSeries.from_terms(out)

    def _term(self) -> GradedSeries:
        out = self._factor()
        while self.peek().text == "*":
            tok = self.next()
            out = self._mul(out, self._factor(), tok)
        return out

    def _mul(self, a: GradedSeries, b: GradedSeries, at: Token
             ) -> GradedSeries:
        """a * b, refused at the token `at` when it takes more than
        MAX_POWER_PRODUCTS term products, or when it takes the file's
        term products past MAX_FILE_PRODUCTS (a product of two single
        terms is not counted)."""
        t1, t2 = len(a.terms), len(b.terms)
        if t1 * t2 > MAX_POWER_PRODUCTS:
            raise _at(at, "product of sums of %d and %d terms takes more "
                      "than %d term products" % (t1, t2, MAX_POWER_PRODUCTS))
        if t1 * t2 > 1:
            self.products += t1 * t2
        if self.products > MAX_FILE_PRODUCTS:
            raise _at(at, "the file's term products pass %d"
                      % MAX_FILE_PRODUCTS)
        tok = self.peek()
        try:
            return mul(a, b, KEEP_ALL)
        except (NormalizationError, TruncationUnderflow) as exc:
            raise _at(tok, str(exc)) from None

    def _factor(self) -> GradedSeries:
        base = self._atom()
        if not self.accept("^"):
            return base
        tok = self.peek()
        e = self._int()
        if e < 0:
            raise _at(tok, "negative powers only via (1/h)")
        if e > MAX_POWER:
            raise _at(tok, "power %d is above the maximum %d" % (e, MAX_POWER))
        t = len(base.terms)
        if e and t * math.comb(t + e - 1, e - 1) > MAX_POWER_PRODUCTS:
            raise _at(tok, "power %d of a sum of %d terms takes more than %d "
                      "term products" % (e, t, MAX_POWER_PRODUCTS))
        out = GradedSeries.unit()
        if t != 1:
            for _ in range(e):
                out = self._mul(out, base, tok)
            return out
        # one term: square and multiply along the bits of e, at most 2
        # products a bit; below the window floor, stop at the first power
        # that crosses it, which the error names as e products would
        (m,) = base.terms
        h = hbar_exponent(m)
        if h < 0:
            e = min(e, KEEP_ALL.min_hbar // h + 1)
        for bit in bin(e)[2:]:
            out = self._mul(out, out, tok)
            if bit == "1":
                out = self._mul(out, base, tok)
        return out

    def _atom(self) -> GradedSeries:
        negative = False
        while self.accept("-"):
            negative = not negative
        out = self._primary()
        return out.scale(-1) if negative else out

    def _primary(self) -> GradedSeries:
        tok = self.next()
        if tok.kind == "int":
            num = _number(tok)
            if not self.accept("/"):
                return GradedSeries.unit(num)
            den = _number(self.expect("int"))
            if not den:
                self.fail_back("division by zero")
            return GradedSeries.unit(Fraction(num, den))
        if tok.text == "(":
            if [t.text for t in self.tokens[self.pos:self.pos + 3]] \
                    == ["1", "/", "h"]:
                self.pos += 3
                self.expect("punct", ")")
                return self._hbar(-1)
            if self.nesting == MAX_NESTING:
                raise _at(tok, "parentheses nested deeper than %d"
                          % MAX_NESTING)
            self.nesting += 1
            inner = self._expr()
            self.nesting -= 1
            self.expect("punct", ")")
            return inner
        if tok.text == "h":
            return self._hbar(1)
        if tok.text in ("q", "p", "s"):
            self.expect("punct", "[")
            parts = []
            while not self.accept("]"):
                if self.peek().kind == "eol":
                    raise _at(self.peek(), "unterminated %s[" % tok.text)
                parts.append(self.next().text)
            return self._variable(tok.text, " ".join(parts), tok)
        raise _at(tok, "expected a series atom, found %r"
                  % (tok.text or "end of line"))

    def _hbar(self, power: int) -> GradedSeries:
        return GradedSeries({((hbar_symbol(self.pf.n), power),): 1})

    def _variable(self, kind: str, ident: str, tok: Token) -> GradedSeries:
        if kind in ("q", "p"):
            sys = self._orbit_system()
            table = sys.q if kind == "q" else sys.p
            if ident not in table:
                raise _at(tok, "undefined orbit %r" % ident)
            return GradedSeries.generator(table[ident])
        if self.pf.surface is None:
            raise _at(tok, "string symbol before a surface declaration")
        if self.pf.alg is None:
            self.pf.alg = ClassAlgebra(self.pf.surface, self.pf.n)
        if ident in self.pf.classes:
            return self.pf.alg.single(self.pf.classes[ident])
        # otherwise the bracket may hold a literal word
        try:
            word = parse_word(ident, self.pf.surface)
        except SurfaceError:
            raise _at(tok, "undefined class %r" % ident)
        if len(word) > MAX_STRING_LETTERS:
            raise _at(tok, "class word of more than %d letters"
                      % MAX_STRING_LETTERS)
        cls = self.pf.surface.canonical_class(word)
        if cls is None:
            raise _at(tok, "class %r is trivial" % ident)
        return self.pf.alg.single(cls)

    def _orbit_system(self) -> OrbitSystem:
        """The orbit system of the declarations so far; an `n` or `orbit`
        declaration resets it, so it is rebuilt only after one."""
        if self.pf.sys is None:
            self.pf.sys = OrbitSystem(self.pf.n, self.pf.orbits)
        return self.pf.sys


def parse(text: str) -> ProblemFile:
    return _Parser(text).parse()


# -- canonical printer -------------------------------------------------

def print_series(series: GradedSeries) -> str:
    text = ""
    for mono, coeff in series.iter_terms():
        parts = [str(abs(coeff))] if abs(coeff) != 1 or not mono else []
        for sym, e in mono:
            if sym.kind != "h":
                parts.append(sym.name if e == 1 else "%s^%d" % (sym.name, e))
            elif e >= 0:
                parts.append("h" if e == 1 else "h^%d" % e)
            else:
                parts.append("(1/h)" if e == -1 else "(1/h)^%d" % -e)
        if text:
            text += " - " if coeff < 0 else " + "
        elif coeff < 0:
            text = "-"
        text += "*".join(parts)
    return text or "0"


def print_problem(pf: ProblemFile) -> str:
    lines = ["n = %d" % pf.n]
    c = pf.caps
    lines.append("caps max_p=%d max_h=%d min_h=%d max_len=%d"
                 % (c.max_p_degree, c.max_hbar, c.min_hbar, c.max_word_length))
    for o in pf.orbits:
        bits = ["orbit %s cz=%d kappa=%d" % (o.name, o.cz, o.kappa)]
        if not o.good:
            bits.append("bad")
        if o.side != "none":
            bits.append("side=%s" % o.side)
        lines.append(" ".join(bits))
    if pf.surface is not None:
        lines.append("surface genus=%d boundary=%d"
                     % (pf.surface.genus, pf.surface.boundary))
    for name, cls in pf.classes.items():
        lines.append("class %s = %s" % (name, format_word(cls, pf.surface)))
    for name, series in pf.series.items():
        deg = ""
        if name in pf.series_degree:
            deg = " deg=%d" % pf.series_degree[name]
        lines.append("series %s%s = %s" % (name, deg, print_series(series)))
    for name, entries in pf.augs.items():
        body = " ; ".join("q[%s] -> %s" % (orb, print_series(v))
                          for orb, v in entries.items())
        lines.append("aug %s { %s }" % (name, body))
    return "\n".join(lines) + "\n"
