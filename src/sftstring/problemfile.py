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

Series expressions admit rational literals, h, q[...], p[...], s[...],
+, -, *, integer powers via ^, parentheses, and (1/h) as the only
negative h power.  Parsing is position-tagged; printing is canonical,
and parse(print(file)) reproduces the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import GradedSeries, TruncationContext
from .surfaces import Surface, Word, format_word, parse_word
from .weyl import Orbit, OrbitSystem


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


@dataclass
class ProblemFile:
    n: int = 2
    caps: TruncationContext = field(default_factory=TruncationContext)
    orbits: List[Orbit] = field(default_factory=list)
    surface: Optional[Surface] = None
    surface_params: Optional[Tuple[int, int]] = None
    classes: Dict[str, Word] = field(default_factory=dict)
    class_order: List[str] = field(default_factory=list)
    series: Dict[str, GradedSeries] = field(default_factory=dict)
    series_order: List[str] = field(default_factory=list)
    series_degree: Dict[str, int] = field(default_factory=dict)
    augs: Dict[str, Dict[str, GradedSeries]] = field(default_factory=dict)
    aug_order: List[str] = field(default_factory=list)
    sys: Optional[OrbitSystem] = None


# -- tokenizer ---------------------------------------------------------

_PUNCT = ("->", "=", "(", ")", "[", "]", "{", "}", "^", "*", "+", "-", "/",
          ";", ",")


@dataclass
class Token:
    kind: str  # 'name' | 'int' | 'punct' | 'eol'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            matched = False
            for p in _PUNCT:
                if line.startswith(p, i):
                    tokens.append(Token("punct", p, ln, i + 1))
                    i += len(p)
                    matched = True
                    break
            if matched:
                continue
            if ch.isdigit():
                j = i
                while j < len(line) and line[j].isdigit():
                    j += 1
                tokens.append(Token("int", line[i:j], ln, i + 1))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] in "_."):
                    j += 1
                tokens.append(Token("name", line[i:j], ln, i + 1))
                i = j
                continue
            raise ParseError("unexpected character %r" % ch, ln, i + 1)
        if tokens and tokens[-1].kind != "eol":
            tokens.append(Token("eol", "", ln, len(line) + 1))
    tokens.append(Token("eol", "", len(text.splitlines()) + 1, 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.pf = ProblemFile()

    # -- token helpers -------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError("expected %r, found %r" % (want, tok.text or "end of line"),
                             tok.line, tok.col)
        return self.next()

    def skip_eol(self):
        while self.peek().kind == "eol" and self.pos < len(self.tokens) - 1:
            self.next()

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens) - 1 and self.peek().kind == "eol"

    def _int(self) -> int:
        sign = 1
        if self.peek().kind == "punct" and self.peek().text == "-":
            self.next()
            sign = -1
        tok = self.expect("int")
        return sign * int(tok.text)

    def _keyval_int(self, key: str) -> int:
        tok = self.expect("name")
        if tok.text != key:
            raise ParseError("expected %r" % key, tok.line, tok.col)
        self.expect("punct", "=")
        return self._int()

    # -- declarations ----------------------------------------------------
    def parse(self) -> ProblemFile:
        self.skip_eol()
        while not self.at_end():
            tok = self.peek()
            if tok.kind != "name":
                raise ParseError("expected a declaration", tok.line, tok.col)
            if tok.text == "n":
                self.next()
                self.expect("punct", "=")
                self.pf.n = self._int()
            elif tok.text == "caps":
                self.next()
                self._parse_caps()
            elif tok.text == "orbit":
                self.next()
                self._parse_orbit()
            elif tok.text == "surface":
                self.next()
                self._parse_surface()
            elif tok.text == "class":
                self.next()
                self._parse_class()
            elif tok.text == "series":
                self.next()
                self._parse_series()
            elif tok.text == "aug":
                self.next()
                self._parse_aug()
            else:
                raise ParseError("unknown declaration %r" % tok.text,
                                 tok.line, tok.col)
            if not self.at_end():
                self.expect("eol")
                self.skip_eol()
        self.pf.sys = OrbitSystem(self.pf.n, self.pf.orbits)
        self._check_degrees()
        return self.pf

    def _parse_caps(self):
        vals = {"max_p": 6, "max_h": 6, "min_h": -1, "max_len": 8}
        while self.peek().kind == "name":
            key = self.next().text
            if key not in vals:
                raise ParseError("unknown cap %r" % key,
                                 self.tokens[self.pos - 1].line,
                                 self.tokens[self.pos - 1].col)
            self.expect("punct", "=")
            vals[key] = self._int()
        self.pf.caps = TruncationContext(vals["max_p"], vals["max_h"],
                                         vals["min_h"], vals["max_len"])

    def _parse_orbit(self):
        name = self.expect("name").text
        cz, kappa, good, side = 0, 1, True, "none"
        while self.peek().kind == "name":
            key = self.next().text
            if key == "bad":
                good = False
                continue
            if key == "cz":
                self.expect("punct", "=")
                cz = self._int()
            elif key == "kappa":
                self.expect("punct", "=")
                kappa = self._int()
            elif key == "side":
                self.expect("punct", "=")
                side = self.expect("name").text
                if side not in ("pos", "neg", "none"):
                    raise ParseError("side must be pos, neg or none",
                                     self.tokens[self.pos - 1].line,
                                     self.tokens[self.pos - 1].col)
            else:
                raise ParseError("unknown orbit attribute %r" % key,
                                 self.tokens[self.pos - 1].line,
                                 self.tokens[self.pos - 1].col)
        if any(o.name == name for o in self.pf.orbits):
            tok = self.peek()
            raise ParseError("orbit %r declared twice" % name, tok.line, tok.col)
        self.pf.orbits.append(Orbit(name, cz, kappa, good, side))

    def _parse_surface(self):
        genus = self._keyval_int("genus")
        boundary = self._keyval_int("boundary")
        self.pf.surface_params = (genus, boundary)
        self.pf.surface = Surface(genus, boundary)

    def _parse_class(self):
        tok = self.expect("name")
        name = tok.text
        self.expect("punct", "=")
        if self.pf.surface is None:
            raise ParseError("class declared before a surface", tok.line, tok.col)
        letters = []
        while self.peek().kind == "name":
            letters.append(self.next().text)
        if not letters:
            tok = self.peek()
            raise ParseError("empty class word", tok.line, tok.col)
        word = parse_word(" ".join(letters), self.pf.surface)
        cls = self.pf.surface.canonical_class(word)
        if cls is None:
            raise ParseError("class %r is trivial" % name, tok.line, tok.col)
        if name in self.pf.classes:
            raise ParseError("class %r declared twice" % name, tok.line, tok.col)
        self.pf.classes[name] = cls
        self.pf.class_order.append(name)

    def _parse_series(self):
        tok = self.expect("name")
        name = tok.text
        degree = None
        if self.peek().kind == "name" and self.peek().text == "deg":
            self.next()
            self.expect("punct", "=")
            degree = self._int()
        self.expect("punct", "=")
        series = self._expr()
        if name in self.pf.series:
            raise ParseError("series %r declared twice" % name, tok.line, tok.col)
        self.pf.series[name] = series
        self.pf.series_order.append(name)
        if degree is not None:
            self.pf.series_degree[name] = degree

    def _parse_aug(self):
        tok = self.expect("name")
        name = tok.text
        self.expect("punct", "{")
        entries: Dict[str, GradedSeries] = {}
        while True:
            self.skip_eol()
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == "}":
                self.next()
                break
            self.expect("name", "q")
            self.expect("punct", "[")
            orbit = self.expect("name").text
            self.expect("punct", "]")
            self.expect("punct", "->")
            entries[orbit] = self._expr()
            if self.peek().kind == "punct" and self.peek().text == ";":
                self.next()
        if name in self.pf.augs:
            raise ParseError("augmentation %r declared twice" % name,
                             tok.line, tok.col)
        self.pf.augs[name] = entries
        self.pf.aug_order.append(name)

    # -- expression grammar ---------------------------------------------
    def _expr(self) -> GradedSeries:
        out = self._term()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text in ("+", "-") :
                op = self.next().text
                term = self._term()
                out = out + (term if op == "+" else term.scale(-1))
            else:
                return out

    def _term(self) -> GradedSeries:
        out = self._factor()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "*":
                self.next()
                out = self._mul(out, self._factor())
            else:
                return out

    def _mul(self, a: GradedSeries, b: GradedSeries) -> GradedSeries:
        from .algebra import mul, NormalizationError
        wide = TruncationContext(max_p_degree=64, max_hbar=64, min_hbar=-64,
                                 max_word_length=64)
        tok = self.peek()
        try:
            return mul(a, b, wide)
        except NormalizationError as exc:
            raise ParseError(str(exc), tok.line, tok.col)

    def _factor(self) -> GradedSeries:
        base = self._atom()
        if self.peek().kind == "punct" and self.peek().text == "^":
            self.next()
            tok = self.peek()
            e = self._int()
            if e < 0:
                raise ParseError("negative powers only via (1/h)", tok.line, tok.col)
            out = GradedSeries.unit()
            for _ in range(e):
                out = self._mul(out, base)
            return out
        return base

    def _atom(self) -> GradedSeries:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "-":
            self.next()
            return self._atom().scale(-1)
        if tok.kind == "int":
            self.next()
            num = int(tok.text)
            if self.peek().kind == "punct" and self.peek().text == "/":
                self.next()
                den = self.expect("int")
                return GradedSeries.unit(Fraction(num, int(den.text)))
            return GradedSeries.unit(num)
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            # the (1/h) form
            if (self.peek().kind == "int" and self.peek().text == "1"
                    and self.tokens[self.pos + 1].kind == "punct"
                    and self.tokens[self.pos + 1].text == "/"
                    and self.tokens[self.pos + 2].kind == "name"
                    and self.tokens[self.pos + 2].text == "h"):
                self.next(), self.next(), self.next()
                self.expect("punct", ")")
                return self._hbar(-1)
            inner = self._expr()
            self.expect("punct", ")")
            return inner
        if tok.kind == "name" and tok.text == "h":
            self.next()
            return self._hbar(1)
        if tok.kind == "name" and tok.text in ("q", "p", "s"):
            kind = self.next().text
            self.expect("punct", "[")
            parts = []
            while not (self.peek().kind == "punct" and self.peek().text == "]"):
                t2 = self.peek()
                if t2.kind == "eol":
                    raise ParseError("unterminated %s[" % kind, t2.line, t2.col)
                parts.append(self.next().text)
            self.expect("punct", "]")
            ident = " ".join(parts)
            return self._variable(kind, ident, tok)
        raise ParseError("expected a series atom, found %r"
                         % (tok.text or "end of line"), tok.line, tok.col)

    def _hbar(self, power: int) -> GradedSeries:
        from .algebra import GradedSymbol, KIND_H
        hbar = GradedSymbol("h", 2 * (self.pf.n - 3), KIND_H, None, 0)
        return GradedSeries({((hbar, power),): Fraction(1)})

    def _variable(self, kind: str, ident: str, tok: Token) -> GradedSeries:
        sys = OrbitSystem(self.pf.n, self.pf.orbits)
        if kind in ("q", "p"):
            table = sys.q if kind == "q" else sys.p
            if ident not in table:
                raise ParseError("undefined orbit %r" % ident, tok.line, tok.col)
            return GradedSeries.generator(table[ident])
        if self.pf.surface is None:
            raise ParseError("string symbol before a surface declaration",
                             tok.line, tok.col)
        alg = self._class_algebra()
        if ident in self.pf.classes:
            return alg.single(self.pf.classes[ident])
        # otherwise the bracket may hold a literal word
        try:
            cls = self.pf.surface.canonical_class(
                parse_word(ident, self.pf.surface))
        except Exception:
            raise ParseError("undefined class %r" % ident, tok.line, tok.col)
        if cls is None:
            raise ParseError("class %r is trivial" % ident, tok.line, tok.col)
        return alg.single(cls)

    def _class_algebra(self):
        from .strings import ClassAlgebra
        if not hasattr(self, "_alg") or self._alg is None:
            self._alg = ClassAlgebra(self.pf.surface, self.pf.n)
        return self._alg

    def _check_degrees(self):
        for name, want in self.pf.series_degree.items():
            got = self.pf.series[name].homogeneous_degree()
            if got != want:
                raise ParseError(
                    "series %r declared with degree %d but has degree %s"
                    % (name, want, got), 0, 0)


def parse(text: str) -> ProblemFile:
    return _Parser(text).parse()


# -- canonical printer -------------------------------------------------

def print_series(series: GradedSeries) -> str:
    if series.is_zero():
        return "0"
    chunks = []
    for mono, coeff in series.iter_terms():
        parts = []
        if coeff == -1:
            sign, mag = "-", ""
        elif coeff < 0:
            sign, mag = "-", str(-coeff)
        elif coeff == 1:
            sign, mag = "+", ""
        else:
            sign, mag = "+", str(coeff)
        if mag:
            parts.append(mag)
        for sym, e in mono:
            if sym.kind == "h":
                if e >= 0:
                    parts.append("h" if e == 1 else "h^%d" % e)
                else:
                    parts.append("(1/h)" if e == -1 else "(1/h)^%d" % (-e))
            else:
                nm = sym.name
                parts.append(nm if e == 1 else "%s^%d" % (nm, e))
        if not parts:
            parts = [str(abs(coeff))]
        chunks.append((sign, "*".join(parts)))
    first_sign, first = chunks[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in chunks[1:]:
        text += " %s %s" % (sign, body)
    return text


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
    if pf.surface_params is not None:
        lines.append("surface genus=%d boundary=%d" % pf.surface_params)
    for name in pf.class_order:
        lines.append("class %s = %s"
                     % (name, format_word(pf.classes[name], pf.surface)))
    for name in pf.series_order:
        deg = ""
        if name in pf.series_degree:
            deg = " deg=%d" % pf.series_degree[name]
        lines.append("series %s%s = %s"
                     % (name, deg, print_series(pf.series[name])))
    for name in pf.aug_order:
        entries = pf.augs[name]
        body = " ; ".join("q[%s] -> %s" % (orb, print_series(v))
                          for orb, v in entries.items())
        lines.append("aug %s { %s }" % (name, body))
    return "\n".join(lines) + "\n"
