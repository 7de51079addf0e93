"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or parse
error.  --json switches every subcommand to a stable structured schema
(schema version 1).

Each subcommand returns an `Output` or raises; `main` alone prints, and
alone turns an error into exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import lru_cache
from math import comb
from typing import List, Optional

from .algebra import (KIND_S, GradedSeries, NormalizationError,
                      TruncationContext, TruncationUnderflow)
from .bv import (Augmentation, BvError, FreeAlgebraSpec, bv_from_hamiltonian,
                 check_lie_bialgebra, homology, linearize,
                 twist_by_augmentation, validate_bv)
from .problemfile import (MAX_STRING_LETTERS, ParseError, ProblemFile,
                          parse, print_problem)
from .reports import CheckReport
from .surfaces import Surface, SurfaceError, format_word, parse_word, torus_bracket_oracle
from .strings import (ClassAlgebra, check_goldman_turaev_axioms,
                      check_master_l, check_string_identities)
from .weyl import ExponentialError, OrbitSystem, check_master_f, check_master_h
from .cotangent import (
    AlphabetError,
    GeodesicAlphabet,
    build_H_surface,
    check_psi_intertwining,
    check_surface_master,
    close_alphabet,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# check-axioms walks every reduced word of length <= --max-word-len: at
# genus 2, length 6 (156,864 words) took 144 s, and each further length
# multiplies the count by 7
MAX_AXIOM_WORDS = 200_000
# torus-oracle prints its answer as a word of |m+p| + |n+q| letters,
# about 6 bytes each: 10^5 letters took 0.11 s and 10^6 took 1.1 s
MAX_ORACLE_LETTERS = 100_000
# linearize and check-bialgebra cap the words of the q-basis, counted
# in closed form by _bv_words before anything is built.  With one odd
# orbit o0 and e even ones, H = sum_i q[e_i] p[o0] (sft linearize in
# process, 2-vCPU VM, Python 3.11.7): e = 6 at --max-word-len 9 (8,008
# words) took 1.3 s; e = 19 at 4 (10,395) 1.8 s and at 5 (51,359) 12 s
# and 290 MB; e = 39 at 3 (12,300) 1.9 s; e = 1 at 4,999 (9,999) 0.6 s
MAX_BV_WORDS = 10_000
# each --samples draw adds a sampled pair and triple to the axiom sweep
# (0.1 to 0.5 s per long-word triple) and a tuple to the identity suite
MAX_AXIOM_SAMPLES = 1_000


class UsageError(ValueError):
    """An option value, or a name or declaration missing from the input,
    that the command cannot use."""


class Output:
    """What a command prints: `payload` under --json, else `text`; it
    exits 0 when `passed`, else 1.  `sort_keys` is False only for
    `parse`, whose key order is pinned."""

    def __init__(self, payload: dict, text: str, passed: bool = True,
                 sort_keys: bool = True):
        self.payload, self.text = payload, text
        self.passed, self.sort_keys = passed, sort_keys


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _report(report: CheckReport) -> Output:
    return Output(report.to_json(), report.render() + "\n", report.passed)


def _reports(reports: List[CheckReport], head: str = "", **fields) -> Output:
    """The reports' JSON beside `fields`, and their text after `head`."""
    return Output(dict(fields, schema=1,
                       reports=[r.to_json() for r in reports]),
                  head + _lines(r.render() for r in reports),
                  all(r.passed for r in reports))


def _option(value: Optional[int], default: int, least: int, flag: str) -> int:
    """The option's value, or `default` when it was not given; a value
    below `least` is a usage error."""
    value = default if value is None else value
    if value < least:
        raise UsageError("%s must be at least %d" % (flag, least))
    return value


def _caps_from_args(args, pf: ProblemFile) -> TruncationContext:
    """The file's caps, with each cap option that was given in its place."""
    given = {"max_p_degree": args.max_p_degree, "max_hbar": args.max_hbar,
             "min_hbar": args.min_hbar, "max_word_length": args.max_word_len}
    try:
        return replace(pf.caps, **{k: v for k, v in given.items()
                                   if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load(path: str) -> ProblemFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError("not UTF-8 text", data.count(b"\n", 0, start) + 1,
                         exc.start - start + 1) from None
    return parse(text)


def _series_arg(pf: ProblemFile, name: str) -> GradedSeries:
    if name not in pf.series:
        raise UsageError("series %r not found in the problem file" % name)
    return pf.series[name]


def cmd_parse(args) -> Output:
    text = print_problem(_load(args.input))
    return Output({"schema": 1, "canonical": text}, text, sort_keys=False)


def cmd_check_master(args) -> Output:
    pf = _load(args.input)
    ctx = _caps_from_args(args, pf)
    H = _series_arg(pf, args.series)
    return _report(check_master_h(H, pf.sys, ctx))


def cmd_check_master_f(args) -> Output:
    pf = _load(args.input)
    ctx = _caps_from_args(args, pf)
    F = _series_arg(pf, args.potential)
    Hp = _series_arg(pf, args.hplus) if args.hplus else GradedSeries.zero()
    Hm = _series_arg(pf, args.hminus) if args.hminus else GradedSeries.zero()
    return _report(check_master_f(F, Hp, Hm, pf.sys, ctx))


def cmd_check_master_l(args) -> Output:
    pf = _load(args.input)
    if pf.surface is None:
        raise UsageError("check-master-l needs a surface declaration")
    ctx = _caps_from_args(args, pf)
    L = _series_arg(pf, args.potential)
    Hp = _series_arg(pf, args.hplus) if args.hplus else GradedSeries.zero()
    Hm = _series_arg(pf, args.hminus) if args.hminus else GradedSeries.zero()
    alg = pf.alg or ClassAlgebra(pf.surface, pf.n)
    # an s[...] atom read before a later `n` or `surface` declaration is a
    # symbol of an earlier algebra
    for sym in [s for S in (L, Hp, Hm) for m in S.terms for s, _ in m
                if s.kind == KIND_S]:
        try:
            alg.class_of_symbol(sym)
        except KeyError:
            raise UsageError("%s is read before the last n or surface "
                             "declaration" % sym.name) from None
    return _report(check_master_l(L, Hp, Hm, alg, pf.sys, ctx))


def _bv_words(orbits: OrbitSystem, cap: int) -> int:
    """The words of the q-basis up to q-degree cap, in closed form: with
    e even and o odd orbits, sum_j C(o, j) C(cap - j + e, e), j odd units
    and at most cap - j even ones."""
    odd = sum(s.parity for s in orbits.q.values())
    even = len(orbits.q) - odd
    return sum(comb(odd, j) * comb(cap - j + even, even)
               for j in range(min(odd, cap) + 1))


def _bv_spec(args, orbits: OrbitSystem) -> FreeAlgebraSpec:
    """S(q) of the orbits at the --max-word-len and --max-hbar caps."""
    cap = _option(args.max_word_len, 3, 2, "--max-word-len")
    words = _bv_words(orbits, cap)
    if words > MAX_BV_WORDS:
        raise UsageError(
            "--max-word-len %d gives %d basis words over these orbits, "
            "more than %d" % (cap, words, MAX_BV_WORDS))
    return FreeAlgebraSpec.of_q(orbits, cap,
                                _option(args.max_hbar, 3, 0, "--max-hbar"))


def _linearized(args):
    """The BV operator of the --series Hamiltonian of --input, and the
    linearization of its twist by the --aug augmentation (zero when not
    given), both on one spec."""
    pf = _load(args.input)
    H = _series_arg(pf, args.series)
    spec = _bv_spec(args, pf.sys)
    D = bv_from_hamiltonian(pf.sys, H, spec)
    table = {}
    if args.aug:
        entries = pf.augs.get(args.aug)
        if entries is None:
            raise UsageError("augmentation %r not found" % args.aug)
        for orbit, val in entries.items():
            table[((pf.sys.q[orbit], 1),)] = val
    _phi, _phiinv, Dbeta = twist_by_augmentation(D, Augmentation(spec, table))
    return D, linearize(Dbeta)


def cmd_linearize(args) -> Output:
    D, data = _linearized(args)
    rep = validate_bv(D)
    hom = homology(data.dlin, data.basis)
    payload = {
        "schema": 1,
        "bv_axioms": rep.to_json(),
        "dlin": {v.name: {t.name: str(c) for t, c in vec.items()}
                 for v, vec in data.dlin.items() if vec},
        "delta": {v.name: {"%s,%s" % (a.name, b.name): str(c)
                           for (a, b), c in t.items()}
                  for v, t in data.delta.items() if t},
        "mu": {"%s,%s" % (a.name, b.name): {t.name: str(c)
                                            for t, c in vec.items()}
               for (a, b), vec in data.mu.items() if vec},
        "homology": {str(d): dim for d, (dim, _reps) in hom.items()},
    }
    lines = [rep.render(), "linear differential:"]
    lines += ["  d %s = %s" % vt for vt in sorted(payload["dlin"].items())]
    lines.append("cobracket:")
    lines += ["  delta %s = %s" % vt for vt in sorted(payload["delta"].items())]
    lines.append("bracket:")
    lines += ["  mu(%s) = %s" % kv for kv in sorted(payload["mu"].items())]
    lines.append("homology dimensions by degree:")
    lines += ["  degree %s: %d" % dd for dd in
              sorted(payload["homology"].items(), key=lambda t: int(t[0]))]
    return Output(payload, _lines(lines), not rep.witnesses)


def cmd_check_bialgebra(args) -> Output:
    _D, data = _linearized(args)
    return _report(check_lie_bialgebra(data))


def _format_string_sum(surface: Surface, terms) -> str:
    if not terms:
        return "0"
    bits = []
    for cls, coeff in sorted(terms.items(), key=lambda t: (len(t[0]), t[0])):
        body = "(%s)" % format_word(cls, surface)
        if coeff == 1:
            bits.append("+ " + body)
        elif coeff == -1:
            bits.append("- " + body)
        else:
            bits.append("%s %s*%s" % ("+" if coeff > 0 else "-",
                                      abs(coeff), body))
    text = " ".join(bits)
    return text[2:] if text.startswith("+ ") else text


def _bracket(surface: Surface, terms) -> Output:
    return Output({"schema": 1,
                   "bracket": {format_word(k, surface): str(v)
                               for k, v in terms.items()}},
                  _format_string_sum(surface, terms) + "\n")


def _class_args(surface: Surface, *words: str) -> list:
    """The classes of the words, which may have MAX_STRING_LETTERS
    letters in all; a longer input or a trivial class is a usage error."""
    parsed = [parse_word(w, surface) for w in words]
    letters = sum(len(w) for w in parsed)
    if letters > MAX_STRING_LETTERS:
        raise UsageError("%d letters in all; at most %d are accepted"
                         % (letters, MAX_STRING_LETTERS))
    classes = [surface.canonical_class(w) for w in parsed]
    if None in classes:
        raise UsageError("trivial class")
    return classes


def cmd_bracket(args) -> Output:
    surface = Surface(args.genus, args.boundary)
    x, y = _class_args(surface, args.word1, args.word2)
    return _bracket(surface, surface.goldman_terms(x, y))


def cmd_cobracket(args) -> Output:
    surface = Surface(args.genus, args.boundary)
    (x,) = _class_args(surface, args.word1)
    terms = surface.turaev_terms(x)
    payload = {"schema": 1,
               "cobracket": {"%s | %s" % (format_word(u, surface),
                                          format_word(v, surface)): str(c)
                             for (u, v), c in terms.items()}}
    text = _lines("%s * (%s) (x) (%s)" % (c, format_word(u, surface),
                                          format_word(v, surface))
                  for (u, v), c in sorted(terms.items()))
    return Output(payload, text or "0\n")


def cmd_check_axioms(args) -> Output:
    surface = Surface(args.genus, args.boundary)
    cap = _option(args.max_word_len, 3, 1, "--max-word-len")
    words, layer = 0, 2 * surface.rank
    for _ in range(cap):  # rank >= 2: this stops by the 11th round
        words += layer
        layer *= 2 * surface.rank - 1
        if words > MAX_AXIOM_WORDS:
            raise UsageError(
                "--max-word-len %d enumerates more than %d reduced words on "
                "this surface" % (cap, MAX_AXIOM_WORDS))
    # without --samples the identity suite adds no random tuples and the
    # axiom sweep draws 25 pairs and 25 triples
    extra = _option(args.samples, 0, 0, "--samples")
    drawn = _option(args.samples, 25, 0, "--samples")
    if drawn > MAX_AXIOM_SAMPLES:
        raise UsageError("--samples %d is above the maximum %d"
                         % (drawn, MAX_AXIOM_SAMPLES))
    return _reports([
        check_string_identities(surface, max_len=cap, max_slots=3,
                                samples=extra, seed=args.seed),
        check_goldman_turaev_axioms(
            surface, max_len=min(cap, 3), sample_len=cap,
            triples=drawn, pairs=drawn, seed=args.seed),
    ])


def cmd_build_h(args) -> Output:
    pf = _load(args.input)
    if pf.surface is None or not pf.classes:
        raise UsageError("build-h needs a surface and class declarations")
    names = {cls: name for name, cls in pf.classes.items()}
    alphabet = GeodesicAlphabet(pf.surface, list(names), names)
    H = build_H_surface(alphabet)
    text = print_problem(ProblemFile(
        n=2, caps=pf.caps, orbits=list(alphabet.sys.orbits),
        surface=pf.surface, classes=dict(pf.classes),
        series={"F": alphabet.F, "H": H.series}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    reports = ([check_surface_master(H), check_psi_intertwining(H)]
               if args.verify else [])
    return _reports(reports, head=text, problem=text, notes=H.notes)


def cmd_closure(args) -> Output:
    surface = Surface(args.genus, args.boundary)
    # each bracket the closure takes joins two members of at most cap
    # letters, the work bracket refuses above MAX_STRING_LETTERS in all
    cap = _option(args.cap, 4, 1, "--cap")
    if cap > MAX_STRING_LETTERS // 2:
        raise UsageError("--cap %d is above the maximum %d"
                         % (cap, MAX_STRING_LETTERS // 2))
    closure, escaped = close_alphabet(
        surface, _class_args(surface, *args.words), cap)
    payload = {
        "schema": 1,
        "closure": [format_word(w, surface) for w in closure],
        "escaped": [format_word(w, surface) for w in escaped],
    }
    lines = ["closure (%d classes):" % len(closure)]
    lines += ["  " + w for w in payload["closure"]]
    if escaped:
        lines.append("escaping beyond the cap (%d):" % len(escaped))
        lines += ["  " + w for w in payload["escaped"]]
    return Output(payload, _lines(lines), not escaped)


def cmd_torus_oracle(args) -> Output:
    letters = abs(args.m + args.p) + abs(args.n + args.q)
    if letters > MAX_ORACLE_LETTERS:
        raise UsageError("the answer would have %d letters, more than %d"
                         % (letters, MAX_ORACLE_LETTERS))
    return _bracket(Surface(1, 0),
                    torus_bracket_oracle(args.m, args.n, args.p, args.q))


def _add_caps(sp, flags=("--max-p-degree", "--max-hbar", "--min-hbar",
                         "--max-word-len")):
    for flag in flags:
        sp.add_argument(flag, type=int)


def _add_surface(sp):
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--boundary", type=int, default=0)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: its actions and help formatters
    hold reference cycles, which a parser per call would leave to the
    cyclic collector."""
    ap = argparse.ArgumentParser(
        prog="sft",
        description="master-equation and string-topology checkers")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, input_file=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        if input_file:
            sp.add_argument("--input", required=True)
        sp.add_argument("--json", action="store_true")
        return sp

    command("parse", cmd_parse, "validate and canonicalize a problem file")

    sp = command("check-master", cmd_check_master, "H * H = 0")
    sp.add_argument("--series", default="H")
    _add_caps(sp)

    for name, fn, help, potential in (
            ("check-master-f", cmd_check_master_f, "e^F <-H+ = H-> e^F", "F"),
            ("check-master-l", cmd_check_master_l,
             "(d + split + h join) e^L = e^L <-H+ - H-> e^L", "L")):
        sp = command(name, fn, help)
        sp.add_argument("--potential", default=potential)
        sp.add_argument("--hplus")
        sp.add_argument("--hminus")
        _add_caps(sp)

    for name, fn, help in (
            ("linearize", cmd_linearize,
             "linear differential, cobracket, bracket, homology"),
            ("check-bialgebra", cmd_check_bialgebra, "Lie bialgebra axioms")):
        sp = command(name, fn, help)
        sp.add_argument("--series", default="H")
        sp.add_argument("--aug")
        _add_caps(sp, ("--max-hbar", "--max-word-len"))  # what _bv_spec reads

    sp = command("bracket", cmd_bracket, "Goldman bracket of two classes",
                 input_file=False)
    _add_surface(sp)
    sp.add_argument("word1")
    sp.add_argument("word2")

    sp = command("cobracket", cmd_cobracket, "Turaev cobracket of a class",
                 input_file=False)
    _add_surface(sp)
    sp.add_argument("word1")

    sp = command("check-axioms", cmd_check_axioms,
                 "multi-string identity suite", input_file=False)
    _add_surface(sp)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int, default=0)
    _add_caps(sp, ("--max-word-len",))

    sp = command("build-h", cmd_build_h,
                 "assemble H and F from surface structure constants")
    sp.add_argument("--out")
    sp.add_argument("--verify", action="store_true")

    sp = command("closure", cmd_closure,
                 "close an alphabet under the operations", input_file=False)
    _add_surface(sp)
    sp.add_argument("--cap", type=int)
    sp.add_argument("words", nargs="+")

    sp = command("torus-oracle", cmd_torus_oracle,
                 "straight-line lattice bracket", input_file=False)
    for coordinate in "mnpq":
        sp.add_argument(coordinate, type=int)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.  The only place that reports an error: any
    usage, parse or library error exits 2 with one line on stderr and
    nothing on stdout."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        out = args.fn(args)
    except (ParseError, SurfaceError, AlphabetError, UsageError,
            TruncationUnderflow, ExponentialError, BvError,
            NormalizationError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(out.payload, indent=2, sort_keys=out.sort_keys))
    else:
        print(out.text, end="")
    return EXIT_PASS if out.passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
