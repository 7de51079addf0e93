"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or parse
error.  --json switches every subcommand to a stable structured schema
(schema version 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .algebra import (GradedSeries, NormalizationError, TruncationContext,
                      TruncationUnderflow)
from .bv import BvError
from .problemfile import ParseError, ProblemFile, parse, print_problem
from .reports import CheckReport
from .surfaces import Surface, SurfaceError, format_word, parse_word, torus_bracket_oracle
from .strings import (ClassAlgebra, check_goldman_turaev_axioms,
                      check_string_identities)
from .weyl import ExponentialError, check_master_f, check_master_h
from .cotangent import (
    AlphabetError,
    GeodesicAlphabet,
    build_F,
    build_H_surface,
    check_psi_intertwining,
    check_surface_master,
    close_alphabet,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """An option value the checker cannot use."""


def _option(value: Optional[int], default: int, least: int, flag: str) -> int:
    """The option's value, or `default` when it was not given; a value
    below `least` is a usage error."""
    value = default if value is None else value
    if value < least:
        raise UsageError("%s must be at least %d" % (flag, least))
    return value


def _caps_from_args(args, pf: ProblemFile) -> TruncationContext:
    base = pf.caps
    return TruncationContext(
        args.max_p_degree if args.max_p_degree is not None else base.max_p_degree,
        args.max_hbar if args.max_hbar is not None else base.max_hbar,
        args.min_hbar if args.min_hbar is not None else base.min_hbar,
        args.max_word_len if args.max_word_len is not None else base.max_word_length,
    )


def _load(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _emit(report: CheckReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _emit_many(reports: List[CheckReport], as_json: bool) -> int:
    if as_json:
        print(json.dumps({"schema": 1,
                          "reports": [r.to_json() for r in reports]},
                         indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.render())
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def _series_arg(pf: ProblemFile, name: str) -> GradedSeries:
    if name not in pf.series:
        print("error: series %r not found in the problem file" % name,
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return pf.series[name]


def _surface_from_args(args) -> Surface:
    return Surface(args.genus, args.boundary)


def cmd_parse(args) -> int:
    pf = _load(args.input)
    text = print_problem(pf)
    if args.json:
        print(json.dumps({"schema": 1, "canonical": text}, indent=2))
    else:
        print(text, end="")
    return EXIT_PASS


def cmd_check_master(args) -> int:
    pf = _load(args.input)
    ctx = _caps_from_args(args, pf)
    H = _series_arg(pf, args.series)
    return _emit(check_master_h(H, pf.sys, ctx), args.json)


def cmd_check_master_f(args) -> int:
    pf = _load(args.input)
    ctx = _caps_from_args(args, pf)
    F = _series_arg(pf, args.potential)
    Hp = _series_arg(pf, args.hplus) if args.hplus else GradedSeries.zero()
    Hm = _series_arg(pf, args.hminus) if args.hminus else GradedSeries.zero()
    return _emit(check_master_f(F, Hp, Hm, pf.sys, ctx), args.json)


def cmd_check_master_l(args) -> int:
    from .strings import check_master_l
    pf = _load(args.input)
    if pf.surface is None:
        print("error: check-master-l needs a surface declaration", file=sys.stderr)
        return EXIT_USAGE
    ctx = _caps_from_args(args, pf)
    L = _series_arg(pf, args.potential)
    Hp = _series_arg(pf, args.hplus) if args.hplus else GradedSeries.zero()
    Hm = _series_arg(pf, args.hminus) if args.hminus else GradedSeries.zero()
    alg = ClassAlgebra(pf.surface, pf.n)
    return _emit(check_master_l(L, Hp, Hm, alg, pf.sys, ctx), args.json)


def _bv_caps(args) -> dict:
    return {"word_cap": _option(args.max_word_len, 3, 2, "--max-word-len"),
            "hbar_cap": _option(args.max_hbar, 3, 0, "--max-hbar")}


def _linearized(args):
    """The BV operator of the --series Hamiltonian of --input, and the
    linearization of its twist by the --aug augmentation (zero when not
    given)."""
    from .bv import (Augmentation, bv_from_hamiltonian, linearize,
                     twist_by_augmentation)
    pf = _load(args.input)
    H = _series_arg(pf, args.series)
    D = bv_from_hamiltonian(pf.sys, H, **_bv_caps(args))
    table = {}
    if args.aug:
        entries = pf.augs.get(args.aug)
        if entries is None:
            raise UsageError("augmentation %r not found" % args.aug)
        for orbit, val in entries.items():
            table[((pf.sys.q[orbit], 1),)] = val
    _phi, _phiinv, Dbeta = twist_by_augmentation(D, Augmentation(D.spec, table))
    return D, linearize(Dbeta)


def cmd_linearize(args) -> int:
    from .bv import homology, validate_bv
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
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(rep.render())
        print("linear differential:")
        for v, vec in sorted(payload["dlin"].items()):
            print("  d %s = %s" % (v, vec))
        print("cobracket:")
        for v, t in sorted(payload["delta"].items()):
            print("  delta %s = %s" % (v, t))
        print("bracket:")
        for k, vec in sorted(payload["mu"].items()):
            print("  mu(%s) = %s" % (k, vec))
        print("homology dimensions by degree:")
        for d, dim in sorted(payload["homology"].items(), key=lambda t: int(t[0])):
            print("  degree %s: %d" % (d, dim))
    return EXIT_PASS if not rep.witnesses else EXIT_FAIL


def cmd_check_bialgebra(args) -> int:
    from .bv import check_lie_bialgebra
    _D, data = _linearized(args)
    return _emit(check_lie_bialgebra(data), args.json)


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


def _emit_bracket(surface: Surface, terms, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"schema": 1,
                          "bracket": {format_word(k, surface): str(v)
                                      for k, v in terms.items()}},
                         indent=2, sort_keys=True))
    else:
        print(_format_string_sum(surface, terms))
    return EXIT_PASS


def cmd_bracket(args) -> int:
    surface = _surface_from_args(args)
    x = surface.class_of(args.word1)
    y = surface.class_of(args.word2)
    if x is None or y is None:
        print("error: trivial class", file=sys.stderr)
        return EXIT_USAGE
    return _emit_bracket(surface, surface.goldman_terms(x, y), args.json)


def cmd_cobracket(args) -> int:
    surface = _surface_from_args(args)
    x = surface.class_of(args.word1)
    if x is None:
        print("error: trivial class", file=sys.stderr)
        return EXIT_USAGE
    terms = surface.turaev_terms(x)
    if args.json:
        print(json.dumps(
            {"schema": 1,
             "cobracket": {"%s | %s" % (format_word(u, surface),
                                        format_word(v, surface)): str(c)
                           for (u, v), c in terms.items()}},
            indent=2, sort_keys=True))
    else:
        if not terms:
            print("0")
        for (u, v), c in sorted(terms.items()):
            print("%s * (%s) (x) (%s)" % (c, format_word(u, surface),
                                          format_word(v, surface)))
    return EXIT_PASS


def cmd_check_axioms(args) -> int:
    surface = _surface_from_args(args)
    cap = _option(args.max_word_len, 3, 1, "--max-word-len")
    # without --samples the identity suite adds no random tuples and the
    # axiom sweep draws 25 pairs and 25 triples
    extra = _option(args.samples, 0, 0, "--samples")
    drawn = _option(args.samples, 25, 0, "--samples")
    reports = [
        check_string_identities(surface, max_len=cap, max_slots=3,
                                samples=extra, seed=args.seed),
        check_goldman_turaev_axioms(
            surface, max_len=min(cap, 3), sample_len=cap,
            triples=drawn, pairs=drawn, seed=args.seed),
    ]
    return _emit_many(reports, args.json)


def cmd_build_h(args) -> int:
    pf = _load(args.input)
    if pf.surface is None or not pf.classes:
        print("error: build-h needs a surface and class declarations",
              file=sys.stderr)
        return EXIT_USAGE
    names = {pf.classes[name]: name for name in pf.class_order}
    try:
        alphabet = GeodesicAlphabet(pf.surface, list(names), names)
        H = build_H_surface(alphabet)
    except AlphabetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    out = ProblemFile(n=2, caps=pf.caps, orbits=list(alphabet.sys.orbits),
                      surface=pf.surface, surface_params=pf.surface_params,
                      classes=dict(pf.classes),
                      class_order=list(pf.class_order))
    out.series["F"] = build_F(alphabet)
    out.series["H"] = H.series
    out.series_order = ["F", "H"]
    text = print_problem(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    reports = []
    if args.verify:
        reports.append(check_surface_master(H))
        reports.append(check_psi_intertwining(H))
    if args.json:
        print(json.dumps({"schema": 1, "problem": text,
                          "notes": H.notes,
                          "reports": [r.to_json() for r in reports]},
                         indent=2, sort_keys=True))
    else:
        print(text, end="")
        for r in reports:
            print(r.render())
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def cmd_closure(args) -> int:
    surface = _surface_from_args(args)
    seeds = [parse_word(w, surface) for w in args.words]
    closure, escaped = close_alphabet(surface, seeds, args.cap)
    payload = {
        "schema": 1,
        "closure": [format_word(w, surface) for w in closure],
        "escaped": [format_word(w, surface) for w in escaped],
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("closure (%d classes):" % len(closure))
        for w in payload["closure"]:
            print("  " + w)
        if escaped:
            print("escaping beyond the cap (%d):" % len(escaped))
            for w in payload["escaped"]:
                print("  " + w)
    return EXIT_PASS if not escaped else EXIT_FAIL


def cmd_torus_oracle(args) -> int:
    try:
        terms = torus_bracket_oracle(args.m, args.n, args.p, args.q)
    except SurfaceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    return _emit_bracket(Surface(1, 0), terms, args.json)


def _add_caps(sp):
    sp.add_argument("--max-p-degree", type=int, default=None)
    sp.add_argument("--max-hbar", type=int, default=None)
    sp.add_argument("--min-hbar", type=int, default=None)
    sp.add_argument("--max-word-len", type=int, default=None)
    sp.add_argument("--json", action="store_true")


def _add_surface(sp):
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--boundary", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sft",
        description="master-equation and string-topology checkers")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="validate and canonicalize a problem file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("check-master", help="H * H = 0")
    sp.add_argument("--input", required=True)
    sp.add_argument("--series", default="H")
    _add_caps(sp)
    sp.set_defaults(fn=cmd_check_master)

    sp = sub.add_parser("check-master-f", help="e^F <-H+ = H-> e^F")
    sp.add_argument("--input", required=True)
    sp.add_argument("--potential", default="F")
    sp.add_argument("--hplus", default=None)
    sp.add_argument("--hminus", default=None)
    _add_caps(sp)
    sp.set_defaults(fn=cmd_check_master_f)

    sp = sub.add_parser("check-master-l",
                        help="(d + split + h join) e^L = e^L <-H+ - H-> e^L")
    sp.add_argument("--input", required=True)
    sp.add_argument("--potential", default="L")
    sp.add_argument("--hplus", default=None)
    sp.add_argument("--hminus", default=None)
    _add_caps(sp)
    sp.set_defaults(fn=cmd_check_master_l)

    sp = sub.add_parser("linearize",
                        help="linear differential, cobracket, bracket, homology")
    sp.add_argument("--input", required=True)
    sp.add_argument("--series", default="H")
    sp.add_argument("--aug", default=None)
    _add_caps(sp)
    sp.set_defaults(fn=cmd_linearize)

    sp = sub.add_parser("check-bialgebra", help="Lie bialgebra axioms")
    sp.add_argument("--input", required=True)
    sp.add_argument("--series", default="H")
    sp.add_argument("--aug", default=None)
    _add_caps(sp)
    sp.set_defaults(fn=cmd_check_bialgebra)

    sp = sub.add_parser("bracket", help="Goldman bracket of two classes")
    _add_surface(sp)
    sp.add_argument("word1")
    sp.add_argument("word2")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_bracket)

    sp = sub.add_parser("cobracket", help="Turaev cobracket of a class")
    _add_surface(sp)
    sp.add_argument("word1")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_cobracket)

    sp = sub.add_parser("check-axioms", help="multi-string identity suite")
    _add_surface(sp)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    _add_caps(sp)
    sp.set_defaults(fn=cmd_check_axioms)

    sp = sub.add_parser("build-h",
                        help="assemble H and F from surface structure constants")
    sp.add_argument("--input", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_build_h)

    sp = sub.add_parser("closure", help="close an alphabet under the operations")
    _add_surface(sp)
    sp.add_argument("--cap", type=int, default=4)
    sp.add_argument("words", nargs="+")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_closure)

    sp = sub.add_parser("torus-oracle", help="straight-line lattice bracket")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_torus_oracle)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, SurfaceError, AlphabetError, UsageError,
            TruncationUnderflow, ExponentialError, BvError,
            NormalizationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
