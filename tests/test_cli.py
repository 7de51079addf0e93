import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sftstring.cli import main
from sftstring.problemfile import MAX_POWER, ParseError, parse, print_problem

DATA = Path(__file__).parent / "data"
CORPUS = sorted(DATA.glob("*.sft"))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corpus_exists():
    assert len(CORPUS) >= 5


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_roundtrip_parse_print(path):
    pf = parse(path.read_text())
    text = print_problem(pf)
    pf2 = parse(text)
    # canonical output is a fixed point of parse-then-print
    assert print_problem(pf2) == text
    assert pf2.series.keys() == pf.series.keys()
    for name in pf.series:
        assert pf2.series[name] == pf.series[name]
    assert pf2.classes == pf.classes


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("n = 2\norbit g1 cz=0 kappa=1\nseries H = q[g1\n")
    assert err.value.line == 3
    assert "unterminated" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("n = 2\nseries H = q[nope]\n")
    assert "undefined orbit" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("bogus declaration\n")
    assert err.value.line == 1
    head = "n = 2\norbit g1 cz=0 kappa=1\norbit g2 cz=1 kappa=1 bad\n"
    with pytest.raises(ParseError) as err:
        parse(head + "aug beta { q[zz] -> h }\n")
    assert "undefined orbit 'zz'" in str(err.value)
    assert (err.value.line, err.value.col) == (4, 14)
    with pytest.raises(ParseError) as err:
        parse(head + "aug beta { q[g1] -> h ; q[g2] -> 1 }\n")
    assert "bad orbit 'g2'" in str(err.value)
    assert (err.value.line, err.value.col) == (4, 27)


def test_degree_annotation_checked():
    good = "n = 2\norbit g cz=0 kappa=1\nseries H deg=-1 = (1/h)*p[g]*p[g]\n"
    # p odd: the square vanishes; declared degree cannot match
    with pytest.raises(ParseError):
        parse(good)
    ok = "n = 2\norbit g cz=0 kappa=1\nseries H deg=-1 = p[g]\n"
    pf = parse(ok)
    assert pf.series["H"].homogeneous_degree() == -1


def test_degree_error_points_at_the_series():
    with pytest.raises(ParseError) as err:
        parse("n = 2\nseries H deg=0 = 0\n")
    assert (err.value.line, err.value.col) == (2, 8)
    assert "declared with degree 0 but has degree None" in str(err.value)


def test_parse_keeps_every_written_term():
    # p[g1] is even for cz=1; no product window may drop p^65 or h^65
    pf = parse("n = 2\norbit g1 cz=1 kappa=1\n"
               "series H = p[g1]^65 + h^65 + 1\n")
    assert len(pf.series["H"].terms) == 3
    text = print_problem(pf)
    assert text.endswith("series H = 1 + p[g1]^65 + h^65\n")
    assert parse(text).series == pf.series and print_problem(parse(text)) == text


HEAD = "n = 2\norbit g1 cz=1 kappa=1\n"


@pytest.mark.parametrize("body, message", [
    (b"series H = 1/0*p[g1]\n", "line 3, col 14: division by zero"),
    (b"orbit g2 cz=0 kappa=0\n",
     "line 3, col 1: orbit multiplicity must be positive"),
    ("series H = 3\u00b2*p[g1]\n".encode(),
     "line 3, col 13: unexpected character '\u00b2'"),
    (b"series H = \xff\n", "line 3, col 12: not UTF-8 text"),
    (b"series H = " + b"(" * 3000 + b"\n",
     "line 3, col 112: parentheses nested deeper than 100"),
    (b"series H = " + b"-" * 5000 + b"\n",
     "line 3, col 5012: expected a series atom, found 'end of line'"),
    (b"series H = " + b"9" * 5000 + b"\n",
     "line 3, col 12: integer of 5000 digits is too long"),
    ("surface genus=2 boundary=0\nclass K = a\u00b2\n".encode(),
     "line 4, col 11: bad letter 'a\u00b2'"),
    (b"surface genus=2 boundary=0\nclass K = a1 zz\n",
     "line 4, col 14: bad letter 'zz'"),
    (b"surface genus=2 boundary=0\nclass K = a" + b"1" * 5000 + b"\n",
     "line 4, col 11: letter index of 5000 digits is too long"),
    (b"surface genus=0 boundary=0\n",
     "line 3, col 1: need genus >= 1 or at least three boundary circles"),
], ids=["zero-denominator", "kappa-0", "superscript", "not-utf8",
        "deep-parentheses", "many-minus", "long-integer", "superscript-index",
        "bad-letter", "long-letter-index", "no-surface"])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, body,
                                               message):
    path = tmp_path / "bad.sft"
    path.write_bytes(HEAD.encode() + body)
    code, out, err = run_cli(["parse", "--input", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_unary_minus_runs_without_recursion(tmp_path, capsys):
    path = tmp_path / "minus.sft"
    path.write_text(HEAD + "series H = " + "-" * 5001 + "p[g1]\n")
    code, out, _ = run_cli(["parse", "--input", str(path)], capsys)
    assert code == 0 and out.endswith("series H = -p[g1]\n")


def test_power_guard_bounds_parse_time(tmp_path):
    path = tmp_path / "power.sft"
    for e, code in ((MAX_POWER, 0), (MAX_POWER + 1, 2)):
        path.write_text(HEAD + "series H = h^%d + q[g1]^%d\n" % (e, e))
        proc = _run_module(["parse", "--input", str(path)], timeout=10)
        assert proc.returncode == code, proc.stderr
    assert proc.stderr == ("error: line 3, col 14: power %d is above the "
                           "maximum %d\n" % (MAX_POWER + 1, MAX_POWER))


# -- seeded fuzz of the problem-file grammar ---------------------------

FUZZ_PRELUDE = ("n = 2\norbit g1 cz=0 kappa=1\norbit g2 cz=1 kappa=2\n"
                "orbit g3 cz=1 kappa=1 bad\nsurface genus=2 boundary=0\n"
                "class K = a1 b1\n")
FUZZ_TERMINALS = ["n", "caps", "orbit", "surface", "class", "series", "aug",
                  "deg", "cz", "kappa", "bad", "=", "(", ")", "[", "]", "{",
                  "}", "^", "*", "+", "-", "/", ";", "->", "0", "1", "2", "h",
                  "q", "p", "s", "g1", "g2", "g3", "K", "a1", "\n"]


def _fuzz_atom(rng, depth):
    pick = rng.randrange(8 if depth < 3 else 6)
    if pick == 0:
        return [str(rng.randrange(3))]
    if pick == 1:
        return [str(rng.randrange(3)), "/", str(rng.randrange(3))]
    if pick == 2:
        return ["(", "1", "/", "h", ")"]
    if pick == 3:
        return ["h"]
    if pick == 4:
        return [rng.choice("qp"), "[", rng.choice(["g1", "g2", "g3"]), "]"]
    if pick == 5:
        return ["s", "[", rng.choice(["K", "a1", "b1 b1"]), "]"]
    if pick == 6:
        return ["-"] + _fuzz_atom(rng, depth + 1)
    return ["("] + _fuzz_expr(rng, depth + 1) + [")"]


def _fuzz_expr(rng, depth=0):
    tokens = []
    for i in range(rng.randint(1, 3)):
        for j in range(rng.randint(1, 2)):
            tokens += [rng.choice("+-")] if i and not j else []
            tokens += ["*"] if j else []
            tokens += _fuzz_atom(rng, depth)
            if rng.random() < 0.2:
                tokens += ["^", str(rng.randrange(4))]
    return tokens


def _fuzz_declaration(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return ["orbit", "g%d" % rng.randint(4, 9), "cz", "=",
                str(rng.randrange(2)), "kappa", "=", str(rng.randrange(3))]
    if pick == 1:
        return ["series", "H", "="] + _fuzz_expr(rng)
    if pick == 2:
        return ["series", "H", "deg", "=", str(rng.randrange(-1, 2)),
                "="] + _fuzz_expr(rng)
    return ["aug", "beta", "{", "q", "[", "g1", "]", "->"] \
        + _fuzz_expr(rng) + ["}"]


def test_parse_fuzz_exits_0_or_2_with_one_line(tmp_path, capsys):
    """Grammar sentences, some with a token inserted, deleted or replaced:
    each parses, or exits 2 with one line and nothing on stdout."""
    rng = random.Random(19)
    path = tmp_path / "fuzz.sft"
    codes = []
    for _ in range(300):
        tokens = _fuzz_declaration(rng)
        for _ in range(rng.randrange(3)):
            i = rng.randrange(len(tokens))
            tokens[i:i + rng.randrange(2)] = \
                [rng.choice(FUZZ_TERMINALS)] * rng.randrange(2)
        path.write_text(FUZZ_PRELUDE + " ".join(tokens) + "\n")
        code, out, err = run_cli(["parse", "--input", str(path)], capsys)
        codes.append(code)
        if code == 2:
            assert out == "" and err.startswith("error: line ")
            assert err.count("\n") == 1 and "Traceback" not in err
        else:
            assert (code, err) == (0, "") and out.startswith("n = ")
    assert codes.count(0) > 50 and codes.count(2) > 50


def test_parser_builds_orbit_system_once_per_declaration(monkeypatch):
    from sftstring import problemfile
    built = []
    real = problemfile.OrbitSystem
    monkeypatch.setattr(problemfile, "OrbitSystem",
                        lambda n, orbits: built.append(n) or real(n, orbits))
    pf = parse((DATA / "three_orbit_pass.sft").read_text())
    assert built == [2] and pf.sys.n == 2
    # an n declared after the orbits and between atoms still sets degrees
    del built[:]
    pf = parse("orbit g cz=0 kappa=1\nseries A = q[g]\n"
               "n = 4\nseries B = q[g]\n")
    assert built == [2, 4] and pf.sys.n == 4
    assert pf.series["A"].homogeneous_degree() == -1
    assert pf.series["B"].homogeneous_degree() == 1


def test_string_symbols_follow_a_later_n():
    # s[...] has degree n - 3 for the n in force where it is written
    pf = parse("surface genus=2 boundary=0\nseries A = s[a1]\n"
               "n = 3\nseries B = s[a1]\n")
    assert pf.series["A"].homogeneous_degree() == -1
    assert pf.series["B"].homogeneous_degree() == 0


def test_exit_codes(capsys):
    code, _, _ = run_cli(["check-master", "--input",
                          str(DATA / "three_orbit_pass.sft")], capsys)
    assert code == 0
    code, _, _ = run_cli(["check-master", "--input",
                          str(DATA / "cross_fail.sft")], capsys)
    assert code == 1
    code, _, err = run_cli(["check-master", "--input",
                            str(DATA / "missing.sft")], capsys)
    assert code == 2
    code, _, err = run_cli(["check-master", "--input", "tests"], capsys)
    assert code == 2


def test_library_errors_exit_2_with_one_line(tmp_path, capsys):
    underflow = tmp_path / "underflow.sft"
    underflow.write_text("n = 2\norbit g1 cz=1 kappa=1\n"
                         "series H = (1/h)*(1/h)*q[g1]*p[g1]\n")
    # q[g1], q[g2] have degree -1: an augmentation may not be nonzero there
    odd_aug = tmp_path / "odd_aug.sft"
    odd_aug.write_text((DATA / "three_orbit_pass.sft").read_text()
                       + "aug beta { q[g1] -> 1 ; q[g2] -> 1 }\n")
    pass_file = str(DATA / "three_orbit_pass.sft")
    undeclared_aug = tmp_path / "undeclared_aug.sft"
    undeclared_aug.write_text((DATA / "three_orbit_pass.sft").read_text()
                              + "aug beta { q[zz] -> h }\n")
    bad_aug = tmp_path / "bad_aug.sft"
    bad_aug.write_text((DATA / "three_orbit_pass.sft").read_text()
                       + "orbit g4 cz=1 kappa=1 bad\n"
                       + "aug beta { q[g4] -> h }\n")
    file_caps = tmp_path / "file_caps.sft"
    file_caps.write_text("n = 2\ncaps max_p=-1\norbit g1 cz=0 kappa=1\n")
    for argv in (["check-master", "--input", str(underflow)],
                 ["linearize", "--input", str(odd_aug), "--aug", "beta"],
                 ["check-master", "--input", pass_file, "--max-p-degree", "-1"],
                 ["check-master", "--input", pass_file, "--min-hbar", "-100"],
                 ["check-master", "--input", pass_file, "--max-hbar", "-5"],
                 ["check-master", "--input", pass_file, "--series", "nope"],
                 ["linearize", "--input", str(undeclared_aug), "--aug", "beta"],
                 ["linearize", "--input", str(bad_aug), "--aug", "beta"],
                 ["parse", "--input", str(file_caps)],
                 ["closure", "--genus", "2", "--cap", "-1", "a1 b1"],
                 ["closure", "--genus", "2", "--cap", "0", "a1 b1"],
                 ["check-axioms", "--genus", "2", "--max-word-len", "7"],
                 ["check-axioms", "--genus", "3", "--max-word-len", "6"],
                 ["check-axioms", "--genus", "1", "--max-word-len",
                  "1000000000"],
                 ["check-axioms", "--genus", "2", "--samples", "1001"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


_LOW = "(1/h)*" * 4
# two even orbits, a term (1/h) q1^2 p1 that raises the q-degree by one,
# so the checks read fewer words than the basis holds, and terms that
# act below h^-1 only on words of q-degree word_cap
_UNDERFLOW_ONLY_ON_LONGEST_WORDS = [
    # q1*q2 (h^-3) comes before q1^2 (h^-2) in basis order, though
    # linearize meets the pair (g1, g1) first
    (["linearize", "--max-word-len", "2"],
     _LOW + "p[g1]*p[g1] + " + _LOW + "(1/h)*p[g1]*p[g2]", "h^-3"),
    # no check of check-bialgebra reads the one word q1^2*q2
    (["check-bialgebra"], _LOW + "(1/h)*p[g1]*p[g1]*p[g2]", "h^-2"),
]


@pytest.mark.parametrize("argv, low, power", _UNDERFLOW_ONLY_ON_LONGEST_WORDS)
def test_underflow_on_the_longest_words_is_raised_first_in_basis_order(
        tmp_path, capsys, argv, low, power):
    path = tmp_path / "low.sft"
    path.write_text("n = 2\norbit g1 cz=1 kappa=1\norbit g2 cz=1 kappa=1\n"
                    "series H = (1/h)*q[g1]*q[g1]*p[g1] + %s\n" % low)
    code, out, err = run_cli(argv + ["--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: term %s needs hbar%s below the context "
                   "minimum -1\n" % (power, power[1:]))


def test_product_of_p_and_q_of_one_orbit_is_a_parse_error(tmp_path, capsys):
    # p[g] * q[g] is not a graded-commutative product; mul refuses it
    path = tmp_path / "pq.sft"
    path.write_text("n = 2\norbit g1 cz=0 kappa=1\nseries H = p[g1]*q[g1]\n")
    code, out, err = run_cli(["parse", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: line 3, col 23: word mixes p and q of orbit 'g1' "
                   "in Weyl order; use the star product\n")


def test_missing_series_returns_2_without_system_exit(capsys):
    try:
        code = main(["check-master", "--input",
                     str(DATA / "three_orbit_pass.sft"), "--series", "nope"])
    except SystemExit:
        pytest.fail("main raised SystemExit")
    assert code == 2
    assert "series 'nope'" in capsys.readouterr().err


def test_check_axioms_word_limit(monkeypatch, capsys):
    """Genus 2 enumerates 156,864 reduced words up to length 6, under
    the limit, and 1,098,056 up to length 7; genus 3 193,260 up to 5."""
    from sftstring import cli
    from sftstring.reports import CheckReport
    monkeypatch.setattr(cli, "check_string_identities",
                        lambda *a, **k: CheckReport("identities"))
    monkeypatch.setattr(cli, "check_goldman_turaev_axioms",
                        lambda *a, **k: CheckReport("axioms"))
    for genus, length, code in (("2", "6", 0), ("2", "7", 2),
                                ("3", "5", 0), ("3", "6", 2)):
        assert run_cli(["check-axioms", "--genus", genus,
                        "--max-word-len", length], capsys)[0] == code


def test_check_axioms_sample_limit(monkeypatch, capsys):
    from sftstring import cli
    from sftstring.reports import CheckReport
    seen = []
    monkeypatch.setattr(cli, "check_string_identities",
                        lambda *a, **k: CheckReport("identities"))
    monkeypatch.setattr(cli, "check_goldman_turaev_axioms",
                        lambda *a, **k: seen.append(k["pairs"])
                        or CheckReport("axioms"))
    assert cli.MAX_AXIOM_SAMPLES == 1_000
    for samples, code in (("1000", 0), ("1001", 2), ("100000", 2)):
        assert run_cli(["check-axioms", "--genus", "2",
                        "--samples", samples], capsys)[0] == code
    assert seen == [1_000]


def _orbit_file(tmp_path, even, odd):
    """n = 2: cz=1 gives an even q, cz=0 an odd one; H = p of the last
    odd orbit."""
    lines = ["n = 2"] + ["orbit e%d cz=1" % i for i in range(even)]
    lines += ["orbit o%d cz=0" % i for i in range(odd)]
    lines.append("series H deg=-1 = p[o%d]" % (odd - 1))
    path = tmp_path / ("orbits_%d_%d.sft" % (even, odd))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_bv_word_count_matches_the_basis(tmp_path):
    from sftstring import cli
    from sftstring.bv import FreeAlgebraSpec
    for even, odd in ((0, 2), (1, 1), (2, 3), (4, 1), (0, 9)):
        sys_ = parse(_orbit_file(tmp_path, even, odd).read_text()).sys
        for cap in range(0, 12):
            spec = FreeAlgebraSpec.of_q(sys_, cap, 3)
            assert cli._bv_words(sys_, cap) == \
                len(spec.basis_monomials()), (even, odd, cap)


def test_bv_word_cap_limit(monkeypatch, tmp_path, capsys):
    """linearize and check-bialgebra reject a --max-word-len whose
    q-basis has too many words, before the BV operator is built; the
    corpus and the default caps stay accepted."""
    from sftstring import cli
    from sftstring.bv import BvError
    built = []

    def stub(sys_, H, spec):
        built.append(spec.word_cap)
        raise BvError("stub")

    monkeypatch.setattr(cli, "bv_from_hamiltonian", stub)
    two, six = _orbit_file(tmp_path, 1, 1), _orbit_file(tmp_path, 6, 1)
    cases = [(two, "4999", True), (two, "5000", False),
             (two, "1000000000", False), (six, "9", True), (six, "10", False),
             (_orbit_file(tmp_path, 19, 1), None, True),
             (_orbit_file(tmp_path, 39, 1), None, False)]
    cases += [(path, None, True) for path in CORPUS
              if "H" in parse(path.read_text()).series]
    for command in ("linearize", "check-bialgebra"):
        for path, cap, accepted in cases:
            argv = [command, "--input", str(path)]
            argv += ["--max-word-len", cap] if cap else []
            del built[:]
            code, out, err = run_cli(argv, capsys)
            assert code == 2 and out == "" and err.count("\n") == 1
            assert built == ([int(cap or 3)] if accepted else []), argv
            assert ("basis words" in err) != accepted, err


def test_linearize_of_a_zero_augmentation_on_long_words(tmp_path, capsys):
    """With no --aug, beta is the zero map: e^beta is read off its
    empty support, not expanded over the Bell(11) set partitions of the
    longest basis words, and the check fails as before."""
    path = tmp_path / "long_words.sft"
    path.write_text("n = 1\norbit g1 cz=1\norbit g7 cz=0\n"
                    "series H deg=-2 = p[g7]\n")
    got = run_cli(["linearize", "--input", str(path), "--series", "H",
                   "--max-word-len", "11"], capsys)
    assert got == (2, "", "error: not an augmentation: "
                          "[('e^beta D(q[g7])', 'h')]\n")


def test_check_axioms_rejects_caps_it_does_not_use(capsys):
    # check-axioms reads only --max-word-len, linearize and
    # check-bialgebra only --max-word-len and --max-hbar
    three_orbit = ["--input", str(DATA / "three_orbit_pass.sft")]
    for argv, unused in (
            (["check-axioms", "--genus", "2"],
             ("--max-p-degree", "--max-hbar", "--min-hbar")),
            (["linearize"] + three_orbit, ("--max-p-degree", "--min-hbar")),
            (["check-bialgebra"] + three_orbit,
             ("--max-p-degree", "--min-hbar"))):
        for flag in unused:
            code, out, err = run_cli(argv + [flag, "3"], capsys)
            assert code == 2 and out == ""
            assert "unrecognized arguments: %s 3" % flag in err


def test_repeated_call_leaves_no_cyclic_garbage(capsys):
    # main reuses one parser, so a call after the first leaves nothing
    # for the cyclic collector
    argv = ["parse", "--input", str(DATA / "three_orbit_pass.sft")]
    assert run_cli(argv, capsys)[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_explicit_zero_options_are_honoured(capsys):
    code, out, _ = run_cli(["check-axioms", "--genus", "2", "--max-word-len",
                            "2", "--samples", "0", "--json"], capsys)
    assert code == 0
    caps = json.loads(out)["reports"][1]["caps"]
    assert caps["pairs"] == 0 and caps["triples"] == 0
    code, out, _ = run_cli(["check-axioms", "--genus", "2", "--max-word-len",
                            "2", "--json"], capsys)
    caps = json.loads(out)["reports"][1]["caps"]
    assert caps["pairs"] == 25 and caps["triples"] == 25
    code, out, _ = run_cli(["linearize", "--input",
                            str(DATA / "three_orbit_pass.sft"),
                            "--max-hbar", "0", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["bv_axioms"]["caps"]["hbar_cap"] == 0
    code, _, err = run_cli(["check-axioms", "--genus", "2",
                            "--max-word-len", "0"], capsys)
    assert code == 2 and err.count("\n") == 1


def test_json_schema(capsys):
    code, out, _ = run_cli(["check-master", "--input",
                            str(DATA / "cross_fail.sft"), "--json"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["status"] == "fail"
    assert data["witnesses"] and all(
        set(w) == {"monomial", "coefficient"} for w in data["witnesses"])
    assert "caps" in data and "seconds" in data


def test_bracket_and_cobracket_commands(capsys):
    code, out, _ = run_cli(["bracket", "--genus", "2", "a1", "b1"], capsys)
    assert code == 0
    assert "(a1 b1)" in out
    code, out, _ = run_cli(["cobracket", "--genus", "2", "a1"], capsys)
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run_cli(["bracket", "--genus", "1", "a1", "b1", "--json"],
                           capsys)
    assert code == 0
    assert json.loads(out)["bracket"] == {"a1 b1": "1"}


def _strip_rich(letters, seed=1):
    """A genus-2 word of blocks a1 b1 A1 B1, each followed by a1 or b2:
    geodesic, and the slowest kind to canonicalize at its length."""
    rng = random.Random(seed)
    word = []
    while len(word) < letters:
        word += ["a1", "b1", "A1", "B1", rng.choice(["a1", "b2"])]
    return " ".join(word[:letters])


@pytest.mark.parametrize("words", [[40], [41], [20, 20], [20, 21], [1, 40]],
                         ids=["cobracket-40", "cobracket-41", "bracket-20-20",
                              "bracket-20-21", "bracket-1-40"])
def test_bracket_and_cobracket_letter_limit(words):
    """Up to MAX_STRING_LETTERS letters in all a command answers in a few
    seconds; one more exits 2 with one line before any class is built."""
    from sftstring import cli
    assert cli.MAX_STRING_LETTERS == 40
    command = "cobracket" if len(words) == 1 else "bracket"
    proc = _run_module([command, "--genus", "2"]
                       + [_strip_rich(n) for n in words], timeout=30)
    if sum(words) <= cli.MAX_STRING_LETTERS:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout and not proc.stderr
    else:
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "%d letters" % sum(words) in proc.stderr


def test_torus_oracle_command(capsys):
    code, out, _ = run_cli(["torus-oracle", "1", "0", "0", "1"], capsys)
    assert code == 0 and "(a1 b1)" in out
    code, _, err = run_cli(["torus-oracle", "0", "0", "1", "1"], capsys)
    assert code == 2


def test_torus_oracle_letter_limit(capsys):
    """The answer's |m+p| + |n+q| letters are bounded before any work."""
    from sftstring import cli
    assert cli.MAX_ORACLE_LETTERS == 100_000
    for args, letters in (((99_998, 0, 1, 1), 100_000),
                          ((-1, -49_998, -50_000, 0), 99_999),
                          ((99_999, 1, 1, 0), None),
                          ((10 ** 9, 1, 1, 10 ** 9), None)):
        code, out, err = run_cli(["torus-oracle"] + [str(a) for a in args],
                                 capsys)
        if letters:
            assert code == 0, args
            assert len(out[out.index("("):].split()) == letters, args
        else:
            assert code == 2 and out == "" and err.count("\n") == 1, args
            assert "letters" in err


def test_master_f_command(capsys):
    code, _, _ = run_cli(["check-master-f", "--input",
                          str(DATA / "cobordism_identity.sft"),
                          "--hplus", "Hplus", "--hminus", "Hminus"], capsys)
    assert code == 0


def test_master_l_command(capsys):
    code, _, _ = run_cli(["check-master-l", "--input",
                          str(DATA / "surface_strings.sft"),
                          "--potential", "L"], capsys)
    assert code == 0


def test_master_l_reuses_the_parsers_class_algebra(capsys, monkeypatch):
    from sftstring import cli
    monkeypatch.setattr(cli, "ClassAlgebra", None)  # a second one would fail
    code, _, _ = run_cli(["check-master-l", "--input",
                          str(DATA / "surface_strings.sft"),
                          "--potential", "L"], capsys)
    assert code == 0


@pytest.mark.parametrize("later", ["n = 3", "n = 2", "surface genus=2 boundary=0"])
def test_master_l_rejects_string_symbols_of_an_earlier_declaration(
        tmp_path, capsys, later):
    path = tmp_path / "stale.sft"
    path.write_text("surface genus=2 boundary=0\nseries L = s[a1]\n%s\n" % later)
    code, out, err = run_cli(["check-master-l", "--input", str(path),
                              "--potential", "L"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: s[a1] is read before the last n or surface declaration\n"


def test_linearize_command(capsys):
    code, out, _ = run_cli(["linearize", "--input",
                            str(DATA / "three_orbit_pass.sft"),
                            "--series", "H", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert "homology" in data and "mu" in data
    # one positive puncture: only the cobracket side is populated
    assert data["delta"] and not data["mu"]


def test_check_bialgebra_command(capsys):
    code, _, _ = run_cli(["check-bialgebra", "--input",
                          str(DATA / "three_orbit_pass.sft")], capsys)
    assert code == 0


def test_closure_command(capsys):
    code, out, _ = run_cli(["closure", "--genus", "2", "--cap", "4",
                            "a1 a2 A1 A2"], capsys)
    assert code == 1  # escaping classes reported
    assert "escaping" in out


def test_build_h_command(tmp_path, capsys):
    out_path = tmp_path / "built.sft"
    code, out, _ = run_cli(["build-h", "--input",
                            str(DATA / "genus2_alphabet.sft"),
                            "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    pf = parse(text)  # round-trippable
    assert "H" in pf.series and "F" in pf.series
    assert not pf.series["H"].is_zero()
    # the emitted Hamiltonian passes the generic checker through the CLI
    code, _, _ = run_cli(["check-master", "--input", str(out_path),
                          "--series", "H", "--max-p-degree", "4",
                          "--max-hbar", "3"], capsys)
    assert code == 0


def _run_module(args, timeout=60, **env):
    """`python -m sftstring.cli ARGS` in a subprocess that imports this
    checkout's src/, with `env` added to the environment, killed after
    `timeout` seconds."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sftstring.cli", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_console_script_installed():
    proc = _run_module(["torus-oracle", "1", "0", "1", "1"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [
    ["build-h", "--input", str(DATA / "genus2_alphabet.sft"), "--verify",
     "--json"],
    ["parse", "--input", str(DATA / "cobordism_identity.sft"), "--json"],
], ids=["build-h", "parse"])
def test_json_output_does_not_follow_hash_seed(args):
    # symbols hash by address and strings by the seed; neither order
    # may reach the output
    outs = []
    for seed in ("0", "1"):
        proc = _run_module(args, PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outs.append([line for line in proc.stdout.splitlines()
                     if '"seconds"' not in line])
    assert outs[0] and outs[0] == outs[1]
