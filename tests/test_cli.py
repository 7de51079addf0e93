import json
import subprocess
import sys
from pathlib import Path

import pytest

from sftstring.cli import main
from sftstring.problemfile import ParseError, parse, print_problem

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


def test_degree_annotation_checked():
    good = "n = 2\norbit g cz=0 kappa=1\nseries H deg=-1 = (1/h)*p[g]*p[g]\n"
    # p odd: the square vanishes; declared degree cannot match
    with pytest.raises(ParseError):
        parse(good)
    ok = "n = 2\norbit g cz=0 kappa=1\nseries H deg=-1 = p[g]\n"
    pf = parse(ok)
    assert pf.series["H"].homogeneous_degree() == -1


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
    path = tmp_path / "underflow.sft"
    path.write_text("n = 2\norbit g1 cz=1 kappa=1\n"
                    "series H = (1/h)*(1/h)*q[g1]*p[g1]\n")
    code, out, err = run_cli(["check-master", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_torus_oracle_command(capsys):
    code, out, _ = run_cli(["torus-oracle", "1", "0", "0", "1"], capsys)
    assert code == 0 and "(a1 b1)" in out
    code, _, err = run_cli(["torus-oracle", "0", "0", "1", "1"], capsys)
    assert code == 2


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


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "sftstring.cli",
                           "torus-oracle", "1", "0", "1", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
