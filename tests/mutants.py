"""A mutation ledger: each named mutant of src/sftstring is killed by the
tests listed with it.

MUTANTS maps a name to a Mutant: the file under src/sftstring, a text
that occurs in it exactly once, the text that replaces it, and the
pytest node ids expected to kill the change.  run() copies src/, tests/
and pyproject.toml to a temporary directory, applies one mutant there
and runs its nodes with pytest in a subprocess under a wall-time limit.
The mutant is killed when pytest reports a failed test (exit 1).  A run
whose nodes pass, cannot be collected or overrun the limit is not a
kill: a survivor needs a test that kills it, never a weaker check.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Exit 0 when every mutant run is killed; otherwise one line per survivor.
Standard library only, apart from the pytest the runs call.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 60.0  # seconds for one mutant's pytest run


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    nodes: List[str]


STRINGS = "tests/test_strings.py::"
BV = "tests/test_bv.py::"

MUTANTS = {
    # the (-1)^(n-3) of the split; split^2, the anticommutator and the
    # co-derivation rule are all blind to a global sign of the split, so
    # only a slot-by-slot oracle sees it
    "split sign": Mutant(
        "strings.py", "sign = -1 if (self.n - 3) % 2 else 1", "sign = 1",
        [STRINGS + "test_split_join_images_match_reference_on_pool[1-2]"]),
    # the slot-pair sign of the join, which only three slots reach
    "join slot-pair sign": Mutant(
        "strings.py", "pref = -1 if ((r1 + r2 + 1) * sgn_exp) % 2 else 1",
        "pref = 1", [STRINGS + "test_identity_suite_small"]),
    # the Koszul sign of a derivation moving past the units before s
    "derivation move sign": Mutant(
        "algebra.py", "c0 = -e if s.degree * par % 2 else e", "c0 = e",
        ["tests/test_algebra.py::"
         "test_derivation_matches_the_leibniz_rule_for_every_degree",
         STRINGS + "test_identity_suite_small"]),
    # the sign (-1)^(|op||w - u|) of a Koszul bracket term
    "order Koszul sign": Mutant(
        "bv.py", "* (-1) ** (op.degree * monomial_degree(rest) % 2)", "* 1",
        [BV + "test_generic_order_k_maps_have_order_exactly_k",
         STRINGS + "test_identity_suite_small"]),
    # the number of position sets of w that hold the units of u
    "divide count": Mutant(
        "bv.py", "count *= comb(e, f)", "count *= 1",
        [BV + "test_generic_order_k_maps_have_order_exactly_k"]),
    # BV1: a nonzero DD(m) must be reported
    "DD test": Mutant(
        "bv.py", "if not sq.is_zero():", "if False:",
        [BV + "test_bv1_witness_at_h_to_the_minus_2",
         STRINGS + "test_identity_witnesses_under_a_broken_operator"]),
    # past a failing word the Koszul brackets must still read every kept
    # sub-word, or longer words fail in its wake
    "order reach": Mutant(
        "bv.py", "reach = max(reach, units(w))", "pass",
        [BV + "test_validate_bv_witnesses_a_component_of_too_high_order"]),
    # a tabulated rule-form map must still compute a word off its basis
    "table drops the rule": Mutant(
        "bv.py",
        "        return {m: self._word(m) for m in self.spec.basis_monomials()}",
        "        self._values = {m: self._word(m)"
        " for m in self.spec.basis_monomials()}\n"
        "        self._rule = None\n        return self._values",
        [STRINGS + "test_string_operator_reads_words_off_its_basis_after_"
         "tabulating"]),
}


def mutate(text: str, mutant: Mutant) -> str:
    """text with the mutant applied; ValueError unless its old text
    occurs exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError("%r occurs %d times in %s"
                         % (mutant.old, count, mutant.file))
    return text.replace(mutant.old, mutant.new)


def run(name: str, limit: float = LIMIT) -> str:
    """"killed", "survived", "timeout" or "error (pytest exit N)" for
    the named mutant."""
    mutant = MUTANTS[name]
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="sft-mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "sftstring" / mutant.file
        path.write_text(mutate(path.read_text(encoding="utf-8"), mutant),
                        encoding="utf-8")
        # pyproject.toml puts the copy's src/ first on the path
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        cmd = [sys.executable, "-m", "pytest", "-q", "-x",
               "-p", "no:cacheprovider", *mutant.nodes]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, timeout=limit,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(
        proc.returncode, "error (pytest exit %d)" % proc.returncode)


def main(argv: List[str]) -> int:
    names = argv or list(MUTANTS)
    bad = 0
    for name in names:
        t0 = time.perf_counter()
        verdict = run(name)
        print("%-24s %-10s %5.1f s" % (name, verdict,
                                       time.perf_counter() - t0))
        bad += verdict != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
