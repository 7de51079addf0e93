"""Call census of `src/sftstring`: every function serves a user path.

A user path is an `sft` command on the corpus or an acceptance
criterion.  Every function the `ast` walk finds in `src/sftstring`
must be called by the CLI corpus run, or be on ALLOWED with its
category and the reason it is not.  A function is keyed by its module,
its first line and its name; the first line of a decorated function is
its first decorator line, as its code object's co_firstlineno reports.

The CLI corpus is every golden (command, file, form) case of
tests/test_golden.py and the commands of EXTRA, each as text and as
--json.  With --acceptance, tests/test_acceptance.py runs after it, and
each ALLOWED entry of a criterion must be called by that criterion's
test (its fixtures included, when that test sets them up).

The calls are recorded under a sys.setprofile hook in a fresh child
process: `cli.build_parser` is cached, so in a process that already ran
a command, the calls that build the parser would not be seen again.

    python tests/census.py                 # the CLI corpus (tier-1 runs it)
    python tests/census.py --acceptance    # plus the acceptance criteria

Exit 0 when the census holds; otherwise exit 1 with one line per
problem.
"""

import ast
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sftstring"
ACCEPTANCE = TESTS / "test_acceptance.py"

# the commands the golden corpus does not run, each also with --json
EXTRA = [
    ["bracket", "--genus", "2", "a1 b1 a2", "A1 b2"],
    ["cobracket", "--genus", "2", "a1 a1 b1 A1 b2"],
    ["check-axioms", "--genus", "1"],
    ["check-axioms", "--genus", "2"],
    ["check-axioms", "--genus", "1", "--boundary", "1"],
    ["closure", "--genus", "2", "a1 b1 A1", "a2"],
    ["torus-oracle", "1", "2", "3", "-1"],
    ["build-h", "--input", str(TESTS / "data" / "genus2_alphabet.sft"),
     "--verify"],
]

ERROR = "error or repr path"
PERFBENCH = "read by perfbench"
ITEM_1 = "waits for ROADMAP item 1"

# module.qualname -> (category, reason); "criterion N" is acceptance-only
ALLOWED = {
    "algebra.GradedSymbol.__setattr__": (
        ERROR, "refuses to assign to an interned symbol; nothing assigns"),
    "algebra.GradedSymbol.__reduce__": (
        ERROR, "pickling rebuilds through the interning constructor; the "
        "CLI pickles nothing"),
    "algebra.GradedSymbol.__repr__": (ERROR, "repr for debugging"),
    "algebra.GradedSeries.__repr__": (
        ERROR, "the text of a series in an error message or a failing "
        "check's witness"),
    "algebra.format_series": (ERROR, "the text of GradedSeries.__repr__"),
    "algebra.weyl_order_error": (
        ERROR, "a product with p before q of one orbit (sft exits 2)"),
    "algebra.truncation_underflow": (
        ERROR, "a term below the window's least h power (sft exits 2)"),
    "problemfile._Parser.fail_back": (
        ERROR, "a malformed attribute or a zero denominator (sft exits 2)"),
    "bv.BialgebraAxioms._reduce_slot": (
        ERROR, "reduces an axiom's nonzero defect modulo im d; on a "
        "Hamiltonian's data the defects vanish term by term"),
    "problemfile.ProblemFile.class_order": (
        PERFBENCH, "perfbench/workloads.py names the alphabet's classes "
        "by it"),
    "surfaces.Surface.intersection_count": (
        ITEM_1, "the representative-invariance tests of the class key"),
    "surfaces.Surface.self_intersection_count": (
        ITEM_1, "intersection_count of a class with itself"),
    "algebra.GradedSeries.__eq__": (
        "criterion 1", "compares the two sides of associativity"),
    "weyl.OrbitSystem.series_h": (
        "criterion 2", "builds the h of [p, q] = kappa h"),
    "weyl.OrbitSystem.series_p": (
        "criterion 2", "builds the p of [p, q] = kappa h"),
    "bv.bv_bracket": (
        "criterion 3", "the first component's BV bracket vanishes"),
    "cotangent.GeodesicAlphabet.from_words": (
        "criterion 3", "builds the alphabet of the Hamiltonian fixture, "
        "which criterion 3 sets up first"),
    "bv.derivation_operator": (
        "criterion 4", "builds the worked example's operator"),
    "bv.FreeAlgebraSpec.generator": (
        "criterion 4", "names the worked example's generators"),
    "bv.FreeAlgebraSpec.symbol": (
        "criterion 4", "names the worked example's generators"),
    "cotangent.SurfaceHamiltonian.flipped": (
        "criterion 8", "each sign flip must fail the master equation"),
    "cotangent.SurfaceHamiltonian.coefficients": (
        "criterion 8", "the structure constants the flips walk"),
    "strings.check_string_mc": (
        "criterion 10", "the string Maurer-Cartan equation"),
    "strings.check_fukaya_disk": (
        "criterion 10", "the disk-level reduction"),
    "strings.ClassAlgebra.word_of": (
        "criterion 10", "names the classes of its string series"),
    "surfaces.Surface.class_of": (
        "criterion 10", "the class of a written word, for word_of"),
    "problemfile.ParseError.__init__": (
        "criterion 11", "a malformed file; criterion 11 checks its "
        "position-tagged diagnostics"),
    "problemfile._at": (
        "criterion 11", "the ParseError at a token"),
}


def functions():
    """{(module, first line, name): module.qualname} of every function
    defined in src/sftstring, nested ones included."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list]
                           + [child.lineno])
                name = prefix + child.name
                found[(module, line, child.name)] = name
                walk(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem,
             path.stem + ".")
    return found


def cli_cases():
    """The argv of every command of the CLI corpus."""
    from test_golden import DATA, _argv, _cases

    cases = []
    for case in _cases():
        command, name = case.split()[:2]
        cases.append(_argv(command, DATA / name, case.endswith("--json")))
    for argv in EXTRA:
        cases += [argv, argv + ["--json"]]
    return cases


def _child(acceptance):
    """Run the corpus (and the acceptance module) under the hook; print
    {label: [[module, first line, name], ...]} of the code objects of
    src/sftstring each label called, as the last line of stdout.  The
    labels are "cli" and the acceptance test names."""
    sys.path[:0] = [str(SRC.parent), str(TESTS)]
    calls = {"cli": set()}
    current = [calls["cli"]]

    def hook(frame, event, arg):
        if event == "call":
            current[0].add(frame.f_code)

    from sftstring.cli import main

    sys.setprofile(hook)
    for argv in cli_cases():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code not in (0, 1):
            raise SystemExit("exit %d: sft %s" % (code, " ".join(argv)))
    current[0] = set()
    if acceptance:
        import pytest

        class Label:
            @pytest.hookimpl(hookwrapper=True)
            def pytest_runtest_protocol(self, item, nextitem):
                current[0] = calls.setdefault(item.name, set())
                yield
                current[0] = set()

        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ACCEPTANCE)],
                             plugins=[Label()])
        if status != 0:
            raise SystemExit("the acceptance module failed")
    sys.setprofile(None)
    src = str(SRC)
    print(json.dumps({
        label: sorted([Path(c.co_filename).stem, c.co_firstlineno, c.co_name]
                      for c in codes if str(Path(c.co_filename).parent) == src)
        for label, codes in calls.items()}))


def problems(acceptance=False):
    """The census, run in a child process: one line per problem, empty
    when every function is called by the CLI corpus or allow-listed
    (and, with acceptance, every criterion entry called by its
    criterion)."""
    argv = [sys.executable, __file__, "--child"]
    proc = subprocess.run(argv + ["--acceptance"] * acceptance,
                          capture_output=True, text=True, cwd=TESTS.parent)
    if proc.returncode:
        return ["census run failed: %s" % (proc.stderr.strip().splitlines()
                                           or ["exit %d" % proc.returncode])[-1]]
    found = functions()
    calls = {label: {found[tuple(key)] for key in keys if tuple(key) in found}
             for label, keys in json.loads(proc.stdout.splitlines()[-1]).items()}
    where = {name: "%s.py:%d" % (module, line)
             for (module, line, _n), name in found.items()}
    out = ["allow-listed, but no such function: %s" % name
           for name in ALLOWED if name not in where]
    out += ["called by no user path and not allow-listed: %s (%s)"
            % (name, where[name])
            for name in sorted(where) if name not in calls["cli"]
            and name not in ALLOWED]
    out += ["called by the CLI corpus, so off the allow-list: %s" % name
            for name in sorted(calls["cli"] & set(ALLOWED))]
    if acceptance:
        criteria = {}
        for label, names in calls.items():
            number = re.match(r"test_criterion_(\d+)_", label)
            if number:
                criteria[int(number.group(1))] = names
        for name, (category, _reason) in sorted(ALLOWED.items()):
            by = ["criterion %d" % n for n, names in sorted(criteria.items())
                  if name in names]
            if category.startswith("criterion ") and category not in by:
                out.append("%s: not called by %s" % (name, category))
            elif by and not category.startswith("criterion "):
                out.append("%s: called by %s, so its category is not %r"
                           % (name, by[0], category))
    return out


def main(argv):
    if "--child" in argv:
        _child("--acceptance" in argv)
        return 0
    found = problems("--acceptance" in argv)
    for line in found:
        print(line)
    if not found:
        print("census holds: %d functions, %d allow-listed"
              % (len(functions()), len(ALLOWED)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
