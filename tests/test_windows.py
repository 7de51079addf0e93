"""Every truncation window built in src/sftstring is accounted for.

An `ast` walk finds each window the package makes: a call of
`TruncationContext(...)` or of `.widen(...)`, or `TruncationContext`
passed as a factory.  A window is keyed by its module and the function,
or module- or class-level name, it is made in; a second window in one
place gets the suffix "#2".  Each key must be on WINDOWS with its
category and the reason for it, and each entry must name a window: a
new window that is not listed, or an entry that names none, fails, as
tests/census.py does for functions.  A window listed as unbounded must
spell every upper cap as inf, as algebra.KEEP_ALL does.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sftstring"

USER = "user caps"
UNBOUNDED = "unbounded"
SPEC = "spec window"
CHOSEN = "chosen (ROADMAP item 15)"

# module.scope -> (category, reason)
WINDOWS = {
    "problemfile.ProblemFile.caps": (
        USER, "the default caps of a file without a caps line"),
    "problemfile._Parser._caps": (USER, "a file's caps line"),
    "weyl.check_master_h": (
        USER, "the caller's caps, min_hbar lowered to 2 min_hbar - 1, "
        "below any term of H * H for an H inside them"),
    "bv.FreeAlgebraSpec.__init__": (
        SPEC, "q-degree <= word_cap and h <= hbar_cap, no p or length "
        "cap: the window of every sum on the spec"),
    "bv.bv_from_hamiltonian": (
        SPEC, "the action of H in the spec's hbar_cap, with no q cap (the "
        "Weyl kernel reads none) and min_hbar -1 as the underflow "
        "detector"),
    "algebra.KEEP_ALL": (
        UNBOUNDED, "parse-time products keep every written term, and "
        "check_string_identities every term (split and join keep h = 0 "
        "and p-degree 0)"),
    "cotangent._WIDE": (
        UNBOUNDED, "the action of a finite series on a word is finite; "
        "min_hbar -4 is the underflow detector"),
    "cotangent._MASTER": (
        CHOSEN, "check_surface_master's window for H * H = 0"),
    "cotangent._FILLING": (
        CHOSEN, "_MASTER widened by max_p // 2 + 2, where e^F is built"),
    "weyl.check_master_f": (
        CHOSEN, "the caller's caps widened by max_p + 2 for e^F"),
    "strings.check_master_l": (
        CHOSEN, "the caller's caps widened by max_p + max_len + 2 for "
        "e^L"),
}

CAPS = ("max_p_degree", "max_hbar", "max_word_length", "max_q_degree")


def _annotations(tree):
    """The ids of the nodes inside type annotations."""
    out = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, ast.arg):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in filter(None, notes):
            out.update(id(n) for n in ast.walk(note))
    return out


def _is_window(node, skip):
    if isinstance(node, ast.Name):
        return node.id == "TruncationContext" and id(node) not in skip
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Attribute) and node.func.attr == "widen"


def windows(sources=None):
    """{key: node} of every window in the sources ({module: text}, by
    default the files of src/sftstring); the node of a TruncationContext
    window is its call, or the name where it is passed as a factory."""
    if sources is None:
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = {}

    def visit(node, module, scope, skip, top):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = "%s.%s" % (scope, child.name)
            elif top and isinstance(child, (ast.Assign, ast.AnnAssign)):
                target = child.targets[0] if isinstance(child, ast.Assign) \
                    else child.target
                if isinstance(target, ast.Name):
                    inner = "%s.%s" % (scope, target.id)
            if _is_window(child, skip):
                key, n = inner, 1
                while key in found:
                    n += 1
                    key = "%s #%d" % (inner, n)
                found[key] = node if getattr(node, "func", None) is child \
                    else child
            visit(child, module, inner, skip, isinstance(child, ast.ClassDef))

    for module, text in sources.items():
        tree = ast.parse(text)
        visit(tree, module, module, _annotations(tree), True)
    return found


def problems(sources=None, allowed=WINDOWS):
    """One line per window that is not on the allow-list, per entry with
    no window, and per unbounded entry with a finite cap."""
    found = windows(sources)
    out = ["window not on the allow-list: %s (line %d)"
           % (key, node.lineno) for key, node in sorted(found.items())
           if key not in allowed]
    out += ["allow-listed, but no such window: %s" % key
            for key in sorted(allowed) if key not in found]
    for key, (category, _reason) in sorted(allowed.items()):
        node = found.get(key)
        if category == UNBOUNDED and node is not None:
            given = {k.arg: k.value for k in getattr(node, "keywords", ())}
            if not isinstance(node, ast.Call) or node.args or any(
                    cap in given and not _is_inf(given[cap]) for cap in CAPS) \
                    or not all(cap in given for cap in CAPS[:3]):
                out.append("listed as unbounded, but capped: %s" % key)
    return out


def _is_inf(node):
    return (isinstance(node, ast.Name) and node.id == "inf") or \
        (isinstance(node, ast.Attribute) and node.attr == "inf")


def test_every_window_is_allow_listed():
    assert problems() == []


def test_the_walk_finds_each_kind_of_window():
    found = windows()
    assert isinstance(found["problemfile.ProblemFile.caps"], ast.Name)
    assert found["cotangent._FILLING"].func.attr == "widen"
    assert found["bv.FreeAlgebraSpec.__init__"].func.id == "TruncationContext"


def test_new_window_stale_entry_and_capped_unbounded_are_reported():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sources["algebra"] = sources["algebra"].replace(
        "max_word_length=inf)", "max_word_length=16)")
    sources["extra"] = (
        "def probe(ctx):\n"
        "    return TruncationContext(1, 1, 0, 1), ctx.widen(2)\n"
        "def typed(ctx: TruncationContext) -> TruncationContext:\n"
        "    return ctx\n")
    allowed = dict(WINDOWS, **{"weyl.exp_series": (CHOSEN, "deleted")})
    assert problems(sources, allowed) == [
        "window not on the allow-list: extra.probe (line 2)",
        "window not on the allow-list: extra.probe #2 (line 2)",
        "allow-listed, but no such window: weyl.exp_series",
        "listed as unbounded, but capped: algebra.KEEP_ALL"]
