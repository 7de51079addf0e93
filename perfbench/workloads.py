"""The four workloads: inputs from a seed, one timed pass, output checks.

Every workload has the same three steps:

* ``setup(seed)`` imports ``sftstring`` and builds the inputs; it is
  timed as ``setup_s``.
* ``run_pass(inputs)`` runs the checks once on fresh program state (a
  new ``Surface`` or a fresh CLI call), so caching inside a pass counts
  and caching across passes does not; it is timed as ``run_s``.
* ``check(inputs, out, refs, full)`` counts the operations of the pass
  and the failed ones.  An operation fails when it raised, when its
  verdict differs from the mathematically expected one, or when its
  output differs from the reference captured at the seed commit
  (``references/``).  ``full`` runs the reference-table comparisons,
  which cost time of their own and are done on the first pass only.

``sftstring`` is imported inside the functions, because set-up is timed
by importing it afresh.
"""

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALPHABET = HERE / "data" / "genus2_alphabet.sft"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what, n=1):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(what)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def table_text(table):
    """Canonical text of a {word or word pair: Fraction} table."""
    return repr(sorted((k, str(v)) for k, v in table.items()))


def series_text(series):
    from sftstring.algebra import format_monomial
    return " + ".join(sorted("%s*%s" % (c, format_monomial(m))
                             for m, c in series.iter_terms()))


# ---------------------------------------------------------------------
# gt_sweep: the Goldman-Turaev axiom sweep on the closed genus-2 surface
# ---------------------------------------------------------------------

class GtSweep:
    """``check_goldman_turaev_axioms`` on a fresh ``Surface(2, 0)``: the
    unary axioms on every class of length <= MAX_LEN, seeded pairs and
    triples drawn from classes of length <= SAMPLE_LEN, and the pinned
    Jacobi triple of the known defect.

    Few samples keep the seed's share of the pass small: one sampled
    long-word triple costs 0.1 to 0.5 s, so a handful of them would make
    ``run_s`` depend on the seed more than on the code.
    """

    name = "gt_sweep"
    MAX_LEN = 4
    SAMPLE_LEN = 5
    PAIRS = 1
    TRIPLES = 1
    # Sampling seeds with captured references; --seed n uses n % VARIANTS.
    VARIANTS = 128
    # Known defect: Jacobi is nonzero on this triple (witness below).
    PINNED = ("a1 a1 A2 b2 b2", "A1 B1 a2 b2 b2 a2", "a1 b1 b2 b2 b1 B2")

    def setup(self, seed):
        from sftstring import strings, surfaces
        surface = surfaces.Surface(2, 0)
        pinned = tuple(surfaces.parse_word(t, surface) for t in self.PINNED)
        return {"surfaces": surfaces, "strings": strings,
                "variant": seed % self.VARIANTS, "pinned": pinned}

    def run_pass(self, inp):
        S = inp["surfaces"].Surface(2, 0)
        report = inp["strings"].check_goldman_turaev_axioms(
            S, max_len=self.MAX_LEN, sample_len=self.SAMPLE_LEN,
            pairs=self.PAIRS, triples=self.TRIPLES, seed=inp["variant"])
        x, y, z = (S.canonical_class(w) for w in inp["pinned"])
        return {"surface": S, "report": report, "pinned": (x, y, z),
                "jacobi": jacobi(S, x, y, z)}

    def samples(self, S, variant):
        """The pairs and triples the sweep draws for one sampling seed,
        in the order of its random draws."""
        big = S.classes_up_to(self.SAMPLE_LEN)
        rng = random.Random(variant)
        pick = lambda: big[rng.randrange(len(big))]
        pairs = [(pick(), pick()) for _ in range(self.PAIRS)]
        triples = [(pick(), pick(), pick()) for _ in range(self.TRIPLES)]
        return pairs, triples

    def pool_tables(self, S):
        """Digest of the cobracket and self-bracket of each pool class."""
        return [digest(table_text(S.turaev_terms(x))
                       + table_text(S.goldman_terms(x, x)))
                for x in S.classes_up_to(self.MAX_LEN)]

    def sample_tables(self, S, variant):
        """Digests of the bracket and cobracket tables of the sampled
        pairs, and of the three brackets and the Jacobi sum of each
        sampled triple."""
        pairs, triples = self.samples(S, variant)
        return {
            "pairs": [digest("".join(table_text(t) for t in (
                S.goldman_terms(x, y), S.goldman_terms(y, x),
                S.turaev_terms(x), S.turaev_terms(y)))) for x, y in pairs],
            "triples": [digest("".join(table_text(t) for t in (
                S.goldman_terms(x, y), S.goldman_terms(z, x),
                S.goldman_terms(y, z), jacobi(S, x, y, z))))
                for x, y, z in triples],
        }

    def ops(self, refs):
        return 4 * refs["pool_size"] + 2 * self.PAIRS + self.TRIPLES + 1

    def check(self, inp, out, refs, full):
        from sftstring.surfaces import format_word
        S, report = out["surface"], out["report"]
        o = Outcome(attempted=self.ops(refs))
        n_pool = refs["pool_size"]
        for label, _ in report.witnesses:
            o.fail("axiom: " + label)
        jac = {format_word(k, S): str(v) for k, v in out["jacobi"].items()}
        if jac != refs["pinned_defect"] and jac:
            o.fail("pinned Jacobi triple: %r" % jac)
        elif jac:
            o.known_defects += 1
        if full:
            pool = self.pool_tables(S)
            if len(pool) != n_pool:
                o.fail("pool has %d classes, reference %d" % (len(pool), n_pool))
            for i, (got, want) in enumerate(zip(pool, refs["pool_tables"])):
                if got != want:
                    o.fail("pool class %d tables differ" % i)
            got_v = self.sample_tables(S, inp["variant"])
            for kind, want_l in refs["variants"][inp["variant"]].items():
                for i, (got, want) in enumerate(zip(got_v[kind], want_l)):
                    if got != want:
                        o.fail("sampled %s %d tables differ" % (kind, i))
        return o


def jacobi(S, x, y, z):
    """[[x,y],z] + [[z,x],y] + [[y,z],x] as a class table."""
    acc = {}
    for u, v, w in ((x, y, z), (z, x, y), (y, z, x)):
        for m, c in S.goldman_terms(u, v).items():
            for k, c2 in S.goldman_terms(m, w).items():
                acc[k] = acc.get(k, Fraction(0)) + c * c2
    return {k: v for k, v in acc.items() if v}


# ---------------------------------------------------------------------
# multistring: the multi-string identity suite
# ---------------------------------------------------------------------

class Multistring:
    """``check_string_identities(Surface(2, 0), max_len=4, max_slots=3)``:
    every tuple of classes within the caps, a fixed exhaustive input, so
    the seed does not change it."""

    name = "multistring"
    MAX_LEN = 4
    MAX_SLOTS = 3

    def setup(self, seed):
        from sftstring import strings, surfaces
        return {"surfaces": surfaces, "strings": strings}

    def run_pass(self, inp):
        S = inp["surfaces"].Surface(2, 0)
        report = inp["strings"].check_string_identities(
            S, max_len=self.MAX_LEN, max_slots=self.MAX_SLOTS)
        return {"surface": S, "report": report}

    def tuple_labels(self, S):
        """Labels of the nonzero tuples the suite checks: non-decreasing
        class index, at most MAX_SLOTS slots, total length <= MAX_LEN;
        a repeated class is an odd symbol squared, hence zero."""
        from sftstring.surfaces import format_word
        classes = S.classes_up_to(self.MAX_LEN)
        out = []

        def rec(start, cur, remaining):
            for idx in range(start, len(classes)):
                c = classes[idx]
                if len(c) > remaining:
                    continue
                t = cur + [c]
                if len(set(t)) == len(t):
                    out.append("(%s)" % ", ".join(format_word(w, S) for w in t))
                if len(t) < self.MAX_SLOTS:
                    rec(idx, t, remaining - len(c))

        rec(0, [], self.MAX_LEN)
        return out

    def ops(self, refs):
        return refs["tuples"]

    def check(self, inp, out, refs, full):
        o = Outcome(attempted=self.ops(refs))
        failing = sorted({label[label.index("("):]
                          for label, _ in out["report"].witnesses})
        for label in failing:
            o.fail("tuple %s" % label)
        if full:
            labels = self.tuple_labels(out["surface"])
            if len(labels) != refs["tuples"] or \
                    digest("\n".join(labels)) != refs["tuple_digest"]:
                o.fail("tuple list differs from the reference")
        return o


# ---------------------------------------------------------------------
# cotangent_verify: `sft build-h --verify` and the single-sign flips
# ---------------------------------------------------------------------

_SECONDS = re.compile(r'^\s*"seconds": [-+0-9.eE]+,?\n', re.M)
_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


class CotangentVerify:
    """``sft build-h --input genus2_alphabet.sft --verify --json`` run
    in-process, then ``check_surface_master`` on every single-sign flip
    of the built Hamiltonian (acceptance criterion 8).  The input file is
    fixed; the seed only orders the flips."""

    name = "cotangent_verify"

    def setup(self, seed):
        from sftstring import cli, cotangent, problemfile
        problemfile.parse(ALPHABET.read_text(encoding="utf-8"))
        return {"cli": cli, "cotangent": cotangent, "problemfile": problemfile,
                "seed": seed}

    def run_pass(self, inp):
        cot = inp["cotangent"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = inp["cli"].main(["build-h", "--input", str(ALPHABET),
                                  "--verify", "--json"])
        text = buf.getvalue()
        doc = json.loads(text)
        pf = inp["problemfile"].parse(doc["problem"])
        names = {pf.classes[n]: n for n in pf.class_order}
        alphabet = cot.GeodesicAlphabet(pf.surface, list(names), names)
        fams = families(doc["problem"])
        words = {fam: {tuple(pf.classes[n] for n in key.split("|")): Fraction(v)
                       for key, v in table.items()}
                 for fam, table in fams.items()}
        H = cot.SurfaceHamiltonian(alphabet, pf.series["H"], words["a"],
                                   words["b"], words["c"], words["d"])
        keys = [(fam, key) for fam in "abcd" for key in sorted(words[fam])]
        random.Random(inp["seed"]).shuffle(keys)
        flips = []
        for fam, key in keys:
            rep = cot.check_surface_master(H.flipped(fam, key))
            flips.append((fam, key, rep.passed, bool(rep.witnesses)))
        return {"rc": rc, "text": text, "doc": doc, "families": fams,
                "flips": flips}

    def ops(self, refs):
        return 4 + refs["flips"]

    def check(self, inp, out, refs, full):
        o = Outcome(attempted=self.ops(refs))
        if out["rc"] != 0:
            o.fail("build-h exit code %d" % out["rc"])
        if _SECONDS.sub("", out["text"]) != refs["json"]:
            o.fail("build-h --json output differs from the reference")
        for rep in out["doc"]["reports"]:
            if rep["status"] != "pass":
                o.fail("report %r: %s" % (rep["check"], rep["status"]))
        if len(out["doc"]["reports"]) != 2:
            o.fail("expected two reports, got %d" % len(out["doc"]["reports"]))
        if out["families"] != refs["coefficients"]:
            o.fail("a/b/c/d coefficients differ from the reference")
        if len(out["flips"]) != refs["flips"]:
            o.fail("%d sign flips, reference %d"
                   % (len(out["flips"]), refs["flips"]))
        for fam, key, passed, witnessed in out["flips"]:
            if passed or not witnessed:
                o.fail("flip %s%r passed the master check" % (fam, key))
        return o


def families(problem_text):
    """The a/b/c/d structure constants, read off the printed ``series H``
    line by monomial shape: a = q q p, b = q p p, c = p p p (all with
    1/h), d = p alone.  Keys are orbit names in printed order, values
    the printed coefficients."""
    line = next(l for l in problem_text.splitlines()
                if l.startswith("series H"))
    body = line.split("=", 1)[1]
    out = {"a": {}, "b": {}, "c": {}, "d": {}}
    for sign, term in _TERM.findall(body):
        factors = term.strip().split("*")
        coeff = Fraction(1)
        qs, ps, hpow = [], [], 0
        for f in factors:
            if f.startswith("q["):
                qs.append(f[2:-1])
            elif f.startswith("p["):
                ps.append(f[2:-1])
            elif f == "(1/h)":
                hpow -= 1
            else:
                coeff *= Fraction(f)
        if sign == "-":
            coeff = -coeff
        shape = (len(qs), len(ps), hpow)
        fam = {(2, 1, -1): "a", (1, 2, -1): "b", (0, 3, -1): "c",
               (0, 1, 0): "d"}[shape]
        key = tuple(ps + qs) if fam == "a" else tuple(qs + ps)
        out[fam]["|".join(key)] = str(coeff)
    return {fam: dict(sorted(t.items())) for fam, t in out.items()}


# ---------------------------------------------------------------------
# weyl_star: star associativity and the representation property
# ---------------------------------------------------------------------

class WeylStar:
    """Star associativity and ``act_right``'s representation property on
    seeded random series over the three orbit systems of criterion 1.

    Triple i of a fixed universe is generated from its own seed, so its
    products have one captured digest; --seed n picks TRIPLES of the
    UNIVERSE triples.  Per-triple cost varies about as much as its mean,
    so TRIPLES is large enough that the seed moves a pass by ~2 %.
    """

    name = "weyl_star"
    UNIVERSE = 15000
    TRIPLES = 3000
    MAX_TERMS = 4
    P_BUDGET = 2

    def systems(self):
        from sftstring.weyl import Orbit, OrbitSystem
        return [
            OrbitSystem(2, [Orbit("g%d" % i, 0, 1 + i % 2) for i in range(1, 5)]),
            OrbitSystem(3, [Orbit("g%d" % i, i % 3, 1) for i in range(1, 4)]),
            OrbitSystem(4, [Orbit("g%d" % i, (i * 2) % 5, 1 + i % 3)
                            for i in range(1, 5)]),
        ]

    def triple(self, systems, i):
        from sftstring.weyl import project_out
        sys_ = systems[i % len(systems)]
        rng = random.Random("weyl_star/%d" % i)
        a, b, c = (self.random_series(rng, sys_) for _ in range(3))
        g = project_out(self.random_series(rng, sys_), kinds=("p",))
        return i, sys_, a, b, c, g

    def random_series(self, rng, sys_):
        from sftstring.algebra import GradedSeries
        orbits = list(sys_.q)
        out = GradedSeries.zero()
        for _ in range(rng.randrange(1, self.MAX_TERMS + 1)):
            qs = [o for o in orbits if rng.random() < 0.35]
            ps = []
            budget = self.P_BUDGET
            for o in orbits:
                if budget and rng.random() < 0.35:
                    ps.append(o)
                    budget -= 1
            coeff = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            if coeff:
                out = out + sys_.monomial(coeff, qs=qs, ps=ps,
                                          hpow=rng.randrange(0, 2))
        return out

    def setup(self, seed):
        from sftstring import weyl
        from sftstring.algebra import TruncationContext
        systems = self.systems()
        picks = random.Random(seed).sample(range(self.UNIVERSE), self.TRIPLES)
        ctx = TruncationContext(max_p_degree=4, max_hbar=4, min_hbar=-1,
                                max_word_length=0)
        return {"triples": [self.triple(systems, i) for i in picks],
                "ctx": ctx, "weyl": weyl}

    def run_pass(self, inp):
        star, act, ctx = inp["weyl"].star, inp["weyl"].act_right, inp["ctx"]
        results = []
        for i, s, a, b, c, g in inp["triples"]:
            ab = star(a, b, s, ctx)
            lhs = star(ab, c, s, ctx)
            rhs = star(a, star(b, c, s, ctx), s, ctx)
            rep_l = act(ab, g, s, ctx)
            rep_r = act(a, act(b, g, s, ctx), s, ctx)
            results.append((i, lhs, lhs == rhs, rep_l, rep_l == rep_r))
        return {"results": results}

    @staticmethod
    def products_digest(lhs, rep):
        return digest(series_text(lhs) + "|" + series_text(rep))[:8]

    def ops(self, refs):
        return 2 * self.TRIPLES

    def check(self, inp, out, refs, full):
        o = Outcome(attempted=self.ops(refs))
        table = refs["digests"]
        for i, lhs, assoc, rep, repr_ok in out["results"]:
            if not assoc:
                o.fail("associativity, triple %d" % i)
            if not repr_ok:
                o.fail("representation property, triple %d" % i)
            if full and self.products_digest(lhs, rep) != table[8 * i:8 * i + 8]:
                o.fail("products of triple %d differ from the reference" % i)
        return o


WORKLOADS = {w.name: w for w in (GtSweep(), Multistring(), CotangentVerify(),
                                 WeylStar())}
