"""Capture the reference outputs the benchmark compares every run against.

    python3 perfbench/capture.py [workload ...]

writes ``perfbench/references/<workload>.json`` from the program as it
is now.  The checked-in references were captured at the commit that
introduced the benchmark; capture again only when a change is meant to
alter the program's outputs, and say so in the change.
"""

import json
import sys
import time

from run import HERE, import_program
from workloads import WORKLOADS, digest, jacobi, _SECONDS


def capture_gt_sweep(wl):
    from sftstring.surfaces import Surface, format_word
    S = Surface(2, 0)
    pool = wl.pool_tables(S)
    x, y, z = (S.canonical_class(w) for w in wl.setup(0)["pinned"])
    return {
        "pool_size": len(pool),
        "pool_tables": pool,
        "variants": [wl.sample_tables(S, v) for v in range(wl.VARIANTS)],
        "pinned_defect": {format_word(k, S): str(v)
                          for k, v in jacobi(S, x, y, z).items()},
    }


def capture_multistring(wl):
    inp = wl.setup(0)
    out = wl.run_pass(inp)
    labels = wl.tuple_labels(out["surface"])
    if out["report"].witnesses:
        raise SystemExit("multistring fails at this commit: %r"
                         % out["report"].witnesses[:3])
    return {"tuples": len(labels), "tuple_digest": digest("\n".join(labels))}


def capture_cotangent_verify(wl):
    out = wl.run_pass(wl.setup(0))
    return {"json": _SECONDS.sub("", out["text"]),
            "coefficients": out["families"], "flips": len(out["flips"])}


def capture_weyl_star(wl):
    from sftstring.algebra import TruncationContext
    from sftstring.weyl import act_right, star
    ctx = TruncationContext(max_p_degree=4, max_hbar=4, min_hbar=-1,
                            max_word_length=0)
    systems = wl.systems()
    table = []
    for i in range(wl.UNIVERSE):
        _, s, a, b, c, g = wl.triple(systems, i)
        ab = star(a, b, s, ctx)
        table.append(wl.products_digest(star(ab, c, s, ctx),
                                        act_right(ab, g, s, ctx)))
    return {"universe": wl.UNIVERSE, "digests": "".join(table)}


def main(names):
    import_program()
    for name in names or list(WORKLOADS):
        t0 = time.perf_counter()
        refs = globals()["capture_" + name](WORKLOADS[name])
        path = HERE / "references" / ("%s.json" % name)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print("%s: wrote %s in %.1f s" % (name, path.name,
                                          time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
