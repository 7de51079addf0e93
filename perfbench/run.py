"""sftstring benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload gt_sweep --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  The run

1. sets up SETUPS times (import ``sftstring`` afresh, build the inputs
   from the seed) and reports the median as ``setup_s``;
2. runs passes of the workload, each on fresh program state, one caller
   in a closed loop, until the next pass would overrun ``--seconds``
   (at least one pass); ``run_s`` and ``cpu_s`` are the medians of the
   pass times, corrected for the machine's speed as ``speed.py``
   measures it during each pass;
3. checks every pass's outputs (see ``workloads.py``);
4. prints one line per metric, then, as the last line, the JSON result.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the traced ones
record a span per call into the functions of ``spans.TARGETS`` and the
result holds the per-layer metrics.  Every run appends a record with
every per-pass value to ``perfbench/results/runs.jsonl``; a traced run
also writes its spans to ``perfbench/results/``.

Seeds: 1 is the default, 2 is held out for re-checking a claim on a
seed nobody tuned against.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUPS = 5
DEFAULT_SEED = 1

# Per workload, the traced functions that must see at least one call: the
# per-layer metrics said to move that workload's run_s.  A wrapper that
# missed a binding reads 0 here and fails the traced run.
MUST_CALL = {
    "gt_sweep": [
        "surfaces.canonical_ray", "surfaces.goldman_terms",
        "surfaces.turaev_terms", "surfaces.canonical_class",
        "surfaces.classes_up_to", "strings.check_goldman_turaev_axioms"],
    "multistring": [
        "surfaces.canonical_ray", "surfaces.goldman_terms",
        "surfaces.turaev_terms", "surfaces.canonical_class",
        "surfaces.classes_up_to", "strings.delta_op", "strings.nabla_op",
        "strings.check_string_identities", "algebra.normalize", "algebra.mul",
        "algebra.GradedSeries.from_word"],
    "cotangent_verify": [
        "weyl.star", "weyl.act_right", "weyl.exp_series",
        "weyl.check_master_h", "algebra.normalize", "algebra.mul",
        "algebra.GradedSeries.from_word", "bv.exp_morphism",
        "bv.Augmentation.exp", "bv.twist_by_augmentation",
        "bv.LinearMap.value", "bv.bv_from_hamiltonian", "bv.linearize",
        "bv.check_lie_bialgebra", "cotangent.build_H_surface",
        "cotangent.surface_structure_constants",
        "cotangent.check_surface_master", "cotangent.check_psi_intertwining",
        "problemfile.parse", "problemfile.print_problem"],
    "weyl_star": ["weyl.star", "weyl.act_right"],
}


def import_program():
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "sftstring" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/sftstring under %s" % ROOT)
    sys.path.insert(0, str(src))
    import sftstring
    if Path(sftstring.__file__).resolve().parent != src / "sftstring":
        raise SystemExit("perfbench: imported sftstring from %s, not %s"
                         % (sftstring.__file__, src))


def forget_program():
    for name in [n for n in sys.modules
                 if n == "sftstring" or n.startswith("sftstring.")]:
        del sys.modules[name]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def revision():
    """Git revision of the checkout, when it is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def run_passes(wl, inp, refs, seconds, probe, recorder=None):
    """Timed passes until the next one would overrun ``seconds``.

    Returns one dict per pass and the summed outcome.  The reference
    tables are compared after the first pass, outside its timing.  With
    a ``recorder``, odd passes run traced and without the speed probe,
    whose samples would land in the spans.
    """
    from spans import Installation
    from workloads import Outcome
    passes = []
    total = Outcome()
    measured = 0.0
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        if traced:
            recorder.run_id = sum(1 for p in passes if p["traced"])
            inst = Installation(recorder)
            inst.install()
            root = recorder.open(recorder.intern("bench." + wl.name))
        else:
            probe.start()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run_pass(inp)
            error = None
        except Exception as exc:  # a crash is a failed pass, not a lost run
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if traced:
            recorder.close(root)
            inst.remove()
            slowdown, spent = None, 0.0
        else:
            slowdown, spent = probe.stop()
        passes.append({"wall_s": wall - spent, "cpu_s": cpu - spent,
                       "probe_s": spent, "slowdown": slowdown,
                       "traced": traced})
        if error is None:
            o = wl.check(inp, out, refs, full=len(passes) == 1)
        else:
            n = wl.ops(refs)
            o = Outcome(attempted=n)
            o.fail(error, n)
        del out
        total.attempted += o.attempted
        total.failed += o.failed
        total.known_defects += o.known_defects
        total.problems.extend(o.problems[:20 - len(total.problems)])
        measured += wall
        both = recorder is None or len(passes) >= 2
        if both and measured + statistics.median(
                p["wall_s"] for p in passes) > seconds:
            break
    return passes, total


def layer_metrics(wl, recorder, passes, total, declared):
    """Per-layer metrics of a traced run, named ``<module>.<fn>.<stat>``."""
    from spans import percentile
    runs = range(sum(1 for p in passes if p["traced"]))
    sums = [recorder.summarize(r) for r in runs]
    merged = {}
    for summary in sums:
        for name, slot in summary.items():
            merged.setdefault(name, []).append(slot)
    missing = [n for n in MUST_CALL[wl.name] if n not in merged]
    if missing:
        raise RuntimeError("traced run of %s saw no call to %s"
                           % (wl.name, ", ".join(missing)))

    def stat(prefix, what):
        slots = merged.get(prefix, [])
        if not slots:
            return 0
        if what == "calls":
            return statistics.median(s["calls"] for s in slots)
        if what == "self_s":
            return statistics.median(s["self_s"] for s in slots)
        durations = [d for s in slots for d in s["durations"]]
        return 1e6 * percentile(durations, {"p50_us": 0.5, "p99_us": 0.99}[what])

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p["wall_s"] for p in passes if p["traced"]]
    pairs = statistics.median(recorder.counts.get(("weyl.star.pairs", r), 0)
                              for r in runs)
    kept = statistics.median(recorder.counts.get(("weyl.star.kept", r), 0)
                             for r in runs)
    enum = stat("surfaces.goldman_terms", "calls") + \
        stat("surfaces.turaev_terms", "calls")
    special = {
        "surfaces.rays_per_enumeration":
            stat("surfaces.canonical_ray", "calls") / enum if enum else 0,
        "weyl.star.pairs": pairs,
        "weyl.star.kept_ratio": kept / pairs if pairs else 0,
        # each traced pass against the untraced pass just before it
        "trace_overhead_frac": statistics.median(
            t / u for u, t in zip(untraced, traced)) - 1,
        "ops_failed_frac":
            (total.failed + total.known_defects) / total.attempted,
        "known_defect_ops": total.known_defects / len(passes),
    }
    values = {}
    for m in declared:
        name = m["name"]
        if name in special:
            values[name] = special[name]
        else:
            prefix, what = name.rsplit(".", 1)
            values[name] = stat(prefix, what)
    # self time by module, as a share of the traced pass time
    shares = {}
    for summary in sums:
        for name, slot in summary.items():
            module = name.split(".", 1)[0]
            shares[module] = shares.get(module, 0.0) + slot["self_s"]
    whole = sum(traced)
    shares = {k: round(v / whole, 4) for k, v in sorted(shares.items())}
    return values, shares


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    wl = WORKLOADS[args.workload]
    end_to_end, per_layer = declared_metrics()
    refs = json.loads((HERE / "references" / ("%s.json" % wl.name))
                      .read_text(encoding="utf-8"))
    load_1m = os.getloadavg()[0]
    import_program()

    probe = SpeedProbe()
    probe.start()
    setup_raw = []
    for _ in range(SETUPS):
        forget_program()
        spent0, t0 = probe.spent, time.perf_counter()
        inp = wl.setup(args.seed)
        setup_raw.append(time.perf_counter() - t0 - (probe.spent - spent0))
    setup_slowdown, _ = probe.stop()

    recorder = None
    if args.trace:
        from spans import Recorder
        recorder = Recorder()
    passes, total = run_passes(wl, inp, refs, args.seconds, probe, recorder)
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    setup_times = [t / setup_slowdown for t in setup_raw]
    run_times = [p["wall_s"] / p["slowdown"] for p in untraced]
    cpu_times = [p["cpu_s"] / p["slowdown"] for p in untraced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "revision": revision(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_1m_at_start": load_1m,
        "setup_raw_s": setup_raw, "setup_slowdown": setup_slowdown,
        "passes": passes,
        "run_s_quartiles": quartiles(run_times),
        "wall_s_quartiles": quartiles(walls),
        "attempted": total.attempted, "failed": total.failed,
        "known_defects": total.known_defects, "problems": total.problems,
    }
    if args.trace:
        values, shares = layer_metrics(wl, recorder, passes, total, per_layer)
        declared = per_layer
        record["module_self_share"] = shares
        record["bindings"] = recorder.bindings
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / ("spans-%s-seed%d.bin.gz" % (wl.name, args.seed))
        recorder.dump(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "run_s": statistics.median(run_times),
                  "cpu_s": statistics.median(cpu_times),
                  "peak_rss_mb": peak_rss_mb}
        declared = end_to_end
        record["peak_rss_mb"] = peak_rss_mb
    record["metrics"] = values
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print("%s seed=%d trace=%d: %d passes (%d untraced); quartiles of "
          "run_s %.3f / %.3f / %.3f s, of raw wall time %.3f / %.3f / %.3f s"
          % ((wl.name, args.seed, args.trace, len(passes), len(walls))
             + record["run_s_quartiles"] + record["wall_s_quartiles"]))
    if args.trace:
        print("self time by module: %s" % json.dumps(record["module_self_share"]))
    if total.known_defects:
        print("known defect: the pinned Jacobi triple gave the recorded "
              "witness on %d of %d passes" % (total.known_defects, len(passes)))
    for problem in total.problems:
        print("failed: %s" % problem)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-44s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": total.failed == 0,
                      "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
