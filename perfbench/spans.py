"""In-memory span recorder and wrapper installation for the traced run.

Each call into a traced function records one span: name, start, end,
parent span and run id, appended to flat arrays so that millions of
spans stay small.  Counts that need the call's arguments or result
(the pairs offered to weyl.star and the terms it kept) are recorded in
the same wrapper.  Nothing here reaches inside ``src/``: wrappers are
installed from outside, in every namespace that binds the function.
"""

import functools
import gzip
import importlib
import json
import math
import sys
import time
import types
from array import array

# (module, qualified name) of every traced function.  The metric name of
# a span is "<module>.<qualified name>".
TARGETS = [
    ("surfaces", "Surface.canonical_ray"),
    ("surfaces", "Surface.goldman_terms"),
    ("surfaces", "Surface.turaev_terms"),
    ("surfaces", "Surface.canonical_class"),
    ("surfaces", "Surface.classes_up_to"),
    ("strings", "delta_op"),
    ("strings", "nabla_op"),
    ("strings", "check_string_identities"),
    ("strings", "check_goldman_turaev_axioms"),
    ("weyl", "star"),
    ("weyl", "act_right"),
    ("weyl", "exp_series"),
    ("weyl", "check_master_h"),
    ("algebra", "normalize"),
    ("algebra", "mul"),
    ("algebra", "GradedSeries.from_word"),
    ("bv", "exp_morphism"),
    ("bv", "Augmentation.exp"),
    ("bv", "twist_by_augmentation"),
    ("bv", "LinearMap.value"),
    ("bv", "bv_from_hamiltonian"),
    ("bv", "linearize"),
    ("bv", "check_lie_bialgebra"),
    ("cotangent", "build_H_surface"),
    ("cotangent", "surface_structure_constants"),
    ("cotangent", "check_surface_master"),
    ("cotangent", "check_psi_intertwining"),
    ("linalg", "rref"),
    ("problemfile", "parse"),
    ("problemfile", "print_problem"),
]


def span_name(module, qualname):
    """Metric prefix of a traced function, e.g. "surfaces.canonical_ray".

    Methods of Surface are reported under the module alone, because the
    module has one public class; methods of other classes keep the class.
    """
    if qualname.startswith("Surface."):
        qualname = qualname[len("Surface."):]
    return "%s.%s" % (module, qualname)


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [-1]
        self.run_id = 0
        self.counts = {}
        self.bindings = {}

    def intern(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn):
        nid = self.intern(name)
        rec = self
        if name == "weyl.star":
            def wrapper(*args, **kwargs):
                idx = rec.open(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.close(idx)
                a, b = args[0], args[1]
                rec.count(("weyl.star.pairs", rec.run_id),
                          len(a.terms) * len(b.terms))
                rec.count(("weyl.star.kept", rec.run_id), len(out.terms))
                return out
        else:
            def wrapper(*args, **kwargs):
                idx = rec.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(idx)
        return functools.wraps(fn)(wrapper)

    # -- per-run summaries ----------------------------------------------
    def summarize(self, run_id):
        """Per-name calls, self seconds and call durations of one run.

        A span's self time is its duration minus the time its child
        spans cover; children of one span never overlap, since the
        caller is a single thread.
        """
        lo = _first_index(self.run, run_id)
        hi = _first_index(self.run, run_id + 1)
        child = {}
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] = child.get(p, 0.0) + (self.end[i] - self.start[i])
        out = {}
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            slot = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "durations": []})
            slot["calls"] += 1
            slot["self_s"] += dur - child.get(i, 0.0)
            slot["durations"].append(dur)
        return out

    def dump(self, path):
        """Write every span, gzip'd: one JSON header line naming the
        fields, then each field's array as raw native-endian bytes."""
        fields = [("name", self.name_id), ("start", self.start),
                  ("end", self.end), ("parent", self.parent),
                  ("run", self.run)]
        header = {"names": self.names, "spans": len(self.start),
                  "byteorder": sys.byteorder,
                  "fields": [[n, a.typecode, a.itemsize] for n, a in fields]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, arr in fields:
                fh.write(arr.tobytes())


def _first_index(runs, run_id):
    """Spans are appended in run order, so the run ids are sorted."""
    lo, hi = 0, len(runs)
    while lo < hi:
        mid = (lo + hi) // 2
        if runs[mid] < run_id:
            lo = mid + 1
        else:
            hi = mid
    return lo


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Installation:
    """Wrappers installed in every namespace that binds a traced function.

    The bindings are found by an identity scan over the loaded
    ``sftstring.*`` modules: module globals (``from .weyl import star``),
    class attributes (methods, class methods) and bound methods stored in
    globals.  The recorder keeps where each wrapper went; ``remove``
    restores every original object.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.saved = []

    def install(self):
        for module, _ in TARGETS:
            importlib.import_module("sftstring." + module)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sftstring" or name.startswith("sftstring.")}
        for module, qualname in TARGETS:
            mod = modules["sftstring." + module]
            name = span_name(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__.get(attr)
                if raw is None:
                    raise RuntimeError("no method %s in sftstring.%s"
                                       % (qualname, module))
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
            else:
                fn = getattr(mod, qualname, None)
                if not isinstance(fn, types.FunctionType):
                    raise RuntimeError("no function %s in sftstring.%s"
                                       % (qualname, module))
            wrapper = self.recorder.wrap(name, fn)
            where = self._replace(modules, fn, wrapper)
            if not where:
                raise RuntimeError("found no binding of %s" % name)
            self.recorder.bindings[name] = where

    def _replace(self, modules, fn, wrapper):
        where = []
        for mod_name, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, val, wrapper)
                    where.append("%s.%s" % (mod_name, attr))
                elif isinstance(val, types.MethodType) and val.__func__ is fn:
                    self._set(mod, attr, val,
                              types.MethodType(wrapper, val.__self__))
                    where.append("%s.%s" % (mod_name, attr))
                elif isinstance(val, type) and val.__module__ == mod_name:
                    for cattr, cval in list(vars(val).items()):
                        if cval is fn:
                            self._set(val, cattr, cval, wrapper)
                        elif (isinstance(cval, classmethod)
                              and cval.__func__ is fn):
                            self._set(val, cattr, cval, classmethod(wrapper))
                        elif (isinstance(cval, staticmethod)
                              and cval.__func__ is fn):
                            self._set(val, cattr, cval, staticmethod(wrapper))
                        else:
                            continue
                        where.append("%s.%s.%s" % (mod_name, val.__name__,
                                                   cattr))
        return where

    def _set(self, owner, attr, old, new):
        self.saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def remove(self):
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()

