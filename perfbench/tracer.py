"""Timing wrappers around the public functions of each cgcsurf module.

`Tracer.install` replaces every public function of the package's modules by a
wrapper that records a span (name, parent span, start, end) and, for a few
functions, a work counter. It also replaces the names other modules bound
with `from .x import y`, the entries of `verify.CHECKS`, the sparse solve
that `gauss` calls, and `VerifyReport.render`. `uninstall` puts every
original back. Spans stay in memory until `write` dumps them.

Nothing here changes what a wrapped function computes: the wrapper passes
its arguments and result through unchanged.
"""

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = (
    "config", "gauss", "gaussmap", "grid", "lax", "minkowski", "pipeline",
    "qdiff", "report", "serialize", "surface", "verify",
)

# Table writers live in several modules; they form one layer.
WRITERS = (
    "serialize.surface_obj", "serialize.diagnostics_csv", "lax.frame_csv",
    "gauss.metric_field_csv", "gaussmap.gaussmap_csv",
)

# Private names that are layer boundaries all the same.
EXTRA = ("pipeline._write",)

LAYERS = (
    "gauss", "lax", "minkowski", "surface", "gaussmap", "grid", "writers",
    "pipeline", "report", "verify", "other",
)

BENCH = "bench"


def layer_of(name):
    if name in WRITERS:
        return "writers"
    module = name.split(".", 1)[0]
    return module if module in LAYERS else "other"


def _size(x):
    return int(getattr(x, "size", 1))


def _pairing(counters, args, result):
    a, b = args[0], args[1]
    nodes = _size(result)
    counters["minkowski.pairing_nodes"] += nodes
    # 16-byte complex: both operands read, one value per node written
    counters["minkowski.pairing_bytes_computed"] += 16 * (
        _size(a) + _size(b) + nodes
    )


def _frame(counters, args, result):
    counters["lax.frame_nodes"] += result.psi.shape[0] * result.psi.shape[1]
    counters["lax.det_drift_max"] = max(
        counters["lax.det_drift_max"], result.det_drift
    )


def _writer(counters, args, result):
    counters["writers.bytes"] += len(result)


# su2_pairing and mink_inner delegate to these two, so nodes count once.
COUNTERS = {
    "minkowski.mink_pairing": _pairing,
    "minkowski.su11_pairing": _pairing,
    "lax.integrate_frame": _frame,
    **{name: _writer for name in WRITERS},
}


class _ModuleProxy:
    """Stands in for a module attribute, overriding some of its names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # one record per span: [name, parent index, start, end, trace id]
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._trace = 0
        self._undo = []

    # -- recording -----------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), 0.0, self._trace]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _exit(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        count = COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper

    def op(self, name, fn, *args, **kwargs):
        """Run one benchmark op as the root span of a new trace."""
        self._trace += 1
        rec = self._enter(f"{BENCH}.{name}")
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(rec)

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the public functions of `package`'s modules in place."""
        modules = {
            m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
        }
        targets = {}
        for mname, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{mname}.{attr}"
                public = not attr.startswith("_") or name in EXTRA
                if (
                    public
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    targets[id(obj)] = (obj, name)
        wrappers = {key: self.wrap(fn, name) for key, (fn, name) in targets.items()}
        # every binding of a wrapped function, whatever module holds it
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])

        verify = modules["verify"]
        checks = verify.CHECKS
        self._undo.append((checks, slice(None), list(checks)))
        checks[:] = [wrappers.get(id(c), c) for c in checks]

        gauss = modules["gauss"]
        spsolve = self.wrap(gauss.spla.spsolve, "gauss.spsolve")
        self._set(gauss, "spla", _ModuleProxy(gauss.spla, spsolve=spsolve))

        report_cls = modules["report"].VerifyReport
        self._set(report_cls, "render", self.wrap(report_cls.render, "report.render"))

        fixtures = verify.Fixtures
        get = fixtures._get
        counters = self.counters

        def counting_get(fx, key, fn):
            counters["verify.fixture_gets"] += 1

            def make():
                counters["verify.fixture_misses"] += 1
                return fn()

            return get(fx, key, make)

        self._set(fixtures, "_get", counting_get)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(attr, slice):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def table(self):
        """Per-function calls, total and self seconds, from the spans."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k, (name, parent, t0, t1, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[k]
        return dict(out)

    def write(self, path):
        """Dump spans (times relative to the first) and the function table."""
        t0 = self.spans[0][2] if self.spans else 0.0
        spans = [
            {"id": k, "name": n, "parent": p, "trace": tr,
             "start_s": round(a - t0, 9), "end_s": round(b - t0, 9)}
            for k, (n, p, a, b, tr) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(
                {"spans": spans, "functions": self.table(),
                 "counters": dict(self.counters)},
                fh,
            )
