"""Spans around calls into the fuzzyrunoff modules, recorded from outside.

The tracer replaces module attributes of the library with thin wrappers for
the duration of one traced iteration and restores them afterwards; nothing
under ``src/`` is edited.  A wrapped function that no longer exists (renamed
or removed by a refactor) is recorded as absent, and every per-layer metric
that needs it is left out of the result instead of failing the run.

Each span records its name, start, end, parent span and the id of the
iteration it belongs to.  Spans stay in memory and are written out when the
run ends.  Self time is a span's duration minus the time covered by its
child spans.  When ``tracemalloc`` is tracing, each span also records the
peak of traced memory above the level at its entry.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass

PACKAGE = "fuzzyrunoff"
MODULES = ("dataio", "clustering", "validity", "identify", "core",
           "evalmetrics", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: int
    end: float = 0.0
    child_s: float = 0.0
    mem_base: int = 0
    mem_peak: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# -- observers: counts taken at the same boundary as the span ---------------


def _rows_out(tracer, args, kwargs, result):
    tracer.count("dataio.rows_in", len(result))


def _iterations(tracer, args, kwargs, result):
    trace = result[2]
    tracer.count("clustering.iterations", trace.n_iterations)
    tracer.count("clustering.max_iter_hits", int(not trace.converged))


def _sc_bytes(tracer, args, kwargs, result):
    # the (N, N, d) difference broadcast plus the (N, N) distance matrix
    z = args[0].z if hasattr(args[0], "z") else args[0]
    n, d = z.shape
    tracer.count("clustering.sc_bytes_computed", n * n * d * 8 + n * n * 8)


def _sweep_counts(tracer, args, kwargs, result):
    tracer.count("validity.points", len(result.c_values))
    tracer.count("validity.failures", len(result.failures))


def _batch_rows(tracer, args, kwargs, result):
    tracer.count("core.predict_batch_rows", len(result))


def _fallback_rows(tracer, args, kwargs, result):
    floor = getattr(tracer.modules["core"], "DEGENERACY_FLOOR", None)
    if floor is None:
        tracer.absent.add("core.DEGENERACY_FLOOR")
        return
    tracer.count("core.fallback_rows", int((result.sum(axis=1) < floor).sum()))


# (module, attribute, span name, observer, opaque).  An opaque span records
# no spans inside it: a streamed predict() is one span, not four.
TARGETS = (
    ("dataio", "synth_storm", "dataio.synth", _rows_out, False),
    ("dataio", "load_event_csv", "dataio.load_csv", _rows_out, False),
    ("dataio", "estimate_lag", "dataio.lag", None, False),
    ("dataio", "build_supervised", "dataio.supervised", None, False),
    ("clustering", "run_gk", "clustering.gk", _iterations, False),
    ("clustering", "run_fcm", "clustering.fcm", _iterations, False),
    ("clustering", "run_sc", "clustering.sc", _sc_bytes, False),
    ("clustering", "update_centers", "clustering.centers", None, False),
    ("clustering", "scatter_matrices", "clustering.scatter", None, False),
    ("clustering", "update_covariances", "clustering.covariances", None, False),
    ("clustering", "norm_matrices", "clustering.norms", None, False),
    ("clustering", "_squared_distances", "clustering.distances", None, False),
    ("clustering", "update_memberships", "clustering.memberships", None, False),
    ("validity", "sweep_clusters", "validity.sweep", _sweep_counts, False),
    ("validity", "all_indices", "validity.indices", None, False),
    ("identify", "fit_model", "identify.fit", None, False),
    ("identify", "premise_means", "identify.premise", None, False),
    ("identify", "premise_widths", "identify.premise", None, False),
    ("identify", "normalized_truth", "identify.truth", None, False),
    ("identify", "build_regressors", "identify.regressors", None, False),
    ("identify", "solve_consequents", "identify.solve", None, False),
    ("core", "predict_batch", "core.predict_batch", _batch_rows, False),
    ("core", "predict", "core.predict", None, True),
    ("core", "firing_matrix", "core.firing", _fallback_rows, False),
    ("core", "parse_model", "core.parse", None, False),
    ("core", "dump_model", "core.dump", None, False),
    ("evalmetrics", "metric_set", "evalmetrics.metric_set", None, False),
    ("cli", "cmd_synth", "cli.synth", None, False),
    ("cli", "cmd_train", "cli.train", None, False),
    ("cli", "cmd_evaluate", "cli.evaluate", None, False),
    ("cli", "cmd_compare", "cli.compare", None, False),
)


def load_modules() -> dict:
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


def replace_everywhere(modules: dict, original, replacement) -> list:
    """Rebind every module attribute and module-level dict entry that holds
    ``original`` (``from x import f`` copies, dispatch tables such as the CLI's
    command map, the package re-exports).  Returns undo records."""
    undo = []
    holders = list(modules.values()) + [importlib.import_module(PACKAGE)]
    for mod in holders:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((vars(mod), attr, original))
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        undo.append((value, key, original))
    return undo


def restore(undo: list) -> None:
    for table, key, original in reversed(undo):
        table[key] = original


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.absent: set[str] = set()
        self.run_id = -1
        self._stack: list[int] = []
        self._suspended = 0
        self._memory = False
        self._undo: list = []

    # -- installation --------------------------------------------------------

    def install(self, run_id: int, memory: bool = False) -> None:
        """Wrap every target for one traced iteration."""
        self.run_id = run_id
        self.counts[run_id] = {}
        self._memory = memory
        for module, attr, name, observe, opaque in TARGETS:
            original = getattr(self.modules[module], attr, None)
            if original is None:
                self.absent.add(f"{module}.{attr}")
                continue
            wrapped = self._wrap(original, name, observe, opaque)
            self._undo += replace_everywhere(self.modules, original, wrapped)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, fn, name, observe, opaque):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            tracer._suspended += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._suspended -= opaque
                tracer._close(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapped

    # -- spans and counts ----------------------------------------------------

    def count(self, key: str, value: int) -> None:
        table = self.counts[self.run_id]
        table[key] = table.get(key, 0) + int(value)

    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for i in self._stack:
            span = self.spans[i]
            span.mem_peak = max(span.mem_peak, peak)
        tracemalloc.reset_peak()
        return current

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent, self.run_id)
        if self._memory:
            span.mem_base = span.mem_peak = self._fold_peak()
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if self._memory:
            self._fold_peak()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "run_id", "name", "parent", "start", "end",
                        "self_s", "peak_alloc_bytes"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s.run_id, s.name, s.parent, repr(s.start),
                            repr(s.end), repr(s.self_s), s.mem_peak - s.mem_base])


# -- per-layer metrics -------------------------------------------------------

MB = 1024.0 * 1024.0


class _View:
    """Aggregates over the spans of one traced iteration."""

    def __init__(self, tracer: Tracer, run_id: int, extra: dict):
        self.spans = [s for s in tracer.spans if s.run_id == run_id]
        self.all = tracer.spans
        self.counts = dict(tracer.counts.get(run_id, {}))
        self.counts.update(extra)
        self.totals: dict[str, list] = {}  # name -> [inclusive s, self s, spans]
        for s in self.spans:
            total = self.totals.setdefault(s.name, [0.0, 0.0, 0])
            total[0] += s.duration
            total[1] += s.self_s
            total[2] += 1

    def _sum(self, names, field) -> float:
        return sum(self.totals.get(name, (0.0, 0.0, 0))[field] for name in names)

    def incl(self, *names) -> float:
        return self._sum(names, 0)

    def self_time(self, *names) -> float:
        return self._sum(names, 1)

    def n(self, name) -> int:
        return self._sum([name], 2)

    def c(self, key) -> int:
        return self.counts.get(key, 0)

    def peak_mb(self, name) -> float:
        peaks = [s.mem_peak - s.mem_base for s in self.spans if s.name == name]
        return max(peaks, default=0) / MB

    def ancestors(self, span):
        while span.parent >= 0:
            span = self.all[span.parent]
            yield span.name

    def clusterings_per_fit(self) -> float:
        # clustering runs made by fit_model itself, plus one per sweep it ran
        # (the sweep already clustered the consensus C once)
        fits = self.n("identify.fit")
        if not fits:
            return 0.0
        runs = 0
        for s in self.spans:
            if s.name in ("clustering.gk", "clustering.fcm", "clustering.sc"):
                chain = list(self.ancestors(s))
                if "identify.fit" in chain and "validity.sweep" not in chain:
                    runs += 1
            elif s.name == "validity.sweep" and "identify.fit" in self.ancestors(s):
                runs += 1
        return runs / fits


def _per_iteration(v: _View) -> float:
    it = v.c("clustering.iterations")
    return v.incl("clustering.gk", "clustering.fcm") / it if it else 0.0


# Each metric is (unit, spans it needs, value from a _View).

def _incl(*spans):
    return spans, lambda v: v.incl(*spans)


def _self(*spans):
    return spans, lambda v: v.self_time(*spans)


def _calls(span):
    return (span,), lambda v: v.n(span)


def _count(key, *spans):
    return spans, lambda v: v.c(key)


def _peak(span):
    return (span,), lambda v: v.peak_mb(span)


RUNS = ("clustering.gk", "clustering.fcm")
CLI = ("cli.synth", "cli.train", "cli.evaluate", "cli.compare")

# From span-traced iterations.
TIMED_METRICS = {
    "dataio.synth_s": ("s", *_incl("dataio.synth")),
    "dataio.load_csv_s": ("s", *_incl("dataio.load_csv")),
    "dataio.lag_s": ("s", *_incl("dataio.lag")),
    "dataio.supervised_s": ("s", *_incl("dataio.supervised")),
    "dataio.rows_in": ("count", *_count("dataio.rows_in", "dataio.synth", "dataio.load_csv")),
    "clustering.gk_s": ("s", *_incl("clustering.gk")),
    "clustering.fcm_s": ("s", *_incl("clustering.fcm")),
    "clustering.iterations": ("count", *_count("clustering.iterations", *RUNS)),
    "clustering.max_iter_hits": ("count", *_count("clustering.max_iter_hits", *RUNS)),
    "clustering.s_per_iteration": ("s/iter", RUNS, _per_iteration),
    "clustering.centers_s": ("s", *_self("clustering.centers")),
    "clustering.scatter_s": ("s", *_self("clustering.scatter")),
    "clustering.covariances_s": ("s", *_self("clustering.covariances")),
    "clustering.norms_s": ("s", *_self("clustering.norms")),
    "clustering.distances_s": ("s", *_self("clustering.distances")),
    "clustering.memberships_s": ("s", *_self("clustering.memberships")),
    "clustering.sc_s": ("s", *_incl("clustering.sc")),
    "clustering.sc_bytes_computed": ("bytes", *_count("clustering.sc_bytes_computed",
                                                       "clustering.sc")),
    "validity.sweep_s": ("s", *_incl("validity.sweep")),
    "validity.indices_s": ("s", *_incl("validity.indices")),
    "validity.points": ("count", *_count("validity.points", "validity.sweep")),
    "validity.failures": ("count", *_count("validity.failures", "validity.sweep")),
    "identify.fit_s": ("s", *_incl("identify.fit")),
    "identify.fits": ("count", *_calls("identify.fit")),
    "identify.premise_s": ("s", *_incl("identify.premise")),
    "identify.truth_s": ("s", *_incl("identify.truth")),
    "identify.regressors_s": ("s", *_incl("identify.regressors")),
    "identify.solve_s": ("s", *_incl("identify.solve")),
    "identify.solves": ("count", *_calls("identify.solve")),
    "identify.clusterings_per_fit": ("ratio", ("identify.fit", "clustering.sc", "validity.sweep")
                                     + RUNS, lambda v: v.clusterings_per_fit()),
    "core.predict_batch_s": ("s", *_incl("core.predict_batch")),
    "core.predict_batch_rows": ("count", *_count("core.predict_batch_rows", "core.predict_batch")),
    "core.predict_s": ("s", *_incl("core.predict")),
    "core.predict_calls": ("count", *_calls("core.predict")),
    "core.firing_s": ("s", *_incl("core.firing")),
    "core.parse_s": ("s", *_incl("core.parse")),
    "core.dump_s": ("s", *_incl("core.dump")),
    "core.fallback_rows": ("count", *_count("core.fallback_rows", "core.firing",
                                            "core.DEGENERACY_FLOOR")),
    "evalmetrics.metric_set_s": ("s", *_incl("evalmetrics.metric_set")),
    "evalmetrics.calls": ("count", *_calls("evalmetrics.metric_set")),
    "cli.synth_s": ("s", *_incl("cli.synth")),
    "cli.train_s": ("s", *_incl("cli.train")),
    "cli.evaluate_s": ("s", *_incl("cli.evaluate")),
    "cli.compare_s": ("s", *_incl("cli.compare")),
    "cli.self_s": ("s", *_self(*CLI)),
    "cli.bytes_written": ("bytes", *_count("cli.bytes_written")),
}

# From the tracemalloc iteration.
MEMORY_METRICS = {
    "clustering.sc_peak_alloc_mb": ("MB", *_peak("clustering.sc")),
    "identify.peak_alloc_mb": ("MB", *_peak("identify.fit")),
}


def layer_values(tracer: Tracer, run_id: int, extra: dict, memory: bool) -> dict:
    """Per-layer metric values of one traced iteration; absent ones omitted."""
    missing = set(tracer.absent)
    missing.update(name for module, attr, name, _, _ in TARGETS
                   if f"{module}.{attr}" in tracer.absent)
    table = MEMORY_METRICS if memory else TIMED_METRICS
    view = _View(tracer, run_id, extra)
    return {name: compute(view) for name, (unit, needs, compute) in table.items()
            if not missing.intersection(needs)}


def units() -> dict:
    return {name: spec[0] for name, spec in {**TIMED_METRICS, **MEMORY_METRICS}.items()}
