"""In-memory span tracer for the gospace package, and the per-layer metrics
derived from its spans.

:func:`install` wraps every public function of every ``gospace`` module
(``gospace._linalg`` included) and rebinds the wrapper wherever the package
binds the original: module attributes (``catalog.null_space``,
``gocheck.a_u_of_u``, ``suites.parse_metric``, ...) and values of module-level
dicts (the suite registry).  Calls made inside the package therefore open a
span too.  A span is ``[name, parent, start, end, note]``; parents are
indices into the same list, and spans stay in memory until the run writes
them out with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import statistics
import sys
import time

import numpy as np

SKIP = {
    # the command handlers are the CLI layer's own work: keep them inside
    # cli.main's self time
    "cli.cmd_list", "cli.cmd_check", "cli.cmd_verify", "cli.entrypoint",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.active = True

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1], time.perf_counter(), 0.0, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][3] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code (one operation)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Run a block (output validation) without recording spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name, func, note=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                try:
                    tracer.spans[idx][4] = note(args, kwargs, result)
                except (KeyError, TypeError, AttributeError):
                    pass          # a changed signature leaves the span without its note
            return result

        return traced

    def dump(self, path, meta):
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "parent", "start", "end", "note"],
                       "spans": self.spans}, fh, separators=(",", ":"), default=str)


def _bound(func):
    sig = inspect.signature(func)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return get


def _notes(package):
    """Extra facts recorded on some spans, computed from arguments/results."""
    gocheck = package.gocheck
    go_args = _bound(gocheck.go_verdict)
    nr_args = _bound(gocheck.nr_check)

    def null_space(args, kwargs, result):
        return int(np.asarray(args[0] if args else kwargs["a"]).size) * 8

    def sample_plan(args, kwargs, result):
        return len(result)

    def verdict(getter):
        def note(args, kwargs, result):
            a = getter(args, kwargs)
            return [id(a["dec"]), a["fn"].spec_string, a["samples"], a["seed"]]
        return note

    return {"_linalg.null_space": null_space,
            "gocheck.sample_plan": sample_plan,
            "gocheck.go_verdict": verdict(go_args),
            "gocheck.nr_check": verdict(nr_args)}


def package_modules(package):
    prefix = package.__name__ + "."
    return [package] + sorted((m for n, m in sys.modules.items() if n.startswith(prefix)),
                              key=lambda m: m.__name__)


def install(tracer, package):
    """Wrap and rebind every public gospace function."""
    prefix = package.__name__ + "."
    modules = package_modules(package)
    notes = _notes(package)
    wrappers = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and attr == obj.__name__):
                name = f"{mod.__name__[len(prefix):]}.{attr}"
                if name not in SKIP:
                    wrappers[id(obj)] = (obj, tracer.wrap(name, obj, notes.get(name)))

    def traced(obj):
        entry = wrappers.get(id(obj))
        return entry[1] if entry is not None and entry[0] is obj else None

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if traced(obj) is not None:
                setattr(mod, attr, traced(obj))
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in list(obj.items()):
                    if traced(val) is not None:
                        obj[key] = traced(val)


# ---------------------------------------------------------------------------
# per-layer metrics


SUITE_FUNCS = {
    "thm1-converse": "suite_thm1_converse",
    "thm2-wallach": "suite_thm2_wallach",
    "cor-wallach-normal": "suite_cor_wallach_normal",
    "type1-nr": "suite_type1_nr",
    "crossval": "suite_crossval",
    "invariants": "suite_invariants",
}

# metric name -> (span name, statistic); statistics are per traced pass
# except us_per_call, which is per call
LAYER_METRICS = {
    "liealg.from_matrices.busy_s": ("liealg.from_matrices", "busy"),
    "liealg.matrix_coords.busy_s": ("liealg.matrix_coords", "busy"),
    "homspace.build.busy_s": ("homspace.build", "busy"),
    "homspace.symmetric_commutant_dim.busy_s": ("homspace.symmetric_commutant_dim", "busy"),
    "linalg.null_space.busy_s": ("_linalg.null_space", "busy"),
    "linalg.null_space.calls": ("_linalg.null_space", "calls"),
    "linalg.null_space.input_mb": ("_linalg.null_space", "note_mb"),
    "linalg.gram_schmidt.busy_s": ("_linalg.gram_schmidt", "busy"),
    "catalog.make_space.self_s": ("catalog.make_space", "self"),
    "cli.main.self_s": ("cli.main", "self"),
    "finsler.parse_metric.busy_s": ("finsler.parse_metric", "busy"),
    "finsler.strong_convexity_check.busy_s": ("finsler.strong_convexity_check", "busy"),
    "finsler.strong_convexity_check.calls": ("finsler.strong_convexity_check", "calls"),
    "gocheck.sample_plan.busy_s": ("gocheck.sample_plan", "busy"),
    "gocheck.sample_plan.calls": ("gocheck.sample_plan", "calls"),
    "gocheck.go_verdict.self_s": ("gocheck.go_verdict", "self"),
    "gocheck.nr_check.self_s": ("gocheck.nr_check", "self"),
    "gocheck.go_residual_operator.us_per_call": ("gocheck.go_residual_operator", "us_per_call"),
    "gocheck.go_check_spray.us_per_call": ("gocheck.go_check_spray", "us_per_call"),
    "gocheck.nr_residual.us_per_call": ("gocheck.nr_residual", "us_per_call"),
    "finsler.metric_operator.busy_s": ("finsler.metric_operator", "busy"),
    "linalg.lstsq_min_norm.calls": ("_linalg.lstsq_min_norm", "calls"),
    "linalg.lstsq_min_norm.busy_s": ("_linalg.lstsq_min_norm", "busy"),
    **{f"suites.{suite}.busy_s": (f"suites.{func}", "busy")
       for suite, func in SUITE_FUNCS.items()},
    "gocheck.centralizer_condition_check.busy_s": ("gocheck.centralizer_condition_check", "busy"),
    "homspace.centralizer_in_h.busy_s": ("homspace.centralizer_in_h", "busy"),
    "homspace.tilde_centralizer.busy_s": ("homspace.tilde_centralizer", "busy"),
    "linalg.subspace_intersection.busy_s": ("_linalg.subspace_intersection", "busy"),
    "gocheck.two_summand_phi_check.busy_s": ("gocheck.two_summand_phi_check", "busy"),
    "gocheck.wallach_system_check.busy_s": ("gocheck.wallach_system_check", "busy"),
}

UNITS = {"busy": "s", "self": "s", "calls": "count", "note_mb": "MiB",
         "us_per_call": "us"}


def _per_name(spans):
    """Per span name: calls, busy time (outermost spans only) and self time."""
    n = len(spans)
    child_time = [0.0] * n
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    # a span nested inside another span of the same name adds no busy time
    inside = [False] * n
    for i, (name, parent, *_rest) in enumerate(spans):
        j = parent
        while j >= 0 and not inside[i]:
            inside[i] = spans[j][0] == name
            j = spans[j][1]
    out = {}
    for i, (name, parent, start, end, note) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "note": 0})
        rec["calls"] += 1
        rec["self"] += (end - start) - child_time[i]
        if not inside[i]:
            rec["busy"] += end - start
        if isinstance(note, int):
            rec["note"] += note
    return out


def _calls_per_direction(spans):
    """a_u_of_u calls inside sampled verdicts per distinct sampled direction.

    A direction is one entry of a verdict's sample plan; go_verdict and
    nr_check for the same (space, metric, samples, seed) inside one
    operation share their plan, so it counts once.
    """
    verdicts = {"gocheck.go_verdict", "gocheck.nr_check"}
    root = [0] * len(spans)
    verdict_of = [-1] * len(spans)
    for i, (name, parent, *_rest) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        verdict_of[i] = i if name in verdicts else (
            verdict_of[parent] if parent >= 0 else -1)
    calls = 0
    plans = {}
    for i, (name, parent, _s, _e, note) in enumerate(spans):
        v = verdict_of[i]
        if v < 0:
            continue
        if name == "finsler.a_u_of_u":
            calls += 1
        elif name == "gocheck.sample_plan" and spans[v][4] is not None:
            plans[(root[i], *map(str, spans[v][4]))] = note or 0
    directions = sum(plans.values())
    return calls / directions if directions else 0.0


def layer_metrics(spans, passes, untraced_pass_s, traced_pass_s):
    """Every per-layer metric, from the spans of ``passes`` traced passes."""
    per = _per_name(spans)
    out = {}
    for metric, (span, stat) in LAYER_METRICS.items():
        rec = per.get(span, {"calls": 0, "busy": 0.0, "self": 0.0, "note": 0})
        if stat == "us_per_call":
            value = 1e6 * rec["busy"] / rec["calls"] if rec["calls"] else 0.0
        elif stat == "note_mb":
            value = rec["note"] / 2.0 ** 20 / passes
        else:
            value = rec[stat] / passes
        out[metric] = {"value": value, "unit": UNITS[stat]}
    out["finsler.a_u_of_u.calls_per_direction"] = {
        "value": _calls_per_direction(spans), "unit": "calls/dir"}
    out["tracing.overhead_pct"] = {
        "value": 100.0 * (statistics.median(traced_pass_s)
                          / statistics.median(untraced_pass_s) - 1.0),
        "unit": "%"}
    return out
