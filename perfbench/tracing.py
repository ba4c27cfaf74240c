"""Spans and kernel counters recorded from outside the program.

``Tracer.install()`` replaces the public layer functions named in ``SPANS``
with timing wrappers in every ``symptower`` module that holds them, counts
``Tower.composite`` calls, and wraps ``numpy.linalg.svd``/``solve`` to count
the matrices they factor inside the kernel spans.  ``uninstall()`` puts
every original back, so untraced passes run the program untouched.

Spans stay in memory (name, start, end, parent span, run id) and are
written once at the end of a run.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from dataclasses import dataclass

# (module, function) pairs wrapped as spans; the span name is
# "<module>.<function>".
SPANS = (
    ("cli", "run"),
    ("cli", "validate_spec"),
    ("models", "shrink_experiment"),
    ("models", "make_counterexample_tower"),
    ("models", "make_product_tower"),
    ("models", "make_loop_tower"),
    ("models", "make_quadratic_field"),
    ("tower", "check_compatible_sequence"),
    ("tower", "classify_tower"),
    ("tower", "build_tower"),
    ("linalg", "check_weak_isometry"),
    ("linalg", "weakness_conditioning"),
    ("moser", "validity_radius"),
    ("moser", "moser_flow"),
    ("moser", "verify_darboux_chart"),
    ("moser", "uniform_bound_check"),
    ("moser", "assemble_projective_darboux"),
)
MODULES = ("symptower", "symptower.cli", "symptower.models", "symptower.moser",
           "symptower.tower", "symptower.linalg")

# Kernel calls are charged to the innermost open span of these names.
SVD_SPANS = ("validity_radius", "moser_flow", "verify_darboux_chart",
             "uniform_bound_check", "check_weak_isometry")
SOLVE_SPANS = ("moser_flow", "verify_darboux_chart")

# Per-pass span metrics: (metric, span name, what).  "total" is the time
# covered by the span, "self" its self time, "calls" the number of spans.
SPAN_METRICS = (
    ("cli.self_s", "cli.run", "self"),
    ("models.shrink_experiment.self_s", "models.shrink_experiment", "self"),
    ("models.make_counterexample_tower_s", "models.make_counterexample_tower", "total"),
    ("models.make_product_tower_s", "models.make_product_tower", "total"),
    ("models.make_loop_tower_s", "models.make_loop_tower", "total"),
    ("models.make_quadratic_field_s", "models.make_quadratic_field", "total"),
    ("tower.check_compatible_sequence_s", "tower.check_compatible_sequence", "total"),
    ("tower.check_compatible_sequence.self_s", "tower.check_compatible_sequence", "self"),
    ("tower.classify_tower_s", "tower.classify_tower", "total"),
    ("tower.build_tower_s", "tower.build_tower", "total"),
    ("linalg.check_weak_isometry_calls", "linalg.check_weak_isometry", "calls"),
    ("linalg.check_weak_isometry_s", "linalg.check_weak_isometry", "total"),
    ("linalg.weakness_conditioning_s", "linalg.weakness_conditioning", "total"),
    ("moser.validity_radius_calls", "moser.validity_radius", "calls"),
    ("moser.validity_radius_s", "moser.validity_radius", "total"),
    ("moser.moser_flow_s", "moser.moser_flow", "total"),
    ("moser.moser_flow.self_s", "moser.moser_flow", "self"),
    ("moser.verify_darboux_chart_s", "moser.verify_darboux_chart", "total"),
    ("moser.uniform_bound_check_s", "moser.uniform_bound_check", "total"),
    ("moser.assemble_projective_darboux_s", "moser.assemble_projective_darboux", "total"),
)
# The validate_spec calls of the set-up, which run under this root span.
SETUP_SPAN = "setup"


def kernel_metric_names():
    names = []
    for span in SVD_SPANS:
        names += ["kernel.svd_calls." + span, "kernel.svd_matrices." + span,
                  "kernel.svd_s." + span, "kernel.svd_bytes_computed." + span]
    names.append("kernel.svd_probe_calls")
    for span in SOLVE_SPANS:
        names += ["kernel.solve_calls." + span, "kernel.solve_matrices." + span]
    return names


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    Children of one span may not overlap in a single thread, but the union
    is taken anyway so the result never goes negative.
    """
    children = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[c].start, reach, span.start)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def span_metrics(spans, run: int) -> dict:
    """Per-run sums of the SPAN_METRICS over the spans of one run id."""
    selfs = self_times(spans)
    names = {i: s.name for i, s in enumerate(spans)}

    def nested_in_same_name(i):
        p = spans[i].parent
        while p is not None:
            if names[p] == names[i]:
                return True
            p = spans[p].parent
        return False

    total, own, calls = Counter(), Counter(), Counter()
    for i, span in enumerate(spans):
        if span.run != run:
            continue
        calls[span.name] += 1
        own[span.name] += selfs[i]
        if not nested_in_same_name(i):
            total[span.name] += span.end - span.start
    out = {}
    for metric, name, what in SPAN_METRICS:
        if what == "calls":
            out[metric] = calls[name]
        elif what == "self":
            out[metric] = own[name]
        else:
            out[metric] = total[name]
    setup = 0.0
    for i, span in enumerate(spans):
        if span.run == run and span.name == "cli.validate_spec":
            p = span.parent
            if p is not None and spans[p].name == SETUP_SPAN:
                setup += span.end - span.start
    out["cli.validate_spec_s"] = setup
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = 0
        self.counts = Counter()
        self._patches = []
        self._probed = set()

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.run))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError("span %s closed out of order" % self.spans[idx].name)

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- kernels ----------------------------------------------------------
    def _kernel_span(self, allowed):
        for idx in reversed(self.stack):
            short = self.spans[idx].name.split(".", 1)[-1]
            if short in allowed:
                return idx, short
        return None, None

    def _kernel_wrapper(self, kind, fn, allowed):
        tracer = self

        def wrapper(a, *args, **kwargs):
            idx, span = tracer._kernel_span(allowed)
            if span is None:
                return fn(a, *args, **kwargs)
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            shape = getattr(a, "shape", ())
            matrices = math.prod(shape[:-2]) if len(shape) >= 2 else 1
            c = tracer.counts
            c["kernel.%s_calls.%s" % (kind, span)] += 1
            c["kernel.%s_matrices.%s" % (kind, span)] += matrices
            if kind == "svd":
                c["kernel.svd_s." + span] += elapsed
                if len(shape) >= 2:
                    c["kernel.svd_bytes_computed." + span] += 8 * shape[-2] * shape[-1] * matrices
                # validity_radius checks the base point first, then marches
                # whole rays; the other single-radius calls are refinement
                # probes (bisection and ternary search).
                if span == "validity_radius":
                    if idx not in tracer._probed:
                        tracer._probed.add(idx)
                    elif len(shape) == 4 and shape[1] == 1:
                        c["kernel.svd_probe_calls"] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------
    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import numpy as np

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for short, func in SPANS:
            original = getattr(importlib.import_module("symptower." + short), func)
            wrapper = self._span_wrapper("%s.%s" % (short, func), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

        tower_cls = importlib.import_module("symptower.tower").Tower
        composite = tower_cls.composite
        tracer = self

        def counted_composite(tower, i, j):
            tracer.counts["tower.composite_calls"] += 1
            return composite(tower, i, j)

        self._patch(tower_cls, "composite", counted_composite)
        self._patch(np.linalg, "svd", self._kernel_wrapper("svd", np.linalg.svd, SVD_SPANS))
        self._patch(np.linalg, "solve", self._kernel_wrapper("solve", np.linalg.solve, SOLVE_SPANS))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def begin_run(self, run: int) -> None:
        self.run = run
        self.counts = Counter()
        self._probed = set()

    def run_metrics(self, run: int) -> dict:
        """Span metrics and kernel counters of one run id, every name present."""
        out = span_metrics(self.spans, run)
        out["tower.composite_calls"] = self.counts["tower.composite_calls"]
        for name in kernel_metric_names():
            out[name] = self.counts[name]
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.run] for s in self.spans]
