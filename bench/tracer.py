"""Bench-side tracing of dampwave's layers.

The tracer replaces, for the duration of a traced pass, the names each
dampwave module binds to another module's public functions with timing and
counting wrappers. The modules import by name, so the wrapper goes on the
caller's binding (``dampwave.schemes.forcing_vector``), not only on the
defining module. Nothing under ``src/`` is edited.

Every wrapped call opens a span (id, name, start, end, parent). A layer's
self time is the span's duration minus the part of it covered by child
spans. Thread-pool workers (``reproduce_table2``) have their own stacks; a
worker's outermost span takes as parent the span open on the tracing thread
when it starts, and the parent subtracts the union of those intervals.

Coefficient callables (gamma, g, phi, psi, u_a, u_b) run once per grid
point, so they are counted and timed without spans. ``eval_expression`` is
never wrapped node by node. A patch point that a later version of the
package no longer has is recorded as missing, and the metrics that rely on
it read null.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module attribute path, name bound there, bucket). The module is given
# relative to the dampwave package.
PATCH_POINTS = (
    ("cli", "load_problem_config", "problems.parse"),
    ("schemes", "assemble_system", "operators.assemble"),
    ("cli", "assemble_system", "operators.assemble"),
    ("schemes", "forcing_vector", "operators.forcing"),
    ("schemes", "apply_poly", "pade.apply_poly"),
    ("linalg", "lu_factor_banded", "linalg.factor"),
    ("linalg", "solve_banded", "linalg.solve"),
    ("cli", "spectral_radius", "linalg.spectral_radius"),
    ("schemes", "make_stepper", "schemes.make_stepper"),
    ("cli", "make_stepper", "schemes.make_stepper"),
    ("schemes", "step_semigroup", "schemes.step"),
    ("schemes", "step_oefd", "schemes.step"),
    ("schemes", "step_oifd", "schemes.step"),
    ("cli", "step_semigroup", "schemes.step"),
    ("harness", "solve_evolution", "schemes.loop"),
    ("cli", "solve_evolution", "schemes.loop"),
    ("harness", "error_profile", "harness.error"),
    ("harness", "max_error_series", "harness.error"),
    ("harness", "write_csv", "harness.csv"),
    ("harness", "reproduce_table1", "harness.table"),
    ("harness", "reproduce_table2", "harness.table"),
    ("harness", "solution_profile", "harness.table"),
    ("stability", "check_explicit_stability", "stability"),
    ("stability", "implicit_amplification", "stability"),
)

#: the DampedWaveProblem fields that hold coefficient or data callables;
#: ``exact`` is the reference solution and belongs to the harness
COEFFICIENT_FIELDS = ("gamma", "g", "phi", "psi", "u_a", "u_b")

#: per-layer metric -> (bucket the metric needs, counter key, unit)
METRICS = {
    "problems.calls": ("problems", "problems.calls", "count"),
    "problems.points": ("problems", "problems.points", "count"),
    "problems.self_s": ("problems", "problems.self_s", "s"),
    "problems.parse_s": ("problems.parse", "problems.parse.self_s", "s"),
    "operators.assemble_s": ("operators.assemble", "operators.assemble.self_s", "s"),
    "operators.forcing_calls": ("operators.forcing", "operators.forcing.calls", "count"),
    "operators.forcing_self_s": ("operators.forcing", "operators.forcing.self_s", "s"),
    "pade.apply_poly_calls": ("pade.apply_poly", "pade.apply_poly.calls", "count"),
    "pade.apply_poly_self_s": ("pade.apply_poly", "pade.apply_poly.self_s", "s"),
    "linalg.factor_calls": ("linalg.factor", "linalg.factor.calls", "count"),
    "linalg.factor_self_s": ("linalg.factor", "linalg.factor.self_s", "s"),
    "linalg.band_width": ("linalg.factor", "linalg.band_width", "count"),
    "linalg.solve_calls": ("linalg.solve", "linalg.solve.calls", "count"),
    "linalg.solve_self_s": ("linalg.solve", "linalg.solve.self_s", "s"),
    "linalg.power_iters": ("linalg.spectral_radius", "linalg.power_iters", "count"),
    "linalg.spectral_radius_self_s": (
        "linalg.spectral_radius", "linalg.spectral_radius.self_s", "s"),
    "schemes.make_stepper_calls": ("schemes.make_stepper", "schemes.make_stepper.calls", "count"),
    "schemes.make_stepper_self_s": ("schemes.make_stepper", "schemes.make_stepper.self_s", "s"),
    "schemes.steps": ("schemes.step", "schemes.step.calls", "count"),
    "schemes.step_self_s": ("schemes.step", "schemes.step.self_s", "s"),
    "schemes.loop_self_s": ("schemes.loop", "schemes.loop.self_s", "s"),
    "schemes.snapshot_bytes": ("schemes.loop", "schemes.snapshot_bytes", "B"),
    "harness.error_self_s": ("harness.error", "harness.error.self_s", "s"),
    "harness.table_self_s": ("harness.table", "harness.table.self_s", "s"),
    "harness.csv_self_s": ("harness.csv", "harness.csv.self_s", "s"),
    "harness.csv_bytes": ("harness.csv", "harness.csv_bytes", "B"),
    "stability.self_s": ("stability", "stability.self_s", "s"),
    "cli.self_s": ("cli", "cli.self_s", "s"),
}


class _Frame:
    __slots__ = ("id", "start", "child_s", "foreign")

    def __init__(self, span_id, start):
        self.id = span_id
        self.start = start
        self.child_s = 0.0  # summed durations of children on the same thread
        self.foreign = []   # (start, end) of children on other threads


class _ThreadState:
    __slots__ = ("stack", "counters")

    def __init__(self):
        self.stack = []
        self.counters = defaultdict(float)


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Spans and counters for one traced pass; install() patches, remove() restores."""

    def __init__(self, dampwave_pkg):
        self._pkg = dampwave_pkg
        self._local = threading.local()
        self._states_lock = threading.Lock()
        self._states = []
        self._ids = itertools.count()
        self._patches = []
        self.spans = []
        self.record_spans = True
        self.present = set()
        self.missing = set()
        self.root = self._state()

    # -- per-thread state -------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def _parent(self, st):
        if st.stack:
            return st.stack[-1], True
        if st is not self.root and self.root.stack:
            return self.root.stack[-1], False
        return None, True

    def reset(self):
        """Drop counters and spans; keep the patches."""
        with self._states_lock:
            for st in self._states:
                st.counters.clear()
        self.spans = []

    def counters(self):
        merged = defaultdict(float)
        with self._states_lock:
            for st in self._states:
                for key, value in st.counters.items():
                    if key == "linalg.band_width":
                        merged[key] = max(merged[key], value)
                    else:
                        merged[key] += value
        return dict(merged)

    # -- spans ------------------------------------------------------------

    def call(self, bucket, fn, args, kwargs, after=None):
        """Run fn(*args, **kwargs) inside a span named bucket."""
        st = self._state()
        parent, same_thread = self._parent(st)
        frame = _Frame(next(self._ids), perf_counter())
        st.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            st.stack.pop()
            duration = end - frame.start
            covered = frame.child_s
            if frame.foreign:
                covered += _union_length(frame.foreign, frame.start, end)
            st.counters[bucket + ".self_s"] += max(0.0, duration - min(covered, duration))
            st.counters[bucket + ".calls"] += 1
            if parent is not None:
                if same_thread:
                    parent.child_s += duration
                else:
                    parent.foreign.append((frame.start, end))
            if self.record_spans:
                self.spans.append((frame.id, bucket, frame.start, end,
                                   None if parent is None else parent.id))
        if after is not None:
            after(st.counters, args, kwargs, result)
        return result

    def _leaf(self, fn):
        """Count and time a coefficient callable without opening a span."""
        tracer = self

        def traced(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                # The bookkeeping is inside the timed interval, so the cost of
                # tracing a per-point callable lands in this layer, not in the
                # caller's self time.
                st = tracer._state()
                c = st.counters
                x = args[0] if args else None
                c["problems.calls"] += 1
                c["problems.points"] += x.size if isinstance(x, np.ndarray) else 1
                parent, same_thread = tracer._parent(st)
                dt = perf_counter() - t0
                c["problems.self_s"] += dt
                if parent is not None:
                    if same_thread:
                        parent.child_s += dt
                    else:
                        parent.foreign.append((t0, t0 + dt))

        return traced

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def patch(self, module_name, attr, bucket, after=None):
        module = getattr(self._pkg, module_name, None)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.missing.add(bucket)
            return
        self.present.add(bucket)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(bucket, original, args, kwargs, after)

        self._set(module, attr, traced)

    def install(self):
        self.present.add("cli")  # the bench wraps run_command itself
        for module_name, attr, bucket in PATCH_POINTS:
            self.patch(module_name, attr, bucket, _AFTER.get(bucket))
        if "linalg.spectral_radius" in self.present:
            self._count_power_iterations()
        self._wrap_problem_callables()
        return self

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _count_power_iterations(self):
        cli = self._pkg.cli
        traced_radius = cli.spectral_radius
        tracer = self

        def with_counted_map(apply, *args, **kwargs):
            def counted(v):
                tracer._state().counters["linalg.power_iters"] += 1
                return apply(v)

            return traced_radius(counted, *args, **kwargs)

        self._set(cli, "spectral_radius", functools.wraps(traced_radius)(with_counted_map))

    def _wrap_problem_callables(self):
        cls = getattr(self._pkg, "DampedWaveProblem", None)
        post_init = cls.__dict__.get("__post_init__") if cls is not None else None
        if post_init is None:
            self.missing.add("problems")
            return
        self.present.add("problems")
        tracer = self

        def traced_post_init(problem):
            post_init(problem)
            for name in COEFFICIENT_FIELDS:
                fn = getattr(problem, name, None)
                if callable(fn):
                    object.__setattr__(problem, name, tracer._leaf(fn))

        self._set(cls, "__post_init__", traced_post_init)

    # -- results ----------------------------------------------------------

    def layer_values(self, counters):
        """Per-layer metric values from one pass's counters; null where a patch point is gone."""
        out = {}
        for metric, (bucket, key, _unit) in METRICS.items():
            if bucket not in self.present:
                out[metric] = None
            else:
                value = counters.get(key, 0.0)
                out[metric] = int(value) if METRICS[metric][2] in ("count", "B") else value
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: [id, name, start, end, parent]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


_ABSENT = object()


def _snapshot_bytes(counters, args, kwargs, traj):
    states = getattr(traj, "states", None)
    counters["schemes.snapshot_bytes"] += getattr(states, "nbytes", 0)


def _band_width(counters, args, kwargs, fact):
    matrix = args[0] if args else kwargs.get("matrix")
    kl, ku = getattr(matrix, "kl", None), getattr(matrix, "ku", None)
    if kl is not None and ku is not None:
        counters["linalg.band_width"] = max(counters["linalg.band_width"], kl + ku + 1)


def _csv_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None and os.path.exists(path):
        counters["harness.csv_bytes"] += os.path.getsize(path)


_AFTER = {
    "schemes.loop": _snapshot_bytes,
    "linalg.factor": _band_width,
    "harness.csv": _csv_bytes,
}
