"""Per-module spans recorded from the benchmark's side of each call.

``Tracer.install`` replaces the public functions and methods named in
``BOUNDARIES`` with timing wrappers, under every name a zigzag module bound
them to (``harness`` calls ``run_episode`` through its own import, ``learner``
calls ``loss`` and ``dloss`` through its own, and so on), and ``uninstall``
puts the originals back.  No file of the program changes.

Each call becomes a span ``(id, parent id, name, start ns, end ns)`` kept in
memory.  Per name the tracer sums:

- ``calls``: every call, nested ones included;
- ``total_s``: time in the outermost span of that name, so a construction
  whose ``value_batch`` calls another ``value_batch`` is not counted twice;
- ``self_s``: span time minus the time its child spans cover.

Counts the benchmark computes from call arguments or results (bytes moved,
rows evaluated, paths enumerated) are labelled computed in ``COMPUTED``.
``losses.loss`` and ``losses.dloss`` are counted but get no span: the minimax
recursion calls them about a million times a pass.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import time
from collections import Counter

import numpy as np

from zigzag import burkholder, cli, harness, learner, linalg, losses, rademacher, rng, spectral, tuning

MODULES = (burkholder, cli, harness, learner, linalg, losses, rademacher, rng, spectral, tuning)


def _subclasses(module, base):
    return [v for v in vars(module).values() if isinstance(v, type) and issubclass(v, base)]


def _adversaries():
    return [v for v in vars(harness).values() if isinstance(v, type) and ("next_x" in vars(v) or "next_y" in vars(v))]


# -- computed counts -------------------------------------------------------
# Each hook maps (args, kwargs, result) of one call to {count name: value}.


def _value_rows(args, kwargs, result):
    return {"burkholder.value_batch.rows": len(args[1])}


def _norm_rows(args, kwargs, result):
    return {"linalg.norm_batch.rows": len(args[1])}


def _stacked_bytes(args, kwargs, result):
    # ExpectedPhiTracker.append stacks all t+1 prefixes of its K paths; after
    # the append the tracker's public ``n`` equals t+1
    tracker = args[0]
    dim = int(np.prod(tracker.shape)) if tracker.shape else 1
    return {"tuning.expected_append.stacked_bytes": tracker.n * tracker.k * dim * 8}


def _written_bytes(args, kwargs, result):
    return {"harness.write_outputs.bytes": sum(os.path.getsize(p) for p in result)}


def _enumerated_paths(args, kwargs, result):
    return {"rademacher.exact.paths": 2 ** len(args[0])}


_BUILD_NET = inspect.signature(spectral.build_net)


def _net(args, kwargs, result):
    bound = _BUILD_NET.bind(*args, **kwargs)
    bound.apply_defaults()
    net, coverage = result
    m, d, r = net.shape
    return {
        "spectral.build_net.probe_bytes": bound.arguments["probe_count"] * m * d * r * 8,
        "spectral.build_net.net_size": m,
        "spectral.coverage_ratio": coverage.radius_achieved / coverage.radius_requested,
    }


# -- the boundaries ----------------------------------------------------------

# (name, classes, method names, count hook)
METHODS = [
    ("burkholder.dirderiv", _subclasses(burkholder, burkholder.BurkholderSpec), ("dirderiv",), None),
    ("burkholder.value_batch", _subclasses(burkholder, burkholder.BurkholderSpec), ("value_batch",), _value_rows),
    ("learner.predict", [learner.ZigZagLearner], ("predict",), None),
    ("learner.update", [learner.ZigZagLearner], ("update",), None),
    ("learner.certificate", [learner.ZigZagLearner], ("certificate",), None),
    ("learner.relaxation_value", [learner.ZigZagLearner], ("relaxation_value",), None),
    ("learner.to_csv", [learner.EpisodeTrace], ("to_csv",), None),
    ("harness.adversary", _adversaries(), ("next_x", "next_y"), None),
    ("tuning.expected_append", [tuning.ExpectedPhiTracker], ("append",), _stacked_bytes),
    ("linalg.interval_sup_append", [linalg.IntervalSupTracker], ("append",), None),
    ("linalg.norm_batch", _subclasses(linalg, linalg.NormTag), ("norm_batch",), _norm_rows),
    ("spectral.certificate", [spectral.SpectralZigZag], ("certificate",), None),
    ("spectral.round", [spectral.SpectralZigZag], ("round",), None),
]

# (name, original functions, count hook)
FUNCTIONS = [
    ("learner.run_episode", [learner.run_episode], None),
    ("rng.substream", [rng.substream], None),
    ("harness.offline_comparator", [harness.offline_comparator], None),
    ("linalg.dual_ball_lmo", [linalg.dual_ball_lmo], None),
    ("losses.batch", [losses.loss_batch, losses.dloss_batch], None),
    ("rademacher.rad_estimate", [rademacher.rad_estimate], None),
    ("harness.write_outputs", [harness.write_outputs], _written_bytes),
    ("harness.brute_force_minimax", [harness.brute_force_minimax], None),
    ("rademacher.exact", [rademacher.rad_exact, rademacher.maximal_rad_exact], _enumerated_paths),
    ("rademacher.umd_check", [rademacher.umd_check], None),
    ("rademacher.hitczenko_check", [rademacher.hitczenko_check], None),
    ("burkholder.check", [burkholder.check_majorization, burkholder.check_zigzag], None),
    ("cli.main", [cli.main], None),
    ("spectral.build_net", [spectral.build_net], _net),
    ("spectral.trace_norm_comparator", [spectral.trace_norm_comparator], None),
]

COUNT_ONLY = [("losses.scalar", [losses.loss, losses.dloss])]

BOUNDARIES = [m[0] for m in METHODS] + [f[0] for f in FUNCTIONS]

# count name -> (unit, computed from arguments/results rather than counted)
COUNTS = {
    "burkholder.value_batch.rows": ("count", True),
    "linalg.norm_batch.rows": ("count", True),
    "tuning.expected_append.stacked_bytes": ("B", True),
    "harness.write_outputs.bytes": ("B", False),
    "rademacher.exact.paths": ("count", True),
    "spectral.build_net.probe_bytes": ("B", True),
    "spectral.build_net.net_size": ("count", False),
    "spectral.coverage_ratio": ("ratio", False),
    "losses.scalar.calls": ("count", False),
    "tuning.phases": ("count", False),
}
COMPUTED = sorted(k for k, (_, computed) in COUNTS.items() if computed)
# reported as the largest value over the pass's calls, not the sum
MAXIMA = {"spectral.coverage_ratio"}


class Tracer:
    def __init__(self):
        self._undo = []
        self._reset()

    def _reset(self):
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._depth = Counter()
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.maxima = {}

    # -- wrappers --------------------------------------------------------

    def _add_counts(self, values):
        for key, value in values.items():
            if key in MAXIMA:
                self.maxima[key] = max(self.maxima.get(key, value), value)
            else:
                self.counts[key] += value

    def _span(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            outermost = tracer._depth[name] == 0
            tracer._depth[name] += 1
            frame = [sid, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._depth[name] -= 1
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
                if outermost:
                    tracer.total_ns[name] += dur
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((sid, parent, name, start, end))
            if hook is not None:
                tracer._add_counts(hook(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, original, wrapper):
        # every module-level name bound to the original, in every module
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self):
        self._reset()
        for name, classes, methods, hook in METHODS:
            for cls in classes:
                for method in methods:
                    if method in vars(cls):
                        self._patch(cls, method, self._span(name, vars(cls)[method], hook))
        for name, originals, hook in FUNCTIONS:
            for fn in originals:
                self._patch_function(fn, self._span(name, fn, hook))
        for name, originals in COUNT_ONLY:
            for fn in originals:
                self._patch_function(fn, self._counter(f"{name}.calls", fn))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def root(self, fn):
        """Run ``fn`` inside a root span so every span has a parent chain."""
        return self._span("bench.pass", fn, None)()

    # -- results ---------------------------------------------------------

    def layer_values(self) -> dict:
        """Per-boundary calls / total_s / self_s and the counts of one pass."""
        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total_ns[name] / 1e9
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for name in COUNTS:
            out[name] = self.maxima.get(name, self.counts[name])
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start},{end}\n")
