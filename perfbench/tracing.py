"""Traced run: spans around each layer's public functions, and per-layer metrics.

The tracer replaces a function at the module attribute its callers look it
up by (``quasigw.cli.perron``, ``quasigw.simulate.step_occupancy``, ...),
so nothing inside ``quasigw`` changes.  Each call records a span (name,
start, end, parent span, job id, failed) in memory.  A layer is a module
of the package; a layer's self time is the time its spans cover minus the
time covered by their direct child spans.  Counts that need the result of a
call (iterations, array shapes) are taken in a ``trace.hook`` span after
the call returns, so their cost lands in no program layer.

If a wrapped attribute no longer exists (after a refactor), the tracer
records it as missing and every metric that needs it as absent.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("kernel", "spectral", "quasispecies", "simulate", "cli")

# (module, attribute, span name): every place a caller looks a traced function up.
WRAPS = (
    ("quasigw.cli", "lumped_kernel_matrix", "kernel.build"),
    ("quasigw.spectral", "lumped_kernel_matrix", "kernel.build"),
    ("quasigw.cli", "mean_matrix", "spectral.mean_matrix"),
    ("quasigw.simulate", "mean_matrix", "spectral.mean_matrix"),
    ("quasigw.cli", "perron", "spectral.perron"),
    ("quasigw.cli", "perron_bounds_check", "spectral.bounds"),
    ("quasigw.cli", "extinction_probabilities", "spectral.extinction"),
    ("quasigw.cli", "qs_pmf", "quasispecies.pmf"),
    ("quasigw.cli", "qs_pmf_by_recurrence", "quasispecies.recurrence"),
    ("quasigw.cli", "qs_normalization_check", "quasispecies.norm_check"),
    ("quasigw.simulate", "step_occupancy", "simulate.step"),
    ("quasigw.simulate", "run_trajectory", "simulate.trajectory"),
    ("quasigw.cli", "run_trajectory", "simulate.trajectory"),
    ("quasigw.cli", "conditioned_frequencies", "simulate.frequencies"),
    ("quasigw.cli", "extinction_mc", "simulate.mc"),
    ("quasigw.cli", "render_csv", "cli.render"),
    ("quasigw.cli", "render_json", "cli.render"),
)

JOB_SPAN = "cli.main"
HOOK_SPAN = "trace.hook"
USEFUL_ENTRY = 1e-17


def _kernel_counts(counts, args, kwargs, m):
    # Computed from the array shape, not measured: 8 bytes per float64 entry.
    counts["kernel.bytes"] += 8 * m.size
    counts["kernel.entries"] += m.size
    counts["kernel.useful"] += int(np.count_nonzero(m >= USEFUL_ENTRY))


def _perron_counts(counts, args, kwargs, pair):
    counts["spectral.perron_iters"] += pair.iterations


def _step_counts(counts, args, kwargs, result):
    z = np.asarray(args[0] if args else kwargs["z"])
    counts["simulate.cells"] += int(np.count_nonzero(z)) * z.size


def _trajectory_counts(counts, args, kwargs, t):
    counts["simulate.replicas"] += 1
    counts["simulate.survivors"] += not t.extinct
    counts["simulate.capped"] += t.capped


def _mc_counts(counts, args, kwargs, rep):
    counts["simulate.replicas"] += rep.n_replicas
    counts["simulate.survivors"] += rep.n_escaped + rep.n_undecided


HOOKS = {
    "kernel.build": _kernel_counts,
    "spectral.perron": _perron_counts,
    "simulate.step": _step_counts,
    "simulate.trajectory": _trajectory_counts,
    "simulate.mc": _mc_counts,
}

# Per-layer metrics: name -> (unit, better, span names the value needs).
METRICS = {
    "kernel.build_s": ("s", "lower", ("kernel.build",)),
    "kernel.builds": ("count", "lower", ("kernel.build",)),
    "kernel.bytes": ("B-computed", "lower", ("kernel.build",)),
    "kernel.useful_frac": ("ratio-computed", "higher", ("kernel.build",)),
    "kernel.failures": ("count", "lower", ("kernel.build",)),
    "spectral.mean_matrix_s": ("s", "lower", ("spectral.mean_matrix",)),
    "spectral.perron_s": ("s", "lower", ("spectral.perron",)),
    "spectral.perron_iters": ("count", "lower", ("spectral.perron",)),
    "spectral.bounds_s": ("s", "lower", ("spectral.bounds",)),
    "spectral.extinction_s": ("s", "lower", ("spectral.extinction",)),
    "spectral.extinction_failures": ("count", "lower", ("spectral.extinction",)),
    "spectral.self_s": ("s", "lower", ()),
    "spectral.calls": ("count", "lower", ()),
    "spectral.failures": ("count", "lower", ()),
    "quasispecies.pmf_s": ("s", "lower", ("quasispecies.pmf",)),
    "quasispecies.recurrence_s": ("s", "lower", ("quasispecies.recurrence",)),
    "quasispecies.norm_check_s": ("s", "lower", ("quasispecies.norm_check",)),
    "quasispecies.self_s": ("s", "lower", ()),
    "quasispecies.calls": ("count", "lower", ()),
    "quasispecies.failures": ("count", "lower", ()),
    "simulate.step_s": ("s", "lower", ("simulate.step",)),
    "simulate.steps": ("count", "lower", ("simulate.step",)),
    "simulate.cells": ("cells-computed", "lower", ("simulate.step",)),
    "simulate.mc_s": ("s", "lower", ("simulate.mc",)),
    "simulate.replicas": ("count", "higher", ("simulate.trajectory", "simulate.mc")),
    "simulate.survivor_frac": ("ratio", "higher", ("simulate.trajectory", "simulate.mc")),
    "simulate.capped": ("count", "lower", ("simulate.trajectory",)),
    "simulate.self_s": ("s", "lower", ()),
    "simulate.calls": ("count", "lower", ()),
    "simulate.failures": ("count", "lower", ()),
    "cli.self_s": ("s", "lower", ()),
    "cli.render_s": ("s", "lower", ("cli.render",)),
    "cli.bytes_out": ("B", "lower", ()),
    "cli.jobs": ("count", "higher", ()),
    "cli.failures": ("count", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.spans": ("count", "lower", ()),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    failed: bool = False


class Tracer:
    """Collects spans while installed; ``metrics()`` derives the per-layer numbers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict = defaultdict(float)
        self.job = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span_name in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def reset(self) -> None:
        self.spans, self.counts = [], defaultdict(float)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, failed: bool) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].failed = failed
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span(HOOK_SPAN):
                    hook(self.counts, args, kwargs, result)
            return result

        return traced

    def available_spans(self) -> set[str]:
        present = {(m, a) for m, a, _ in WRAPS} - {tuple(x.rsplit(".", 1)) for x in self.missing}
        return {JOB_SPAN} | {name for m, a, name in WRAPS if (m, a) in present}

    def metrics(self, bytes_out: int, failed_jobs: int) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since the last reset.

        ``cli.main`` returns an exit code instead of raising, so the cli
        layer's failures are the jobs that exited non-zero.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        self_time: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        failures: defaultdict = defaultdict(int)
        for i, s in enumerate(self.spans):
            self_time[s.name] += s.end - s.start - child[i]
            calls[s.name] += 1
            failures[s.name] += s.failed

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

        c = self.counts
        out = {
            "kernel.build_s": self_time["kernel.build"],
            "kernel.builds": calls["kernel.build"],
            "kernel.bytes": c["kernel.bytes"],
            "kernel.useful_frac": c["kernel.useful"] / c["kernel.entries"] if c["kernel.entries"] else 0.0,
            "spectral.mean_matrix_s": self_time["spectral.mean_matrix"],
            "spectral.perron_s": self_time["spectral.perron"],
            "spectral.perron_iters": c["spectral.perron_iters"],
            "spectral.bounds_s": self_time["spectral.bounds"],
            "spectral.extinction_s": self_time["spectral.extinction"],
            "spectral.extinction_failures": failures["spectral.extinction"],
            "quasispecies.pmf_s": self_time["quasispecies.pmf"],
            "quasispecies.recurrence_s": self_time["quasispecies.recurrence"],
            "quasispecies.norm_check_s": self_time["quasispecies.norm_check"],
            "simulate.step_s": self_time["simulate.step"],
            "simulate.steps": calls["simulate.step"],
            "simulate.cells": c["simulate.cells"],
            "simulate.mc_s": self_time["simulate.mc"],
            "simulate.replicas": c["simulate.replicas"],
            "simulate.survivor_frac": (c["simulate.survivors"] / c["simulate.replicas"]
                                       if c["simulate.replicas"] else 0.0),
            "simulate.capped": c["simulate.capped"],
            "cli.render_s": self_time["cli.render"],
            "cli.bytes_out": bytes_out,
            "cli.jobs": calls[JOB_SPAN],
            "cli.failures": failed_jobs,
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.failures"] = layer_sum(failures, layer)
            if layer != "kernel":
                out[f"{layer}.self_s"] = layer_sum(self_time, layer)
            if layer not in ("kernel", "cli"):
                out[f"{layer}.calls"] = layer_sum(calls, layer)
        available = self.available_spans()
        return {k: float(v) for k, v in out.items()
                if all(name in available for name in METRICS[k][2])}

    def span_records(self, origin: float) -> list[dict]:
        return [
            {"name": s.name, "start": s.start - origin, "end": s.end - origin,
             "parent": s.parent, "job": s.job, "failed": s.failed}
            for s in self.spans
        ]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes (all passes carry the same keys)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
