"""Spans around the public functions of each qcomplex layer.

Tracing wraps functions from the outside: each listed function is replaced,
in every qcomplex module that binds it, by a wrapper that records a span
(name, start, end, parent, counts, error). Spans stay in memory until the
pass ends. Nothing in the package itself is changed on disk.
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: Functions timed per layer. ``cli.main`` spans are named by subcommand.
TARGETS = {
    "cli": ("main",),
    "extremal": ("max_facets_search", "max_spectral_search",
                 "proof_inspector", "asymptotic_check"),
    "spectra": ("spectral_radius", "perron_vector"),
    "homology": ("integer_rank", "betti_profile", "hodge_betti",
                 "is_basic_hole"),
    "chains": ("boundary_index_table", "laplacian"),
    "complex_core": ("read_facets", "from_facets", "canonical_form"),
}

CLI_SUBCOMMANDS = ("search", "betti", "inspect", "spectra", "asymptotic")


def _search_counts(args, result, error):
    if result is None:
        return None
    return {"masks": result.enumerated_count,
            "witness_classes": (len(result.facet_witnesses)
                                + len(result.spectral_witnesses))}


def _rank_counts(args, result, error):
    shape = np.shape(args[0])
    return {"cells": int(np.prod(shape)) if len(shape) == 2 else 0}


def _eigen_counts(args, result, error):
    if result is not None:
        return {"iterations": result.iterations, "residual": result.residual}
    if type(error).__name__ == "NoConvergence":
        return {"iterations": error.iterations, "no_convergence": 1}
    return None


def _asymptotic_counts(args, result, error):
    if result is None:
        return None
    return {"error_bound": max((r.error_bound for r in result), default=0.0)}


COUNTERS = {
    "extremal.max_facets_search": _search_counts,
    "extremal.max_spectral_search": _search_counts,
    "homology.integer_rank": _rank_counts,
    "spectra.spectral_radius": _eigen_counts,
    "extremal.asymptotic_check": _asymptotic_counts,
}


class Recorder:
    """In-memory span list for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        is_cli = name == "cli.main"

        def traced(*args, **kwargs):
            label = f"cli.{args[0][0]}" if is_cli else name
            rec = [label, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    rec[4] = counter(args, result, error)

        return traced


def install() -> Recorder:
    """Wrap every target in every loaded qcomplex module that binds it."""
    rec = Recorder()
    modules = [m for name, m in sys.modules.items()
               if name == "qcomplex" or name.startswith("qcomplex.")]
    for layer, names in TARGETS.items():
        mod = sys.modules[f"qcomplex.{layer}"]
        for fname in names:
            orig = getattr(mod, fname)
            wrapped = rec.wrap(f"{layer}.{fname}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
    return rec


# -- per-layer metrics from one pass's spans ----------------------------------

#: (metric, unit) pairs reported from spans, in BENCHMARK.json order.
SPAN_METRICS = (
    ("extremal.max_facets_search.self_s", "s"),
    ("extremal.max_spectral_search.self_s", "s"),
    ("complex_core.canonical_form.calls", "count"),
    ("complex_core.canonical_form.s", "s"),
    ("extremal.masks", "count"),
    ("extremal.witness_classes", "count"),
    ("homology.integer_rank.calls", "count"),
    ("homology.integer_rank.s", "s"),
    ("homology.integer_rank.cells", "count"),
    ("homology.integer_rank.max_mb", "MB"),
    ("homology.betti_profile.self_s", "s"),
    ("spectra.spectral_radius.calls", "count"),
    ("spectra.spectral_radius.self_s", "s"),
    ("spectra.iterations", "count"),
    ("spectra.no_convergence", "count"),
    ("spectra.residual_max", "1"),
    ("spectra.perron_vector.self_s", "s"),
    ("extremal.error_bound_max", "1"),
    ("chains.boundary_index_table.calls", "count"),
    ("chains.boundary_index_table.s", "s"),
    ("complex_core.read_facets.self_s", "s"),
    ("complex_core.from_facets.calls", "count"),
    ("complex_core.from_facets.s", "s"),
    ("cli.self_s", "s"),
    *((f"cli.{sub}.s", "s") for sub in CLI_SUBCOMMANDS),
    ("extremal.proof_inspector.self_s", "s"),
    ("extremal.asymptotic_check.self_s", "s"),
    ("chains.laplacian.calls", "count"),
    ("chains.laplacian.s", "s"),
    ("homology.hodge_betti.s", "s"),
    ("homology.is_basic_hole.self_s", "s"),
)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Calls, total and self time per span name, plus the span counters.

    ``.s`` counts only spans without an ancestor of the same name, so a
    function that re-enters itself is not counted twice. Self time is a
    span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for k, (name, start, end, parent, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[k]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + (end - start)
    counts = [s[4] for s in spans if s[4]]

    def count_sum(key):
        return sum(c.get(key, 0) for c in counts)

    def count_max(key):
        return max((c[key] for c in counts if key in c), default=0.0)

    out = {}
    for metric, _ in SPAN_METRICS:
        stem, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(stem, 0)
        elif kind == "s":
            out[metric] = total.get(stem, 0.0)
        elif kind == "self_s" and stem == "cli":
            out[metric] = sum(v for k, v in self_s.items()
                              if k.startswith("cli."))
        elif kind == "self_s":
            out[metric] = self_s.get(stem, 0.0)
    out["extremal.masks"] = count_sum("masks")
    out["extremal.witness_classes"] = count_sum("witness_classes")
    out["homology.integer_rank.cells"] = count_sum("cells")
    out["homology.integer_rank.max_mb"] = count_max("cells") * 8 / 1e6
    out["spectra.iterations"] = count_sum("iterations")
    out["spectra.no_convergence"] = count_sum("no_convergence")
    out["spectra.residual_max"] = count_max("residual")
    out["extremal.error_bound_max"] = count_max("error_bound")
    return out
