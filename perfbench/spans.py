"""Span recorder for the traced benchmark run.

The recorder wraps public tailgraph functions from outside the package.
A caller may bind a function under several names: ``clique_ordering``
sits in ``graphs``, ``config``, ``limits``, ``simulate`` and ``cli``, and
``bvn_cdf`` is imported by name into ``husler_reiss``.  So every module
attribute that *is* the target function gets the same wrapper.  Spans
(name, start, end, parent) stay in memory until :meth:`Recorder.write`.
Runs use ``--workers 1``, so spans nest on one thread.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter


def _rows(result) -> dict:
    return {"rows": len(result)}


def _sample_rows(result) -> dict:
    return {"rows": result.values.shape[0]}


def _simulated_rows(result) -> dict:
    from tailgraph import simulate
    # entries the bisection left within INVERT_TOL of its floor
    floor = getattr(simulate, "_X_FLOOR", 0.0) + simulate.INVERT_TOL
    return {"rows": result.values.shape[0],
            "floor_entries": int((result.values <= floor).sum())}


#: (module, function, span name, counters taken from the result)
TARGETS = (
    ("config", "load_config", "config.load", None),
    ("graphs", "clique_ordering", "graphs.ordering", None),
    ("limits", "classify_norming", "limits.classify", None),
    ("limits", "build_tail_model", "limits.build", None),
    ("limits", "build_tail_noise", "limits.build", None),
    ("limits", "tail_model_moments", "limits.moments", None),
    ("limits", "sample_tail_model", "limits.sample", _sample_rows),
    ("limits", "verify_remainders", "limits.remainders", None),
    ("husler_reiss", "transition_kernel", "husler_reiss.kernel", _rows),
    ("husler_reiss", "exponent_measure_many", "husler_reiss.lambda", _rows),
    ("husler_reiss", "exponent_measure_density_many", "husler_reiss.density", None),
    ("mvn", "bvn_cdf", "mvn.bvn", None),
    ("mvn", "mvn_cdf", "mvn.mvn", None),
    ("gaussian", "separator_slope", "gaussian.slope", None),
    ("gaussian", "conditional_scale", "gaussian.slope", None),
    ("simulate", "conditional_exceedance", "simulate.cond", _simulated_rows),
    ("simulate", "renormalize", "simulate.renorm", None),
    ("diagnostics", "ks_unit_exponential", "diagnostics.ks", None),
    ("diagnostics", "ks_normal", "diagnostics.ks", None),
    ("diagnostics", "convergence_study", "diagnostics.study", None),
    ("diagnostics", "mrv_checks", "diagnostics.mrv", None),
)

LAYERS = ("config", "graphs", "limits", "husler_reiss", "mvn", "gaussian",
          "simulate", "diagnostics", "cli")


class Recorder:
    """In-memory spans and counters; ``install`` patches the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: list[Counter] = []  # one per span, from its result
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        k = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.counts.append(Counter())
        self._open.append(k)
        return k

    def end(self, k: int) -> None:
        self.spans[k][2] = time.perf_counter()
        self._open.pop()

    def _wrapper(self, fn, name, measure):
        def traced(*args, **kwargs):
            k = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(k)
            if measure is not None:
                self.counts[k].update(measure(result))
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TARGETS function at every tailgraph module attribute
        bound to it."""
        import tailgraph  # noqa: F401  (loads every submodule)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "tailgraph" or key.startswith("tailgraph.")]
        for mod_name, attr, name, measure in TARGETS:
            fn = getattr(sys.modules[f"tailgraph.{mod_name}"], attr)
            wrapped = self._wrapper(fn, name, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def write(self, path) -> None:
        """JSON lines, one span each, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for k, (name, start, end, parent) in enumerate(self.spans):
                doc = {"id": k, "name": name, "parent": parent,
                       "start": start - t0, "end": end - t0}
                if self.counts[k]:
                    doc["counts"] = dict(self.counts[k])
                fh.write(json.dumps(doc) + "\n")

    def iteration_totals(self, root: str) -> list[dict]:
        """Per ``root`` span: for every span name its call count, summed
        duration, summed self time (duration minus direct children) and
        summed counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: list[dict] = []
        owner = [-1] * len(self.spans)
        for k, (name, start, end, parent) in enumerate(self.spans):
            if name == root:
                totals.append(Counter())
                owner[k] = len(totals) - 1
            elif parent >= 0:
                owner[k] = owner[parent]
            if owner[k] < 0:
                continue
            tot = totals[owner[k]]
            tot[f"{name}.calls"] += 1
            tot[f"{name}.s"] += end - start
            tot[f"{name}.self"] += end - start - child_time[k]
            for key, value in self.counts[k].items():
                tot[f"{name}.{key}"] += value
        return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(iterations: list[dict]) -> dict:
    """Per-layer metrics as the median over traced iterations."""
    rows = []
    for it in iterations:
        g = it.get
        kernel_rows = g("husler_reiss.kernel.rows", 0)
        m = {
            "config.load_s": g("config.load.s", 0.0),
            "graphs.ordering_s": g("graphs.ordering.s", 0.0),
            "graphs.ordering_calls": g("graphs.ordering.calls", 0),
            "limits.walks": g("limits.classify.calls", 0) + g("limits.build.calls", 0),
            "limits.classify_s": g("limits.classify.s", 0.0),
            "limits.build_s": g("limits.build.s", 0.0),
            "limits.moments_s": g("limits.moments.s", 0.0),
            "limits.sample_s": g("limits.sample.s", 0.0),
            "limits.sample_rows_per_s": _ratio(g("limits.sample.rows", 0),
                                               g("limits.sample.s", 0.0)),
            "limits.remainders_s": g("limits.remainders.s", 0.0),
            "husler_reiss.kernel_calls": g("husler_reiss.kernel.calls", 0),
            "husler_reiss.kernel_rows": kernel_rows,
            "husler_reiss.kernel_s": g("husler_reiss.kernel.s", 0.0),
            "husler_reiss.kernel_ns_per_row": _ratio(
                1e9 * g("husler_reiss.kernel.s", 0.0), kernel_rows),
            "husler_reiss.lambda_rows": g("husler_reiss.lambda.rows", 0),
            "husler_reiss.lambda_per_kernel_row": _ratio(
                g("husler_reiss.lambda.rows", 0), kernel_rows),
            "husler_reiss.density_calls": g("husler_reiss.density.calls", 0),
            "husler_reiss.density_s": g("husler_reiss.density.s", 0.0),
            "mvn.bvn_calls": g("mvn.bvn.calls", 0),
            "mvn.bvn_s": g("mvn.bvn.s", 0.0),
            "gaussian.slope_calls": g("gaussian.slope.calls", 0),
            "gaussian.slope_s": g("gaussian.slope.s", 0.0),
            "simulate.cond_s": g("simulate.cond.s", 0.0),
            "simulate.rows_per_s": _ratio(g("simulate.cond.rows", 0),
                                          g("simulate.cond.s", 0.0)),
            "simulate.self_s": g("simulate.cond.self", 0.0),
            "simulate.renorm_s": g("simulate.renorm.s", 0.0),
            "simulate.floor_entries": g("simulate.cond.floor_entries", 0),
            "diagnostics.ks_calls": g("diagnostics.ks.calls", 0),
            "diagnostics.ks_s": g("diagnostics.ks.s", 0.0),
            "diagnostics.study_s": g("diagnostics.study.s", 0.0),
            "diagnostics.mrv_s": g("diagnostics.mrv.s", 0.0),
            "cli.out_bytes": g("cli.command.out_bytes", 0),
        }
        for layer in LAYERS:
            if layer == "simulate":
                continue  # simulate.self_s is conditional_exceedance alone
            m[f"{layer}.self_s"] = sum(
                value for key, value in it.items()
                if key.startswith(f"{layer}.") and key.endswith(".self"))
        rows.append(m)
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}
