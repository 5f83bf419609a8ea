"""Spans around the public entry points of ``uctmc``, installed from outside.

``Tracer.install`` replaces each traced function in every loaded ``uctmc``
module namespace that holds it, so calls between modules (``checker`` calling
``build_full``, ``sampling`` calling the graph check through ``model``) are
recorded too.  A span is (id, name, start, end, parent) plus the counts taken
at that boundary; spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

import numpy as np

# module, function, span name
TRACED = (
    ("cli", "run_pipeline", "cli.run"),
    ("model", "load_model", "model.parse"),
    ("model", "graph_preservation_violation", "model.graph_check"),
    ("model", "build_full", "model.build_full"),
    ("model", "build_partial", "model.build_partial"),
    ("sampling", "sample_valuations", "sampling.sample"),
    ("checker", "evaluate_measures", "checker.evaluate"),
    ("checker", "bound_measures", "checker.bound"),
    ("scenario", "bound_outcome", "scenario.region"),
    ("io", "write_samples", "io.write"),
    ("io", "write_solutions", "io.write"),
    ("io", "write_regions", "io.write"),
    ("io", "write_band_csv", "io.write"),
    ("io", "dump_json", "io.write"),
)


def _uniformization_rate(chain) -> float:
    """Largest leaving rate (self-loops excluded), as the checker uniformizes."""
    rates = chain.rates
    leaving = np.asarray(rates.sum(axis=1)).ravel() - rates.diagonal()
    return float(leaving.max()) if leaving.size else 0.0


def _pass_lengths(measures) -> float:
    """Sum of the time spans the checker's uniformization passes cover.

    Measures sharing a target and window start (interval reach) or a time
    point (reward) share one pass as long as their largest time; the benchmark
    derives this from the measures, not from the checker.  No workload has a
    plain time-bounded reach measure, so none is handled.
    """
    longest: dict = {}
    for m in measures:
        if hasattr(m, "t_hi"):
            key, t = ("window", m.target, m.t_lo), m.t_hi
        else:
            key, t = ("reward", m.time), m.time
        longest[key] = max(longest.get(key, 0.0), t)
    return float(sum(longest.values()))


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            tracer._count(span, fn.__name__, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _count(span, fname, args, kwargs, result):
        """Counts at the boundary, taken after the span's end time."""
        if fname == "build_full":
            span["states"] = result.num_states
            span["transitions"] = result.num_transitions
        elif fname == "build_partial":
            span["states"] = result.num_states - 1  # without the sink
        elif fname == "sample_valuations":
            span["accepted"] = len(result)
            span["rejected"] = result.rejected_count
        elif fname == "evaluate_measures":
            measures = args[1] if len(args) > 1 else kwargs["measures"]
            policy = args[3] if len(args) > 3 else kwargs.get("sink_policy")
            lam = _uniformization_rate(args[0])
            span["sink_policy"] = policy
            span["lambda"] = lam
            span["lambda_t"] = lam * _pass_lengths(measures)
        elif fname == "bound_measures":
            delta0 = args[3] if len(args) > 3 else kwargs.get("delta", 1e-2)
            span["delta_rounds"] = 1 + round(math.log10(delta0 / result.delta))
        elif fname == "bound_outcome":
            span["complexity_bound"] = result.complexity_bound
        elif fname in ("write_samples", "write_solutions", "write_regions",
                       "write_band_csv", "dump_json"):
            path = args[-1] if args else kwargs["path"]
            span["bytes"] = os.path.getsize(path)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "uctmc" or name.startswith("uctmc."))]
        for module_name, fname, span_name in TRACED:
            original = getattr(sys.modules[f"uctmc.{module_name}"], fname)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)
