"""Span tracing of a pressqubo sweep, installed from outside the package.

The tracer replaces each function in ``TARGETS`` with a wrapper that
records one span per call: name, parent span, start, end and run id.
A module that imported the function by name (``solvers`` and
``lrqaoa`` bind ``as_dense``, ``qubo_energy`` and ``full_spectrum``
directly; the package ``__init__`` re-exports most targets) holds its
own reference, so every ``pressqubo`` module namespace that binds the
original object is patched.  Spans stay in memory until ``dump``.

Only one thread of one process is traced, so child spans never overlap
their siblings; ``self_times`` still merges overlaps so that it stays
correct if they do.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Traced functions as "<module>.<function>"; the module part is the layer.
TARGETS: tuple[str, ...] = (
    "model.load_instance",
    "model.sanitize_instance",
    "model.exact_solve",
    "model.validate_assignment",
    "model.solution_cost",
    "qubo.build_qubo",
    "qubo.as_dense",
    "qubo.full_spectrum",
    "qubo.decode",
    "qubo.qubo_energy",
    "solvers.simulated_anneal",
    "solvers.random_sample",
    "solvers.postprocess_sampleset",
    "solvers.bitflip_postprocess",
    "lrqaoa.run_lrqaoa",
    "lrqaoa.precompute_diagonal",
    "lrqaoa.uniform_state",
    "lrqaoa.apply_cost_layer",
    "lrqaoa.apply_mixer_layer",
    "bench.load_plan",
    "bench.sweep",
    "bench.run_cell",
    "bench.export_report",
    "cli.main",
)

LAYERS: tuple[str, ...] = ("model", "qubo", "solvers", "lrqaoa", "bench", "cli")


def _mixer_work(args, result):
    amps = len(args[0])
    qubits = amps.bit_length() - 1
    # Computed, not measured: one read and one write of the whole state
    # per qubit is the least traffic the one-qubit-at-a-time kernel needs.
    return {"lrqaoa.mixer.amp_qubits": amps * qubits,
            "lrqaoa.mixer.bytes_computed": 2 * args[0].nbytes * qubits}


# Work counts recorded at the span boundary, from arguments and results.
COUNTERS = {
    "model.exact_solve": lambda a, r: {
        "model.exact_solve.assignments": a[0].n_machines ** a[0].n_toolkits},
    "qubo.build_qubo": lambda a, r: {"qubo.coefficients": len(r.coeffs)},
    "qubo.full_spectrum": lambda a, r: {"qubo.full_spectrum.states": 1 << a[0].n},
    "solvers.simulated_anneal": lambda a, r: {
        "solvers.anneal.flip_attempts": a[1].restarts * a[1].steps},
    "lrqaoa.apply_mixer_layer": _mixer_work,
}


class Tracer:
    """Records spans of the patched functions for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, parent index or -1, start, end, run_id]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        run_id = self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, run_id]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Patch every ``pressqubo`` namespace that binds a target.

        Raises AttributeError when a target no longer exists, so a
        renamed function cannot silently drop out of the trace.
        """
        for layer in LAYERS:
            importlib.import_module(f"pressqubo.{layer}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "pressqubo" or key.startswith("pressqubo.")]
        for target in TARGETS:
            layer, attr = target.split(".")
            original = getattr(importlib.import_module(f"pressqubo.{layer}"), attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path) -> None:
        doc = {"run_id": self.run_id,
               "fields": ["name", "parent", "start", "end", "run_id"],
               "spans": self.spans,
               "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, parent, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def nearest_rank(values, pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(str(pct)) * len(ordered) / 100))
    return ordered[rank - 1]


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (see BENCHMARK.json)."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, *_), t in zip(spans, own):
        self_s[name] += t
        calls[name] += 1
    m: dict[str, float] = {}
    for target in TARGETS:
        m[f"{target}.self_s"] = self_s[target]
        m[f"{target}.calls"] = calls[target]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[t] for t in TARGETS if t.startswith(layer + "."))

    cells = calls["bench.run_cell"]
    m["qubo.as_dense.calls_per_cell"] = calls["qubo.as_dense"] / cells if cells else 0.0
    cell_times = [s[3] - s[2] for s in spans if s[0] == "bench.run_cell"]
    m["bench.run_cell.p50_s"] = nearest_rank(cell_times, 50) if cell_times else 0.0
    m["bench.run_cell.p90_s"] = nearest_rank(cell_times, 90) if cell_times else 0.0

    # Scoring is run_cell's own time plus the decode/validate/cost calls
    # it makes per sample entry; a cost call marks a valid entry.
    cell_ids = {i for i, s in enumerate(spans) if s[0] == "bench.run_cell"}
    score = sum(t for s, t in zip(spans, own) if s[0] == "bench.run_cell")
    entries = valid = 0
    for s, t in zip(spans, own):
        if s[1] in cell_ids and s[0] in ("qubo.decode", "model.validate_assignment",
                                         "model.solution_cost"):
            score += t
            entries += s[0] == "qubo.decode"
            valid += s[0] == "model.solution_cost"
    m["bench.score.self_s"] = score
    m["bench.score.entries"] = entries
    m["bench.score.valid_ratio"] = valid / entries if entries else 0.0

    for key in ("model.exact_solve.assignments", "qubo.coefficients",
                "qubo.full_spectrum.states", "solvers.anneal.flip_attempts",
                "lrqaoa.mixer.bytes_computed"):
        m[key] = counts.get(key, 0)
    amp_qubits = counts.get("lrqaoa.mixer.amp_qubits", 0)
    m["lrqaoa.mixer.ns_per_amp_qubit"] = (
        m["lrqaoa.apply_mixer_layer.self_s"] * 1e9 / amp_qubits if amp_qubits else 0.0)
    return m
