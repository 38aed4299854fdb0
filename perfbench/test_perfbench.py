"""Tests of the benchmark's own arithmetic, checks and tracer."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, parent, start, end):
    return [name, parent, start, end, "test"]


def test_self_time_subtracts_nested_and_sibling_children():
    trace = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 3.0),
        span("a.inner", 1, 1.5, 2.5),
        span("b", 0, 4.0, 7.0),
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 1.0, 1.0, 3.0])


def test_self_time_counts_overlapping_or_overhanging_children_once():
    trace = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("b", 0, 3.0, 6.0),
        span("c", 0, 9.0, 12.0),
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_scoring_and_counts():
    trace = [
        span("bench.run_cell", -1, 0.0, 4.0),
        span("qubo.as_dense", 0, 0.0, 1.0),
        span("qubo.decode", 0, 1.0, 1.5),
        span("model.validate_assignment", 0, 1.5, 2.0),
        span("model.solution_cost", 0, 2.0, 2.5),
        span("qubo.decode", 0, 2.5, 3.0),
        span("model.solution_cost", -1, 5.0, 6.0),  # outside a cell: not scoring
    ]
    m = spans.layer_metrics(trace, {"qubo.coefficients": 7})
    assert m["bench.score.self_s"] == pytest.approx(1.0 + 2.0)
    assert m["bench.score.entries"] == 2
    assert m["bench.score.valid_ratio"] == 0.5
    assert m["qubo.as_dense.calls_per_cell"] == 1
    assert m["model.solution_cost.calls"] == 2
    assert m["qubo.coefficients"] == 7
    assert m["model.self_s"] == pytest.approx(0.5 + 0.5 + 1.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(99))) == (50, 49)
    assert run.tail_percentile(list(range(100, 0, -1))) == (90, 90)
    assert run.tail_percentile(list(range(1000))) == (99, 989)
    assert run.tail_percentile(list(range(10000))) == (99.9, 9989)


def test_a_sweep_failing_its_check_counts_all_cells_failed(tmp_path):
    def write_reports(out, n_valid):
        out.mkdir()
        header = ",".join(workloads.KEY_COLUMNS + workloads.EXACT_COLUMNS)
        rows = [f"i,raw(),sa,restarts=2;steps=1,0,2,{n_valid},5,1.0,1.0,1.0,",
                "i,raw(),sa,restarts=2;steps=1,1,2,2,6,1.0,0.5,0.9,ValueError: x"]
        (out / "runs.csv").write_text("\n".join([header] + rows) + "\n")
        (out / "metrics.csv").write_text("m\n")
        (out / "report.json").write_text("{}\n")

    bench = run.Bench.__new__(run.Bench)
    bench.cells, bench.first_digests, bench.reference = 2, None, None
    bench.name, bench.optima = "test", {"i": Fraction(5)}
    sweeps = []
    for k, n_valid in enumerate((2, 1, 2)):
        write_reports(tmp_path / f"out-{k}", n_valid)
        s = run.Sweep(cells=2)
        s.problems += bench.check(k, tmp_path / f"out-{k}", s)
        sweeps.append(s)
    assert [bool(s.problems) for s in sweeps] == [False, True, False]
    assert run.tally(sweeps) == (6, 1 + 2 + 1)


def test_invariants_catch_short_samples_and_sub_optimal_costs():
    rows = [{"instance_id": "i", "variant": "rounded()", "solver": "random",
             "solver_params": "shots=10", "seed": "0", "n_samples": "9",
             "best_valid_cost": "4", "error": ""}]
    problems = workloads.invariant_problems(rows, {"i": Fraction(5)})
    assert len(problems) == 2


def test_every_target_is_patched_in_every_namespace_that_binds_it():
    import importlib

    from pressqubo import model, qubo, solvers

    originals = {}
    for target in spans.TARGETS:
        layer, name = target.split(".")
        originals[target] = getattr(importlib.import_module(f"pressqubo.{layer}"), name)
    modules = [m for key, m in sys.modules.items()
               if key == "pressqubo" or key.startswith("pressqubo.")]
    bindings = {t: [(m, k) for m in modules for k, v in vars(m).items() if v is f]
                for t, f in originals.items()}
    assert len(bindings["qubo.as_dense"]) >= 3  # qubo, solvers and lrqaoa

    tracer = spans.Tracer("test")
    tracer.install()
    try:
        for target, places in bindings.items():
            for module, key in places:
                bound = getattr(module, key)
                assert bound is not originals[target], f"{module.__name__}.{key} not patched"
                assert bound.__wrapped__ is originals[target]
        inst = model.bundled_instance("press-small")
        q = qubo.build_qubo(inst, qubo.RoundedVariant())
        solvers.simulated_anneal(q, solvers.SaConfig(steps=2, restarts=3))
    finally:
        tracer.uninstall()
    for target, places in bindings.items():
        assert all(getattr(m, k) is originals[target] for m, k in places)
    names = [(s[0], tracer.spans[s[1]][0] if s[1] >= 0 else None) for s in tracer.spans]
    assert ("qubo.as_dense", "solvers.simulated_anneal") in names
    assert tracer.counts["solvers.anneal.flip_attempts"] == 6


def test_benchmark_json_names_only_measured_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced = set(spans.layer_metrics([], {})) | {
        "bench.pool.utilisation", "trace.sweep_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= traced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "sweep_s", "cpu_s", "setup_s", "peak_rss_mib", "valid_share"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert (HERE / "reference" / f"{name}.csv").is_file()
