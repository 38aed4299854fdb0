import concurrent.futures
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pressqubo as pq
from pressqubo.errors import WorkerDied
from pressqubo.bench import (
    SOLVERS,
    RunRecord,
    expand_solver_params,
    expand_variants,
    load_plan,
    run_cell,
    series_correlations,
)
from pressqubo.solvers import SampleEntry, SampleSet

LAM_M = Fraction(1000)
LAM_T = Fraction(10**7)


@pytest.fixture
def tiny_qubo(tiny):
    return pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))


def sampleset(*entries):
    return SampleSet(entries=tuple(SampleEntry(*e) for e in entries), meta={})


def encoded(tiny, q, choice):
    return pq.encode_assignment(q, choice, pq.residual_slack(tiny, choice))


class TestPercentValid:
    def test_all_optimal(self, tiny, tiny_qubo):
        bits = encoded(tiny, tiny_qubo, {"t1": "m1", "t2": "m2"})
        samples = sampleset((bits, 2.0, 10))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_valid() == 1.0

    def test_all_zeros_invalid(self, tiny, tiny_qubo):
        samples = sampleset(("0" * tiny_qubo.n, 0.0, 5))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_valid() == 0.0

    def test_half(self, tiny, tiny_qubo):
        good = encoded(tiny, tiny_qubo, {"t1": "m1", "t2": "m2"})
        samples = sampleset((good, 2.0, 1), ("0" * tiny_qubo.n, 0.0, 1))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_valid() == 0.5

    def test_multiplicity_weighting(self, tiny, tiny_qubo):
        good = encoded(tiny, tiny_qubo, {"t1": "m1", "t2": "m2"})
        samples = sampleset((good, 2.0, 3), ("0" * tiny_qubo.n, 0.0, 1))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_valid() == 0.75

    def test_capacity_violation_is_invalid(self, tiny, tiny_qubo):
        bits = pq.encode_assignment(tiny_qubo, {"t1": "m1", "t2": "m1"})
        samples = sampleset((bits, 0.0, 1))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_valid() == 0.0

    def test_empty_rejected(self, tiny, tiny_qubo):
        with pytest.raises(ValueError):
            pq.score_samples(SampleSet(entries=()), tiny, tiny_qubo).percent_valid()


class TestNearOptimalShare:
    def test_all_at_optimum(self, tiny, tiny_qubo):
        bits = encoded(tiny, tiny_qubo, {"t1": "m1", "t2": "m2"})
        samples = sampleset((bits, 2.0, 4))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_near_opt(Fraction(2)) == 1.0

    def test_undefined_without_valid_samples(self, tiny, tiny_qubo):
        samples = sampleset(("0" * tiny_qubo.n, 0.0, 4))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_near_opt(Fraction(2)) is None

    def test_costs_at_opt_and_double(self, tiny, tiny_qubo):
        opt = encoded(tiny, tiny_qubo, {"t1": "m1", "t2": "m2"})    # cost 2
        worse = encoded(tiny, tiny_qubo, {"t1": "m2", "t2": "m1"})  # cost 4
        samples = sampleset((opt, 2.0, 1), (worse, 4.0, 1))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_near_opt(Fraction(2)) == 0.5

    def test_tolerance_boundary_inclusive(self, tiny, tiny_qubo):
        worse = encoded(tiny, tiny_qubo, {"t1": "m2", "t2": "m1"})  # cost 4
        samples = sampleset((worse, 4.0, 1))
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_near_opt(Fraction(4)) == 1.0
        # 4 exactly equals 1% above 400/101
        assert pq.score_samples(samples, tiny, tiny_qubo).percent_near_opt(
            Fraction(400, 101)
        ) == 1.0


class TestBestCostRatio:
    def test_at_optimum(self, tiny, tiny_qubo):
        bits = encoded(tiny, tiny_qubo, {"t1": "m1", "t2": "m2"})
        scored = pq.score_samples(sampleset((bits, 2.0, 1)), tiny, tiny_qubo)
        assert scored.best_cost_ratio(Fraction(2)) == 1

    def test_double_cost_gives_half(self, tiny, tiny_qubo):
        worse = encoded(tiny, tiny_qubo, {"t1": "m2", "t2": "m1"})
        scored = pq.score_samples(sampleset((worse, 4.0, 1)), tiny, tiny_qubo)
        ratio = scored.best_cost_ratio(Fraction(2))
        assert ratio == Fraction(1, 2)

    def test_undefined_without_valid(self, tiny, tiny_qubo):
        samples = sampleset(("0" * tiny_qubo.n, 0.0, 1))
        assert pq.score_samples(samples, tiny, tiny_qubo).best_cost_ratio(Fraction(2)) is None

    def test_uses_lowest_valid(self, tiny, tiny_qubo):
        opt = encoded(tiny, tiny_qubo, {"t1": "m1", "t2": "m2"})
        worse = encoded(tiny, tiny_qubo, {"t1": "m2", "t2": "m1"})
        samples = sampleset((opt, 2.0, 1), (worse, 4.0, 9))
        assert pq.score_samples(samples, tiny, tiny_qubo).best_cost_ratio(Fraction(2)) == 1


class TestPermutationInvariance:
    def test_metrics_ignore_entry_order(self, tiny, tiny_qubo):
        opt = encoded(tiny, tiny_qubo, {"t1": "m1", "t2": "m2"})
        worse = encoded(tiny, tiny_qubo, {"t1": "m2", "t2": "m1"})
        entries = [(opt, 2.0, 2), (worse, 4.0, 3), ("0" * tiny_qubo.n, 0.0, 5)]
        forward = pq.score_samples(sampleset(*entries), tiny, tiny_qubo)
        backward = pq.score_samples(sampleset(*entries[::-1]), tiny, tiny_qubo)
        assert forward.percent_valid() == backward.percent_valid()
        assert forward.percent_near_opt(Fraction(2)) == backward.percent_near_opt(Fraction(2))
        assert forward.best_cost_ratio(Fraction(2)) == backward.best_cost_ratio(Fraction(2))


class TestMultiplicationIdentity:
    def test_random_samplesets(self, tiny, tiny_qubo):
        rng = np.random.default_rng(17)
        for _ in range(30):
            states = rng.integers(0, 2, size=(40, tiny_qubo.n))
            entries = {}
            for row in states:
                bits = "".join(str(b) for b in row)
                entries[bits] = entries.get(bits, 0) + 1
            samples = sampleset(*[(b, 0.0, m) for b, m in entries.items()])
            scored = pq.score_samples(samples, tiny, tiny_qubo)
            pv = scored.percent_valid()
            pno = scored.percent_near_opt(Fraction(2))
            direct = 0
            total = 0
            for bits, mult in [(e.bits, e.multiplicity) for e in samples.entries]:
                total += mult
                a = pq.decode(tiny_qubo, bits).as_assignment()
                if a is None or not pq.validate_assignment(tiny, a).feasible:
                    continue
                if pq.solution_cost(tiny, a) <= Fraction(101, 100) * 2:
                    direct += mult
            if pno is None:
                assert direct == 0
            else:
                assert pv * pno == pytest.approx(direct / total, abs=1e-12)


class TestPearson:
    def test_affine_positive(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert pq.pearson_r(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-12)

    def test_affine_negative(self):
        xs = [1.0, 2.0, 3.0]
        assert pq.pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)

    def test_two_points_stay_within_one(self):
        # Unclamped, these read -1.0000000000000002 and 1.0000000000000002.
        assert pq.pearson_r([0.1, 0.5], [0.9, 0.2]) == -1.0
        assert pq.pearson_r([0.1, 0.5], [-0.9, -0.2]) == 1.0
        rng = np.random.default_rng(5)
        for xs, ys in rng.uniform(-10, 10, size=(500, 2, 2)):
            r = pq.pearson_r(xs, ys)
            assert -1.0 <= r <= 1.0
            assert abs(r) == pytest.approx(1.0, abs=1e-15)

    def test_hand_computed_half(self):
        assert pq.pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pq.pearson_r([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("xs", [[1, float("nan"), 3], [1, 1e308, -1e308]],
                             ids=["nan", "overflow"])
    def test_non_finite_values_or_moments_rejected_without_a_warning(self, xs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                pq.pearson_r(xs, [1, 2, 3])
            with pytest.raises(ValueError, match="non-finite"):
                pq.pearson_r([1, 2, 3], xs)

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pq.pearson_r([1], [1])
        with pytest.raises(ValueError):
            pq.pearson_r([1, 2], [1, 2, 3])


def record(instance_id="i", variant=None, solver="sa", params=None, seed=0, pv=None,
           ratio=None, error=None):
    return RunRecord(
        instance_id=instance_id,
        variant=variant or pq.RawVariant(LAM_M, LAM_T),
        solver=solver,
        solver_params=params or {"steps": 10},
        seed=seed,
        percent_valid=pv,
        best_cost_ratio=ratio,
        error=error,
    )


class TestSelectBestPenalty:
    def test_single_config(self):
        records = [record(pv=0.4, ratio=0.9)]
        best = pq.select_best_penalty(records)
        assert list(best.values()) == [pq.RawVariant(LAM_M, LAM_T)]

    def test_highest_valid_share_wins(self):
        a = record(variant=pq.RawVariant(Fraction(10), LAM_T), pv=0.2, ratio=1.0)
        b = record(variant=pq.RawVariant(Fraction(20), LAM_T), pv=0.9, ratio=0.5)
        best = pq.select_best_penalty([a, b])
        assert list(best.values()) == [b.variant]

    def test_ratio_breaks_ties(self):
        a = record(variant=pq.RawVariant(Fraction(10), LAM_T), pv=0.9, ratio=0.95)
        b = record(variant=pq.RawVariant(Fraction(20), LAM_T), pv=0.9, ratio=0.99)
        best = pq.select_best_penalty([a, b])
        assert list(best.values()) == [b.variant]

    def test_lexicographic_parameter_tie_break(self):
        a = record(variant=pq.RawVariant(Fraction(20), LAM_T), pv=0.9, ratio=0.9)
        b = record(variant=pq.RawVariant(Fraction(10), LAM_T), pv=0.9, ratio=0.9)
        best = pq.select_best_penalty([a, b])
        assert list(best.values()) == [b.variant]

    def test_groups_by_variant_kind(self):
        raw = record(variant=pq.RawVariant(LAM_M, LAM_T), pv=0.5, ratio=0.5)
        scaled = record(variant=pq.ScaledVariant(Fraction(1)), pv=0.2, ratio=0.2)
        best = pq.select_best_penalty([raw, scaled])
        assert len(best) == 2

    def test_unscored_records_skipped(self):
        records = [record(pv=None, error="boom")]
        assert pq.select_best_penalty(records) == {}


def random_records(seed):
    """Records over 2 instances, every variant kind, 2 solvers x 2 params
    and 3 seeds, with errors, undefined ratios and built-in ties."""
    rng = np.random.default_rng(seed)
    variants = [pq.RawVariant(Fraction(10), LAM_T), pq.RawVariant(Fraction(20), LAM_T),
                pq.RawVariant(Fraction(20), Fraction(5)), pq.ScaledVariant(Fraction(1, 10)),
                pq.ScaledVariant(Fraction(1)), pq.RoundedVariant()]
    records = []
    for instance_id in ("i1", "i2"):
        for v, variant in enumerate(variants):
            for solver in ("random", "sa"):
                for steps in (10, 20):
                    for s in range(3):
                        pv = float(rng.choice([0.0, 0.5, 1.0]))
                        ratio = None if pv == 0.0 or rng.random() < 0.2 else float(
                            rng.choice([0.5, 1.0]))
                        error = None
                        if rng.random() < 0.15:
                            pv, ratio, error = None, None, "boom"
                        # Two raw variants of one configuration score best alike:
                        # a tie that only the penalty parameters break.
                        if v in (1, 2) and (instance_id, solver, steps) == ("i1", "sa", 10):
                            pv, ratio, error = 1.0, 1.0, None
                        records.append(record(instance_id, variant, solver, {"steps": steps},
                                              s, pv=pv, ratio=ratio, error=error))
    rng.shuffle(records)
    return records


class TestBestPenaltyRanksReportedMeans:
    @pytest.mark.parametrize("seed", range(5))
    def test_pick_is_the_best_metrics_row_of_its_group(self, seed):
        records = random_records(seed)
        variants = {pq.qubo.variant_label(r.variant): r.variant for r in records}
        groups = {}
        for row in pq.aggregate_metrics(records):
            if row["percent_valid"] is not None:
                kind = row["variant"].split("(")[0]
                key = (row["instance_id"], row["solver"], row["solver_params"], kind)
                groups.setdefault(key, []).append(row)
        best = pq.select_best_penalty(records)
        assert set(best) == set(groups)

        def rank(row):
            return row["percent_valid"], row["best_cost_ratio"] or 0.0

        ties = 0
        for key, rows in groups.items():
            top = max(rank(row) for row in rows)
            tied = [variants[row["variant"]] for row in rows if rank(row) == top]
            ties += len(tied) > 1
            assert best[key] == min(tied, key=pq.qubo.variant_sort_key)
        assert ties


class TestPlanExpansion:
    def test_default_raw_grid(self):
        assert len(expand_variants({"kind": "raw"})) == 9

    def test_default_scaled_grid(self):
        assert len(expand_variants({"kind": "scaled"})) == 2

    def test_rounded_single(self):
        assert len(expand_variants({"kind": "rounded"})) == 1

    def test_explicit_grid(self):
        variants = expand_variants({"kind": "raw", "lm": [1, 2], "lt": [3]})
        assert variants == [
            pq.RawVariant(Fraction(1), Fraction(3)),
            pq.RawVariant(Fraction(2), Fraction(3)),
        ]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            expand_variants({"kind": "mystery"})

    def test_raw_grid_is_lm_major_and_fills_left_out_parameters(self):
        lms = pq.qubo.VARIANT_KINDS["raw"][1]["lm"]
        assert expand_variants({"kind": "raw", "lt": [5, 3]}) == [
            pq.RawVariant(lm, lt) for lm in lms for lt in (5, 3)]
        assert expand_variants({"kind": "raw"}) == pq.qubo.variant_grid(
            "raw", pq.qubo.VARIANT_KINDS["raw"][1])

    def test_solver_param_lists_expand(self):
        combos = expand_solver_params(
            {"name": "lrqaoa", "params": {"p": [1, 2, 5, 10], "shots": 100}}
        )
        assert len(combos) == 4
        assert all(c["shots"] == 100 for _, c in combos)

    def test_solver_defaults(self):
        [(name, params)] = expand_solver_params({"name": "sa"})
        assert name == "sa"
        assert params == SOLVERS["sa"].defaults

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            expand_solver_params({"name": "quantum-teleport"})

    @pytest.mark.parametrize("entry", [
        {"name": "random", "params": {"shotz": 3}},
        {"name": "sa", "params": {"shots": 3, "restarts": 4}},
        {"name": "brute", "params": {"seed": 1}},
    ])
    def test_unknown_solver_parameter(self, entry):
        with pytest.raises(ValueError, match="does not take"):
            expand_solver_params(entry)

    def test_optional_annealing_temperatures(self):
        [(_, params)] = expand_solver_params({"name": "sa", "params": {"t_start": 5.0}})
        assert params == {**SOLVERS["sa"].defaults, "t_start": 5.0}


def test_a_plan_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps([{"instances": []}]))
    with pytest.raises(ValueError, match="plan must be a JSON object"):
        load_plan(path)


class TestSolverRegistry:
    def test_parameter_types_come_from_the_registry(self):
        assert SOLVERS["sa"].kind("steps") is int
        assert SOLVERS["sa"].kind("t_end") is float
        assert SOLVERS["lrqaoa"].kind("delta_beta") is float
        [(_, params)] = expand_solver_params({"name": "sa", "params": {"t_start": 5}})
        assert params["t_start"] == 5
        with pytest.raises(ValueError, match="'steps' must be an integer"):
            expand_solver_params({"name": "sa", "params": {"steps": 5.0}})

    @pytest.mark.parametrize("defaults, optional", [
        ({"flag": True}, {}),
        ({}, {"label": str}),
    ])
    def test_parameter_without_a_check_is_refused(self, defaults, optional):
        with pytest.raises(TypeError, match="must be an int or a float"):
            pq.bench.Solver(defaults, lambda q, params, seed: None, optional=optional)

    @pytest.mark.parametrize("name, module, attr", [
        ("sa", pq.solvers, "simulated_anneal"),
        ("random", pq.solvers, "random_sample"),
        ("lrqaoa", pq.lrqaoa, "run_lrqaoa"),
    ])
    def test_sampler_is_looked_up_on_its_module(self, tiny_qubo, monkeypatch,
                                                 name, module, attr):
        # A tracer patches module attributes; the registry must call the patch.
        marker = SampleSet(entries=(), meta={"patched": attr})

        def patched(q, *args):  # every sampler takes the seeds last
            sets = [marker] * len(args[-1])
            return sets if isinstance(q, pq.Qubo) else [sets] * len(q)

        monkeypatch.setattr(module, attr, patched)
        runs = SOLVERS[name].run([tiny_qubo, tiny_qubo], SOLVERS[name].defaults, [0, 1])
        assert len(runs) == 2 and all(len(sets) == 2 for sets in runs)
        assert all(samples is marker for sets in runs for samples in sets)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_negative_seed_is_refused(self, tiny_qubo, name):
        with pytest.raises(ValueError, match="seeds must be non-negative"):
            SOLVERS[name].run([tiny_qubo], SOLVERS[name].defaults, [0, -1])

    def test_defaults_match_the_sampler_signatures(self):
        # The registry declares its defaults apart from the samplers' own.
        cfg = pq.SaConfig()
        assert SOLVERS["sa"].defaults == {"steps": cfg.steps, "restarts": cfg.restarts}
        ramp = inspect.signature(pq.lr_schedule).parameters
        for key in ("delta_gamma", "delta_beta"):
            assert SOLVERS["lrqaoa"].defaults[key] == ramp[key].default


def write_plan(tmp_path, tiny, **overrides):
    inst_path = tmp_path / "tiny.json"
    pq.save_instance(tiny, inst_path)
    plan = {
        "instances": [str(inst_path)],
        "variants": [{"kind": "raw"}, {"kind": "scaled"}, {"kind": "rounded"}],
        "solvers": [{"name": "sa", "params": {"steps": 60, "restarts": 20}}],
        "seeds": [0],
        "postprocess": False,
    }
    plan.update(overrides)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    return plan_path


class TestSweep:
    def test_full_grid_produces_twelve_records(self, tiny, tmp_path):
        plan = load_plan(write_plan(tmp_path, tiny))
        records = pq.sweep(plan)
        assert len(records) == 12
        kinds = [r.variant.kind for r in records]
        assert kinds.count("raw") == 9
        assert kinds.count("scaled") == 2
        assert kinds.count("rounded") == 1

    def test_scaled_only_two_records(self, tiny, tmp_path):
        plan = load_plan(write_plan(tmp_path, tiny, variants=[{"kind": "scaled"}]))
        assert len(pq.sweep(plan)) == 2

    def test_empty_solver_list(self, tiny, tmp_path):
        plan = load_plan(write_plan(tmp_path, tiny, solvers=[]))
        assert pq.sweep(plan) == []

    def test_deterministic(self, tiny, tmp_path):
        plan = load_plan(write_plan(tmp_path, tiny))
        a = [r for r in pq.sweep(plan)]
        b = [r for r in pq.sweep(plan)]
        for ra, rb in zip(a, b):
            assert ra.grid_key() == rb.grid_key()
            assert ra.percent_valid == rb.percent_valid
            assert ra.best_energy == rb.best_energy

    def test_cell_failure_recorded_not_raised(self, tiny, tmp_path):
        # brute force on 27+ variables trips the guard inside the cell
        big = pq.sanitize_instance(pq.generate_instance(8, 2, 8, 3))  # 16 + 16 = 32 vars
        big_path = tmp_path / "big.json"
        pq.save_instance(big, big_path)
        plan = load_plan(
            write_plan(
                tmp_path,
                tiny,
                instances=[str(big_path)],
                variants=[{"kind": "rounded"}],
                solvers=[{"name": "brute"}],
            )
        )
        records = pq.sweep(plan)
        assert len(records) == 1
        assert records[0].error is not None
        assert "TooLarge" in records[0].error

    def test_infeasible_instance_fails_its_cells_only(self, tiny, tmp_path):
        small = pq.bundled_instance("press-small")
        infeasible = pq.Instance(
            id="press-small-full", toolkits=small.toolkits, machines=small.machines,
            cost=small.cost, workload=small.workload,
            capacity={m: Fraction(1) for m in small.machines})
        bad_path = tmp_path / "infeasible.json"
        pq.save_instance(infeasible, bad_path)
        good_path = tmp_path / "tiny.json"
        plan = load_plan(write_plan(tmp_path, tiny, instances=[str(bad_path), str(good_path)],
                                    variants=[{"kind": "scaled"}, {"kind": "rounded"}]))
        records = pq.sweep(plan)
        assert len(records) == 6
        bad = [r for r in records if r.instance_id == "press-small-full"]
        good = [r for r in records if r.instance_id == "tiny"]
        assert len(bad) == 3 and len(good) == 3
        assert all(r.error.startswith("Infeasible: ") for r in bad)
        assert all(r.error is None and r.n_samples == 20 for r in good)

    def test_missing_plan_key(self):
        with pytest.raises(ValueError):
            pq.expand_plan({"instances": []})

    def test_parallel_matches_serial(self, tiny, tmp_path):
        plan = load_plan(write_plan(tmp_path, tiny, variants=[{"kind": "scaled"}]))
        serial = pq.sweep(plan, workers=1)
        parallel = pq.sweep(plan, workers=2)
        assert [r.grid_key() for r in serial] == [r.grid_key() for r in parallel]
        assert [r.percent_valid for r in serial] == [r.percent_valid for r in parallel]

    def test_postprocess_never_hurts_best_energy(self, tiny, tmp_path):
        raw_plan = load_plan(
            write_plan(tmp_path, tiny, variants=[{"kind": "raw", "lm": [1000], "lt": [1e7]}],
                       solvers=[{"name": "random", "params": {"shots": 100}}])
        )
        cleaned_plan = dict(raw_plan, postprocess=True)
        raw_records = pq.sweep(raw_plan)
        cleaned_records = pq.sweep(cleaned_plan)
        assert cleaned_records[0].best_energy <= raw_records[0].best_energy

    @pytest.mark.parametrize("postprocess", [False, True])
    def test_a_sweep_builds_no_bitstrings(self, tiny, tmp_path, monkeypatch, postprocess):
        # Sample sets stay arrays from the sampler to the score: reading
        # any set's entries during the sweep fails its cell.
        small_path = tmp_path / "small.json"
        pq.save_instance(pq.bundled_instance("press-small"), small_path)
        plan = load_plan(write_plan(
            tmp_path, tiny, instances=[str(small_path)],
            solvers=[{"name": "sa", "params": {"steps": 40, "restarts": 10}},
                     {"name": "random", "params": {"shots": 30}},
                     {"name": "lrqaoa", "params": {"p": 1, "shots": 50}},
                     {"name": "brute"}],
            seeds=[0, 1], postprocess=postprocess))
        expected = pq.sweep(plan, workers=1)

        def no_entries(self):
            raise AssertionError("a sweep read SampleSet.entries")

        monkeypatch.setattr(SampleSet, "entries", property(no_entries))
        records = pq.sweep(plan, workers=1)
        assert [r.error for r in records] == [None] * 96
        assert records == expected


def mixed_plan(tmp_path, tiny):
    small_path = tmp_path / "small.json"
    pq.save_instance(pq.bundled_instance("press-small"), small_path)
    return load_plan(write_plan(
        tmp_path, tiny,
        instances=[str(tmp_path / "tiny.json"), str(small_path)],
        variants=[{"kind": "raw", "lm": [1000, 100000], "lt": [10**7]},
                  {"kind": "scaled", "ls": [1]}, {"kind": "rounded"}],
        solvers=[{"name": "sa", "params": {"steps": 40, "restarts": 10}},
                 {"name": "random", "params": {"shots": 30}},
                 {"name": "lrqaoa", "params": {"p": [1, 2], "shots": 50}},
                 {"name": "brute"}],
        seeds=[0, 1], postprocess=True))


def per_cell_records(plan):
    """Every cell run on its own, building its own QUBO."""
    inputs = {}
    for path in plan["instances"]:
        inst = pq.sanitize_instance(pq.load_instance(path))
        inputs[path] = (inst, pq.exact_solve(inst))
    records = [run_cell(c, *inputs[c.instance_path]) for c in pq.expand_plan(plan)]
    return sorted(records, key=RunRecord.grid_key)


class RecordingPool:
    """In-process stand-in for the process pool that records the job order
    and the pool size."""

    jobs: list = []
    max_workers: int | None = None

    def __init__(self, max_workers):
        RecordingPool.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        RecordingPool.jobs = list(jobs)
        return map(fn, RecordingPool.jobs)


# Run in a fresh interpreter: the pool's modules loaded by the time a
# one-process sweep has run, and those loaded after a pooled one.
POOL_IMPORT_SCRIPT = """
import json, sys
import pressqubo, pressqubo.cli
pool = ("concurrent.futures.process", "multiprocessing")
loaded = [[m for m in pool if m in sys.modules]]
plan, out = sys.argv[1:]
codes = [pressqubo.cli.main(["sweep", plan, "-o", out + "-1"])]
loaded.append([m for m in pool if m in sys.modules])
codes.append(pressqubo.cli.main(["sweep", plan, "-o", out + "-2", "--workers", "2"]))
loaded.append([m for m in pool if m in sys.modules])
print(json.dumps([codes, loaded]))
"""


class TestPoolOnlyWhenPooling:
    def small_plan(self, tmp_path):
        small_path = tmp_path / "small.json"
        pq.save_instance(pq.bundled_instance("press-small"), small_path)
        plan = {"instances": [str(small_path)],
                "variants": [{"kind": "rounded"}, {"kind": "scaled", "ls": [1]}],
                "solvers": [{"name": "sa", "params": {"steps": 30, "restarts": 10}},
                            {"name": "random", "params": {"shots": 20}}],
                "seeds": [0, 1]}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_a_one_process_sweep_loads_no_pool(self, tmp_path):
        plan_path = self.small_plan(tmp_path)
        src = str(Path(pq.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", POOL_IMPORT_SCRIPT, str(plan_path), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        codes, loaded = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert loaded[:2] == [[], []]
        assert loaded[2] == ["concurrent.futures.process", "multiprocessing"]
        for name in ("runs.csv", "metrics.csv", "report.json"):
            one, two = (tmp_path / f"out-{k}" / name for k in (1, 2))
            assert one.read_bytes() == two.read_bytes()
        plan = load_plan(plan_path)
        assert pq.sweep(plan, workers=2) == per_cell_records(plan)

    def test_a_dead_pool_process_is_worker_died(self, tmp_path, monkeypatch):
        class BrokenPool(RecordingPool):
            def map(self, fn, jobs):
                raise BrokenProcessPool("a process in the pool was terminated abruptly")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        plan = load_plan(self.small_plan(tmp_path))
        with pytest.raises(WorkerDied, match=r"^a sweep worker process died \(for example, "
                                             r"killed for memory\)$") as exc:
            pq.sweep(plan, workers=2)
        assert isinstance(exc.value.__cause__, BrokenProcessPool)
        assert isinstance(exc.value, pq.PressQuboError)


class TestGroupedSweep:
    def test_grouped_sweep_matches_cells_run_alone(self, tiny, tmp_path):
        plan = mixed_plan(tmp_path, tiny)
        expected = per_cell_records(plan)
        assert len(expected) == 2 * 4 * 5 * 2
        assert all(r.error is None for r in expected)
        assert pq.sweep(plan, workers=1) == expected
        assert pq.sweep(plan, workers=2) == expected

    def test_one_build_per_instance_and_variant(self, tiny, tmp_path, monkeypatch):
        plan = mixed_plan(tmp_path, tiny)
        builds = []
        original = pq.qubo.build_qubo

        def counting(inst, variant):
            builds.append((inst.id, variant))
            return original(inst, variant)

        monkeypatch.setattr(pq.qubo, "build_qubo", counting)
        records = pq.sweep(plan)
        assert len(records) == 80
        groups = {(r.instance_id, r.variant) for r in records}
        assert len(groups) == 8
        assert sorted(builds, key=str) == sorted(groups, key=str)

    def test_build_failure_fails_its_group_only(self, tmp_path, tiny):
        small = pq.bundled_instance("press-small")
        free = pq.Instance(id="free", toolkits=small.toolkits, machines=small.machines,
                           cost={k: Fraction(0) for k in small.cost},
                           workload=small.workload, capacity=small.capacity)
        free_path = tmp_path / "free.json"
        pq.save_instance(free, free_path)
        plan = load_plan(write_plan(
            tmp_path, tiny, instances=[str(free_path)],
            variants=[{"kind": "rounded"}, {"kind": "scaled"}],
            solvers=[{"name": "sa", "params": {"steps": 40, "restarts": 10}},
                     {"name": "random", "params": {"shots": 30}}],
            seeds=[0, 1]))
        records = pq.sweep(plan)
        assert records == per_cell_records(plan)
        rounded = [r for r in records if r.variant.kind == "rounded"]
        scaled = [r for r in records if r.variant.kind == "scaled"]
        assert len(rounded) == 4 and len(scaled) == 8
        assert all(r.error == "ValueError: rounded variant needs at least one positive cost"
                   and r.n_samples == 0 for r in rounded)
        assert all(r.error is None and r.n_samples > 0 and r.best_cost_ratio == 1.0
                   for r in scaled)

    def test_fewer_groups_than_workers_are_split(self, tiny, tmp_path, monkeypatch):
        plan = load_plan(write_plan(
            tmp_path, tiny, variants=[{"kind": "rounded"}],
            solvers=[{"name": "random", "params": {"shots": 20}}], seeds=list(range(8))))
        expected = per_cell_records(plan)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        builds = []
        original = pq.qubo.build_qubo

        def counting(inst, variant):
            builds.append(variant)
            return original(inst, variant)

        monkeypatch.setattr(pq.qubo, "build_qubo", counting)
        assert pq.sweep(plan, workers=4) == expected
        assert [[c.seed for c in cells] for cells, _, _ in RecordingPool.jobs] == [
            [0, 1], [2, 3], [4, 5], [6, 7]]
        assert len(builds) == 4

    @pytest.mark.parametrize("seeds,pool_size", [([0], None), ([0, 1], 2)])
    def test_pool_has_no_more_processes_than_jobs(self, tiny, tmp_path, monkeypatch,
                                                  seeds, pool_size):
        plan = load_plan(write_plan(
            tmp_path, tiny, variants=[{"kind": "rounded"}],
            solvers=[{"name": "random", "params": {"shots": 20}}], seeds=seeds))
        expected = per_cell_records(plan)
        monkeypatch.setattr(RecordingPool, "max_workers", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert pq.sweep(plan, workers=3) == expected
        assert RecordingPool.max_workers == pool_size  # None: one job runs in this process

    def test_one_annealing_call_per_instance_parameters_and_seeds(self, tiny, tmp_path,
                                                                  monkeypatch):
        # perfbench traces annealing by wrapping the module attribute and
        # reads the run shape from the second argument.
        small_path = tmp_path / "small.json"
        pq.save_instance(pq.bundled_instance("press-small"), small_path)
        plan = load_plan(write_plan(
            tmp_path, tiny, instances=[str(tmp_path / "tiny.json"), str(small_path)],
            variants=[{"kind": "rounded"}, {"kind": "scaled", "ls": [1]}],
            solvers=[{"name": "sa", "params": {"steps": [30, 40], "restarts": 10}},
                     {"name": "random", "params": {"shots": 20}}],
            seeds=[0, 1], postprocess=True))
        expected = per_cell_records(plan)
        calls, draws = [], []
        anneal, sample = pq.solvers.simulated_anneal, pq.solvers.random_sample

        def counting_anneal(maps, cfg, seeds):
            calls.append(([q.n for q in maps], cfg.steps, cfg.restarts, seeds))
            return anneal(maps, cfg, seeds)

        def counting_sample(q, shots, seeds):
            draws.append((q.n, seeds))
            return sample(q, shots, seeds)

        monkeypatch.setattr(pq.solvers, "simulated_anneal", counting_anneal)
        monkeypatch.setattr(pq.solvers, "random_sample", counting_sample)
        assert pq.sweep(plan) == expected
        sizes = (pq.build_qubo(tiny, pq.RoundedVariant()).n, 14)
        assert sorted(calls) == [([n, n], steps, 10, [0, 1]) for n in sorted(sizes)
                                 for steps in (30, 40)]
        # A sampler that does not stack maps gets one map per call.
        assert sorted(draws) == [(n, [0, 1]) for n in sorted(sizes) for _ in range(2)]

    def test_refused_dense_mirror_fails_only_its_cells(self, tiny, tmp_path, monkeypatch):
        plan = load_plan(write_plan(
            tmp_path, tiny, variants=[{"kind": "scaled", "ls": [1]},
                                      {"kind": "raw", "lm": [1e307], "lt": [1e307]},
                                      {"kind": "rounded"}],
            solvers=[{"name": "sa", "params": {"steps": 30, "restarts": 10}}],
            seeds=[0, 1], postprocess=True))
        calls = []
        original = pq.solvers.simulated_anneal

        def counting(maps, cfg, seeds):
            calls.append(len(maps))
            return original(maps, cfg, seeds)

        monkeypatch.setattr(pq.solvers, "simulated_anneal", counting)
        records = pq.sweep(plan)
        assert calls == [1, 1, 2]  # each refused cell alone, then the healthy maps stacked
        monkeypatch.undo()
        assert records == per_cell_records(plan)
        refused = [r for r in records if r.variant.kind == "raw"]
        assert [r.error for r in refused] == [
            "ValueError: coefficient magnitudes and offset sum to more than a quarter of "
            "float64's largest value, so float energies could overflow"] * 2
        assert all(r.error is None and r.n_samples == 10
                   for r in records if r.variant.kind != "raw")

    def test_a_job_holds_one_maps_ramp_tables_at_a_time(self, tiny, monkeypatch):
        # A chain over all 16 variables does not split, so its ramp table
        # is the full diagonal, 8 B per amplitude, cached on its map.
        def chain_map(inst, variant):
            coeffs = {(i, i + 1): Fraction(i % 5 + 1) for i in range(15)}
            return pq.Qubo(n=16, coeffs={**coeffs, (0, 0): Fraction(-3)}, offset=Fraction(0))

        monkeypatch.setattr(pq.qubo, "build_qubo", chain_map)
        assert pq.lrqaoa.cost_split(chain_map(tiny, None)) == (0, [(0, 16)])
        reference = pq.exact_solve(tiny)
        params = {"p": 1, "delta_gamma": 0.9, "delta_beta": 0.6, "shots": 10}

        def job_peak(variants):
            cells = [pq.bench.SweepCell("tiny.json", v, "lrqaoa", params, seed, False)
                     for v in variants for seed in (0, 1)]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                records = pq.bench._run_group((cells, tiny, reference))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(records) == len(cells)
            return peak - base

        job_peak([pq.ScaledVariant(Fraction(1))])  # first-call allocations
        one = job_peak([pq.ScaledVariant(Fraction(1))])
        four = job_peak([pq.ScaledVariant(Fraction(k)) for k in range(1, 5)])
        assert four - one < (8 << 16) // 2  # half a table: the other maps' tables are gone

    def test_failed_batch_gives_each_cell_its_own_error(self, tiny, tmp_path, monkeypatch):
        plan = load_plan(write_plan(
            tmp_path, tiny, variants=[{"kind": "rounded"}],
            solvers=[{"name": "sa", "params": {"steps": 30, "restarts": 10}}],
            seeds=[0, 1, 2]))
        original = pq.solvers.simulated_anneal

        def failing(q, cfg, seeds):
            if len(seeds) > 1:
                raise MemoryError("batch too large")
            if seeds == [1]:
                raise ValueError("seed 1 fails")
            return original(q, cfg, seeds)

        monkeypatch.setattr(pq.solvers, "simulated_anneal", failing)
        records = pq.sweep(plan)
        assert [r.error for r in records] == [None, "ValueError: seed 1 fails", None]
        assert records[0] == per_cell_records(plan)[0]

    def test_split_halves_the_largest_job_in_place(self):
        split = pq.bench._split_jobs
        assert split([[1, 2, 3], [4]], 3) == [[1], [2, 3], [4]]
        assert split([[1], [2], [3]], 2) == [[1], [2], [3]]
        assert split([[1], [2]], 4) == [[1], [2]]
        assert split([], 4) == []


class TestExportReport:
    def test_headers_only_without_records(self, tmp_path):
        paths = pq.export_report([], tmp_path / "out")
        assert (tmp_path / "out" / "runs.csv").read_text().count("\n") == 1
        assert (tmp_path / "out" / "metrics.csv").read_text().count("\n") == 1
        report = json.loads(paths["report"].read_text())
        assert report["runs"] == []

    def test_nine_raw_rows(self, tiny, tmp_path):
        plan = load_plan(write_plan(tmp_path, tiny, variants=[{"kind": "raw"}]))
        records = pq.sweep(plan)
        pq.export_report(records, tmp_path / "out", plan=plan)
        lines = (tmp_path / "out" / "runs.csv").read_text().splitlines()
        assert len(lines) == 10  # header + 9

    def test_reexport_byte_identical(self, tiny, tmp_path):
        plan = load_plan(write_plan(tmp_path, tiny, variants=[{"kind": "scaled"}]))
        records = pq.sweep(plan)
        pq.export_report(records, tmp_path / "a", plan=plan)
        pq.export_report(records, tmp_path / "b", plan=plan)
        for name in ("runs.csv", "metrics.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_undefined_metrics_serialize_empty(self, tiny, tmp_path):
        bad = record(pv=0.0, ratio=None)
        pq.export_report([bad], tmp_path / "out")
        rows = (tmp_path / "out" / "runs.csv").read_text().splitlines()
        cells = rows[1].split(",")
        header = rows[0].split(",")
        assert cells[header.index("best_cost_ratio")] == ""
        assert cells[header.index("percent_valid")] == "0.0"

    def test_error_messages_with_commas_stay_in_one_cell(self, tmp_path):
        import csv

        bad = record(pv=None, error="GenerationFailed: no shape (3, 2, 8)")
        pq.export_report([bad], tmp_path / "out")
        with open(tmp_path / "out" / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert rows[1][rows[0].index("error")] == "GenerationFailed: no shape (3, 2, 8)"

    def test_metric_rows_aggregate_over_seeds(self, tiny, tmp_path):
        plan = load_plan(
            write_plan(tmp_path, tiny, variants=[{"kind": "rounded"}], seeds=[0, 1, 2])
        )
        records = pq.sweep(plan)
        rows = pq.aggregate_metrics(records)
        assert len(rows) == 1
        assert rows[0]["n_records"] == 3


class TestCorrelations:
    def test_sa_and_lrqaoa_series(self, tiny, tmp_path):
        # two instances so the series have length 2
        other = pq.sanitize_instance(pq.generate_instance(2, 2, 3, 9))
        other_path = tmp_path / "other.json"
        pq.save_instance(other, other_path)
        inst_path = tmp_path / "tiny.json"
        pq.save_instance(tiny, inst_path)
        plan = {
            "instances": [str(inst_path), str(other_path)],
            "variants": [{"kind": "rounded"}],
            "solvers": [
                {"name": "sa", "params": {"steps": 60, "restarts": 30}},
                {"name": "lrqaoa", "params": {"p": 2, "shots": 200}},
            ],
            "seeds": [0],
            "postprocess": False,
        }
        records = pq.sweep(plan)
        rows = series_correlations(records)
        assert any(
            row["solver_a"] == "lrqaoa" and row["solver_b"] == "sa" for row in rows
        )
        for row in rows:
            assert -1.0 - 1e-12 <= row["r"] <= 1.0 + 1e-12

    def test_rows_are_pinned_on_hand_built_records(self):
        raw, rounded = pq.RawVariant(LAM_M, LAM_T), pq.RoundedVariant()
        # (kind, solver, instance, seed) -> (valid, near-optimal, ratio)
        values = {
            (raw, "a", "i1", 0): (0.2, 0.5, 0.8),
            (raw, "a", "i1", 1): (0.4, 0.5, 0.8),
            (raw, "a", "i2", 0): (0.6, None, 0.9),
            (raw, "a", "i3", 0): (0.9, 0.7, 1.0),
            (raw, "b", "i1", 0): (0.1, 0.4, 0.5),
            (raw, "b", "i2", 0): (0.5, 0.6, 0.5),  # b's ratios have no variance
            (raw, "b", "i3", 0): (0.2, 0.1, 0.5),
            (raw, "c", "i1", 0): (0.3, 0.3, 0.3),
            (raw, "c", "i4", 0): (0.8, 0.8, 0.8),  # an instance only c has
            (rounded, "a", "i1", 0): (0.3, None, 0.5),
            (rounded, "a", "i2", 0): (0.7, None, 0.9),
            (rounded, "b", "i1", 0): (0.6, None, 0.7),
            (rounded, "b", "i2", 0): (0.2, None, 0.8),
        }
        records = [
            RunRecord(instance_id, variant, solver, {}, seed, percent_valid=pv,
                      percent_near_opt=near, best_cost_ratio=ratio)
            for (variant, solver, instance_id, seed), (pv, near, ratio) in values.items()
        ]
        records.append(RunRecord("i2", raw, "a", {}, 1, percent_valid=0.0,
                                 percent_near_opt=0.0, best_cost_ratio=0.1, error="boom"))
        rows = series_correlations(records[::-1])
        assert [(r["variant_kind"], r["metric"], r["solver_a"], r["solver_b"], r["instances"])
                for r in rows] == [
            ("raw", "percent_valid", "a", "b", ["i1", "i2", "i3"]),
            ("raw", "percent_near_opt", "a", "b", ["i1", "i3"]),
            ("rounded", "percent_valid", "a", "b", ["i1", "i2"]),
            ("rounded", "best_cost_ratio", "a", "b", ["i1", "i2"]),
        ]
        for row, (xs, ys) in zip(rows, [([0.3, 0.6, 0.9], [0.1, 0.5, 0.2]),
                                        ([0.5, 0.7], [0.4, 0.1]),
                                        ([0.3, 0.7], [0.6, 0.2]),
                                        ([0.5, 0.9], [0.7, 0.8])]):
            assert row["r"] == pytest.approx(np.corrcoef(xs, ys)[0, 1], abs=1e-12)
