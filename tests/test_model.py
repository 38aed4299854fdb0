import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressqubo as pq
from pressqubo import model
from pressqubo.errors import Infeasible, TooLarge
from pressqubo.model import BUNDLED_SHAPES

from conftest import (
    enumerate_assignments,
    reference_cost,
    reference_feasible,
    reference_optimum,
)


def make_instance(cost, workload, capacity):
    T = len(cost)
    M = len(cost[0])
    toolkits = tuple(f"t{i}" for i in range(T))
    machines = tuple(f"m{j}" for j in range(M))
    return pq.Instance(
        id="adhoc",
        toolkits=toolkits,
        machines=machines,
        cost={(toolkits[i], machines[j]): Fraction(cost[i][j]) for i in range(T) for j in range(M)},
        workload={
            (toolkits[i], machines[j]): Fraction(workload[i][j]) for i in range(T) for j in range(M)
        },
        capacity={machines[j]: Fraction(capacity[j]) for j in range(M)},
    )


class TestInstanceChecks:
    @pytest.mark.parametrize("change, message", [
        (lambda i: {"toolkits": ()}, "at least one toolkit and one machine"),
        (lambda i: {"machines": ()}, "at least one toolkit and one machine"),
        (lambda i: {"toolkits": ("t1", "t2", "t1")}, "duplicate toolkit ids"),
        (lambda i: {"machines": ("m1", "m1")}, "duplicate machine ids"),
        (lambda i: {"cost": {k: c for k, c in i.cost.items() if k != ("t2", "m1")}},
         "cost must cover exactly toolkits x machines"),
        (lambda i: {"cost": {**i.cost, ("t3", "m1"): 1}},
         "cost must cover exactly toolkits x machines"),
        (lambda i: {"workload": {k: w for k, w in i.workload.items() if k != ("t1", "m2")}},
         "workload must cover exactly toolkits x machines"),
        (lambda i: {"capacity": {"m1": 1}}, "capacity must cover exactly the machines"),
        (lambda i: {"capacity": {"m1": 1, "m2": 1, "m3": 1}},
         "capacity must cover exactly the machines"),
    ])
    def test_malformed_instances_are_refused(self, tiny, change, message):
        with pytest.raises(ValueError, match=message):
            replace(tiny, **change(tiny))


class TestSanitize:
    def test_rounds_capacity_down_workload_up(self):
        inst = make_instance([[5]], [[Fraction("2.1")]], [Fraction("10.7")])
        clean = pq.sanitize_instance(inst)
        assert clean.capacity["m0"] == 10
        assert clean.workload["t0", "m0"] == 3
        assert clean.cost["t0", "m0"] == 5  # costs untouched

    def test_idempotent_on_integral_instance(self, tiny):
        assert pq.sanitize_instance(tiny) == tiny
        once = pq.sanitize_instance(
            make_instance([[1]], [[Fraction("1.5")]], [Fraction("3.9")])
        )
        assert pq.sanitize_instance(once) == once

    def test_small_capacity_floors_to_zero(self):
        clean = pq.sanitize_instance(make_instance([[1]], [[1]], [Fraction("0.9")]))
        assert clean.capacity["m0"] == 0

    @given(
        cap=st.fractions(min_value=0, max_value=100),
        work=st.fractions(min_value=0, max_value=100),
    )
    def test_only_shrinks_capacity_and_grows_workload(self, cap, work):
        inst = make_instance([[1]], [[work]], [cap])
        clean = pq.sanitize_instance(inst)
        assert clean.capacity["m0"] <= cap
        assert clean.workload["t0", "m0"] >= work
        assert pq.sanitize_instance(clean) == clean


class TestValidation:
    def test_matches_enumeration_oracle(self, tiny):
        for choice in enumerate_assignments(tiny):
            report = pq.validate_assignment(tiny, pq.Assignment(choice))
            assert report.feasible == reference_feasible(tiny, choice)
            assert not report.assignment_violations

    def test_overload_amount(self, tiny):
        report = pq.validate_assignment(tiny, pq.Assignment({"t1": "m1", "t2": "m1"}))
        assert not report.feasible
        assert report.capacity_violations == {"m1": 1}

    def test_partial_assignment_reports_missing_toolkit(self, tiny):
        report = pq.validate_assignment(tiny, pq.Assignment({"t1": "m1"}))
        assert not report.feasible
        assert report.assignment_violations == {"t2": 0}

    def test_multi_machine_candidate(self, tiny):
        report = pq.validate_candidate(tiny, {"t1": {"m1", "m2"}, "t2": {"m2"}})
        assert report.assignment_violations == {"t1": 2}

    def test_unknown_ids_rejected(self, tiny):
        with pytest.raises(ValueError):
            pq.validate_assignment(tiny, pq.Assignment({"t1": "nope"}))
        with pytest.raises(ValueError):
            pq.validate_assignment(tiny, pq.Assignment({"ghost": "m1"}))


class TestSolutionCost:
    def test_diagonal_pairing(self, tiny):
        assert pq.solution_cost(tiny, pq.Assignment({"t1": "m1", "t2": "m2"})) == 2

    def test_anti_diagonal_pairing(self, tiny):
        assert pq.solution_cost(tiny, pq.Assignment({"t1": "m2", "t2": "m1"})) == 4

    def test_zero_costs(self):
        inst = make_instance([[0, 0]], [[1, 1]], [2, 2])
        assert pq.solution_cost(inst, pq.Assignment({"t0": "m1"})) == 0

    def test_partial_rejected(self, tiny):
        with pytest.raises(ValueError):
            pq.solution_cost(tiny, pq.Assignment({"t1": "m1"}))


class TestExactSolve:
    def test_tiny_matches_enumeration(self, tiny):
        expected_cost, expected_choice = reference_optimum(tiny)
        sol = pq.exact_solve(tiny)
        assert sol.cost == expected_cost == 2
        assert sol.assignment.choice == expected_choice == {"t1": "m1", "t2": "m2"}
        assert sol.optimal

    def test_single_cell(self):
        sol = pq.exact_solve(make_instance([[5]], [[1]], [1]))
        assert sol.cost == 5

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            pq.exact_solve(make_instance([[5]], [[2]], [1]))

    def test_enumeration_guard(self):
        inst = make_instance(
            [[1] * 4] * 14, [[1] * 4] * 14, [14] * 4
        )  # 4^14 = 2^28 > guard
        with pytest.raises(TooLarge):
            pq.exact_solve(inst)

    def test_lexicographic_tie_break(self):
        # both machines identical: every assignment costs the same
        inst = make_instance([[3, 3], [3, 3]], [[1, 1], [1, 1]], [2, 2])
        sol = pq.exact_solve(inst)
        assert sol.assignment.choice == {"t0": "m0", "t1": "m0"}

    def test_result_is_feasible(self, tiny):
        sol = pq.exact_solve(tiny)
        assert pq.validate_assignment(tiny, sol.assignment).feasible

    def test_fraction_fallback_matches_int_path(self):
        # same instance once with huge denominators, once scaled to ints
        frac = make_instance(
            [[1, 2], [2, 1]],
            [[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]],
            [Fraction(2, 3), Fraction(1, 2)],
        )
        sol = pq.exact_solve(frac)
        assert sol.cost == reference_optimum(frac)[0]

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_oracle_dominates_random_feasible_assignments(self, data):
        T = data.draw(st.integers(1, 4))
        M = data.draw(st.integers(1, 3))
        cost = [[data.draw(st.integers(0, 50)) for _ in range(M)] for _ in range(T)]
        workload = [[data.draw(st.integers(0, 5)) for _ in range(M)] for _ in range(T)]
        capacity = [data.draw(st.integers(0, 12)) for _ in range(M)]
        inst = make_instance(cost, workload, capacity)
        expected = reference_optimum(inst)
        if expected is None:
            with pytest.raises(Infeasible):
                pq.exact_solve(inst)
            return
        sol = pq.exact_solve(inst)
        assert sol.cost == expected[0]
        for choice in enumerate_assignments(inst):
            if reference_feasible(inst, choice):
                assert sol.cost <= reference_cost(inst, choice)


def _index_of(inst, solution):
    """Base-M machine-index number of an assignment, toolkit 0 most significant."""
    k = 0
    for t in inst.toolkits:
        k = k * inst.n_machines + inst.machines.index(solution.assignment.choice[t])
    return k


def _generated(T, M, seed, kind):
    rng = np.random.default_rng([T, M, seed])
    cost = rng.integers(0, 30, size=(T, M))
    workload = rng.integers(0, 7, size=(T, M))
    # Tight capacities: the loads of one random assignment plus 0..2.
    chosen = rng.integers(0, M, size=T)
    capacity = np.bincount(chosen, workload[np.arange(T), chosen], M).astype(int)
    capacity += rng.integers(0, 3, size=M)
    if kind == "ties":  # every machine column costs the same
        cost[:] = cost[:, :1]
    elif kind == "infeasible":  # each toolkit overloads any machine alone
        workload = workload + 1
        capacity = np.minimum(capacity, workload.min(axis=0) - 1)
    return make_instance(cost.tolist(), workload.tolist(), capacity.tolist())


SHAPES = ([(1, T) for T in range(1, 13)] + [(2, T) for T in range(1, 13)]
          + [(3, T) for T in range(1, 9)])


class TestSplitHalfOracle:
    @pytest.mark.parametrize("M,T", SHAPES)
    @pytest.mark.parametrize("kind", ["random", "ties", "infeasible"])
    def test_int_path_matches_fraction_reference(self, M, T, kind, monkeypatch):
        inst = _generated(T, M, 0, kind)
        expected = model._exact_solve_fraction(inst, T, M, M**T)
        assert (expected is None) == (kind == "infeasible")
        arrays = model._scaled_int_arrays(inst)
        for chunk in (1 << 20, 8, 1):  # one chunk, a few rows each, one row each
            monkeypatch.setattr(model, "_ENUM_CHUNK", chunk)
            assert model._exact_solve_int(arrays, T, M) == expected
        if expected is None:
            with pytest.raises(Infeasible):
                pq.exact_solve(inst)
        else:
            assert _index_of(inst, pq.exact_solve(inst)) == expected

    @pytest.mark.parametrize("M,T", [(1, 4), (2, 1), (2, 7), (2, 10), (3, 6)])
    @pytest.mark.parametrize("kind", ["random", "ties", "infeasible"])
    @pytest.mark.parametrize("past", ["costs", "loads"])
    def test_data_past_int64_match_fraction_reference(self, M, T, kind, past, monkeypatch):
        # Costs c * 2^41 plus a share of 1 / (2^61 - 1), equal within a
        # tied row; or workloads times 2^41 plus 1/3 and capacities times
        # 2^41 plus T/3, which keeps every assignment's feasibility.
        # Either way the integers leave int64's safe range.
        inst = _generated(T, M, 1, kind)
        if past == "costs":
            inst = replace(inst, cost={k: c * 2**41 + Fraction(int(c) % 3, 2**61 - 1)
                                       for k, c in inst.cost.items()})
        else:
            inst = replace(inst, workload={k: w * 2**41 + Fraction(1, 3)
                                           for k, w in inst.workload.items()},
                           capacity={m: h * 2**41 + Fraction(T, 3)
                                     for m, h in inst.capacity.items()})
        arrays = model._scaled_int_arrays(inst)
        assert all(a.dtype == object for a in arrays[:3])
        expected = model._exact_solve_fraction(inst, T, M, M**T)
        assert (expected is None) == (kind == "infeasible")
        monkeypatch.setattr(model, "_exact_solve_fraction", None)  # the search must not need it
        for chunk in (1 << 20, 8, 1):  # one chunk, a few rows each, one row each
            monkeypatch.setattr(model, "_ENUM_CHUNK", chunk)
            assert model._exact_solve_int(arrays, T, M) == expected
        if expected is None:
            with pytest.raises(Infeasible):
                pq.exact_solve(inst)
        else:
            assert _index_of(inst, pq.exact_solve(inst)) == expected

    def test_big_ladder_costs_keep_the_optimum(self):
        # press-16x2 against the Fraction reference, and press-19x2 (too
        # slow for the reference) against its int64 optimum, within the
        # same memory bound as the int64 search.
        for name in ("press-16x2", "press-19x2"):
            inst = pq.bundled_instance(name)
            big = replace(inst, cost={k: c * 2**41 + Fraction(1, 7)
                                      for k, c in inst.cost.items()})
            assert model._scaled_int_arrays(big)[0].dtype == object
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sol = pq.exact_solve(big)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - base <= 32 * 2**20
            small = pq.exact_solve(inst)
            assert sol.assignment == small.assignment
            assert sol.cost == small.cost * 2**41 + Fraction(inst.n_toolkits, 7)
            T, M = inst.n_toolkits, inst.n_machines
            if name == "press-16x2":
                assert _index_of(big, sol) == model._exact_solve_fraction(big, T, M, M**T)

    def test_largest_ladder_search_peaks_below_one_mib(self):
        # 2^9 x 2^10 outer sums in chunks of 2^16 int64 entries (512 KiB).
        inst = pq.bundled_instance("press-19x2")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sol = pq.exact_solve(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 1 << 20
        assert _index_of(inst, sol) == 52791

    def test_tied_optima_in_different_chunks(self, monkeypatch):
        # Equal costs everywhere; unit workloads with m0 holding exactly
        # one toolkit make the optima k = 2^8 - 1 - 2^j, j = 0..7.  With
        # two upper-half rows per chunk they fall in four of eight chunks.
        T = 8
        inst = make_instance([[5, 5]] * T, [[1, 1]] * T, [1, T - 1])
        monkeypatch.setattr(model, "_ENUM_CHUNK", 32)
        n_lo = 2 ** (T - T // 2)
        rows = model._ENUM_CHUNK // n_lo
        optima = [2**T - 1 - 2**j for j in range(T)]
        assert 2 ** (T // 2) // rows >= 3
        assert len({k // n_lo // rows for k in optima}) == 4
        assert model._exact_solve_fraction(inst, T, 2, 2**T) == min(optima)
        assert _index_of(inst, pq.exact_solve(inst)) == min(optima) == 127

    @pytest.mark.parametrize("name,k", [
        ("press-03x2", 3), ("press-09x2", 11), ("press-13x2", 788),
        ("press-16x2", 29467), ("press-18x2", 70803), ("press-19x2", 52791),
        ("press-small", 1),
    ])
    def test_bundled_instances_keep_their_optimum(self, name, k):
        inst = pq.bundled_instance(name)
        assert _index_of(inst, pq.exact_solve(inst)) == k

    def test_peak_memory_of_the_largest_ladder_instance(self):
        inst = pq.bundled_instance("press-19x2")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pq.exact_solve(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 32 * 2**20


class TestGenerator:
    def test_variable_counts_match_shape_targets(self):
        inst = pq.generate_instance(3, 2, 8, 7)
        assert pq.build_qubo(pq.sanitize_instance(inst), pq.RoundedVariant()).n == 22
        inst = pq.generate_instance(9, 2, 9, 1)
        assert pq.build_qubo(pq.sanitize_instance(inst), pq.RoundedVariant()).n == 36

    def test_deterministic(self):
        assert pq.generate_instance(4, 2, 5, 11) == pq.generate_instance(4, 2, 5, 11)

    def test_capacity_bit_length(self):
        inst = pq.generate_instance(5, 3, 6, 2)
        for m in inst.machines:
            assert int(inst.capacity[m]).bit_length() == 6

    def test_feasible_and_integral(self):
        inst = pq.generate_instance(6, 2, 7, 3)
        assert inst.is_sanitized()
        sol = pq.exact_solve(inst)
        assert pq.validate_assignment(inst, sol.assignment).feasible

    def test_cost_span(self):
        inst = pq.generate_instance(5, 2, 8, 4)
        costs = sorted(inst.cost.values())
        assert costs[-1] >= 100 * costs[0]
        assert costs[0] >= 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pq.generate_instance(0, 2, 4, 1)
        with pytest.raises(ValueError):
            pq.generate_instance(2, 2, 0, 1)
        with pytest.raises(ValueError):
            pq.generate_instance(2, 2, 4, -1)


class TestBundled:
    def test_ladder_variable_counts(self):
        expected = {
            "press-03x2": 22,
            "press-09x2": 36,
            "press-13x2": 46,
            "press-16x2": 54,
            "press-18x2": 58,
            "press-19x2": 60,
            "press-small": 14,
        }
        for name, n in expected.items():
            inst = pq.bundled_instance(name)
            assert pq.build_qubo(inst, pq.RoundedVariant()).n == n
            assert inst.id == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            pq.bundled_instance("press-99x9")

    def test_registry_consistent(self):
        assert set(pq.model.BENCH_INSTANCE_NAMES) <= set(BUNDLED_SHAPES)


class TestInstanceIO:
    def test_roundtrip(self, tiny, tmp_path):
        path = tmp_path / "tiny.json"
        pq.save_instance(tiny, path)
        assert pq.load_instance(path) == tiny

    def test_decimal_literals_stay_exact(self, tmp_path):
        path = tmp_path / "frac.json"
        path.write_text(
            '{"id": "x", "toolkits": ["a"], "machines": ["b"],'
            ' "cost": [[10.7]], "workload": [[2.1]], "capacity": [0.9]}'
        )
        inst = pq.load_instance(path)
        assert inst.cost["a", "b"] == Fraction(107, 10)
        assert inst.workload["a", "b"] == Fraction(21, 10)
        assert inst.capacity["b"] == Fraction(9, 10)

    def test_roundtrip_of_decimal_costs(self, tmp_path):
        inst = make_instance([[Fraction("10.7"), Fraction("0.25")], [3, Fraction("1e-3")]],
                             [[1, 2], [2, 1]], [3, 3])
        path = tmp_path / "decimal.json"
        pq.save_instance(inst, path)
        assert model.instance_to_dict(inst)["cost"] == [[10.7, 0.25], [3, 0.001]]
        assert pq.load_instance(path) == inst

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"id": "x", "toolkits": ["a", "b"], "machines": ["c"],'
            ' "cost": [[1], [1, 2]], "workload": [[1], [1]], "capacity": [1]}'
        )
        with pytest.raises(ValueError):
            pq.load_instance(path)

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"id": "x", "toolkits": ["a"], "machines": ["c"],'
            ' "cost": [[-1]], "workload": [[1]], "capacity": [1]}'
        )
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
            pq.load_instance(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"id": "x"}')
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
            pq.load_instance(path)


class TestUnreachedDocumentChecks:
    def test_instance_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="instance document must be a JSON object"):
            model.instance_from_dict([{"id": "x"}])

    def test_toolkits_must_be_a_list(self):
        doc = {"id": "x", "toolkits": "ab", "machines": ["c"], "cost": [[1]],
               "workload": [[1]], "capacity": [1]}
        with pytest.raises(ValueError, match="toolkits and machines must be lists of ids"):
            model.instance_from_dict(doc)


def test_ladder_names_come_from_the_bundled_table():
    assert model.BENCH_INSTANCE_NAMES == ("press-03x2", "press-09x2", "press-13x2",
                                          "press-16x2", "press-18x2", "press-19x2")
    assert all(name in BUNDLED_SHAPES for name in model.BENCH_INSTANCE_NAMES)
